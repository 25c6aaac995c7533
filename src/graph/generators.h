// Random graph generators used to synthesize OSN-like topologies.
//
// The paper evaluates on SNAP datasets (Facebook, Enron, Slashdot, Twitter)
// and the US-Political-Books network; those are not redistributable, so the
// dataset stand-ins in graph/datasets.h are built from these generators with
// matched node counts and densities (DESIGN.md §2.5).
//
// All generators are deterministic given their seed and produce simple
// undirected graphs with edge probability 1.0; use assign_edge_probs() to
// attach a probabilistic belief model afterwards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace recon::graph {

/// Erdős–Rényi G(n, m): exactly m distinct uniform random edges.
Graph erdos_renyi_gnm(NodeId n, EdgeId m, std::uint64_t seed);

/// Erdős–Rényi G(n, p): each pair independently with probability p.
/// Uses geometric skipping; intended for sparse p.
Graph erdos_renyi_gnp(NodeId n, double p, std::uint64_t seed);

/// Barabási–Albert preferential attachment: starts from a clique of
/// `m_per_node + 1` nodes, then each new node attaches to `m_per_node`
/// distinct existing nodes chosen proportionally to degree.
Graph barabasi_albert(NodeId n, NodeId m_per_node, std::uint64_t seed);

/// Number of edges barabasi_albert(n, m_per_node, ·) produces (n > m_per_node).
inline std::size_t barabasi_albert_num_edges(NodeId n, NodeId m_per_node) noexcept {
  const std::size_t seed_nodes = static_cast<std::size_t>(m_per_node) + 1;
  return seed_nodes * (seed_nodes - 1) / 2 + (n - seed_nodes) * m_per_node;
}

/// The Barabási–Albert sampling loop behind barabasi_albert() and
/// stream_barabasi_albert_binary() (graph/datasets.h); the caller checks
/// 0 < m_per_node < n. Calls emit(a, b), a < b, once per edge: the seed
/// clique's edges first, then each arriving node's picks, emitted only
/// after all of that node's picks are drawn, so RNG draws that emit makes
/// interleave with the picks in a fixed order.
template <class EmitEdge>
void barabasi_albert_edges(NodeId n, NodeId m_per_node, util::Rng& rng, EmitEdge&& emit) {
  const NodeId seed_nodes = m_per_node + 1;
  // Repeated-endpoint list: a uniform entry samples proportionally to degree.
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * barabasi_albert_num_edges(n, m_per_node));
  for (NodeId u = 0; u < seed_nodes; ++u) {
    for (NodeId v = u + 1; v < seed_nodes; ++v) {
      emit(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  // stamp[v] == u: arriving node u has already picked v.
  std::vector<NodeId> stamp(n, kInvalidNode);
  std::vector<NodeId> picks;
  picks.reserve(m_per_node);
  for (NodeId u = seed_nodes; u < n; ++u) {
    picks.clear();
    while (picks.size() < m_per_node) {
      const NodeId v = endpoints[rng.below(endpoints.size())];
      if (stamp[v] != u) {
        stamp[v] = u;
        picks.push_back(v);
      }
    }
    for (const NodeId v : picks) {
      emit(v, u);  // targets predate u
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
}

/// Watts–Strogatz small world: ring lattice with `k_ring` neighbors per side
/// rewired with probability beta.
Graph watts_strogatz(NodeId n, NodeId k_ring, double beta, std::uint64_t seed);

/// Stochastic block model: `blocks` communities of (near-)equal size;
/// within-community pairs connected with p_in, across with p_out.
Graph stochastic_block_model(NodeId n, unsigned blocks, double p_in, double p_out,
                             std::uint64_t seed);

/// Forest Fire model (Leskovec et al.) — the generative model SNAP proposes
/// for networks like the paper's datasets: each new node links to a random
/// ambassador, then recursively "burns" through the ambassador's neighbors
/// with forward-burning probability p_forward, linking to every burned node.
/// Produces heavy tails, densification, and community structure.
Graph forest_fire(NodeId n, double p_forward, std::uint64_t seed);

/// Power-law configuration model: degrees drawn from a discrete power law
/// with the given exponent on [min_degree, max_degree], then stubs matched
/// uniformly (self-loops and multi-edges dropped).
Graph powerlaw_configuration(NodeId n, double exponent, NodeId min_degree,
                             NodeId max_degree, std::uint64_t seed);

/// Edge-probability belief models attachable to a generated topology.
struct EdgeProbModel {
  enum class Kind {
    kConstant,   ///< p_e = a
    kUniform,    ///< p_e ~ U[a, b]
    kBeta,       ///< p_e ~ Beta(a, b)
    kStructural, ///< p_e = clamp(a + b * jaccard(u, v)), favoring embedded edges
  };
  Kind kind = Kind::kConstant;
  double a = 1.0;
  double b = 0.0;

  static EdgeProbModel constant(double p) { return {Kind::kConstant, p, 0.0}; }
  static EdgeProbModel uniform(double lo, double hi) { return {Kind::kUniform, lo, hi}; }
  static EdgeProbModel beta(double alpha, double beta_) { return {Kind::kBeta, alpha, beta_}; }
  static EdgeProbModel structural(double base, double weight) {
    return {Kind::kStructural, base, weight};
  }
};

/// Returns g with its edge probabilities drawn from the model, in EdgeId
/// order, clamped to [0, 1]; a NaN draw throws std::invalid_argument.
/// Topology, attributes, orig ids and edge ids are kept; only the
/// probability array is replaced. Edge ids stay as given, not re-sorted by
/// (u, v); that differs from a rebuild only for a graph whose edge list is
/// not (u, v)-ordered, such as a hand-written binary file. Pass an rvalue
/// to avoid copying the CSR. The structural model counts each
/// |N(u) ∩ N(v)| exactly in O(Σ_e min(deg u, deg v)).
Graph assign_edge_probs(Graph g, const EdgeProbModel& model, std::uint64_t seed);

/// Attaches `dim` synthetic categorical attributes (e.g. location, employer)
/// to g in place; topology, edge ids, probabilities and orig ids are kept.
/// Takes g by value: move a graph in to avoid copying the CSR. Attribute
/// values are correlated with community structure: each node copies each
/// attribute from a random neighbor with probability `homophily`, otherwise
/// draws uniformly from [0, cardinality).
Graph assign_attributes(Graph g, unsigned dim, std::uint16_t cardinality,
                        double homophily, std::uint64_t seed);

/// Gamma(shape, 1) sample via Marsaglia–Tsang; used for Beta sampling.
double sample_gamma(double shape, util::Rng& rng);

/// Beta(a, b) sample.
double sample_beta(double a, double b, util::Rng& rng);

}  // namespace recon::graph
