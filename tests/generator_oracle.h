// Reference implementations of graph construction, kept as test oracles for
// the production code in graph/builder.cc and graph/generators.cc.
//
// build() here is the plain transcription of the builder: an index
// comparison sort of every pending edge by (u, v), a max-probability merge
// of duplicates, and a CSR fill followed by a per-row sortedness repair.
// barabasi_albert() dedups each arrival's picks in a std::unordered_set, and
// assign_edge_probs() computes each Jaccard by merging both sorted neighbour
// lists and then rebuilds the whole graph. The optimized code must agree
// with them bit for bit: same edges, edge ids, CSR rows and probability bit
// patterns.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace recon::oracle {

using graph::EdgeId;
using graph::NodeId;

/// A CSR graph in plain vectors, laid out like graph::Graph.
struct CsrGraph {
  NodeId num_nodes = 0;
  std::vector<std::uint64_t> offsets;
  std::vector<NodeId> adjacency;
  std::vector<EdgeId> edge_ids;
  std::vector<NodeId> edge_u, edge_v;
  std::vector<double> edge_prob;
  std::vector<std::uint16_t> attributes;
  unsigned attribute_dim = 0;

  std::span<const NodeId> neighbors(NodeId u) const {
    return {adjacency.data() + offsets[u], adjacency.data() + offsets[u + 1]};
  }
};

/// The builder's pending edge list: canonical (u < v) endpoints in
/// insertion order, validated as GraphBuilder::add_edge validates.
struct PendingEdges {
  NodeId num_nodes = 0;
  std::vector<NodeId> us, vs;
  std::vector<double> ps;
  std::vector<std::uint16_t> attributes;
  unsigned attribute_dim = 0;

  void add_edge(NodeId u, NodeId v, double p = 1.0) {
    if (u == v) throw std::invalid_argument("oracle: self-loop");
    if (u >= num_nodes || v >= num_nodes) {
      throw std::invalid_argument("oracle: node id out of range");
    }
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument("oracle: probability outside [0,1]");
    }
    if (u > v) std::swap(u, v);
    us.push_back(u);
    vs.push_back(v);
    ps.push_back(p);
  }
};

inline CsrGraph build(const PendingEdges& pending) {
  const auto& us = pending.us;
  const auto& vs = pending.vs;
  std::vector<std::size_t> order(us.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (us[a] != us[b]) return us[a] < us[b];
    return vs[a] < vs[b];
  });
  CsrGraph g;
  g.num_nodes = pending.num_nodes;
  for (std::size_t i : order) {
    if (!g.edge_u.empty() && g.edge_u.back() == us[i] && g.edge_v.back() == vs[i]) {
      g.edge_prob.back() = std::max(g.edge_prob.back(), pending.ps[i]);
      continue;
    }
    g.edge_u.push_back(us[i]);
    g.edge_v.push_back(vs[i]);
    g.edge_prob.push_back(pending.ps[i]);
  }
  const std::size_t m = g.edge_u.size();
  g.offsets.assign(static_cast<std::size_t>(g.num_nodes) + 1, 0);
  for (std::size_t e = 0; e < m; ++e) {
    ++g.offsets[g.edge_u[e] + 1];
    ++g.offsets[g.edge_v[e] + 1];
  }
  for (std::size_t i = 1; i < g.offsets.size(); ++i) g.offsets[i] += g.offsets[i - 1];
  g.adjacency.resize(2 * m);
  g.edge_ids.resize(2 * m);
  std::vector<std::uint64_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (std::size_t e = 0; e < m; ++e) {
    for (const auto& [a, b] : {std::pair{g.edge_u[e], g.edge_v[e]},
                               std::pair{g.edge_v[e], g.edge_u[e]}}) {
      g.adjacency[cursor[a]] = b;
      g.edge_ids[cursor[a]] = static_cast<EdgeId>(e);
      ++cursor[a];
    }
  }
  for (NodeId u = 0; u < g.num_nodes; ++u) {
    std::vector<std::pair<NodeId, EdgeId>> row;
    for (std::size_t i = g.offsets[u]; i < g.offsets[u + 1]; ++i) {
      row.emplace_back(g.adjacency[i], g.edge_ids[i]);
    }
    std::sort(row.begin(), row.end());
    for (std::size_t i = 0; i < row.size(); ++i) {
      g.adjacency[g.offsets[u] + i] = row[i].first;
      g.edge_ids[g.offsets[u] + i] = row[i].second;
    }
  }
  g.attributes = pending.attributes;
  g.attribute_dim = pending.attribute_dim;
  return g;
}

inline CsrGraph barabasi_albert(NodeId n, NodeId m_per_node, std::uint64_t seed) {
  util::Rng rng(seed);
  PendingEdges pending{n, {}, {}, {}, {}, 0};
  std::vector<NodeId> endpoints;
  const NodeId seed_nodes = m_per_node + 1;
  for (NodeId u = 0; u < seed_nodes; ++u) {
    for (NodeId v = u + 1; v < seed_nodes; ++v) {
      pending.add_edge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  std::vector<NodeId> picks;
  for (NodeId u = seed_nodes; u < n; ++u) {
    picks.clear();
    std::unordered_set<NodeId> chosen;
    while (picks.size() < m_per_node) {
      const NodeId v = endpoints[rng.below(endpoints.size())];
      if (chosen.insert(v).second) picks.push_back(v);
    }
    for (NodeId v : picks) {
      pending.add_edge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  return build(pending);
}

/// Copies a production graph through its public accessors.
inline CsrGraph from_graph(const graph::Graph& g) {
  CsrGraph out;
  out.num_nodes = g.num_nodes();
  out.offsets.push_back(0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto eids = g.incident_edges(u);
    out.adjacency.insert(out.adjacency.end(), nbrs.begin(), nbrs.end());
    out.edge_ids.insert(out.edge_ids.end(), eids.begin(), eids.end());
    out.offsets.push_back(out.adjacency.size());
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    out.edge_u.push_back(g.edge_u(e));
    out.edge_v.push_back(g.edge_v(e));
    out.edge_prob.push_back(g.edge_prob(e));
  }
  out.attributes.assign(g.attributes().begin(), g.attributes().end());
  out.attribute_dim = g.attribute_dim();
  return out;
}

inline double jaccard_similarity(const CsrGraph& g, NodeId u, NodeId v) {
  const auto nu = g.neighbors(u);
  const auto nv = g.neighbors(v);
  std::size_t inter = 0;
  std::size_t i = 0, j = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] == nv[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (nu[i] < nv[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const std::size_t uni = nu.size() + nv.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

inline CsrGraph assign_edge_probs(const CsrGraph& g, const graph::EdgeProbModel& model,
                                  std::uint64_t seed) {
  using Kind = graph::EdgeProbModel::Kind;
  util::Rng rng(seed);
  PendingEdges pending{g.num_nodes, {}, {}, {}, g.attributes, g.attribute_dim};
  for (std::size_t e = 0; e < g.edge_u.size(); ++e) {
    const NodeId u = g.edge_u[e];
    const NodeId v = g.edge_v[e];
    double p = 1.0;
    switch (model.kind) {
      case Kind::kConstant:
        p = model.a;
        break;
      case Kind::kUniform:
        p = rng.uniform(model.a, model.b);
        break;
      case Kind::kBeta:
        p = graph::sample_beta(model.a, model.b, rng);
        break;
      case Kind::kStructural:
        p = model.a + model.b * jaccard_similarity(g, u, v);
        break;
    }
    pending.add_edge(u, v, std::clamp(p, 0.0, 1.0));
  }
  return build(pending);
}

/// Empty when g matches `want` bit for bit (probabilities compared as bit
/// patterns), else a description of the first difference.
inline std::string first_difference(const graph::Graph& g, const CsrGraph& want) {
  if (g.num_nodes() != want.num_nodes) return "num_nodes";
  if (g.num_edges() != want.edge_u.size()) {
    return "num_edges " + std::to_string(g.num_edges()) + " vs " +
           std::to_string(want.edge_u.size());
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto eids = g.incident_edges(u);
    const auto lo = static_cast<std::ptrdiff_t>(want.offsets[u]);
    const auto hi = static_cast<std::ptrdiff_t>(want.offsets[u + 1]);
    if (static_cast<std::ptrdiff_t>(nbrs.size()) != hi - lo ||
        !std::equal(nbrs.begin(), nbrs.end(), want.adjacency.begin() + lo) ||
        !std::equal(eids.begin(), eids.end(), want.edge_ids.begin() + lo)) {
      return "CSR row of node " + std::to_string(u);
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.edge_u(e) != want.edge_u[e] || g.edge_v(e) != want.edge_v[e]) {
      return "endpoints of edge " + std::to_string(e);
    }
    if (std::bit_cast<std::uint64_t>(g.edge_prob(e)) !=
        std::bit_cast<std::uint64_t>(want.edge_prob[e])) {
      return "probability bits of edge " + std::to_string(e);
    }
  }
  if (g.attribute_dim() != want.attribute_dim ||
      !std::equal(g.attributes().begin(), g.attributes().end(),
                  want.attributes.begin(), want.attributes.end())) {
    return "attributes";
  }
  return {};
}

}  // namespace recon::oracle
