#include "core/marginal.h"

#include <cassert>
#include <cstdint>
#include <vector>

#include "util/thread_pool.h"

namespace recon::core {

using graph::EdgeId;
using graph::NodeId;

double marginal_gain(const sim::Observation& obs, NodeId u, MarginalPolicy policy) {
  assert(!obs.is_friend(u));
  const auto& problem = obs.problem();
  const auto& g = problem.graph;
  const auto& benefit = problem.benefit;

  double inner = benefit.bf[u];
  if (policy == MarginalPolicy::kWeighted && obs.is_fof(u)) {
    inner -= benefit.bfof[u];  // upgrade replaces the FoF benefit
  }

  const auto nbrs = g.neighbors(u);
  const auto eids = g.incident_edges(u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const NodeId v = nbrs[i];
    const EdgeId e = eids[i];
    const double p = obs.edge_belief(e);
    if (p <= 0.0) continue;
    if (!obs.is_friend(v) && !obs.is_fof(v)) {
      inner += p * benefit.bfof[v];
    }
    if (obs.edge_state(e) == sim::EdgeState::kUnknown) {
      inner += (policy == MarginalPolicy::kWeighted ? p : 1.0) * benefit.bi[e];
    }
  }
  return obs.acceptance_prob(u) * inner;
}

void empty_marginal_gains(const sim::Problem& problem, MarginalPolicy policy,
                          std::span<const NodeId> nodes, std::span<double> out) {
  const auto& g = problem.graph;
  const double* bf = problem.benefit.bf.data();
  const double* bfof = problem.benefit.bfof.data();
  const double* bi = problem.benefit.bi.data();
  const double* edge_prob = g.edge_probs().data();
  const bool weighted = policy == MarginalPolicy::kWeighted;
  for (const NodeId u : nodes) {
    double inner = bf[u];  // u is no FoF yet: no upgrade term
    const auto nbrs = g.neighbors(u);
    const auto eids = g.incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const EdgeId e = eids[i];
      const double p = edge_prob[e];  // every edge is unknown
      if (p <= 0.0) continue;
      inner += p * bfof[nbrs[i]];  // no friend or FoF yet
      inner += (weighted ? p : 1.0) * bi[e];
    }
    out[u] = problem.acceptance.probability(g, u, 0) * inner;
  }
}

namespace {

/// Number of edges (u, v) with u < h: the prefix of the (u, v)-sorted edge
/// list that holds every edge with an endpoint below h.
EdgeId edges_below(const graph::Graph& g, NodeId h) {
  EdgeId lo = 0;
  EdgeId hi = g.num_edges();
  while (lo < hi) {
    const EdgeId mid = lo + (hi - lo) / 2;
    if (g.edge_u(mid) < h) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Γ₀ of the nodes in [lo, hi) into out[lo, hi). Edges below edges_below(lo)
/// can touch the range only as (a, b) with b owned; the rest, up to
/// edges_below(hi), start in it. Both walks ascend, so every owned node
/// gets its terms in CSR row order.
void score_owned_range(const sim::Problem& problem, bool weighted, NodeId lo, NodeId hi,
                       double* out) {
  if (lo == hi) return;
  const auto& g = problem.graph;
  const double* bf = problem.benefit.bf.data();
  const double* bfof = problem.benefit.bfof.data();
  const double* bi = problem.benefit.bi.data();
  const double* edge_prob = g.edge_probs().data();
  for (NodeId u = lo; u < hi; ++u) out[u] = bf[u];  // no FoF yet: no upgrade term
  const EdgeId first_owned = edges_below(g, lo);
  const EdgeId end = edges_below(g, hi);
  for (EdgeId e = 0; e < first_owned; ++e) {
    const NodeId b = g.edge_v(e);
    if (b - lo >= hi - lo) continue;  // b outside [lo, hi)
    const double p = edge_prob[e];  // every edge is unknown
    if (p <= 0.0) continue;
    out[b] += p * bfof[g.edge_u(e)];  // no friend or FoF yet
    out[b] += (weighted ? p : 1.0) * bi[e];
  }
  for (EdgeId e = first_owned; e < end; ++e) {
    const double p = edge_prob[e];
    if (p <= 0.0) continue;
    const NodeId a = g.edge_u(e);
    const NodeId b = g.edge_v(e);
    const double edge_term = (weighted ? p : 1.0) * bi[e];
    out[a] += p * bfof[b];
    out[a] += edge_term;
    if (b < hi) {
      out[b] += p * bfof[a];
      out[b] += edge_term;
    }
  }
  for (NodeId u = lo; u < hi; ++u) {
    out[u] = problem.acceptance.probability(g, u, 0) * out[u];
  }
}

/// A participant's work on [lo, hi): the scanned prefix at half weight (a
/// sequential read of an edge it may not own) plus the owned degree (a
/// random bfof load per arc).
std::uint64_t range_cost(const graph::Graph& g, NodeId lo, NodeId hi) {
  if (lo == hi) return 0;
  return edges_below(g, hi) + 2 * (g.arc_offset(hi) - g.arc_offset(lo));
}

/// The end of the longest range from `lo` that costs at most `budget`
/// (`lo` itself when not even one node fits).
NodeId reach(const graph::Graph& g, NodeId lo, std::uint64_t budget) {
  NodeId fits = lo;
  NodeId over = g.num_nodes() + 1;  // cost(lo, over) > budget, as a sentinel
  while (over - fits > 1) {
    const NodeId mid = fits + (over - fits) / 2;
    if (range_cost(g, lo, mid) <= budget) {
      fits = mid;
    } else {
      over = mid;
    }
  }
  return fits;
}

/// Cuts [0, n) into `parts` contiguous ranges (some possibly empty) that
/// minimise the largest range_cost: bisection on that cost, each candidate
/// checked by cutting greedily from node 0. Returns the parts + 1 cuts.
std::vector<NodeId> owner_ranges(const graph::Graph& g, std::size_t parts) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> cuts(parts + 1, n);
  cuts[0] = 0;
  auto cut = [&](std::uint64_t budget) {
    for (std::size_t i = 1; i < parts; ++i) cuts[i] = reach(g, cuts[i - 1], budget);
    return range_cost(g, cuts[parts - 1], n) <= budget;
  };
  // A graph with an edge costs something in every cut, so 0 is infeasible.
  std::uint64_t infeasible = 0;
  std::uint64_t feasible = range_cost(g, 0, n);
  if (feasible == 0) return cuts;
  while (feasible - infeasible > 1) {
    const std::uint64_t mid = infeasible + (feasible - infeasible) / 2;
    if (cut(mid)) {
      feasible = mid;
    } else {
      infeasible = mid;
    }
  }
  cut(feasible);
  return cuts;
}

}  // namespace

void empty_marginal_gains_all(const sim::Problem& problem, MarginalPolicy policy,
                              std::span<double> out, util::ThreadPool* pool) {
  const NodeId n = problem.graph.num_nodes();
  assert(out.size() == n);
  if (n == 0) return;
  const bool weighted = policy == MarginalPolicy::kWeighted;
  if (pool == nullptr) {
    score_owned_range(problem, weighted, 0, n, out.data());
    return;
  }
  // One range per participant: parallel_for's default chunking would hand
  // each participant several ranges, and every range re-reads its prefix.
  const std::vector<NodeId> cuts = owner_ranges(problem.graph, pool->size() + 1);
  pool->parallel_for(
      0, cuts.size() - 1,
      [&](std::size_t i) {
        score_owned_range(problem, weighted, cuts[i], cuts[i + 1], out.data());
      },
      /*grain=*/1);
}

}  // namespace recon::core
