#include "core/marginal.h"

#include <cassert>

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

}  // namespace recon::core
