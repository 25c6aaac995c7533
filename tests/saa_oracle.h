// Reference implementations of the SAA scenario kernels, kept as test
// oracles for the production code in solver/saa.cc.
//
// scenario_benefit here tracks counted edges, counted friends-of-friends and
// accepted members in std::unordered_sets; the samplers look up q(u | ω) and
// each edge's state inside the per-scenario loops. Both are the plain
// transcription of the definitions, so the optimized kernels must agree with
// them bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "sim/observation.h"
#include "solver/saa.h"
#include "util/rng.h"

namespace recon::oracle {

inline std::vector<solver::Scenario> sample_scenarios(const sim::Observation& obs,
                                                      std::size_t count,
                                                      std::uint64_t seed) {
  const auto& g = obs.problem().graph;
  std::vector<solver::Scenario> out(count);
  for (std::size_t s = 0; s < count; ++s) {
    util::Rng rng(util::derive_seed(seed, s));
    auto& sc = out[s];
    sc.accept.resize(g.num_nodes());
    sc.edge_exists.resize(g.num_edges());
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      sc.accept[u] = !obs.is_friend(u) && rng.bernoulli(obs.acceptance_prob(u)) ? 1 : 0;
    }
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      switch (obs.edge_state(e)) {
        case sim::EdgeState::kPresent:
          sc.edge_exists[e] = 1;
          break;
        case sim::EdgeState::kAbsent:
          sc.edge_exists[e] = 0;
          break;
        case sim::EdgeState::kUnknown:
          sc.edge_exists[e] = rng.bernoulli(g.edge_prob(e)) ? 1 : 0;
          break;
      }
    }
  }
  return out;
}

inline std::vector<solver::Scenario> sample_scenarios_antithetic(
    const sim::Observation& obs, std::size_t count, std::uint64_t seed) {
  const auto& g = obs.problem().graph;
  if (count % 2 == 1) ++count;
  std::vector<solver::Scenario> out(count);
  for (std::size_t pair = 0; pair < count / 2; ++pair) {
    util::Rng rng(util::derive_seed(seed, pair));
    auto& a = out[2 * pair];
    auto& b = out[2 * pair + 1];
    a.accept.resize(g.num_nodes());
    b.accept.resize(g.num_nodes());
    a.edge_exists.resize(g.num_edges());
    b.edge_exists.resize(g.num_edges());
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      if (obs.is_friend(u)) {
        a.accept[u] = b.accept[u] = 0;
        continue;
      }
      const double q = obs.acceptance_prob(u);
      const double r = rng.uniform();
      a.accept[u] = r < q ? 1 : 0;
      b.accept[u] = (1.0 - r) < q ? 1 : 0;
    }
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      switch (obs.edge_state(e)) {
        case sim::EdgeState::kPresent:
          a.edge_exists[e] = b.edge_exists[e] = 1;
          break;
        case sim::EdgeState::kAbsent:
          a.edge_exists[e] = b.edge_exists[e] = 0;
          break;
        case sim::EdgeState::kUnknown: {
          const double p = g.edge_prob(e);
          const double r = rng.uniform();
          a.edge_exists[e] = r < p ? 1 : 0;
          b.edge_exists[e] = (1.0 - r) < p ? 1 : 0;
          break;
        }
      }
    }
  }
  return out;
}

inline double scenario_benefit(const sim::Observation& obs,
                               const solver::Scenario& scenario,
                               const std::vector<graph::NodeId>& batch) {
  const auto& problem = obs.problem();
  const auto& g = problem.graph;
  const auto& benefit = problem.benefit;

  double total = 0.0;
  std::unordered_set<graph::EdgeId> counted_edges;
  std::unordered_set<graph::NodeId> counted_fofs;
  std::unordered_set<graph::NodeId> accepted;
  std::vector<graph::NodeId> accepted_order;
  for (graph::NodeId u : batch) {
    if (obs.is_friend(u)) {
      throw std::invalid_argument("scenario_benefit: batch contains a friend");
    }
    if (scenario.accept[u] && accepted.insert(u).second) {
      accepted_order.push_back(u);
    }
  }
  std::sort(accepted_order.begin(), accepted_order.end());

  for (graph::NodeId u : accepted_order) {
    total += benefit.bf[u];
    if (obs.is_fof(u)) total -= benefit.bfof[u];
    const auto nbrs = g.neighbors(u);
    const auto eids = g.incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const graph::NodeId v = nbrs[i];
      const graph::EdgeId e = eids[i];
      if (!scenario.edge_exists[e]) continue;
      if (obs.edge_state(e) == sim::EdgeState::kUnknown &&
          counted_edges.insert(e).second) {
        total += benefit.bi[e];
      }
      if (!obs.is_friend(v) && !obs.is_fof(v) && !accepted.count(v) &&
          counted_fofs.insert(v).second) {
        total += benefit.bfof[v];
      }
    }
  }
  return total;
}

}  // namespace recon::oracle
