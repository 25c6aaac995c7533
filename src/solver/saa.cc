#include "solver/saa.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace recon::solver {

using graph::EdgeId;
using graph::NodeId;

namespace {

/// What the samplers draw, looked up once per call instead of once per
/// scenario: the open (non-friend) nodes with their q(u | ω), the unobserved
/// edges with their beliefs p_e, and a template scenario that already holds
/// every fixed outcome (friends never accept, revealed edges keep their
/// state, open slots are 0). Open nodes and edges stay in ascending id
/// order, so the RNG is consumed exactly as a per-node / per-edge walk would.
struct SamplePlan {
  std::vector<NodeId> nodes;
  std::vector<double> q;
  std::vector<EdgeId> edges;
  std::vector<double> p;
  Scenario fixed;
};

SamplePlan make_sample_plan(const sim::Observation& obs) {
  const auto& g = obs.problem().graph;
  SamplePlan plan;
  plan.fixed.accept.assign(g.num_nodes(), 0);
  plan.fixed.edge_exists.assign(g.num_edges(), 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (obs.is_friend(u)) continue;
    plan.nodes.push_back(u);
    plan.q.push_back(obs.acceptance_prob(u));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    switch (obs.edge_state(e)) {
      case sim::EdgeState::kPresent:
        plan.fixed.edge_exists[e] = 1;
        break;
      case sim::EdgeState::kAbsent:
        break;
      case sim::EdgeState::kUnknown:
        plan.edges.push_back(e);
        plan.p.push_back(g.edge_prob(e));
        break;
    }
  }
  return plan;
}

/// Per-thread scratch of scenario_benefit. Epoch stamps replace hash sets:
/// node_stamp[v] == epoch marks v as an accepted batch member or an
/// already-credited FoF (the two are disjoint, and each bars v from further
/// FoF credit); edge_stamp[e] == epoch marks e as credited. The arrays grow
/// to the largest graph seen and are zeroed only when the epoch wraps.
/// Only the leaf kernel below touches it, and that kernel never waits on a
/// pool, so a thread cannot re-enter it while an evaluation is in flight.
struct BenefitScratch {
  std::vector<std::uint32_t> node_stamp;
  std::vector<std::uint32_t> edge_stamp;
  std::vector<NodeId> accepted;
  std::uint32_t epoch = 0;

  /// Opens a fresh evaluation over a graph with n nodes and m edges.
  void begin(std::size_t n, std::size_t m) {
    if (node_stamp.size() < n) node_stamp.resize(n, 0);
    if (edge_stamp.size() < m) edge_stamp.resize(m, 0);
    if (++epoch == 0) {
      std::fill(node_stamp.begin(), node_stamp.end(), 0);
      std::fill(edge_stamp.begin(), edge_stamp.end(), 0);
      epoch = 1;
    }
    accepted.clear();
  }
};

BenefitScratch& benefit_scratch() {
  thread_local BenefitScratch scratch;
  return scratch;
}

double scenario_benefit_with(BenefitScratch& scratch, const sim::Observation& obs,
                             const Scenario& scenario, const std::vector<NodeId>& batch) {
  const auto& problem = obs.problem();
  const auto& g = problem.graph;
  const auto& benefit = problem.benefit;
  scratch.begin(g.num_nodes(), g.num_edges());
  const std::uint32_t epoch = scratch.epoch;
  std::uint32_t* node_stamp = scratch.node_stamp.data();
  std::uint32_t* edge_stamp = scratch.edge_stamp.data();
  const auto edge_state = obs.edge_states();
  const auto is_friend = obs.friend_mask();
  const auto is_fof = obs.fof_mask();

  for (NodeId u : batch) {
    if (is_friend[u]) {
      throw std::invalid_argument("scenario_benefit: batch contains a friend");
    }
    if (scenario.accept[u] && node_stamp[u] != epoch) {
      node_stamp[u] = epoch;
      scratch.accepted.push_back(u);
    }
  }
  // Accumulate in ascending node order, whatever the batch order: the float
  // sum below is order-sensitive in the last ulp.
  std::sort(scratch.accepted.begin(), scratch.accepted.end());

  double total = 0.0;
  for (NodeId u : scratch.accepted) {
    total += benefit.bf[u];
    if (is_fof[u]) total -= benefit.bfof[u];  // upgrade
    const auto nbrs = g.neighbors(u);
    const auto eids = g.incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i];
      const EdgeId e = eids[i];
      if (!scenario.edge_exists[e]) continue;
      // Edge benefit: only for edges not already revealed-present, once.
      if (edge_state[e] == sim::EdgeState::kUnknown && edge_stamp[e] != epoch) {
        edge_stamp[e] = epoch;
        total += benefit.bi[e];
      }
      // FoF benefit: v newly adjacent to a friend, once. Accepted batch
      // members become friends instead (their stamp is already set); a
      // rejected batch member stays eligible.
      if (!is_friend[v] && !is_fof[v] && node_stamp[v] != epoch) {
        node_stamp[v] = epoch;
        total += benefit.bfof[v];
      }
    }
  }
  return total;
}

/// Canonical order-insensitive reduction: sum in ascending value order.
/// Every evaluation of the same scenario set produces the same multiset of
/// unit benefits (each unit is computed independently, bit-identically), so
/// sorting before summing makes the total exactly invariant to how the
/// units were produced — thread count, chunk-to-worker assignment, or a
/// permutation of the scenario order. Ascending order is also the
/// numerically kind one (small magnitudes first).
double sorted_sum(std::vector<double>& units) {
  std::sort(units.begin(), units.end());
  double total = 0.0;
  for (const double v : units) total += v;
  return total;
}

}  // namespace

namespace detail {

void set_benefit_epoch(std::uint32_t epoch) { benefit_scratch().epoch = epoch; }

}  // namespace detail

std::vector<Scenario> sample_scenarios(const sim::Observation& obs, std::size_t count,
                                       std::uint64_t seed) {
  const SamplePlan plan = make_sample_plan(obs);
  std::vector<Scenario> out(count);
  for (std::size_t s = 0; s < count; ++s) {
    util::Rng rng(util::derive_seed(seed, s));
    auto& sc = out[s];
    sc = plan.fixed;
    for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
      sc.accept[plan.nodes[i]] = rng.bernoulli(plan.q[i]) ? 1 : 0;
    }
    for (std::size_t i = 0; i < plan.edges.size(); ++i) {
      sc.edge_exists[plan.edges[i]] = rng.bernoulli(plan.p[i]) ? 1 : 0;
    }
  }
  return out;
}

std::vector<Scenario> sample_scenarios_antithetic(const sim::Observation& obs,
                                                  std::size_t count,
                                                  std::uint64_t seed) {
  const SamplePlan plan = make_sample_plan(obs);
  if (count % 2 == 1) ++count;
  std::vector<Scenario> out(count);
  for (std::size_t pair = 0; pair < count / 2; ++pair) {
    util::Rng rng(util::derive_seed(seed, pair));
    auto& a = out[2 * pair];
    auto& b = out[2 * pair + 1];
    a = plan.fixed;
    b = plan.fixed;
    for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
      const NodeId u = plan.nodes[i];
      const double q = plan.q[i];
      const double r = rng.uniform();
      a.accept[u] = r < q ? 1 : 0;
      b.accept[u] = (1.0 - r) < q ? 1 : 0;
    }
    for (std::size_t i = 0; i < plan.edges.size(); ++i) {
      const EdgeId e = plan.edges[i];
      const double p = plan.p[i];
      const double r = rng.uniform();
      a.edge_exists[e] = r < p ? 1 : 0;
      b.edge_exists[e] = (1.0 - r) < p ? 1 : 0;
    }
  }
  return out;
}

double scenario_benefit(const sim::Observation& obs, const Scenario& scenario,
                        const std::vector<NodeId>& batch) {
  return scenario_benefit_with(benefit_scratch(), obs, scenario, batch);
}

std::vector<double> scenario_benefits(const sim::Observation& obs,
                                      const std::vector<Scenario>& scenarios,
                                      const std::vector<NodeId>& batch,
                                      util::ThreadPool* pool) {
  std::vector<double> out(scenarios.size());
  auto eval = [&](std::size_t lo, std::size_t hi) {
    BenefitScratch& scratch = benefit_scratch();
    for (std::size_t s = lo; s < hi; ++s) {
      out[s] = scenario_benefit_with(scratch, obs, scenarios[s], batch);
    }
  };
  if (pool != nullptr && scenarios.size() > 1) {
    pool->parallel_for(0, scenarios.size(), eval);
  } else {
    eval(0, scenarios.size());
  }
  return out;
}

double saa_objective(const sim::Observation& obs, const std::vector<Scenario>& scenarios,
                     const std::vector<NodeId>& batch) {
  return saa_objective(obs, scenarios, batch, SaaEvalOptions{});
}

double saa_objective(const sim::Observation& obs, const std::vector<Scenario>& scenarios,
                     const std::vector<NodeId>& batch, const SaaEvalOptions& options) {
  if (scenarios.empty()) throw std::invalid_argument("saa_objective: no scenarios");
  if (options.antithetic_pairs && scenarios.size() % 2 != 0) {
    // Guard for the antithetic-pair chunking hazard: an odd count means the
    // trailing scenario has no (U, 1-U) complement, so "pairs as units"
    // would silently mis-pair every unit after a split. Refuse loudly.
    throw std::invalid_argument(
        "saa_objective: antithetic evaluation needs an even scenario count "
        "(a (U,1-U) pair must never be split)");
  }
  // The reduction unit is one scenario, or one whole antithetic pair: the
  // pair's two members are evaluated back-to-back inside the same chunk
  // body, so no chunk boundary — whatever the grain — can separate them.
  const std::size_t stride = options.antithetic_pairs ? 2 : 1;
  const std::size_t num_units = scenarios.size() / stride;
  auto unit_value = [&](BenefitScratch& scratch, std::size_t i) {
    double v = scenario_benefit_with(scratch, obs, scenarios[i * stride], batch);
    if (stride == 2) {
      v += scenario_benefit_with(scratch, obs, scenarios[i * stride + 1], batch);
    }
    return v;
  };

  std::vector<double> units;
  if (options.pool != nullptr && num_units > 1) {
    // parallel_reduce hands chunks to participants dynamically, so which
    // partial absorbed which unit is nondeterministic; each partial
    // therefore collects raw unit values, and the merge (concatenate, then
    // sorted_sum) is insensitive to that assignment.
    auto partials = options.pool->parallel_reduce<std::vector<double>>(
        0, num_units, {}, [&](std::vector<double>& acc, std::size_t lo, std::size_t hi) {
          BenefitScratch& scratch = benefit_scratch();
          for (std::size_t i = lo; i < hi; ++i) acc.push_back(unit_value(scratch, i));
        });
    units.reserve(num_units);
    for (auto& part : partials) {
      units.insert(units.end(), part.begin(), part.end());
    }
  } else {
    BenefitScratch& scratch = benefit_scratch();
    units.reserve(num_units);
    for (std::size_t i = 0; i < num_units; ++i) units.push_back(unit_value(scratch, i));
  }
  return sorted_sum(units) / static_cast<double>(scenarios.size());
}

double kleywegt_sample_bound(std::size_t n, std::size_t k, double epsilon, double alpha,
                             double delta_max) {
  if (epsilon <= 0.0 || alpha <= 0.0 || alpha >= 1.0) {
    throw std::invalid_argument("kleywegt_sample_bound: bad epsilon/alpha");
  }
  const double d2 = delta_max * delta_max;
  return d2 / (epsilon * epsilon) *
         (static_cast<double>(k) * std::log(static_cast<double>(n)) - std::log(alpha));
}

}  // namespace recon::solver
