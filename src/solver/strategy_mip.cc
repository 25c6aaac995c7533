#include "solver/strategy_mip.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "solver/benders.h"
#include "util/rng.h"
#include "util/timer.h"

namespace recon::solver {

using core::PlanDecision;
using core::PlanFeatures;
using core::PlannerMode;
using core::PlanStrategy;
using graph::NodeId;

namespace {

/// This host only runs the SAA tiers: no greedy floor, no branch tree.
core::PlannerOptions host_planner_options(const MipStrategyOptions& o) {
  core::PlannerOptions po = o.planner;
  if (o.use_benders) po.mode = PlannerMode::kOff;  // Benders is unplanned
  po.admissible[static_cast<int>(PlanStrategy::kCollapsedCached)] = false;
  po.admissible[static_cast<int>(PlanStrategy::kCollapsedUncached)] = false;
  po.admissible[static_cast<int>(PlanStrategy::kBranchTree)] = false;
  return po;
}

}  // namespace

MipBatchStrategy::MipBatchStrategy(MipStrategyOptions options)
    : options_(options), planner_(host_planner_options(options)) {
  if (options_.batch_size <= 0) {
    throw std::invalid_argument("MipBatchStrategy: batch_size must be positive");
  }
  if (options_.scenarios_per_batch == 0) {
    throw std::invalid_argument("MipBatchStrategy: need at least one scenario");
  }
  if (planner_.options().mode == PlannerMode::kFixed &&
      !planner_.options()
           .admissible[static_cast<int>(planner_.options().fixed_strategy)]) {
    throw std::invalid_argument(
        "MipBatchStrategy: fixed planner strategy must be exact or saa");
  }
}

std::string MipBatchStrategy::name() const {
  if (options_.greedy_only) return "SAA-Greedy";
  return options_.use_benders ? "Exact-LShaped" : "Exact-MIP";
}

void MipBatchStrategy::begin(const sim::Problem& problem, double budget) {
  (void)problem;
  (void)budget;
  round_ = 0;
  all_exact_ = true;
  planner_.reset();
}

std::string MipBatchStrategy::save_state() const {
  std::ostringstream ss;
  ss << "mip " << round_ << ' ' << (all_exact_ ? 1 : 0);
  if (planner_.enabled()) ss << ' ' << planner_.save_state();
  return ss.str();
}

void MipBatchStrategy::restore_state(const std::string& blob) {
  std::istringstream ss(blob);
  std::string tag;
  int round = 0, exact = 0;
  if (!(ss >> tag >> round >> exact) || tag != "mip" || round < 0) {
    throw std::invalid_argument("MipBatchStrategy::restore_state: bad state blob");
  }
  if (planner_.enabled()) {
    std::string rest;
    std::getline(ss, rest);
    const std::size_t start = rest.find_first_not_of(' ');
    if (start == std::string::npos) {
      throw std::invalid_argument(
          "MipBatchStrategy::restore_state: planner enabled but state blob "
          "carries no planner line");
    }
    planner_.restore_state(rest.substr(start));
  }
  round_ = round;
  all_exact_ = exact != 0;
}

std::vector<NodeId> MipBatchStrategy::next_batch(const sim::Observation& obs,
                                                 double remaining_budget) {
  ++round_;
  const auto k = static_cast<std::size_t>(
      std::min<double>(options_.batch_size, remaining_budget));
  if (k == 0) return {};
  std::vector<NodeId> candidates = fob_candidates(obs, options_.allow_retries);
  if (candidates.empty()) return {};
  const std::size_t batch_k = std::min(k, candidates.size());

  // Fresh scenarios consistent with the *current* partial realization
  // ("sampling must be repeated before each batch", paper Sec. V-A);
  // antithetic pairs halve the estimator variance at equal sample count.
  const auto scenarios = sample_scenarios_antithetic(
      obs, options_.scenarios_per_batch,
      util::derive_seed(options_.seed, static_cast<std::uint64_t>(round_)));

  // The planner, when enabled, gates exact-vs-greedy per batch; the legacy
  // greedy_only flag keeps pinning the tier when the planner is off.
  bool run_greedy = options_.greedy_only;
  PlanDecision decision;
  PlanFeatures features;
  if (planner_.enabled() && !options_.use_benders) {
    const auto& g = obs.problem().graph;
    features.batch_size = static_cast<int>(batch_k);
    features.frontier_size = candidates.size();
    for (const NodeId u : candidates) {
      const auto deg = static_cast<double>(g.degree(u));
      features.mean_degree += deg;
      features.max_degree = std::max(features.max_degree, deg);
    }
    features.mean_degree /= static_cast<double>(candidates.size());
    features.scenario_count = options_.scenarios_per_batch;
    features.remaining_budget = remaining_budget;
    decision = planner_.plan(features);
    run_greedy = decision.strategy == PlanStrategy::kSaaGreedy;
  }

  const util::WallTimer timer;
  FobResult fob;
  if (planner_.enabled() ? run_greedy : options_.greedy_only) {
    fob = fob_greedy(obs, scenarios, batch_k, candidates,
                     /*deadline_seconds=*/0.0, options_.pool,
                     /*antithetic=*/true);
  } else if (options_.use_benders) {
    // Cap the candidate pool the same way fob_exact does.
    std::vector<NodeId> pool = candidates;
    if (options_.candidate_cap != 0 && pool.size() > options_.candidate_cap) {
      pool = rank_candidates(obs, scenarios, candidates,
                             std::max(options_.candidate_cap, batch_k),
                             {options_.pool, /*antithetic_pairs=*/true})
                 .nodes;
    }
    BendersOptions bopts;
    bopts.pool = options_.pool;
    bopts.antithetic = true;
    const BendersResult b = solve_fob_benders(obs, scenarios, batch_k, pool, bopts);
    fob.batch = b.batch;
    fob.objective = b.objective;
    fob.exact = b.optimal;
    all_exact_ = all_exact_ && fob.exact;
  } else {
    FobExactOptions exact;
    exact.max_nodes = options_.max_bnb_nodes;
    exact.candidate_cap = options_.candidate_cap;
    exact.pool = options_.pool;
    exact.antithetic = true;
    fob = fob_exact(obs, scenarios, batch_k, candidates, exact);
    all_exact_ = all_exact_ && fob.exact;
  }
  if (planner_.enabled() && !options_.use_benders) {
    const double work = static_cast<double>(fob.saa_evals) *
                        static_cast<double>(scenarios.size()) *
                        (1.0 + features.mean_degree);
    planner_.observe(decision, work, timer.nanos(), /*overran_deadline=*/false);
  }
  return fob.batch;
}

}  // namespace recon::solver
