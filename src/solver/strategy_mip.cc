#include "solver/strategy_mip.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "solver/benders.h"
#include "util/rng.h"

namespace recon::solver {

using graph::NodeId;

MipBatchStrategy::MipBatchStrategy(MipStrategyOptions options) : options_(options) {
  if (options_.batch_size <= 0) {
    throw std::invalid_argument("MipBatchStrategy: batch_size must be positive");
  }
  if (options_.scenarios_per_batch == 0) {
    throw std::invalid_argument("MipBatchStrategy: need at least one scenario");
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
}

std::string MipBatchStrategy::save_state() const {
  std::ostringstream ss;
  ss << "mip " << round_ << ' ' << (all_exact_ ? 1 : 0);
  return ss.str();
}

void MipBatchStrategy::restore_state(const std::string& blob) {
  std::istringstream ss(blob);
  std::string tag;
  int round = 0, exact = 0;
  if (!(ss >> tag >> round >> exact) || tag != "mip" || round < 0) {
    throw std::invalid_argument("MipBatchStrategy::restore_state: bad state blob");
  }
  if (std::string extra; ss >> extra) {
    throw std::invalid_argument(
        "MipBatchStrategy::restore_state: unexpected '" + extra +
        "' section; the runtime planner was removed, so checkpoints written "
        "by a --planner run cannot be resumed");
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

  FobResult fob;
  if (options_.greedy_only) {
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
  return fob.batch;
}

}  // namespace recon::solver
