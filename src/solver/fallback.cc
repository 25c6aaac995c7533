#include "solver/fallback.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/log.h"
#include "util/rng.h"

namespace recon::solver {

using graph::NodeId;

FallbackStrategy::FallbackStrategy(FallbackOptions options) : options_(options) {
  if (options_.batch_size <= 0) {
    throw std::invalid_argument("FallbackStrategy: batch_size must be positive");
  }
  if (options_.scenarios_per_batch == 0) {
    throw std::invalid_argument("FallbackStrategy: need at least one scenario");
  }
  if (options_.exact_deadline_seconds < 0.0 || options_.saa_deadline_seconds < 0.0) {
    throw std::invalid_argument("FallbackStrategy: deadlines must be non-negative");
  }
}

std::string FallbackStrategy::name() const {
  return "Fallback(k=" + std::to_string(options_.batch_size) + ")";
}

void FallbackStrategy::begin(const sim::Problem& problem, double budget) {
  (void)problem;
  (void)budget;
  round_ = 0;
  counts_ = {};
}

std::string FallbackStrategy::save_state() const {
  std::ostringstream ss;
  ss << "fallback " << round_ << ' ' << counts_.exact << ' ' << counts_.saa_greedy
     << ' ' << counts_.lazy_greedy;
  return ss.str();
}

void FallbackStrategy::restore_state(const std::string& blob) {
  std::istringstream ss(blob);
  std::string tag;
  int round = 0;
  FallbackTierCounts c;
  if (!(ss >> tag >> round >> c.exact >> c.saa_greedy >> c.lazy_greedy) ||
      tag != "fallback" || round < 0) {
    throw std::invalid_argument("FallbackStrategy::restore_state: bad state blob");
  }
  if (std::string extra; ss >> extra) {
    throw std::invalid_argument(
        "FallbackStrategy::restore_state: unexpected '" + extra +
        "' section; the runtime planner was removed, so checkpoints written "
        "by a --planner run cannot be resumed");
  }
  round_ = round;
  counts_ = c;
}

std::vector<NodeId> FallbackStrategy::floor_batch(const sim::Observation& obs,
                                                  double remaining_budget,
                                                  std::size_t k) {
  // Floor tier: scenario-free lazy greedy over the collapsed expectation
  // tree — effectively instant and always available.
  core::BatchSelectOptions bs;
  bs.batch_size = static_cast<int>(k);
  bs.policy = options_.floor_policy;
  bs.allow_retries = options_.allow_retries;
  bs.max_attempts_per_node = 0;  // match fob_candidates (no cap)
  bs.remaining_budget = remaining_budget;
  bs.pool = options_.pool;
  std::vector<NodeId> batch = core::batch_select(obs, bs);
  if (!batch.empty()) {
    ++counts_.lazy_greedy;
    RECON_LOG(kInfo) << "fallback: batch " << round_ << " tier=lazy-greedy";
  }
  return batch;
}

std::vector<NodeId> FallbackStrategy::next_batch(const sim::Observation& obs,
                                                 double remaining_budget) {
  ++round_;
  const auto k = static_cast<std::size_t>(
      std::min<double>(options_.batch_size, remaining_budget));
  if (k == 0) return {};

  const bool saa_tiers =
      options_.exact_deadline_seconds > 0.0 || options_.saa_deadline_seconds > 0.0;
  if (saa_tiers) {
    const std::vector<NodeId> candidates =
        fob_candidates(obs, options_.allow_retries);
    if (!candidates.empty()) {
      const std::size_t batch_k = std::min(k, candidates.size());
      const auto scenarios = sample_scenarios_antithetic(
          obs, options_.scenarios_per_batch,
          util::derive_seed(options_.seed, static_cast<std::uint64_t>(round_)));

      if (options_.exact_deadline_seconds > 0.0) {
        FobExactOptions exact;
        exact.max_nodes = options_.max_bnb_nodes;
        exact.candidate_cap = options_.candidate_cap;
        exact.deadline_seconds = options_.exact_deadline_seconds;
        exact.pool = options_.pool;
        exact.antithetic = true;
        const FobResult r = fob_exact(obs, scenarios, batch_k, candidates, exact);
        if (r.exact && !r.batch.empty()) {
          ++counts_.exact;
          RECON_LOG(kInfo) << "fallback: batch " << round_ << " tier=exact ("
                           << r.nodes_explored << " bnb nodes)";
          return r.batch;
        }
        RECON_LOG(kInfo) << "fallback: batch " << round_
                         << " exact tier missed its deadline; degrading";
      }
      if (options_.saa_deadline_seconds > 0.0) {
        const FobResult r = fob_greedy(obs, scenarios, batch_k, candidates,
                                       options_.saa_deadline_seconds,
                                       options_.pool, /*antithetic=*/true);
        if (!r.timed_out && !r.batch.empty()) {
          ++counts_.saa_greedy;
          RECON_LOG(kInfo) << "fallback: batch " << round_ << " tier=saa-greedy";
          return r.batch;
        }
        RECON_LOG(kInfo) << "fallback: batch " << round_
                         << " saa tier missed its deadline; degrading";
      }
    }
  }

  return floor_batch(obs, remaining_budget, k);
}

}  // namespace recon::solver
