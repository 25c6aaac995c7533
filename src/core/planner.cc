#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace recon::core {

namespace {

/// Exact double <-> u64 round-trip for checkpoint lines: the EWMAs must
/// restore bit-identically or a resumed planner could diverge from the
/// uninterrupted run on the first post-resume comparison.
std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) noexcept {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

constexpr double kEwmaKeep = 0.75;  ///< same blend as the shard calibration

bool is_saa_tier(PlanStrategy s) noexcept {
  return s == PlanStrategy::kSaaGreedy || s == PlanStrategy::kSaaExact;
}

}  // namespace

const char* plan_strategy_name(PlanStrategy s) noexcept {
  switch (s) {
    case PlanStrategy::kCollapsedCached: return "cached";
    case PlanStrategy::kCollapsedUncached: return "uncached";
    case PlanStrategy::kBranchTree: return "tree";
    case PlanStrategy::kSaaGreedy: return "saa";
    case PlanStrategy::kSaaExact: return "exact";
  }
  return "?";
}

bool parse_plan_strategy(const std::string& token, PlanStrategy* out) noexcept {
  for (int i = 0; i < kNumPlanStrategies; ++i) {
    const auto s = static_cast<PlanStrategy>(i);
    if (token == plan_strategy_name(s)) {
      *out = s;
      return true;
    }
  }
  if (token == "greedy") {  // the fallback ladder's floor-tier name
    *out = PlanStrategy::kCollapsedUncached;
    return true;
  }
  return false;
}

void ShardCalibration::record_pass(std::uint64_t pass_nanos,
                                   double pass_work) noexcept {
  if (frozen_.load(std::memory_order_relaxed)) return;
  if (pass_work <= 0.0 || pass_nanos == 0) return;
  const double observed = static_cast<double>(pass_nanos) / pass_work;
  const double old =
      static_cast<double>(ewma_nanos_.load(std::memory_order_relaxed));
  const double blended = kEwmaKeep * old + (1.0 - kEwmaKeep) * observed;
  ewma_nanos_.store(static_cast<std::uint64_t>(std::max(1.0, blended)),
                    std::memory_order_relaxed);
}

ShardCalibration& process_shard_calibration() noexcept {
  static ShardCalibration calibration;
  return calibration;
}

void reset_shard_calibration_for_test() noexcept {
  process_shard_calibration().reset();
}

ExecutionPlanner::ExecutionPlanner(PlannerOptions options) : options_(options) {
  // calibrate_time=false promises "no wall-clock mutates checkpointed
  // state"; the shard EWMA is checkpointed state, so freeze it too.
  shard_.set_frozen(!options_.calibrate_time);
}

double ExecutionPlanner::estimate_work(PlanStrategy s,
                                       const PlanFeatures& f) const {
  const double frontier = static_cast<double>(f.frontier_size);
  const double row = 1.0 + f.mean_degree;  // one candidate's adjacency walk
  const double k = static_cast<double>(std::max(1, f.batch_size));
  const double scenarios = static_cast<double>(f.scenario_count);
  switch (s) {
    case PlanStrategy::kCollapsedCached:
    case PlanStrategy::kCollapsedUncached:
      // One full scoring pass; the cached variant's learned work-ratio
      // converges to its dirty fraction, which is its whole advantage.
      return frontier * row;
    case PlanStrategy::kBranchTree: {
      // k greedy rounds, round j scoring the frontier across 2^j branches:
      // sum_j 2^j = 2^k - 1 full passes. Clamped at the selector's own
      // enumeration bound so the estimate cannot overflow.
      const double branches =
          std::exp2(std::min(k, 24.0)) - 1.0;
      return frontier * row * branches;
    }
    case PlanStrategy::kSaaGreedy:
      // Lazy greedy: ~frontier singleton evaluations + repush rescores, each
      // touching every scenario.
      return scenarios * (frontier + k * k) * row;
    case PlanStrategy::kSaaExact:
      // Greedy incumbent (whose singletons also rank the candidates) + B&B
      // search; the tree size is the learned part, seeded at ~(k+1)
      // greedy-equivalents.
      return scenarios * (frontier + k * k) * row * (k + 1.0);
  }
  return 0.0;
}

double ExecutionPlanner::predicted_seconds(PlanStrategy s,
                                           double predicted_work) const noexcept {
  const auto& m = models_[static_cast<int>(s)];
  return predicted_work * m.nanos_per_unit * 1e-9;
}

PlanDecision ExecutionPlanner::plan(const PlanFeatures& f) const {
  auto decide = [&](PlanStrategy s) {
    PlanDecision d;
    d.strategy = s;
    d.estimated_work = estimate_work(s, f);
    d.predicted_work =
        d.estimated_work * models_[static_cast<int>(s)].work_ratio;
    d.predicted_seconds = predicted_seconds(s, d.predicted_work);
    return d;
  };
  if (options_.mode == PlannerMode::kFixed) {
    return decide(options_.fixed_strategy);
  }

  const auto admissible = [&](PlanStrategy s) {
    if (!options_.admissible[static_cast<int>(s)]) return false;
    if (is_saa_tier(s) && f.scenario_count == 0) return false;
    // branch_tree_select enumerates 2^k branches and refuses k > 20.
    if (s == PlanStrategy::kBranchTree && f.batch_size > 20) return false;
    // Near-exhausted campaign budget bars the exact B&B tier: with fewer
    // than two full batches of requests left (unit cost per request), the
    // most expensive solve would be spent on the final, mostly-truncated
    // batch. Deterministic campaign state, so plans stay reproducible.
    if (s == PlanStrategy::kSaaExact && f.remaining_budget > 0.0 &&
        f.remaining_budget < 2.0 * static_cast<double>(f.batch_size)) {
      return false;
    }
    return true;
  };
  const auto fits_deadline = [&](const PlanDecision& d) {
    return f.deadline_seconds <= 0.0 ||
           d.predicted_seconds <= f.deadline_seconds;
  };

  // Solver tiers, best quality first, gated by the sticky tier position and
  // the predicted-vs-deadline fit.
  if (tier_position_ <= 0 && admissible(PlanStrategy::kSaaExact)) {
    const PlanDecision d = decide(PlanStrategy::kSaaExact);
    if (fits_deadline(d)) return d;
  }
  if (tier_position_ <= 1 && admissible(PlanStrategy::kSaaGreedy)) {
    const PlanDecision d = decide(PlanStrategy::kSaaGreedy);
    if (fits_deadline(d)) return d;
  }

  // Greedy floor: cheapest admissible selector variant by predicted work
  // (all floor variants share the same work unit, so no clock enters the
  // comparison). Ties break toward the lower enum value.
  bool have = false;
  PlanDecision best;
  for (const PlanStrategy s :
       {PlanStrategy::kCollapsedCached, PlanStrategy::kCollapsedUncached,
        PlanStrategy::kBranchTree}) {
    if (!admissible(s)) continue;
    const PlanDecision d = decide(s);
    if (!have || d.predicted_work < best.predicted_work) {
      best = d;
      have = true;
    }
  }
  if (have) return best;

  // No floor variant is admissible (pure solver hosts): fall back to the
  // cheapest admissible SAA tier even though it missed the deadline.
  for (const PlanStrategy s :
       {PlanStrategy::kSaaGreedy, PlanStrategy::kSaaExact}) {
    if (admissible(s)) return decide(s);
  }
  throw std::logic_error("ExecutionPlanner::plan: no admissible strategy");
}

void ExecutionPlanner::observe(const PlanDecision& decision, double actual_work,
                               std::uint64_t nanos, bool overran_deadline) {
  CostModel& m = models_[static_cast<int>(decision.strategy)];
  if (decision.estimated_work > 0.0 && actual_work > 0.0) {
    const double ratio = actual_work / decision.estimated_work;
    m.work_ratio = kEwmaKeep * m.work_ratio + (1.0 - kEwmaKeep) * ratio;
  }
  if (options_.calibrate_time && actual_work > 0.0 && nanos > 0) {
    const double npu = static_cast<double>(nanos) / actual_work;
    m.nanos_per_unit =
        std::max(1e-3, kEwmaKeep * m.nanos_per_unit + (1.0 - kEwmaKeep) * npu);
  }
  ++m.observations;

  if (overran_deadline && is_saa_tier(decision.strategy)) {
    const int demoted =
        decision.strategy == PlanStrategy::kSaaExact ? 1 : 2;
    tier_position_ = std::max(tier_position_, demoted);
    batches_since_demotion_ = 0;
  } else if (tier_position_ > 0) {
    ++batches_since_demotion_;
    if (batches_since_demotion_ >= kTierProbeInterval) {
      --tier_position_;
      batches_since_demotion_ = 0;
    }
  }
  log_.push_back(decision);
}

std::string ExecutionPlanner::save_state() const {
  std::ostringstream ss;
  ss << "planner 1 " << tier_position_ << ' ' << batches_since_demotion_ << ' '
     << shard_.raw() << ' ' << kNumPlanStrategies;
  for (const CostModel& m : models_) {
    ss << ' ' << double_bits(m.work_ratio) << ' '
       << double_bits(m.nanos_per_unit) << ' ' << m.observations;
  }
  return ss.str();
}

void ExecutionPlanner::restore_state(const std::string& blob) {
  std::istringstream ss(blob);
  std::string tag;
  int version = 0;
  int tier = 0;
  std::uint64_t since = 0;
  std::uint64_t shard_raw = 0;
  int count = 0;
  if (!(ss >> tag >> version >> tier >> since >> shard_raw >> count) ||
      tag != "planner" || version != 1 || tier < 0 || tier > 2 ||
      count != kNumPlanStrategies) {
    throw std::invalid_argument("ExecutionPlanner::restore_state: bad state blob");
  }
  std::array<CostModel, kNumPlanStrategies> models;
  for (CostModel& m : models) {
    std::uint64_t ratio_bits = 0;
    std::uint64_t npu_bits = 0;
    if (!(ss >> ratio_bits >> npu_bits >> m.observations)) {
      throw std::invalid_argument(
          "ExecutionPlanner::restore_state: truncated state blob");
    }
    m.work_ratio = bits_double(ratio_bits);
    m.nanos_per_unit = bits_double(npu_bits);
    if (!std::isfinite(m.work_ratio) || !std::isfinite(m.nanos_per_unit)) {
      throw std::invalid_argument(
          "ExecutionPlanner::restore_state: non-finite cost model");
    }
  }
  tier_position_ = tier;
  batches_since_demotion_ = since;
  shard_.set_raw(shard_raw);
  models_ = models;
  log_.clear();
}

void ExecutionPlanner::reset() {
  models_ = {};
  tier_position_ = 0;
  batches_since_demotion_ = 0;
  shard_.reset();
  log_.clear();
}

}  // namespace recon::core
