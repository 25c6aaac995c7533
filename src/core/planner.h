// Runtime-adaptive execution planner: cost-model-driven dispatch among the
// interchangeable execution strategies for one BATCHSELECT step of the
// solver-backed strategies (solver/fallback.h, solver/strategy_mip.h).
//
// Those strategies can answer a batch with the scenario-free collapsed lazy
// greedy (batch_select) or with the SAA solver tiers (exact B&B, SAA lazy
// greedy), whose relative cost shifts with k, the candidate frontier, the
// degree distribution, and the scenario count as a campaign progresses.
// Instead of freezing the choice with hand-set flags, the planner keeps a
// small per-strategy cost model (an EWMA-calibrated work-ratio over
// *deterministic* work-unit counts, plus an EWMA of measured ns/work-unit)
// and picks, per batch, the highest-quality strategy predicted to fit the
// deadline, falling back to the cheapest greedy floor — the
// FallbackStrategy deadline ladder folded in as the planner's degraded
// tiers. PM-AReST hosts no planner: it always runs the CΔ cache
// (core/cached_selector.h), which measured fastest or tied at every point
// of the planner's k-sweep.
//
// Determinism contract (the hard constraint):
//
//  * `plan()` is a pure function of (planner state, PlanFeatures). Features
//    are deterministic campaign quantities (k, frontier size, degree
//    moments, configured scenario count, configured deadline) — never live
//    clock reads.
//  * The *strategy-choice* calibration (work-ratio EWMAs) is fed exclusively
//    by deterministic work counts: candidates scored, cache rescores, SAA
//    objective evaluations, B&B nodes. These are identical at every thread
//    count, so identical calibration state ⇒ identical plans ⇒ bit-identical
//    selections at 1/2/8 threads.
//  * Wall-clock measurements feed only (a) the ns/work-unit EWMAs used to
//    convert predicted work into seconds for *deadline gating* (inactive
//    when no deadline is configured, and freezable via
//    `PlannerOptions::calibrate_time = false`), and (b) the shard-layout
//    calibration, which provably cannot change a selected batch (layout
//    never alters the (score, orig id) frontier total order).
//  * The full planner state — per-strategy EWMAs (serialized as exact IEEE
//    bit patterns), observation counts, tier position, shard calibration —
//    round-trips through `save_state()`/`restore_state()` and is embedded in
//    the hosting Strategy's checkpoint line, so a resumed campaign replans
//    identically from the restore point: planner state, not just
//    selections, is bit-identical after resume (planner_test asserts full
//    save_state() equality).
//  * `plan()` also consumes the campaign's *remaining budget* when the host
//    provides it: a near-exhausted campaign (remaining < 2k requests) bars
//    the exact B&B tier, because spending the most solver time on the final,
//    mostly-truncated batch is exactly backwards. Remaining budget is a
//    deterministic campaign quantity, so this gate preserves the contract.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace recon::core {

/// The execution strategies the planner chooses among. The first three are
/// greedy-floor selector variants (identical selections for cached vs
/// uncached — the cache is exactly equivalent — so switching between those
/// two can never change a trace); the SAA tiers trade solve time for the
/// Thm. 3 / Lemma 2 quality ladder.
enum class PlanStrategy : int {
  kCollapsedCached = 0,   ///< CachedSelector: rescore of accepts, their neighbors and
                          ///< the neighbors of new benefit-carrying FoFs + lazy greedy
  kCollapsedUncached = 1, ///< batch_select: fresh scoring every batch
  kBranchTree = 2,        ///< branch_tree_select: literal 2^k expectation tree
  kSaaGreedy = 3,         ///< fob_greedy over sampled scenarios
  kSaaExact = 4,          ///< fob_exact (B&B) over sampled scenarios
};

inline constexpr int kNumPlanStrategies = 5;

/// Canonical names, also the `--planner fixed:<name>` tokens:
/// cached | uncached | tree | saa | exact.
const char* plan_strategy_name(PlanStrategy s) noexcept;

/// Parses a strategy token (accepts "greedy" as an alias for "uncached",
/// the fallback ladder's floor-tier name). Returns false on unknown names.
bool parse_plan_strategy(const std::string& token, PlanStrategy* out) noexcept;

/// Deterministic per-batch features the cost models key on. Everything here
/// is a pure function of campaign state and configuration — never a clock.
struct PlanFeatures {
  int batch_size = 0;              ///< k for this batch
  std::size_t frontier_size = 0;   ///< candidate count
  double mean_degree = 0.0;        ///< mean degree over the candidates
  double max_degree = 0.0;         ///< max degree over the candidates
  std::size_t scenario_count = 0;  ///< configured SAA scenarios (0 = no SAA tiers)
  /// Configured per-batch wall-clock budget, seconds (0 = none). This is a
  /// configuration constant, not a live deadline measurement.
  double deadline_seconds = 0.0;
  /// Remaining campaign request budget at plan time (0 = unknown/unlimited).
  /// Deterministic campaign state, not a clock: the simulator charges unit
  /// cost per request, so this is the campaign budget minus requests sent.
  double remaining_budget = 0.0;
};

/// One planned batch: the chosen strategy plus the model's predictions (kept
/// for telemetry and fed back to `observe()` after execution).
struct PlanDecision {
  PlanStrategy strategy = PlanStrategy::kCollapsedUncached;
  double estimated_work = 0.0;     ///< closed-form work units, pre-ratio
  double predicted_work = 0.0;     ///< estimated_work x learned work-ratio
  double predicted_seconds = 0.0;  ///< predicted_work x ns-per-unit (deadline gate)
};

enum class PlannerMode : int {
  kOff = 0,    ///< planner absent; legacy flag-driven dispatch, bit-identical
  kAuto = 1,   ///< cost-model-driven choice per batch
  kFixed = 2,  ///< pinned to `fixed_strategy` (parity runs / ablations)
};

struct PlannerOptions {
  PlannerMode mode = PlannerMode::kOff;
  PlanStrategy fixed_strategy = PlanStrategy::kCollapsedUncached;
  /// Which strategies the hosting Strategy can actually execute (the
  /// fallback ladder hosts uncached + both SAA tiers; the MIP strategy hosts
  /// the SAA tiers).
  std::array<bool, kNumPlanStrategies> admissible{true, true, true, true, true};
  /// Update the ns/work-unit EWMAs from measured wall time. Freezing this
  /// (false) makes even deadline-gated tier choices a pure function of
  /// checkpointed state — the configuration the determinism suite uses to
  /// prove bit-identical resume under active deadlines.
  bool calibrate_time = true;
};

/// Parses the planner spec shared by `recon attack --planner` and the
/// service's `SUBMIT planner=`: off | auto | fixed:<strategy>. `strategy` is
/// the campaign's strategy name; only mip and fallback host a planner, so
/// every other strategy (pm included: PM-AReST runs one selector) accepts
/// "off" alone. Throws std::invalid_argument naming the planner setting on
/// a bad spec or an unhosted one.
PlannerOptions parse_planner_spec(const std::string& spec,
                                  const std::string& strategy);

/// Calibration for adaptive shard sizing (formerly a process-wide global in
/// batch_select.cc): an EWMA of the measured scoring cost per work unit (one
/// unit ~ one adjacency-row entry walked by the gamma kernel), in
/// nanoseconds. Thread-safe with relaxed atomics: racing updates at worst
/// mix two recent measurements, and the value only steers shard *layout*,
/// which cannot change the selected batch.
class ShardCalibration {
 public:
  /// Cold-start seed, ns per work unit, before any measurement lands.
  static constexpr std::uint64_t kColdStartNanosPerUnit = 64;

  double nanos_per_unit() const noexcept {
    return static_cast<double>(ewma_nanos_.load(std::memory_order_relaxed));
  }

  /// Blends one parallel scoring pass into the EWMA (blended = 0.75 old +
  /// 0.25 observed, floored at 1 ns/unit). No-op while frozen.
  void record_pass(std::uint64_t pass_nanos, double pass_work) noexcept;

  /// Freezing stops wall-clock measurements from mutating the EWMA, making
  /// the serialized value a pure function of checkpointed state. The planner
  /// freezes its instance when `PlannerOptions::calibrate_time` is false —
  /// the configuration the determinism suite uses to assert full
  /// save_state() bit-equality across resume.
  void set_frozen(bool frozen) noexcept {
    frozen_.store(frozen, std::memory_order_relaxed);
  }

  void reset() noexcept {
    ewma_nanos_.store(kColdStartNanosPerUnit, std::memory_order_relaxed);
  }

  /// Raw EWMA value for serialization (integer nanoseconds).
  std::uint64_t raw() const noexcept {
    return ewma_nanos_.load(std::memory_order_relaxed);
  }
  void set_raw(std::uint64_t v) noexcept {
    ewma_nanos_.store(v == 0 ? 1 : v, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> ewma_nanos_{kColdStartNanosPerUnit};
  std::atomic<bool> frozen_{false};
};

/// The process-wide calibration instance used by `batch_select` callers that
/// do not thread a planner through (legacy paths, standalone selectors).
/// Planner-hosted campaigns use their own checkpointed instance instead.
ShardCalibration& process_shard_calibration() noexcept;

/// Restores the process-wide shard calibration to its cold-start seed so two
/// same-seed campaigns in one test process start from identical state.
void reset_shard_calibration_for_test() noexcept;

class ExecutionPlanner {
 public:
  ExecutionPlanner() = default;
  explicit ExecutionPlanner(PlannerOptions options);

  ExecutionPlanner(const ExecutionPlanner&) = delete;
  ExecutionPlanner& operator=(const ExecutionPlanner&) = delete;

  bool enabled() const noexcept { return options_.mode != PlannerMode::kOff; }
  const PlannerOptions& options() const noexcept { return options_; }

  /// Closed-form work-unit estimate for one strategy under the features
  /// (pre-ratio). Units are "adjacency-row entries walked" for the greedy
  /// floor variants and "scenario-weighted objective evaluations" for the
  /// SAA tiers; the learned work-ratio absorbs each form's constant factor.
  double estimate_work(PlanStrategy s, const PlanFeatures& f) const;

  /// Picks the strategy for the next batch: the highest-quality admissible
  /// SAA tier predicted to fit the deadline (exact > saa-greedy, skipped
  /// entirely when `scenario_count` is 0 or the tier position has degraded
  /// past it), else the cheapest admissible greedy-floor variant by
  /// predicted work. Pure function of (state, features).
  PlanDecision plan(const PlanFeatures& f) const;

  /// Feeds back one executed batch. `actual_work` is the deterministic
  /// observed work count (rescores, evaluations, B&B nodes — identical at
  /// every thread count); `nanos` is the measured wall time (feeds only the
  /// ns/unit EWMA, and only when `calibrate_time`); `overran_deadline`
  /// reports whether the strategy blew its configured deadline, which
  /// degrades the sticky tier position (re-probed after
  /// `kTierProbeInterval` clean batches).
  void observe(const PlanDecision& decision, double actual_work,
               std::uint64_t nanos, bool overran_deadline);

  /// Batches between a tier demotion and the next upward probe.
  static constexpr std::uint64_t kTierProbeInterval = 8;

  ShardCalibration& shard_calibration() noexcept { return shard_; }
  const ShardCalibration& shard_calibration() const noexcept { return shard_; }

  /// Decisions made so far this campaign (telemetry; not checkpointed —
  /// tests and benches compare plan sequences through this).
  const std::vector<PlanDecision>& decision_log() const noexcept { return log_; }

  /// Serializes the full calibration state as one space-separated line
  /// ("planner 1 ..."): tier position, probe counter, shard EWMA, and per-
  /// strategy (work-ratio bits, ns/unit bits, observation count) triples.
  /// Doubles are serialized as exact IEEE-754 bit patterns so a resumed
  /// planner replans bit-identically.
  std::string save_state() const;
  void restore_state(const std::string& blob);

  /// Back to cold-start calibration (also what `begin()` of a hosting
  /// strategy calls so reruns of one strategy object start cold).
  void reset();

 private:
  struct CostModel {
    double work_ratio = 1.0;      ///< EWMA of actual/estimated work (deterministic)
    double nanos_per_unit = 64.0; ///< EWMA of measured ns per actual work unit
    std::uint64_t observations = 0;
  };

  double predicted_seconds(PlanStrategy s, double predicted_work) const noexcept;

  // lint:ckpt-coverage-ok(construction-time config; the harness rebuilds the
  // planner with identical options before calling restore_state)
  PlannerOptions options_;
  std::array<CostModel, kNumPlanStrategies> models_;
  /// Sticky solver-tier degradation: 0 = all tiers, 1 = exact barred,
  /// 2 = both SAA tiers barred. Raised on an observed deadline overrun,
  /// relaxed one level after kTierProbeInterval clean batches.
  int tier_position_ = 0;
  std::uint64_t batches_since_demotion_ = 0;
  ShardCalibration shard_;
  // lint:ckpt-coverage-ok(telemetry log of past decisions; replayable from
  // the trace and never an input to plan())
  std::vector<PlanDecision> log_;
};

}  // namespace recon::core
