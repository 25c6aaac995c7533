// Runtime-adaptive execution planner: determinism contract, checkpoint
// round-trips, forced-tier parity with the legacy flag-driven dispatch, and
// the per-instance shard-calibration regression (no process-global leakage
// between same-process campaigns).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/attack.h"
#include "core/checkpoint.h"
#include "core/planner.h"
#include "core/pm_arest.h"
#include "core/retry_policy.h"
#include "graph/generators.h"
#include "sim/fault.h"
#include "sim/problem.h"
#include "solver/fallback.h"
#include "solver/strategy_mip.h"
#include "util/thread_pool.h"
#include "test_scratch.h"

namespace recon::core {
namespace {

using graph::NodeId;
using sim::Problem;

Problem ba_problem(int seed, NodeId n = 100) {
  sim::ProblemOptions opts;
  opts.num_targets = 20;
  opts.base_acceptance = 0.4;
  opts.seed = static_cast<std::uint64_t>(seed);
  return sim::make_problem(
      graph::assign_edge_probs(graph::barabasi_albert(n, 4, seed),
                               graph::EdgeProbModel::uniform(0.3, 0.95),
                               seed + 1),
      opts);
}

Problem er_problem(int seed, NodeId n = 80, graph::EdgeId m = 320) {
  sim::ProblemOptions opts;
  opts.num_targets = 16;
  opts.base_acceptance = 0.5;
  opts.seed = static_cast<std::uint64_t>(seed);
  return sim::make_problem(
      graph::assign_edge_probs(graph::erdos_renyi_gnm(n, m, seed),
                               graph::EdgeProbModel::uniform(0.2, 0.9),
                               seed + 1),
      opts);
}

/// Trace equality modulo select_seconds (wall clock, never reproducible).
void expect_traces_equal(const sim::AttackTrace& a, const sim::AttackTrace& b,
                         const std::string& label) {
  ASSERT_EQ(a.batches.size(), b.batches.size()) << label;
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].requests, b.batches[i].requests)
        << label << " batch " << i;
    EXPECT_EQ(a.batches[i].accepted, b.batches[i].accepted)
        << label << " batch " << i;
    EXPECT_EQ(a.batches[i].outcome, b.batches[i].outcome)
        << label << " batch " << i;
    EXPECT_DOUBLE_EQ(a.batches[i].cumulative.total(),
                     b.batches[i].cumulative.total())
        << label << " batch " << i;
  }
}

/// The planner's decision sequence, reduced to its deterministic parts
/// (strategy + work model predictions; predicted_seconds is clock-calibrated
/// and deliberately excluded — it never steers choices unless a deadline
/// gate is configured).
struct PlanRecord {
  PlanStrategy strategy;
  double estimated_work;
  double predicted_work;
  bool operator==(const PlanRecord& o) const {
    return strategy == o.strategy && estimated_work == o.estimated_work &&
           predicted_work == o.predicted_work;
  }
};

std::vector<PlanRecord> plan_records(const ExecutionPlanner& p) {
  std::vector<PlanRecord> out;
  out.reserve(p.decision_log().size());
  for (const PlanDecision& d : p.decision_log()) {
    out.push_back({d.strategy, d.estimated_work, d.predicted_work});
  }
  return out;
}

PlannerOptions auto_planner() {
  PlannerOptions po;
  po.mode = PlannerMode::kAuto;
  return po;
}

PlannerOptions fixed_planner(PlanStrategy s) {
  PlannerOptions po;
  po.mode = PlannerMode::kFixed;
  po.fixed_strategy = s;
  return po;
}

struct TempFile {
  explicit TempFile(const std::string& name) : path(recon::test::scratch_path(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

// ---------------------------------------------------------------------------
// Token parsing and basic planner mechanics.

TEST(PlanStrategyTokens, NamesRoundTripAndGreedyAliases) {
  for (int i = 0; i < kNumPlanStrategies; ++i) {
    const auto s = static_cast<PlanStrategy>(i);
    PlanStrategy parsed{};
    ASSERT_TRUE(parse_plan_strategy(plan_strategy_name(s), &parsed))
        << plan_strategy_name(s);
    EXPECT_EQ(parsed, s);
  }
  PlanStrategy parsed{};
  ASSERT_TRUE(parse_plan_strategy("greedy", &parsed));
  EXPECT_EQ(parsed, PlanStrategy::kCollapsedUncached);
  EXPECT_FALSE(parse_plan_strategy("turbo", &parsed));
  EXPECT_FALSE(parse_plan_strategy("", &parsed));
}

TEST(ExecutionPlannerUnit, PlanIsAPureFunctionOfStateAndFeatures) {
  ExecutionPlanner a(auto_planner());
  ExecutionPlanner b(auto_planner());
  PlanFeatures f;
  f.batch_size = 4;
  f.frontier_size = 50;
  f.mean_degree = 6.0;
  f.max_degree = 20.0;
  f.scenario_count = 200;
  f.deadline_seconds = 0.1;
  for (int round = 0; round < 20; ++round) {
    f.frontier_size = 50 + static_cast<std::size_t>(round);
    const PlanDecision da = a.plan(f);
    const PlanDecision db = b.plan(f);
    EXPECT_EQ(da.strategy, db.strategy) << "round " << round;
    EXPECT_EQ(da.predicted_work, db.predicted_work) << "round " << round;
    // Identical deterministic feedback, different wall-clock nanos: the
    // strategy choices must stay in lockstep regardless.
    a.observe(da, da.estimated_work * 0.5, 1000 + round, false);
    b.observe(db, db.estimated_work * 0.5, 999000 - round, false);
  }
  EXPECT_EQ(plan_records(a), plan_records(b));
}

TEST(ExecutionPlannerUnit, DeadlineOverrunDemotesTierThenProbesBack) {
  PlannerOptions po = auto_planner();
  po.calibrate_time = false;  // freeze ns/unit so the gate is state-pure
  ExecutionPlanner p(po);
  PlanFeatures f;
  f.batch_size = 2;
  f.frontier_size = 10;
  f.mean_degree = 3.0;
  f.scenario_count = 50;
  f.deadline_seconds = 1e9;  // everything "fits"; only demotion gates tiers
  ASSERT_EQ(p.plan(f).strategy, PlanStrategy::kSaaExact);
  // The exact tier blows its deadline: barred, saa-greedy takes over.
  p.observe(p.plan(f), 100.0, 50, /*overran_deadline=*/true);
  EXPECT_EQ(p.plan(f).strategy, PlanStrategy::kSaaGreedy);
  // kTierProbeInterval clean batches later the planner probes exact again.
  for (std::uint64_t i = 0; i < ExecutionPlanner::kTierProbeInterval; ++i) {
    EXPECT_EQ(p.plan(f).strategy, PlanStrategy::kSaaGreedy) << i;
    p.observe(p.plan(f), 100.0, 50, false);
  }
  EXPECT_EQ(p.plan(f).strategy, PlanStrategy::kSaaExact);
}

TEST(ExecutionPlannerUnit, NearExhaustedBudgetBarsTheExactTier) {
  PlannerOptions po;
  po.mode = PlannerMode::kAuto;
  // SAA tiers only — the MIP host's admissible set.
  po.admissible = {false, false, false, true, true};
  ExecutionPlanner p(po);
  PlanFeatures f;
  f.batch_size = 4;
  f.frontier_size = 50;
  f.mean_degree = 6.0;
  f.max_degree = 12.0;
  f.scenario_count = 200;

  f.remaining_budget = 100.0;  // ample: quality-first exact tier
  EXPECT_EQ(p.plan(f).strategy, PlanStrategy::kSaaExact);
  f.remaining_budget = 7.0;  // < 2k = 8: the gate demotes deterministically
  EXPECT_EQ(p.plan(f).strategy, PlanStrategy::kSaaGreedy);
  f.remaining_budget = 8.0;  // boundary: >= 2k keeps exact admissible
  EXPECT_EQ(p.plan(f).strategy, PlanStrategy::kSaaExact);
  f.remaining_budget = 0.0;  // unknown/unlimited: no gate
  EXPECT_EQ(p.plan(f).strategy, PlanStrategy::kSaaExact);

  // The gate is budget-driven, not deadline-driven: it applies identically
  // with a deadline configured.
  f.deadline_seconds = 100.0;
  f.remaining_budget = 7.0;
  EXPECT_EQ(p.plan(f).strategy, PlanStrategy::kSaaGreedy);
}

TEST(ExecutionPlannerUnit, SaveRestoreIsBitExact) {
  ExecutionPlanner p(auto_planner());
  PlanFeatures f;
  f.batch_size = 3;
  f.frontier_size = 33;
  f.mean_degree = 4.7;
  f.scenario_count = 100;
  for (int i = 0; i < 7; ++i) {
    const PlanDecision d = p.plan(f);
    // Irrational-ish ratios exercise the full mantissa.
    p.observe(d, d.estimated_work / 3.0, 12345 + i, i == 2);
  }
  const std::string blob = p.save_state();
  ExecutionPlanner q(auto_planner());
  q.restore_state(blob);
  EXPECT_EQ(q.save_state(), blob);
  // The restored planner must plan exactly like the original.
  for (int i = 0; i < 5; ++i) {
    f.frontier_size = 20 + static_cast<std::size_t>(3 * i);
    const PlanDecision dp = p.plan(f);
    const PlanDecision dq = q.plan(f);
    EXPECT_EQ(dp.strategy, dq.strategy);
    EXPECT_EQ(dp.predicted_work, dq.predicted_work);
  }
}

TEST(ExecutionPlannerUnit, MalformedStateBlobsAreRejected) {
  ExecutionPlanner p(auto_planner());
  const std::string good = p.save_state();
  ExecutionPlanner q(auto_planner());
  EXPECT_NO_THROW(q.restore_state(good));
  EXPECT_THROW(q.restore_state(""), std::invalid_argument);
  EXPECT_THROW(q.restore_state("notplanner 1 0 0 64 5"), std::invalid_argument);
  EXPECT_THROW(q.restore_state("planner 2 0 0 64 5"), std::invalid_argument);
  EXPECT_THROW(q.restore_state("planner 1 7 0 64 5"), std::invalid_argument);
  EXPECT_THROW(q.restore_state("planner 1 0 0 64 3"), std::invalid_argument);
  // Truncated model list.
  EXPECT_THROW(q.restore_state(good.substr(0, good.size() / 2)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Determinism across thread counts: identical calibration => identical plans
// => bit-identical selections at 1, 2, and 8 workers.

void expect_thread_count_invariant(const Problem& p, std::uint64_t world_seed) {
  const sim::World w(p, world_seed);
  sim::AttackTrace base;
  std::vector<PlanRecord> base_plans;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                    std::size_t{8}}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    PmArestOptions o;
    o.batch_size = 5;
    o.allow_retries = true;
    o.pool = pool.get();
    o.planner = auto_planner();
    PmArest strategy(o);
    const auto trace = run_attack(p, w, strategy, 40.0);
    ASSERT_GT(trace.batches.size(), 0u);
    const auto plans = plan_records(strategy.planner());
    ASSERT_EQ(plans.size(), trace.batches.size());
    if (threads == 0) {
      base = trace;
      base_plans = plans;
    } else {
      expect_traces_equal(base, trace,
                          "threads=" + std::to_string(threads));
      EXPECT_EQ(base_plans, plans) << "threads=" << threads;
    }
  }
}

TEST(PlannerDeterminism, AutoPlansIdenticalAcrossThreadCountsBA) {
  expect_thread_count_invariant(ba_problem(11), 101);
}

TEST(PlannerDeterminism, AutoPlansIdenticalAcrossThreadCountsER) {
  expect_thread_count_invariant(er_problem(12), 102);
}

TEST(PlannerDeterminism, FallbackAutoIdenticalAcrossThreadCountsFrozenClock) {
  const Problem p = er_problem(13, 50, 180);
  const sim::World w(p, 103);
  sim::AttackTrace base;
  std::vector<PlanRecord> base_plans;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                    std::size_t{8}}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    solver::FallbackOptions o;
    o.batch_size = 2;
    o.scenarios_per_batch = 120;
    o.exact_deadline_seconds = 30.0;
    o.saa_deadline_seconds = 30.0;
    o.candidate_cap = 10;
    o.pool = pool.get();
    o.planner = auto_planner();
    // Frozen ns/unit EWMAs make even the deadline gate a pure function of
    // checkpointable state — the configuration the contract guarantees.
    o.planner.calibrate_time = false;
    solver::FallbackStrategy strategy(o);
    const auto trace = run_attack(p, w, strategy, 8.0);
    ASSERT_GT(trace.batches.size(), 0u);
    const auto plans = plan_records(strategy.planner());
    if (threads == 0) {
      base = trace;
      base_plans = plans;
    } else {
      expect_traces_equal(base, trace,
                          "fallback threads=" + std::to_string(threads));
      EXPECT_EQ(base_plans, plans) << "fallback threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Same-process campaign isolation (the calibration-globalism regression):
// a planner-hosted campaign must not touch the process-wide calibration,
// and two same-seed campaigns in one process must be identical.

TEST(PlannerCalibration, PlannerRunsLeaveProcessCalibrationUntouched) {
  const std::uint64_t sentinel = 12345;
  process_shard_calibration().set_raw(sentinel);
  const Problem p = ba_problem(21);
  const sim::World w(p, 201);
  PmArestOptions o;
  o.batch_size = 6;
  o.planner = auto_planner();
  PmArest strategy(o);
  run_attack(p, w, strategy, 30.0);
  EXPECT_EQ(process_shard_calibration().raw(), sentinel)
      << "planner campaign leaked into the process-wide shard calibration";
  reset_shard_calibration_for_test();
  EXPECT_EQ(process_shard_calibration().raw(),
            ShardCalibration::kColdStartNanosPerUnit);
}

TEST(PlannerCalibration, BackToBackSameSeedCampaignsAreIdentical) {
  const Problem p = ba_problem(22);
  const sim::World w(p, 202);
  auto run_once = [&] {
    PmArestOptions o;
    o.batch_size = 5;
    o.allow_retries = true;
    o.planner = auto_planner();
    PmArest strategy(o);
    auto trace = run_attack(p, w, strategy, 40.0);
    return std::make_pair(std::move(trace), plan_records(strategy.planner()));
  };
  const auto first = run_once();
  const auto second = run_once();  // warm process, fresh strategy
  expect_traces_equal(first.first, second.first, "same-process rerun");
  EXPECT_EQ(first.second, second.second);
}

TEST(PlannerCalibration, LegacyPathIsReproducibleAfterTestReset) {
  const Problem p = ba_problem(23);
  const sim::World w(p, 203);
  auto run_once = [&] {
    // Legacy planner-off path shares the process-wide calibration; the reset
    // hook restores cold-start state so reruns are reproducible by
    // construction, not just by the layout-neutrality argument.
    reset_shard_calibration_for_test();
    PmArest strategy(PmArestOptions{.batch_size = 5, .use_cache = false});
    return run_attack(p, w, strategy, 30.0);
  };
  const auto a = run_once();
  const auto b = run_once();
  expect_traces_equal(a, b, "legacy rerun");
}

// ---------------------------------------------------------------------------
// Checkpoint/resume: a resumed campaign replans identically from the restore
// point, including under faults and retry backoff.

TEST(PlannerCheckpoint, PmArestAutoResumeReplansIdentically) {
  const Problem p = ba_problem(31);
  const sim::World w(p, 301);
  PmArestOptions o;
  o.batch_size = 6;
  o.allow_retries = true;
  o.planner = auto_planner();

  PmArest full_strategy(o);
  const auto full = run_attack(p, w, full_strategy, 45.0);
  const auto full_plans = plan_records(full_strategy.planner());

  TempFile f("recon_planner_resume.ckpt");
  AttackRunOptions stop;
  stop.stop_after_rounds = 3;
  stop.checkpoint_path = f.path;
  PmArest first_half(o);
  run_attack(p, w, first_half, 45.0, stop);
  const auto first_plans = plan_records(first_half.planner());

  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  const sim::World resumed_world(p, cp.world_seed);
  AttackRunOptions resume;
  resume.resume = &cp;
  PmArest second_half(o);
  const auto resumed = run_attack(p, resumed_world, second_half, 45.0, resume);
  expect_traces_equal(full, resumed, "planner resume");

  // The resumed planner's decision sequence must equal the uninterrupted
  // run's suffix bit-for-bit — cached tier included. The cache-accounting
  // overlay (sparse last-seen attempts + accounting-dirty set) rides in the
  // checkpoint, so the rebuilt cache feeds the planner the same per-batch
  // work counts the warm run observed instead of re-learning its work-ratio
  // EWMA from a cold full-frontier rescore.
  const auto tail = plan_records(second_half.planner());
  ASSERT_EQ(first_plans.size() + tail.size(), full_plans.size());
  for (std::size_t i = 0; i < first_plans.size(); ++i) {
    EXPECT_EQ(full_plans[i], first_plans[i]) << "pre-stop decision " << i;
  }
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(full_plans[first_plans.size() + i], tail[i])
        << "post-resume decision " << i;
  }
}

TEST(PlannerCheckpoint, PmArestResumeRestoresFullStateBitExact) {
  const Problem p = ba_problem(34);
  const sim::World w(p, 304);
  PmArestOptions o;
  o.batch_size = 6;
  o.allow_retries = true;
  o.planner = auto_planner();
  // Freeze the wall-clock feeds (ns/unit EWMAs + shard calibration): every
  // remaining bit of strategy state is then a pure function of the campaign.
  o.planner.calibrate_time = false;

  PmArest full_strategy(o);
  const auto full = run_attack(p, w, full_strategy, 45.0);

  TempFile f("recon_planner_fullstate.ckpt");
  AttackRunOptions stop;
  stop.stop_after_rounds = 3;
  stop.checkpoint_path = f.path;
  PmArest first_half(o);
  run_attack(p, w, first_half, 45.0, stop);

  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  const sim::World resumed_world(p, cp.world_seed);
  AttackRunOptions resume;
  resume.resume = &cp;
  PmArest second_half(o);
  const auto resumed = run_attack(p, resumed_world, second_half, 45.0, resume);
  expect_traces_equal(full, resumed, "full-state resume");

  // FULL strategy state — varying-k RNG words, the cache-accounting section,
  // and the planner blob (EWMAs as IEEE-754 bit patterns) — is bit-identical
  // across the resume, not just the selections it produces.
  EXPECT_EQ(second_half.save_state(), full_strategy.save_state());

  // Checkpoint -> checkpoint round-trip is lossless even before the rebuilt
  // cache exists: a freshly restored strategy re-emits the same blob.
  PmArest reloaded(o);
  reloaded.restore_state(second_half.save_state());
  EXPECT_EQ(reloaded.save_state(), second_half.save_state());
}

TEST(PlannerCheckpoint, PmArestAutoResumeUnderFaultsAndRetries) {
  const Problem p = ba_problem(32);
  const sim::World w(p, 302);
  sim::FaultOptions fo;
  fo.timeout_rate = 0.2;
  fo.throttle_rate = 0.15;
  fo.suspension.max_requests = 20;
  fo.suspension.window_ticks = 3;
  fo.suspension.lockout_ticks = 2;
  fo.seed = 9;
  RetryPolicy retry;
  retry.backoff = RetryBackoff::kExponential;
  retry.base_delay = 1.0;
  retry.max_delay = 4.0;
  retry.jitter = 0.25;
  PmArestOptions o;
  o.batch_size = 6;
  o.allow_retries = true;
  o.planner = auto_planner();

  auto make_options = [&](sim::FaultModel& fm) {
    AttackRunOptions ro;
    ro.fault = &fm;
    ro.retry = &retry;
    return ro;
  };

  sim::FaultModel fm_full(fo);
  PmArest full_strategy(o);
  const auto full = run_attack(p, w, full_strategy, 45.0, make_options(fm_full));

  TempFile f("recon_planner_faulted.ckpt");
  sim::FaultModel fm_half(fo);
  auto stop = make_options(fm_half);
  stop.stop_after_rounds = 3;
  stop.checkpoint_path = f.path;
  PmArest first_half(o);
  run_attack(p, w, first_half, 45.0, stop);

  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  const sim::World resumed_world(p, cp.world_seed);
  sim::FaultModel fm_resume(fo);
  auto resume = make_options(fm_resume);
  resume.resume = &cp;
  PmArest second_half(o);
  const auto resumed = run_attack(p, resumed_world, second_half, 45.0, resume);
  expect_traces_equal(full, resumed, "planner resume under faults");
}

TEST(PlannerCheckpoint, FallbackAutoResumeReplansIdentically) {
  const Problem p = er_problem(33, 50, 180);
  const sim::World w(p, 303);
  solver::FallbackOptions o;
  o.batch_size = 2;
  o.scenarios_per_batch = 100;
  o.exact_deadline_seconds = 30.0;
  o.saa_deadline_seconds = 30.0;
  o.candidate_cap = 10;
  o.planner = auto_planner();
  o.planner.calibrate_time = false;

  solver::FallbackStrategy full_strategy(o);
  const auto full = run_attack(p, w, full_strategy, 8.0);
  const auto full_plans = plan_records(full_strategy.planner());
  ASSERT_GT(full.batches.size(), 2u);

  TempFile f("recon_planner_fallback.ckpt");
  AttackRunOptions stop;
  stop.stop_after_rounds = 2;
  stop.checkpoint_path = f.path;
  solver::FallbackStrategy first_half(o);
  run_attack(p, w, first_half, 8.0, stop);
  const auto first_plans = plan_records(first_half.planner());

  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  const sim::World resumed_world(p, cp.world_seed);
  AttackRunOptions resume;
  resume.resume = &cp;
  solver::FallbackStrategy second_half(o);
  const auto resumed = run_attack(p, resumed_world, second_half, 8.0, resume);
  expect_traces_equal(full, resumed, "fallback planner resume");
  const auto tail = plan_records(second_half.planner());
  ASSERT_GE(full_plans.size(), first_plans.size());
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(full_plans[first_plans.size() + i], tail[i])
        << "post-resume decision " << i;
  }
  // With calibrate_time frozen the fallback's full state (planner blob)
  // is bit-identical across the resume as well.
  EXPECT_EQ(second_half.save_state(), full_strategy.save_state());
}

TEST(PlannerCheckpoint, StateBlobPresentOnlyWhenEnabled) {
  PmArestOptions off;
  off.batch_size = 4;
  PmArest legacy(off);
  const Problem p = ba_problem(34);
  const sim::World w(p, 304);
  run_attack(p, w, legacy, 20.0);
  // Planner off: the state line is byte-identical to pre-planner builds.
  EXPECT_EQ(legacy.save_state().find("planner"), std::string::npos);

  PmArestOptions on = off;
  on.planner = auto_planner();
  PmArest planned(on);
  run_attack(p, w, planned, 20.0);
  EXPECT_NE(planned.save_state().find("planner"), std::string::npos);

  // A planner-enabled strategy refuses a planner-less (legacy) blob.
  PmArest target(on);
  EXPECT_THROW(target.restore_state(legacy.save_state()),
               std::invalid_argument);
  EXPECT_NO_THROW(target.restore_state(planned.save_state()));
  EXPECT_EQ(target.save_state(), planned.save_state());
}

// ---------------------------------------------------------------------------
// Forced-tier parity: `fixed:<s>` must reproduce the legacy flag-driven
// dispatch byte for byte (same selector, same arguments).

TEST(PlannerParity, PmFixedTiersMatchLegacyFlags) {
  const Problem p = ba_problem(41, 60);
  const sim::World w(p, 401);
  const auto run_pm = [&](PmArestOptions o) {
    PmArest s(o);
    return run_attack(p, w, s, 24.0);
  };
  struct Case {
    PlanStrategy fixed;
    bool use_cache;
    bool use_branch_tree;
    int k;
  };
  for (const Case c : {Case{PlanStrategy::kCollapsedCached, true, false, 5},
                       Case{PlanStrategy::kCollapsedUncached, false, false, 5},
                       Case{PlanStrategy::kBranchTree, false, true, 3}}) {
    PmArestOptions legacy;
    legacy.batch_size = c.k;
    legacy.allow_retries = true;
    legacy.use_cache = c.use_cache;
    legacy.use_branch_tree = c.use_branch_tree;
    PmArestOptions forced = legacy;
    forced.use_cache = true;  // ignored: planner overrides dispatch
    forced.use_branch_tree = false;
    forced.planner = fixed_planner(c.fixed);
    expect_traces_equal(run_pm(legacy), run_pm(forced),
                        std::string("pm fixed:") + plan_strategy_name(c.fixed));
  }
}

TEST(PlannerParity, FallbackFixedTiersMatchLegacyLadder) {
  const Problem p = er_problem(42, 50, 180);
  const sim::World w(p, 402);
  const auto run_fb = [&](solver::FallbackOptions o) {
    solver::FallbackStrategy s(o);
    auto trace = run_attack(p, w, s, 8.0);
    return std::make_pair(std::move(trace), s.tier_counts());
  };
  solver::FallbackOptions base;
  base.batch_size = 2;
  base.scenarios_per_batch = 100;
  base.candidate_cap = 10;

  // fixed:exact == legacy with generous deadlines (exact tier always wins).
  {
    solver::FallbackOptions legacy = base;
    legacy.exact_deadline_seconds = 30.0;
    legacy.saa_deadline_seconds = 30.0;
    solver::FallbackOptions forced = legacy;
    forced.planner = fixed_planner(PlanStrategy::kSaaExact);
    const auto a = run_fb(legacy);
    const auto b = run_fb(forced);
    ASSERT_GT(a.second.exact, 0u);
    EXPECT_EQ(b.second.exact, a.second.exact);
    expect_traces_equal(a.first, b.first, "fallback fixed:exact");
  }
  // fixed:saa == legacy with the exact tier disabled.
  {
    solver::FallbackOptions legacy = base;
    legacy.exact_deadline_seconds = 0.0;
    legacy.saa_deadline_seconds = 30.0;
    solver::FallbackOptions forced = base;
    forced.exact_deadline_seconds = 0.0;
    forced.saa_deadline_seconds = 30.0;
    forced.planner = fixed_planner(PlanStrategy::kSaaGreedy);
    const auto a = run_fb(legacy);
    const auto b = run_fb(forced);
    ASSERT_GT(a.second.saa_greedy, 0u);
    EXPECT_EQ(b.second.saa_greedy, a.second.saa_greedy);
    expect_traces_equal(a.first, b.first, "fallback fixed:saa");
  }
  // fixed:greedy == legacy with both SAA tiers disabled (pure floor).
  {
    solver::FallbackOptions legacy = base;
    legacy.exact_deadline_seconds = 0.0;
    legacy.saa_deadline_seconds = 0.0;
    solver::FallbackOptions forced = legacy;
    forced.planner = fixed_planner(PlanStrategy::kCollapsedUncached);
    const auto a = run_fb(legacy);
    const auto b = run_fb(forced);
    EXPECT_EQ(b.second.lazy_greedy, a.second.lazy_greedy);
    expect_traces_equal(a.first, b.first, "fallback fixed:greedy");
  }
}

TEST(PlannerParity, MipFixedTiersMatchLegacyFlags) {
  const Problem p = er_problem(43, 40, 140);
  const sim::World w(p, 403);
  const auto run_mip = [&](solver::MipStrategyOptions o) {
    solver::MipBatchStrategy s(o);
    return run_attack(p, w, s, 6.0);
  };
  solver::MipStrategyOptions base;
  base.batch_size = 2;
  base.scenarios_per_batch = 80;
  base.candidate_cap = 8;

  // fixed:exact == legacy exact B&B (greedy_only = false).
  {
    solver::MipStrategyOptions forced = base;
    forced.planner = fixed_planner(PlanStrategy::kSaaExact);
    expect_traces_equal(run_mip(base), run_mip(forced), "mip fixed:exact");
  }
  // fixed:saa == legacy greedy_only.
  {
    solver::MipStrategyOptions legacy = base;
    legacy.greedy_only = true;
    solver::MipStrategyOptions forced = base;
    forced.planner = fixed_planner(PlanStrategy::kSaaGreedy);
    expect_traces_equal(run_mip(legacy), run_mip(forced), "mip fixed:saa");
  }
  // Auto with no deadline keeps the legacy quality-first choice — the exact
  // tier — while the campaign has room, but the remaining-budget gate
  // deterministically demotes the near-exhausted tail (remaining < 2k unit-
  // cost requests) to SAA-greedy: spending the most solver time on the
  // final, mostly-truncated batch is exactly backwards. Budget 6 at k=2
  // plans at remaining 6, 4, 2 -> exact, exact, greedy.
  {
    solver::MipStrategyOptions auto_opts = base;
    auto_opts.planner = auto_planner();
    solver::MipBatchStrategy s(auto_opts);
    const auto trace = run_attack(p, w, s, 6.0);
    EXPECT_EQ(trace.batches.size(), 3u);
    const auto& log = s.planner().decision_log();
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0].strategy, PlanStrategy::kSaaExact);
    EXPECT_EQ(log[1].strategy, PlanStrategy::kSaaExact);
    EXPECT_EQ(log[2].strategy, PlanStrategy::kSaaGreedy);
    // Re-running the identical campaign reproduces the same demotion point.
    solver::MipBatchStrategy again(auto_opts);
    const auto trace2 = run_attack(p, w, again, 6.0);
    expect_traces_equal(trace, trace2, "mip auto budget-gate determinism");
    ASSERT_EQ(again.planner().decision_log().size(), 3u);
    EXPECT_EQ(again.planner().decision_log()[2].strategy,
              PlanStrategy::kSaaGreedy);
  }
}

TEST(PlannerParity, InadmissibleFixedStrategiesAreRejected) {
  PmArestOptions pm;
  pm.planner = fixed_planner(PlanStrategy::kSaaExact);
  EXPECT_THROW(PmArest{pm}, std::invalid_argument);
  pm.planner = fixed_planner(PlanStrategy::kSaaGreedy);
  EXPECT_THROW(PmArest{pm}, std::invalid_argument);

  solver::FallbackOptions fb;
  fb.planner = fixed_planner(PlanStrategy::kCollapsedCached);
  EXPECT_THROW(solver::FallbackStrategy{fb}, std::invalid_argument);
  fb.planner = fixed_planner(PlanStrategy::kBranchTree);
  EXPECT_THROW(solver::FallbackStrategy{fb}, std::invalid_argument);

  solver::MipStrategyOptions mip;
  mip.planner = fixed_planner(PlanStrategy::kCollapsedUncached);
  EXPECT_THROW(solver::MipBatchStrategy{mip}, std::invalid_argument);
  mip.planner = fixed_planner(PlanStrategy::kCollapsedCached);
  EXPECT_THROW(solver::MipBatchStrategy{mip}, std::invalid_argument);
  mip.planner = fixed_planner(PlanStrategy::kBranchTree);
  EXPECT_THROW(solver::MipBatchStrategy{mip}, std::invalid_argument);
}

}  // namespace
}  // namespace recon::core
