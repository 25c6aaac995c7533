// Runtime-adaptive execution planner: determinism contract, checkpoint
// round-trips, forced-tier parity with the legacy flag-driven dispatch, the
// shared planner-spec parser, and the per-instance shard-calibration
// regression (no process-global leakage between same-process campaigns).
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
#include "graph/generators.h"
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

TEST(PlannerSpec, ParsesGrammarAndRefusesUnhostedStrategies) {
  EXPECT_EQ(parse_planner_spec("off", "pm").mode, PlannerMode::kOff);
  EXPECT_EQ(parse_planner_spec("auto", "fallback").mode, PlannerMode::kAuto);
  const PlannerOptions fixed = parse_planner_spec("fixed:greedy", "fallback");
  EXPECT_EQ(fixed.mode, PlannerMode::kFixed);
  EXPECT_EQ(fixed.fixed_strategy, PlanStrategy::kCollapsedUncached);
  EXPECT_EQ(parse_planner_spec("fixed:exact", "mip").fixed_strategy,
            PlanStrategy::kSaaExact);
  EXPECT_THROW(parse_planner_spec("sideways", "fallback"), std::invalid_argument);
  EXPECT_THROW(parse_planner_spec("fixed:turbo", "mip"), std::invalid_argument);
  // PM-AReST runs one selector: any planner other than off is refused, with
  // a message that names the setting.
  for (const char* spec : {"auto", "fixed:cached", "fixed:tree"}) {
    try {
      parse_planner_spec(spec, "pm");
      ADD_FAILURE() << spec << " accepted for strategy pm";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("planner '"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(parse_planner_spec("auto", "random"), std::invalid_argument);
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

// The MIP host's auto planner with no deadline configured: the live ns/unit
// calibration is on but steers nothing, so the decision sequence is a pure
// function of the campaign and must not depend on the worker count.
void expect_thread_count_invariant(const Problem& p, std::uint64_t world_seed) {
  const sim::World w(p, world_seed);
  sim::AttackTrace base;
  std::vector<PlanRecord> base_plans;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                    std::size_t{8}}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    solver::MipStrategyOptions o;
    o.batch_size = 3;
    o.scenarios_per_batch = 60;
    o.candidate_cap = 8;
    o.pool = pool.get();
    o.planner = auto_planner();
    solver::MipBatchStrategy strategy(o);
    const auto trace = run_attack(p, w, strategy, 12.0);
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
// and two same-seed campaigns in one process must be identical. The
// fallback ladder's floor tier (batch_select) is the calibration's consumer:
// pinned there with a pool, every batch runs a sharded scoring pass.

solver::FallbackOptions floor_fallback(util::ThreadPool* pool) {
  solver::FallbackOptions o;
  o.batch_size = 5;
  o.allow_retries = true;
  o.scenarios_per_batch = 50;
  o.exact_deadline_seconds = 0.0;
  o.saa_deadline_seconds = 0.0;
  o.pool = pool;
  return o;
}

TEST(PlannerCalibration, PlannerRunsLeaveProcessCalibrationUntouched) {
  const std::uint64_t sentinel = 12345;
  process_shard_calibration().set_raw(sentinel);
  const Problem p = ba_problem(21);
  const sim::World w(p, 201);
  util::ThreadPool pool(2);
  solver::FallbackOptions o = floor_fallback(&pool);
  o.planner = fixed_planner(PlanStrategy::kCollapsedUncached);
  solver::FallbackStrategy strategy(o);
  run_attack(p, w, strategy, 30.0);
  ASSERT_GT(strategy.tier_counts().lazy_greedy, 0u);
  EXPECT_EQ(process_shard_calibration().raw(), sentinel)
      << "planner campaign leaked into the process-wide shard calibration";
  reset_shard_calibration_for_test();
  EXPECT_EQ(process_shard_calibration().raw(),
            ShardCalibration::kColdStartNanosPerUnit);
}

TEST(PlannerCalibration, BackToBackSameSeedCampaignsAreIdentical) {
  const Problem p = ba_problem(22);
  const sim::World w(p, 202);
  util::ThreadPool pool(2);
  auto run_once = [&] {
    solver::FallbackOptions o = floor_fallback(&pool);
    o.planner = fixed_planner(PlanStrategy::kCollapsedUncached);
    solver::FallbackStrategy strategy(o);
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
  util::ThreadPool pool(2);
  auto run_once = [&] {
    // Legacy planner-off path shares the process-wide calibration; the reset
    // hook restores cold-start state so reruns are reproducible by
    // construction, not just by the layout-neutrality argument.
    reset_shard_calibration_for_test();
    solver::FallbackStrategy strategy(floor_fallback(&pool));
    return run_attack(p, w, strategy, 30.0);
  };
  const auto a = run_once();
  const auto b = run_once();
  expect_traces_equal(a, b, "legacy rerun");
}

// ---------------------------------------------------------------------------
// Checkpoint/resume: a resumed campaign replans identically from the restore
// point, including under faults and retry backoff.

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

// PM-AReST hosts no planner: its state is the four varying-k RNG words, and
// a resumed campaign must end in the same full state as an uninterrupted one.
TEST(PlannerCheckpoint, PmArestResumeRestoresFullStateBitExact) {
  const Problem p = ba_problem(34);
  const sim::World w(p, 304);
  PmArestOptions o;
  o.batch_size = 6;
  o.allow_retries = true;

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

  // Full strategy state, not just the selections it produces, is
  // bit-identical across the resume, and it carries no planner section.
  EXPECT_EQ(second_half.save_state(), full_strategy.save_state());
  EXPECT_EQ(full_strategy.save_state().find("planner"), std::string::npos);

  // Checkpoint -> checkpoint round-trip is lossless even before the rebuilt
  // cache exists: a freshly restored strategy re-emits the same blob.
  PmArest reloaded(o);
  reloaded.restore_state(second_half.save_state());
  EXPECT_EQ(reloaded.save_state(), second_half.save_state());
}

TEST(PlannerCheckpoint, StateBlobPresentOnlyWhenEnabled) {
  const Problem p = er_problem(35, 50, 180);
  const sim::World w(p, 305);
  solver::FallbackOptions off;
  off.batch_size = 2;
  off.scenarios_per_batch = 60;
  off.exact_deadline_seconds = 30.0;
  off.saa_deadline_seconds = 30.0;
  off.candidate_cap = 8;
  solver::FallbackStrategy legacy(off);
  run_attack(p, w, legacy, 6.0);
  // Planner off: the state line is byte-identical to pre-planner builds.
  EXPECT_EQ(legacy.save_state().find("planner"), std::string::npos);

  solver::FallbackOptions on = off;
  on.planner = auto_planner();
  on.planner.calibrate_time = false;
  solver::FallbackStrategy planned(on);
  run_attack(p, w, planned, 6.0);
  EXPECT_NE(planned.save_state().find("planner"), std::string::npos);

  // A planner-enabled strategy refuses a planner-less (legacy) blob.
  solver::FallbackStrategy target(on);
  EXPECT_THROW(target.restore_state(legacy.save_state()),
               std::invalid_argument);
  EXPECT_NO_THROW(target.restore_state(planned.save_state()));
  EXPECT_EQ(target.save_state(), planned.save_state());
}

// ---------------------------------------------------------------------------
// Forced-tier parity: `fixed:<s>` must reproduce the legacy flag-driven
// dispatch byte for byte (same selector, same arguments).

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
