// Deadline-aware solver degradation: fob deadline handling and the
// exact -> SAA-greedy -> lazy-greedy FallbackStrategy.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/attack.h"
#include "core/batch_select.h"
#include "core/strategy.h"
#include "graph/generators.h"
#include "sim/observation.h"
#include "sim/problem.h"
#include "sim/world.h"
#include "solver/fallback.h"
#include "solver/fob.h"
#include "solver/saa.h"
#include "solver/strategy_mip.h"
#include "util/thread_pool.h"

namespace recon::solver {
namespace {

using graph::NodeId;
using sim::Observation;
using sim::Problem;

Problem small_problem(int seed, graph::NodeId n = 40, graph::EdgeId m = 120) {
  sim::ProblemOptions opts;
  opts.num_targets = 10;
  opts.base_acceptance = 0.5;
  opts.seed = static_cast<std::uint64_t>(seed);
  return sim::make_problem(
      graph::assign_edge_probs(graph::erdos_renyi_gnm(n, m, seed),
                               graph::EdgeProbModel::uniform(0.2, 0.9), seed + 1),
      opts);
}

TEST(FobDeadline, GreedyStopsAtTinyDeadline) {
  const Problem p = small_problem(1);
  const Observation obs(p);
  const auto candidates = fob_candidates(obs, false);
  const auto scenarios = sample_scenarios(obs, 400, 7);
  // A deadline so tight it cannot even finish singleton scoring.
  const FobResult r = fob_greedy(obs, scenarios, 3, candidates, 1e-9);
  EXPECT_TRUE(r.timed_out);
  // No deadline: a full batch comes back.
  const FobResult full = fob_greedy(obs, scenarios, 3, candidates);
  EXPECT_FALSE(full.timed_out);
  EXPECT_EQ(full.batch.size(), 3u);
  EXPECT_GT(full.objective, 0.0);
}

TEST(FobDeadline, ExactFallsBackToGreedyIncumbentOnTimeout) {
  const Problem p = small_problem(2);
  const Observation obs(p);
  const auto candidates = fob_candidates(obs, false);
  const auto scenarios = sample_scenarios(obs, 300, 8);

  FobExactOptions generous;
  const FobResult exact = fob_exact(obs, scenarios, 2, candidates, generous);
  EXPECT_TRUE(exact.exact);
  EXPECT_FALSE(exact.timed_out);
  EXPECT_EQ(exact.batch.size(), 2u);

  FobExactOptions tight;
  tight.deadline_seconds = 1e-9;
  const FobResult cut = fob_exact(obs, scenarios, 2, candidates, tight);
  EXPECT_TRUE(cut.timed_out);
  EXPECT_FALSE(cut.exact);
  // The exact answer is at least as good as whatever the cut solve returned.
  EXPECT_GE(exact.objective, cut.objective - 1e-9);
}

TEST(Fallback, ValidatesOptions) {
  FallbackOptions bad;
  bad.batch_size = 0;
  EXPECT_THROW(FallbackStrategy{bad}, std::invalid_argument);
  bad = {};
  bad.scenarios_per_batch = 0;
  EXPECT_THROW(FallbackStrategy{bad}, std::invalid_argument);
  bad = {};
  bad.exact_deadline_seconds = -1.0;
  EXPECT_THROW(FallbackStrategy{bad}, std::invalid_argument);
}

TEST(Fallback, GenerousDeadlineUsesExactTier) {
  const Problem p = small_problem(3);
  const sim::World w(p, 5);
  FallbackOptions o;
  o.batch_size = 2;
  o.scenarios_per_batch = 200;
  o.exact_deadline_seconds = 30.0;
  o.saa_deadline_seconds = 30.0;
  o.candidate_cap = 12;
  FallbackStrategy strategy(o);
  const auto trace = core::run_attack(p, w, strategy, 10.0);
  EXPECT_GT(trace.batches.size(), 0u);
  EXPECT_GT(strategy.tier_counts().exact, 0u);
  EXPECT_EQ(strategy.tier_counts().exact + strategy.tier_counts().saa_greedy +
                strategy.tier_counts().lazy_greedy,
            trace.batches.size());
}

TEST(Fallback, MillisecondDeadlineCompletesViaCheaperTiers) {
  const Problem p = small_problem(4, 120, 500);
  const sim::World w(p, 6);
  FallbackOptions o;
  o.batch_size = 4;
  o.scenarios_per_batch = 2000;  // makes one SAA evaluation expensive
  o.exact_deadline_seconds = 0.001;  // the acceptance criterion's 1 ms budget
  o.saa_deadline_seconds = 0.001;
  FallbackStrategy strategy(o);
  const auto trace = core::run_attack(p, w, strategy, 40.0);
  // The attack must complete and spend its budget despite the 1 ms ceiling.
  EXPECT_GT(trace.batches.size(), 0u);
  EXPECT_GT(trace.total_benefit(), 0.0);
  const auto& counts = strategy.tier_counts();
  EXPECT_EQ(counts.exact + counts.saa_greedy + counts.lazy_greedy,
            trace.batches.size());
  // At least one batch had to degrade below the exact tier.
  EXPECT_GT(counts.saa_greedy + counts.lazy_greedy, 0u);
}

TEST(Fallback, ZeroDeadlinesSkipStraightToFloor) {
  const Problem p = small_problem(5);
  const sim::World w(p, 7);
  FallbackOptions o;
  o.batch_size = 3;
  o.exact_deadline_seconds = 0.0;
  o.saa_deadline_seconds = 0.0;
  FallbackStrategy strategy(o);
  const auto trace = core::run_attack(p, w, strategy, 15.0);
  EXPECT_GT(trace.batches.size(), 0u);
  EXPECT_EQ(strategy.tier_counts().exact, 0u);
  EXPECT_EQ(strategy.tier_counts().saa_greedy, 0u);
  EXPECT_EQ(strategy.tier_counts().lazy_greedy, trace.batches.size());
}

TEST(Fallback, StateRoundTripsThroughSaveRestore) {
  FallbackOptions o;
  FallbackStrategy a(o);
  const Problem p = small_problem(6);
  const sim::World w(p, 8);
  core::run_attack(p, w, a, 9.0);
  const std::string blob = a.save_state();
  FallbackStrategy b(o);
  b.restore_state(blob);
  EXPECT_EQ(b.save_state(), blob);
  EXPECT_EQ(b.tier_counts().exact, a.tier_counts().exact);
  EXPECT_EQ(b.tier_counts().lazy_greedy, a.tier_counts().lazy_greedy);
  FallbackStrategy c(o);
  EXPECT_THROW(c.restore_state("not a fallback blob"), std::invalid_argument);
}

TEST(Fallback, MalformedStateBlobsAreRejected) {
  FallbackStrategy s{FallbackOptions{}};
  s.restore_state("fallback 4 2 1 1");
  for (const char* blob :
       {"", "fallback", "fallback 4 2 1", "fallback -1 0 0 0",
        "fallback 4 x 1 1", "mip 4 2 1 1", "Fallback 4 2 1 1"}) {
    EXPECT_THROW(s.restore_state(blob), std::invalid_argument) << '"' << blob << '"';
    // A refused blob leaves the restored state untouched.
    EXPECT_EQ(s.save_state(), "fallback 4 2 1 1") << '"' << blob << '"';
  }
}

TEST(Fallback, ReusedStrategyReplaysIdentically) {
  // begin() resets the round counter (which seeds each round's scenarios)
  // and the tier tallies, so a second campaign on the same object repeats
  // the first one exactly.
  const Problem p = small_problem(9, 50, 180);
  const sim::World w(p, 109);
  FallbackOptions o;
  o.batch_size = 2;
  o.scenarios_per_batch = 80;
  o.exact_deadline_seconds = 30.0;
  o.saa_deadline_seconds = 30.0;
  o.candidate_cap = 8;
  FallbackStrategy strategy(o);
  const auto first = core::run_attack(p, w, strategy, 8.0);
  const std::string first_state = strategy.save_state();
  const auto second = core::run_attack(p, w, strategy, 8.0);
  ASSERT_GT(first.batches.size(), 1u);
  ASSERT_EQ(second.batches.size(), first.batches.size());
  for (std::size_t i = 0; i < first.batches.size(); ++i) {
    EXPECT_EQ(second.batches[i].requests, first.batches[i].requests) << i;
  }
  EXPECT_EQ(strategy.save_state(), first_state);
  EXPECT_EQ(strategy.tier_counts().exact, first.batches.size());
}

/// Expects two traces to select, observe and score the same batches
/// (select_seconds is wall clock and never compared).
void expect_same_batches(const sim::AttackTrace& a, const sim::AttackTrace& b,
                         const std::string& label) {
  ASSERT_EQ(a.batches.size(), b.batches.size()) << label;
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].requests, b.batches[i].requests) << label << " batch " << i;
    EXPECT_EQ(a.batches[i].accepted, b.batches[i].accepted) << label << " batch " << i;
    EXPECT_EQ(a.batches[i].outcome, b.batches[i].outcome) << label << " batch " << i;
    EXPECT_DOUBLE_EQ(a.batches[i].cumulative.total(), b.batches[i].cumulative.total())
        << label << " batch " << i;
  }
}

FallbackOptions ladder_options() {
  FallbackOptions o;
  o.batch_size = 2;
  o.scenarios_per_batch = 100;
  o.candidate_cap = 10;
  return o;
}

TEST(FallbackLadder, ExactTierMatchesTheExactMipStrategy) {
  // With deadlines no solve reaches, every batch is the exact B&B optimum
  // over the same per-round scenarios the Exact-MIP strategy samples.
  const Problem p = small_problem(42, 50, 180);
  const sim::World w(p, 402);
  FallbackOptions fo = ladder_options();
  fo.exact_deadline_seconds = 30.0;
  fo.saa_deadline_seconds = 30.0;
  FallbackStrategy fallback(fo);
  const auto a = core::run_attack(p, w, fallback, 8.0);

  MipStrategyOptions mo;
  mo.batch_size = fo.batch_size;
  mo.scenarios_per_batch = fo.scenarios_per_batch;
  mo.candidate_cap = fo.candidate_cap;
  MipBatchStrategy mip(mo);
  const auto b = core::run_attack(p, w, mip, 8.0);

  ASSERT_GT(a.batches.size(), 1u);
  EXPECT_EQ(fallback.tier_counts().exact, a.batches.size());
  EXPECT_TRUE(mip.all_exact());
  expect_same_batches(a, b, "exact tier vs Exact-MIP");
}

TEST(FallbackLadder, SaaTierMatchesTheSaaGreedyMipStrategy) {
  // A zero exact deadline skips B&B; the SAA tier then runs the same lazy
  // greedy over the same scenarios as MipBatchStrategy's greedy_only mode.
  const Problem p = small_problem(42, 50, 180);
  const sim::World w(p, 402);
  FallbackOptions fo = ladder_options();
  fo.exact_deadline_seconds = 0.0;
  fo.saa_deadline_seconds = 30.0;
  FallbackStrategy fallback(fo);
  const auto a = core::run_attack(p, w, fallback, 8.0);

  MipStrategyOptions mo;
  mo.batch_size = fo.batch_size;
  mo.scenarios_per_batch = fo.scenarios_per_batch;
  mo.greedy_only = true;
  MipBatchStrategy mip(mo);
  const auto b = core::run_attack(p, w, mip, 8.0);

  ASSERT_GT(a.batches.size(), 1u);
  EXPECT_EQ(fallback.tier_counts().saa_greedy, a.batches.size());
  EXPECT_EQ(fallback.tier_counts().exact, 0u);
  expect_same_batches(a, b, "saa tier vs SAA-Greedy");
}

/// Plain BATCHSELECT each round, configured the way the floor tier
/// documents it: the floor policy, no per-node attempt cap and the
/// remaining budget as the cost ceiling.
class PlainBatchSelect : public core::Strategy {
 public:
  explicit PlainBatchSelect(const FallbackOptions& o) : o_(o) {}
  std::string name() const override { return "PlainBatchSelect"; }
  std::vector<NodeId> next_batch(const Observation& obs,
                                 double remaining_budget) override {
    core::BatchSelectOptions bs;
    bs.batch_size = static_cast<int>(
        std::min<double>(o_.batch_size, remaining_budget));
    if (bs.batch_size == 0) return {};
    bs.policy = o_.floor_policy;
    bs.allow_retries = o_.allow_retries;
    bs.remaining_budget = remaining_budget;
    return core::batch_select(obs, bs);
  }

 private:
  FallbackOptions o_;
};

TEST(FallbackLadder, FloorTierMatchesPlainBatchSelect) {
  const Problem p = small_problem(43, 60, 220);
  const sim::World w(p, 403);
  for (const bool retries : {false, true}) {
    FallbackOptions fo;
    fo.batch_size = 4;
    fo.allow_retries = retries;
    fo.exact_deadline_seconds = 0.0;
    fo.saa_deadline_seconds = 0.0;
    util::ThreadPool pool(2);
    fo.pool = &pool;
    FallbackStrategy fallback(fo);
    const auto a = core::run_attack(p, w, fallback, 22.0);
    PlainBatchSelect plain(fo);
    const auto b = core::run_attack(p, w, plain, 22.0);
    ASSERT_GT(a.batches.size(), 1u);
    EXPECT_EQ(fallback.tier_counts().lazy_greedy, a.batches.size());
    expect_same_batches(a, b, retries ? "floor, retries" : "floor");
  }
}

/// Runs one fallback campaign with no pool and with 2 and 8 workers; every
/// run must select the same batches, and each must have been served by the
/// tier `expect_tier` picks out of the counts.
void expect_thread_count_invariant(
    FallbackOptions o, double budget,
    std::uint64_t FallbackTierCounts::*expect_tier) {
  const Problem p = small_problem(13, 50, 180);
  const sim::World w(p, 103);
  sim::AttackTrace base;
  for (const unsigned threads : {0u, 2u, 8u}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    o.pool = pool.get();
    FallbackStrategy strategy(o);
    const auto trace = core::run_attack(p, w, strategy, budget);
    ASSERT_GT(trace.batches.size(), 1u) << threads;
    EXPECT_EQ(strategy.tier_counts().*expect_tier, trace.batches.size())
        << threads;
    if (threads == 0) {
      base = trace;
      continue;
    }
    expect_same_batches(base, trace, "threads=" + std::to_string(threads));
  }
}

TEST(FallbackDeterminism, ExactTierIdenticalAcrossThreadCounts) {
  // Deadlines far beyond any solve time: the exact tier wins every batch,
  // so no wall-clock race can pick a different tier at another pool size.
  FallbackOptions o;
  o.batch_size = 2;
  o.scenarios_per_batch = 120;
  o.exact_deadline_seconds = 30.0;
  o.saa_deadline_seconds = 30.0;
  o.candidate_cap = 10;
  expect_thread_count_invariant(o, 8.0, &FallbackTierCounts::exact);
}

TEST(FallbackDeterminism, FloorTierIdenticalAcrossThreadCounts) {
  // Zero deadlines pin the lazy-greedy floor, which with a pool runs the
  // sharded parallel scoring pass of batch_select.
  FallbackOptions o;
  o.batch_size = 5;
  o.allow_retries = true;
  o.exact_deadline_seconds = 0.0;
  o.saa_deadline_seconds = 0.0;
  expect_thread_count_invariant(o, 30.0, &FallbackTierCounts::lazy_greedy);
}

TEST(FallbackDeterminism, SaaTierIdenticalAcrossThreadCounts) {
  // No exact tier and a deadline far beyond any solve: the SAA greedy tier
  // serves every batch, with its scenario fan-out on the pool.
  FallbackOptions o;
  o.batch_size = 3;
  o.scenarios_per_batch = 120;
  o.exact_deadline_seconds = 0.0;
  o.saa_deadline_seconds = 30.0;
  expect_thread_count_invariant(o, 9.0, &FallbackTierCounts::saa_greedy);
}

}  // namespace
}  // namespace recon::solver
