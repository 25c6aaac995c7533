// Tests for the Exact-MIP attack strategy (SAA + B&B each round, Thm. 3).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "core/attack.h"
#include "core/pm_arest.h"
#include "graph/generators.h"
#include "sim/problem.h"
#include "solver/strategy_mip.h"
#include "util/thread_pool.h"

namespace recon::solver {
namespace {

sim::Problem mip_problem(int seed) {
  sim::ProblemOptions opts;
  opts.num_targets = 12;
  opts.base_acceptance = 0.45;
  opts.seed = static_cast<std::uint64_t>(seed);
  return sim::make_problem(
      graph::assign_edge_probs(graph::erdos_renyi_gnm(40, 90, seed),
                               graph::EdgeProbModel::uniform(0.3, 0.9), seed + 1),
      opts);
}

sim::Problem ba_problem(int seed, graph::NodeId n = 100) {
  sim::ProblemOptions opts;
  opts.num_targets = 20;
  opts.base_acceptance = 0.4;
  opts.seed = static_cast<std::uint64_t>(seed);
  return sim::make_problem(
      graph::assign_edge_probs(graph::barabasi_albert(n, 4, seed),
                               graph::EdgeProbModel::uniform(0.3, 0.95), seed + 1),
      opts);
}

sim::Problem er_problem(int seed, graph::NodeId n = 80, graph::EdgeId m = 320) {
  sim::ProblemOptions opts;
  opts.num_targets = 16;
  opts.base_acceptance = 0.5;
  opts.seed = static_cast<std::uint64_t>(seed);
  return sim::make_problem(
      graph::assign_edge_probs(graph::erdos_renyi_gnm(n, m, seed),
                               graph::EdgeProbModel::uniform(0.2, 0.9), seed + 1),
      opts);
}

/// Trace equality modulo select_seconds (wall clock, never reproducible).
void expect_traces_equal(const sim::AttackTrace& a, const sim::AttackTrace& b,
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

MipStrategyOptions determinism_options() {
  MipStrategyOptions o;
  o.batch_size = 3;
  o.scenarios_per_batch = 60;
  o.candidate_cap = 8;
  return o;
}

/// A MIP campaign (the default exact path, SAA scenarios + B&B each round,
/// unless `o` picks another solver) selects the same batches with no pool
/// and with 2 or 8 workers fanning out the scenarios.
void expect_thread_count_invariant(const sim::Problem& p, std::uint64_t world_seed,
                                   MipStrategyOptions o = determinism_options()) {
  const sim::World w(p, world_seed);
  sim::AttackTrace base;
  for (const unsigned threads : {0u, 2u, 8u}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    o.pool = pool.get();
    MipBatchStrategy strategy(o);
    const auto trace = core::run_attack(p, w, strategy, 12.0);
    ASSERT_GT(trace.batches.size(), 1u);
    if (!o.greedy_only) {
      EXPECT_TRUE(strategy.all_exact());
    }
    if (threads == 0) {
      base = trace;
    } else {
      expect_traces_equal(base, trace, "threads=" + std::to_string(threads));
    }
  }
}

TEST(MipDeterminism, IdenticalAcrossThreadCountsBA) {
  expect_thread_count_invariant(ba_problem(11), 101);
}

TEST(MipDeterminism, IdenticalAcrossThreadCountsER) {
  expect_thread_count_invariant(er_problem(12), 102);
}

TEST(MipDeterminism, GreedyOnlyIdenticalAcrossThreadCounts) {
  MipStrategyOptions o = determinism_options();
  o.greedy_only = true;
  expect_thread_count_invariant(ba_problem(13), 103, o);
}

TEST(MipDeterminism, BendersIdenticalAcrossThreadCounts) {
  MipStrategyOptions o = determinism_options();
  o.use_benders = true;
  expect_thread_count_invariant(er_problem(14, 50, 180), 104, o);
}

TEST(MipStrategy, Validation) {
  MipStrategyOptions o;
  o.batch_size = 0;
  EXPECT_THROW(MipBatchStrategy{o}, std::invalid_argument);
  o.batch_size = 3;
  o.scenarios_per_batch = 0;
  EXPECT_THROW(MipBatchStrategy{o}, std::invalid_argument);
}

TEST(MipStrategy, NamesReflectMode) {
  MipStrategyOptions o;
  o.batch_size = 3;
  EXPECT_EQ(MipBatchStrategy(o).name(), "Exact-MIP");
  o.use_benders = true;
  EXPECT_EQ(MipBatchStrategy(o).name(), "Exact-LShaped");
  o.use_benders = false;
  o.greedy_only = true;
  EXPECT_EQ(MipBatchStrategy(o).name(), "SAA-Greedy");
}

TEST(MipStrategy, BendersVariantMatchesBnbVariant) {
  // Same scenarios (same per-round seeds) -> the two exact solvers must
  // pick identical batches through a whole attack.
  const sim::Problem p = mip_problem(4);
  const sim::World w(p, 7);
  MipStrategyOptions o;
  o.batch_size = 3;
  o.scenarios_per_batch = 80;
  o.candidate_cap = 12;
  MipBatchStrategy bnb(o);
  o.use_benders = true;
  MipBatchStrategy benders(o);
  const auto t1 = core::run_attack(p, w, bnb, 9.0);
  const auto t2 = core::run_attack(p, w, benders, 9.0);
  ASSERT_EQ(t1.batches.size(), t2.batches.size());
  for (std::size_t i = 0; i < t1.batches.size(); ++i) {
    EXPECT_EQ(t1.batches[i].requests, t2.batches[i].requests);
  }
  EXPECT_TRUE(benders.all_exact());
}

TEST(MipStrategy, MalformedStateBlobsAreRejected) {
  MipBatchStrategy s{MipStrategyOptions{}};
  s.restore_state("mip 4 0");
  for (const char* blob : {"", "mip", "mip 4", "mip -1 1", "mip x 1",
                           "fallback 4 0", "MIP 4 0"}) {
    EXPECT_THROW(s.restore_state(blob), std::invalid_argument) << '"' << blob << '"';
    // A refused blob leaves the restored state untouched.
    EXPECT_EQ(s.save_state(), "mip 4 0") << '"' << blob << '"';
    EXPECT_FALSE(s.all_exact());
  }
}

TEST(MipStrategy, ReusedStrategyReplaysIdentically) {
  // begin() resets the round counter that seeds each round's scenarios, so
  // a second campaign on the same object repeats the first one exactly.
  const sim::Problem p = mip_problem(5);
  const sim::World w(p, 11);
  MipStrategyOptions o = determinism_options();
  o.batch_size = 2;
  MipBatchStrategy strategy(o);
  const auto first = core::run_attack(p, w, strategy, 8.0);
  const std::string first_state = strategy.save_state();
  const auto second = core::run_attack(p, w, strategy, 8.0);
  ASSERT_GT(first.batches.size(), 1u);
  expect_traces_equal(first, second, "second campaign");
  EXPECT_EQ(strategy.save_state(), first_state);
  EXPECT_TRUE(strategy.all_exact());
}

TEST(MipStrategy, RunsFullAttackWithinBudget) {
  const sim::Problem p = mip_problem(1);
  const sim::World w(p, 5);
  MipStrategyOptions o;
  o.batch_size = 3;
  o.scenarios_per_batch = 120;
  o.candidate_cap = 15;
  MipBatchStrategy strategy(o);
  const auto trace = core::run_attack(p, w, strategy, 12.0);
  EXPECT_EQ(trace.total_requests(), 12u);
  EXPECT_TRUE(strategy.all_exact());
  EXPECT_GT(trace.total_benefit(), 0.0);
  for (const auto& b : trace.batches) EXPECT_LE(b.requests.size(), 3u);
}

TEST(MipStrategy, CompetitiveWithBatchSelect) {
  // The paper's Fig. 6 conclusion: exact batch selection buys only a sliver
  // over greedy BATCHSELECT. Assert the two land within 12% of each other.
  const sim::Problem p = mip_problem(2);
  const int runs = 6;
  const double budget = 12.0;
  const auto greedy = core::run_monte_carlo(
      p,
      [](int) {
        return std::make_unique<core::PmArest>(core::PmArestOptions{.batch_size = 3});
      },
      runs, budget, 31);
  const auto exact = core::run_monte_carlo(
      p,
      [](int) {
        MipStrategyOptions o;
        o.batch_size = 3;
        o.scenarios_per_batch = 200;
        o.candidate_cap = 15;
        return std::make_unique<MipBatchStrategy>(o);
      },
      runs, budget, 31);
  EXPECT_GT(exact.mean_benefit(), greedy.mean_benefit() * 0.88);
  EXPECT_LT(exact.mean_benefit(), greedy.mean_benefit() * 1.12);
}

TEST(MipStrategy, ResamplesScenariosEachRound) {
  // Different rounds must not reuse the same scenario seed: two consecutive
  // identical observations should still be able to produce different batches
  // only via scenario noise, but more importantly the strategy must remain
  // deterministic across whole-attack replays.
  const sim::Problem p = mip_problem(3);
  const sim::World w(p, 9);
  MipStrategyOptions o;
  o.batch_size = 2;
  o.scenarios_per_batch = 60;
  o.candidate_cap = 10;
  MipBatchStrategy s1(o), s2(o);
  const auto t1 = core::run_attack(p, w, s1, 8.0);
  const auto t2 = core::run_attack(p, w, s2, 8.0);
  ASSERT_EQ(t1.batches.size(), t2.batches.size());
  for (std::size_t i = 0; i < t1.batches.size(); ++i) {
    EXPECT_EQ(t1.batches[i].requests, t2.batches[i].requests);
  }
}

}  // namespace
}  // namespace recon::solver
