// Determinism regression tests for the parallel solver engine (branch-tree
// subtree fan-out, SAA scenario parallel_reduce, the FOB singleton fan-out,
// adaptive shard planning), plus differential tests of the SAA kernels
// against the reference implementations in saa_oracle.h.
//
// Every assertion here is EXACT double/vector equality — never EXPECT_NEAR:
// the engine's contract (docs/API.md, "Solver parallelism") is that thread
// count, chunk-to-worker assignment, and scenario-order permutations change
// *nothing*, down to the last ulp. These tests run under the TSan and ASan
// CI jobs as well, so the lock-free scheduling underneath is exercised with
// race detection on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/attack.h"
#include "core/batch_select.h"
#include "core/branch_tree.h"
#include "core/retry_policy.h"
#include "graph/generators.h"
#include "sim/fault.h"
#include "sim/observation.h"
#include "sim/problem.h"
#include "saa_oracle.h"
#include "solver/fob.h"
#include "solver/saa.h"
#include "solver/strategy_mip.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace recon {
namespace {

using graph::NodeId;
using sim::Observation;
using sim::Problem;

Problem fixture_problem(bool ba, int seed, NodeId n = 120, double mutual_boost = 0.0) {
  sim::ProblemOptions opts;
  opts.num_targets = 25;
  opts.base_acceptance = 0.4;
  opts.mutual_boost = mutual_boost;
  opts.seed = static_cast<std::uint64_t>(seed);
  return sim::make_problem(
      graph::assign_edge_probs(ba ? graph::barabasi_albert(n, 5, seed)
                                  : graph::erdos_renyi_gnm(n, 4 * n, seed),
                               graph::EdgeProbModel::uniform(0.2, 0.95), seed + 1),
      opts);
}

void advance_observation(const Problem& p, Observation& obs, int steps, int seed) {
  const sim::World w(p, static_cast<std::uint64_t>(seed) + 500);
  util::Rng rng(static_cast<std::uint64_t>(seed));
  for (int step = 0; step < steps; ++step) {
    const auto u = static_cast<NodeId>(rng.below(p.graph.num_nodes()));
    if (obs.is_friend(u)) continue;
    if (w.attempt_accept(u, obs.attempts(u), obs.acceptance_prob(u))) {
      obs.record_accept(u, w.true_neighbors(u));
    } else {
      obs.record_reject(u);
    }
  }
}

/// First `size` requestable nodes — a deterministic, friend-free batch.
std::vector<NodeId> requestable_prefix(const Observation& obs, std::size_t size) {
  std::vector<NodeId> batch;
  const auto& p = obs.problem();
  for (NodeId u = 0; u < p.graph.num_nodes() && batch.size() < size; ++u) {
    if (!obs.is_friend(u) && obs.attempts(u) == 0) batch.push_back(u);
  }
  return batch;
}

TEST(BranchTreeParallel, GammaBitIdenticalAcrossThreadCounts) {
  // A 12-node batch makes a 4096-branch tree, deep enough that the parallel
  // path splits it into real subtrees at every tested pool size.
  for (const bool ba : {true, false}) {
    const Problem p = fixture_problem(ba, 3);
    Observation obs(p);
    advance_observation(p, obs, 15, 3);
    const auto batch = requestable_prefix(obs, 12);
    ASSERT_EQ(batch.size(), 12u);
    for (const auto policy :
         {core::MarginalPolicy::kWeighted, core::MarginalPolicy::kPaperLiteral}) {
      for (NodeId u = 60; u < 70; ++u) {
        if (obs.is_friend(u)) continue;
        const double reference = core::branch_tree_gamma(obs, batch, u, policy);
        for (const unsigned threads : {1u, 2u, 8u}) {
          util::ThreadPool pool(threads);
          EXPECT_EQ(core::branch_tree_gamma(obs, batch, u, policy, &pool), reference)
              << (ba ? "BA" : "ER") << " node=" << u << " threads=" << threads;
        }
      }
    }
  }
}

TEST(BranchTreeParallel, SelectBitIdenticalAcrossThreadCounts) {
  for (const bool ba : {true, false}) {
    const Problem p = fixture_problem(ba, 5, /*n=*/60);
    Observation obs(p);
    advance_observation(p, obs, 10, 5);
    core::BranchTreeOptions seq;
    seq.batch_size = 9;  // final rounds exceed the subtree cutoff
    const auto reference = core::branch_tree_select(obs, seq);
    ASSERT_FALSE(reference.empty());
    for (const unsigned threads : {1u, 2u, 8u}) {
      util::ThreadPool pool(threads);
      core::BranchTreeOptions par = seq;
      par.pool = &pool;
      EXPECT_EQ(core::branch_tree_select(obs, par), reference)
          << (ba ? "BA" : "ER") << " threads=" << threads;
    }
  }
}

TEST(SaaParallel, ObjectiveBitIdenticalAcrossThreadCountsAndScenarioOrder) {
  for (const bool ba : {true, false}) {
    const Problem p = fixture_problem(ba, 7);
    Observation obs(p);
    advance_observation(p, obs, 20, 7);
    auto scenarios = solver::sample_scenarios(obs, 101, 13);  // odd on purpose
    const auto batch = requestable_prefix(obs, 8);
    const double reference = solver::saa_objective(obs, scenarios, batch);

    std::mt19937 perm_rng(321);  // shuffling test inputs only, not simulation
    for (const unsigned threads : {1u, 2u, 8u}) {
      util::ThreadPool pool(threads);
      const solver::SaaEvalOptions eval{&pool, /*antithetic_pairs=*/false};
      EXPECT_EQ(solver::saa_objective(obs, scenarios, batch, eval), reference)
          << (ba ? "BA" : "ER") << " threads=" << threads;
      // The scenario *order* must not matter either: the sorted-sum merge
      // makes the mean a function of the multiset of benefits alone.
      auto permuted = scenarios;
      std::shuffle(permuted.begin(), permuted.end(), perm_rng);
      EXPECT_EQ(solver::saa_objective(obs, permuted, batch, eval), reference)
          << (ba ? "BA" : "ER") << " threads=" << threads << " (permuted)";
      EXPECT_EQ(solver::saa_objective(obs, permuted, batch), reference)
          << (ba ? "BA" : "ER") << " (permuted, sequential)";
    }
  }
}

TEST(SaaParallel, ScenarioBenefitsMatchSequentialEntrywise) {
  const Problem p = fixture_problem(true, 9);
  Observation obs(p);
  advance_observation(p, obs, 18, 9);
  const auto scenarios = solver::sample_scenarios(obs, 64, 21);
  const auto batch = requestable_prefix(obs, 6);
  const auto reference = solver::scenario_benefits(obs, scenarios, batch);
  for (const unsigned threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(solver::scenario_benefits(obs, scenarios, batch, &pool), reference)
        << "threads=" << threads;
  }
}

TEST(SaaParallel, AntitheticPairsBitIdenticalAcrossThreadsAndPairOrder) {
  for (const bool ba : {true, false}) {
    const Problem p = fixture_problem(ba, 11);
    Observation obs(p);
    advance_observation(p, obs, 20, 11);
    const auto scenarios = solver::sample_scenarios_antithetic(obs, 80, 17);
    ASSERT_EQ(scenarios.size() % 2, 0u);
    const auto batch = requestable_prefix(obs, 8);
    const double reference =
        solver::saa_objective(obs, scenarios, batch,
                              solver::SaaEvalOptions{nullptr, true});

    std::mt19937 perm_rng(654);  // shuffling test inputs only, not simulation
    for (const unsigned threads : {1u, 2u, 8u}) {
      util::ThreadPool pool(threads);
      const solver::SaaEvalOptions eval{&pool, /*antithetic_pairs=*/true};
      EXPECT_EQ(solver::saa_objective(obs, scenarios, batch, eval), reference)
          << (ba ? "BA" : "ER") << " threads=" << threads;
      // Permuting whole (U, 1-U) pairs keeps the multiset of pair sums, so
      // the objective must not move a bit.
      std::vector<std::size_t> pair_order(scenarios.size() / 2);
      std::iota(pair_order.begin(), pair_order.end(), 0u);
      std::shuffle(pair_order.begin(), pair_order.end(), perm_rng);
      std::vector<solver::Scenario> permuted;
      permuted.reserve(scenarios.size());
      for (const std::size_t pair : pair_order) {
        permuted.push_back(scenarios[2 * pair]);
        permuted.push_back(scenarios[2 * pair + 1]);
      }
      EXPECT_EQ(solver::saa_objective(obs, permuted, batch, eval), reference)
          << (ba ? "BA" : "ER") << " threads=" << threads << " (pairs permuted)";
    }
  }
}

TEST(SaaParallel, AntitheticOddScenarioCountThrows) {
  // The chunking-hazard guard: an odd count means some (U, 1-U) pair has
  // been separated before evaluation even starts — refuse loudly rather
  // than silently de-pairing the reduction units.
  const Problem p = fixture_problem(false, 13);
  Observation obs(p);
  auto scenarios = solver::sample_scenarios_antithetic(obs, 40, 3);
  scenarios.pop_back();
  const auto batch = requestable_prefix(obs, 4);
  util::ThreadPool pool(2);
  for (util::ThreadPool* pl : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    EXPECT_THROW(solver::saa_objective(obs, scenarios, batch,
                                       solver::SaaEvalOptions{pl, true}),
                 std::invalid_argument);
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Random friend-free batches with duplicate entries and adjacent members.
std::vector<std::vector<NodeId>> kernel_batches(const Observation& obs, int seed) {
  const auto& g = obs.problem().graph;
  util::Rng rng(static_cast<std::uint64_t>(seed) * 31 + 7);
  std::vector<NodeId> open;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!obs.is_friend(u)) open.push_back(u);
  }
  std::vector<std::vector<NodeId>> out;
  for (int t = 0; t < 12; ++t) {
    std::vector<NodeId> batch;
    const std::size_t size = 1 + rng.below(8);
    for (std::size_t i = 0; i < size; ++i) batch.push_back(open[rng.below(open.size())]);
    batch.push_back(batch.front());  // duplicate entry
    // An open neighbour of the first member, so both can be accepted.
    for (const NodeId v : g.neighbors(batch.front())) {
      if (!obs.is_friend(v)) {
        batch.push_back(v);
        break;
      }
    }
    out.push_back(std::move(batch));
  }
  return out;
}

TEST(SaaKernel, ScenarioBenefitMatchesOracleBitForBit) {
  std::size_t present = 0, absent = 0, fofs = 0, adjacent_accepts = 0;
  for (const bool ba : {true, false}) {
    for (int seed = 1; seed <= 4; ++seed) {
      const Problem p = fixture_problem(ba, 40 + seed, /*n=*/70);
      Observation obs(p);
      advance_observation(p, obs, 12, 40 + seed);
      const auto& g = p.graph;
      for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
        present += obs.edge_state(e) == sim::EdgeState::kPresent;
        absent += obs.edge_state(e) == sim::EdgeState::kAbsent;
      }
      for (NodeId u = 0; u < g.num_nodes(); ++u) fofs += obs.is_fof(u);
      const auto scenarios = solver::sample_scenarios(obs, 30, 100 + seed);
      for (const auto& batch : kernel_batches(obs, seed)) {
        for (std::size_t s = 0; s < scenarios.size(); ++s) {
          const auto& sc = scenarios[s];
          const NodeId a = batch.front();
          const NodeId b = batch.back();
          if (a != b && sc.accept[a] && sc.accept[b]) ++adjacent_accepts;
          ASSERT_EQ(bits(solver::scenario_benefit(obs, sc, batch)),
                    bits(oracle::scenario_benefit(obs, sc, batch)))
              << (ba ? "BA" : "ER") << " seed=" << seed << " scenario=" << s;
        }
      }
    }
  }
  // The instances exercise every branch of the kernel.
  EXPECT_GT(present, 0u);
  EXPECT_GT(absent, 0u);
  EXPECT_GT(fofs, 0u);
  EXPECT_GT(adjacent_accepts, 0u);
}

TEST(SaaKernel, FriendInBatchThrowsAndLeavesScratchUsable) {
  const Problem p = fixture_problem(true, 51, /*n=*/60);
  Observation obs(p);
  advance_observation(p, obs, 15, 51);
  ASSERT_FALSE(obs.friends().empty());
  const auto scenarios = solver::sample_scenarios(obs, 10, 3);
  const auto batch = requestable_prefix(obs, 5);
  std::vector<NodeId> with_friend = batch;
  with_friend.push_back(obs.friends().front());
  for (const auto& sc : scenarios) {
    EXPECT_THROW(solver::scenario_benefit(obs, sc, with_friend), std::invalid_argument);
    EXPECT_EQ(bits(solver::scenario_benefit(obs, sc, batch)),
              bits(oracle::scenario_benefit(obs, sc, batch)));
  }
}

TEST(SaaKernel, EpochWrapClearsStaleStamps) {
  // On a fresh thread the first pass stamps with epochs 1..N. Driving the
  // epoch to the top of its range makes the second pass wrap back through
  // 1..N-1: unless the wrap clears the stamps, those evaluations would see
  // the first pass's marks and withhold credit.
  const Problem p = fixture_problem(false, 53, /*n=*/60);
  Observation obs(p);
  advance_observation(p, obs, 10, 53);
  const auto scenarios = solver::sample_scenarios(obs, 40, 5);
  const auto batch = requestable_prefix(obs, 10);
  std::vector<std::uint64_t> want;
  for (const auto& sc : scenarios) {
    want.push_back(bits(oracle::scenario_benefit(obs, sc, batch)));
  }
  std::vector<std::uint64_t> first, second;
  std::thread worker([&] {
    for (const auto& sc : scenarios) {
      first.push_back(bits(solver::scenario_benefit(obs, sc, batch)));
    }
    solver::detail::set_benefit_epoch(std::numeric_limits<std::uint32_t>::max() - 1);
    for (const auto& sc : scenarios) {
      second.push_back(bits(solver::scenario_benefit(obs, sc, batch)));
    }
  });
  worker.join();
  EXPECT_EQ(first, want);
  EXPECT_EQ(second, want);
}

TEST(SaaSampler, MatchesOracleScenarioForScenario) {
  for (const double boost : {0.0, 0.3}) {
    for (const bool ba : {true, false}) {
      const Problem p = fixture_problem(ba, 61, /*n=*/80, boost);
      Observation obs(p);
      advance_observation(p, obs, 15, 61);
      std::size_t boosted = 0;
      for (NodeId u = 0; u < p.graph.num_nodes(); ++u) {
        boosted += !obs.is_friend(u) && obs.mutual_friends(u) > 0;
      }
      ASSERT_GT(boosted, 0u);  // the mutual-friend path is taken
      const auto check = [&](const std::vector<solver::Scenario>& got,
                             const std::vector<solver::Scenario>& want, const char* what) {
        ASSERT_EQ(got.size(), want.size()) << what;
        for (std::size_t s = 0; s < got.size(); ++s) {
          EXPECT_EQ(got[s].accept, want[s].accept) << what << " scenario " << s;
          EXPECT_EQ(got[s].edge_exists, want[s].edge_exists) << what << " scenario " << s;
        }
      };
      check(solver::sample_scenarios(obs, 25, 9), oracle::sample_scenarios(obs, 25, 9),
            "iid");
      check(solver::sample_scenarios_antithetic(obs, 25, 9),
            oracle::sample_scenarios_antithetic(obs, 25, 9), "antithetic");
    }
  }
}

void expect_same(const solver::FobResult& got, const solver::FobResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.batch, want.batch) << what;
  EXPECT_EQ(bits(got.objective), bits(want.objective)) << what;
  EXPECT_EQ(got.saa_evals, want.saa_evals) << what;
  EXPECT_EQ(got.nodes_explored, want.nodes_explored) << what;
  EXPECT_EQ(got.exact, want.exact) << what;
  EXPECT_EQ(got.timed_out, want.timed_out) << what;
}

TEST(FobParallel, GreedyAndExactIdenticalWithAndWithoutPools) {
  for (const bool ba : {true, false}) {
    const Problem p = fixture_problem(ba, 71, /*n=*/110);
    Observation obs(p);
    advance_observation(p, obs, 10, 71);
    const auto candidates = solver::fob_candidates(obs, false);
    ASSERT_GT(candidates.size(), 64u);  // more than one deadline block
    for (const bool anti : {false, true}) {
      const auto scenarios = anti ? solver::sample_scenarios_antithetic(obs, 40, 3)
                                  : solver::sample_scenarios(obs, 40, 3);
      const std::size_t k = 3;
      const auto greedy = solver::fob_greedy(obs, scenarios, k, candidates, 0.0,
                                             nullptr, anti);
      ASSERT_EQ(greedy.batch.size(), k);
      // One evaluation per singleton, then rescores and the final batch.
      EXPECT_GT(greedy.saa_evals, candidates.size());
      solver::FobExactOptions eo;
      eo.candidate_cap = 12;
      eo.antithetic = anti;
      const auto exact = solver::fob_exact(obs, scenarios, k, candidates, eo);
      ASSERT_TRUE(exact.exact);
      // The exact solve scores each singleton once, inside its greedy pass.
      EXPECT_GT(exact.saa_evals, greedy.saa_evals);
      EXPECT_LT(exact.saa_evals, greedy.saa_evals + candidates.size());

      // A deadline that never fires scores singletons in 64-candidate blocks
      // and must change nothing.
      const std::string tag = std::string(ba ? "BA" : "ER") + (anti ? " anti" : " iid");
      expect_same(solver::fob_greedy(obs, scenarios, k, candidates, 600.0, nullptr, anti),
                  greedy, tag + " greedy deadline");
      solver::FobExactOptions timed = eo;
      timed.deadline_seconds = 600.0;
      expect_same(solver::fob_exact(obs, scenarios, k, candidates, timed), exact,
                  tag + " exact deadline");

      for (const unsigned threads : {1u, 2u, 4u}) {
        util::ThreadPool pool(threads);
        const std::string at = tag + " threads=" + std::to_string(threads);
        expect_same(solver::fob_greedy(obs, scenarios, k, candidates, 0.0, &pool, anti),
                    greedy, at + " greedy");
        expect_same(solver::fob_greedy(obs, scenarios, k, candidates, 600.0, &pool, anti),
                    greedy, at + " greedy deadline");
        solver::FobExactOptions po = eo;
        po.pool = &pool;
        expect_same(solver::fob_exact(obs, scenarios, k, candidates, po), exact,
                    at + " exact");
        po.deadline_seconds = 600.0;
        expect_same(solver::fob_exact(obs, scenarios, k, candidates, po), exact,
                    at + " exact deadline");
      }
    }
  }
}

TEST(FobParallel, RankCandidatesMatchesPerCandidateRanking) {
  const Problem p = fixture_problem(true, 73, /*n=*/100);
  Observation obs(p);
  advance_observation(p, obs, 10, 73);
  const auto candidates = solver::fob_candidates(obs, false);
  const auto scenarios = solver::sample_scenarios_antithetic(obs, 30, 11);
  const solver::SaaEvalOptions serial{nullptr, true};
  // The ranking written out by hand: one evaluation per candidate, sorted by
  // decreasing value, ties by id.
  std::vector<std::pair<double, NodeId>> want;
  for (const NodeId u : candidates) {
    want.emplace_back(solver::saa_objective(obs, scenarios, {u}, serial), u);
  }
  std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (const std::size_t cap : {std::size_t{0}, std::size_t{20}}) {
    const std::size_t keep = cap == 0 ? want.size() : cap;
    for (const unsigned threads : {0u, 1u, 2u, 4u}) {
      std::optional<util::ThreadPool> pool;
      if (threads > 0) pool.emplace(threads);
      const auto got = solver::rank_candidates(
          obs, scenarios, candidates, cap,
          {pool ? &*pool : nullptr, /*antithetic_pairs=*/true});
      ASSERT_EQ(got.nodes.size(), keep) << "threads=" << threads;
      ASSERT_EQ(got.singleton.size(), keep) << "threads=" << threads;
      for (std::size_t i = 0; i < keep; ++i) {
        EXPECT_EQ(got.nodes[i], want[i].second) << i << " threads=" << threads;
        EXPECT_EQ(bits(got.singleton[i]), bits(want[i].first)) << i;
      }
    }
  }
}

TEST(SaaParallel, FaultedRetriedAttackBitIdenticalWithPool) {
  // End-to-end: a full attack through the SAA-greedy strategy under fault
  // injection and exponential-backoff retries must leave a bit-identical
  // trace whether or not the per-round solves fan out across a pool.
  const Problem p = fixture_problem(true, 15);
  const sim::World w(p, 29);

  sim::FaultOptions fo;
  fo.timeout_rate = 0.15;
  fo.throttle_rate = 0.1;
  core::RetryPolicy retry;
  retry.backoff = core::RetryBackoff::kExponential;
  retry.base_delay = 1.0;
  retry.jitter = 0.25;

  solver::MipStrategyOptions o;
  o.batch_size = 4;
  o.scenarios_per_batch = 60;
  o.allow_retries = true;
  o.greedy_only = true;

  sim::FaultModel fault_seq(fo);
  core::AttackRunOptions ro_seq;
  ro_seq.fault = &fault_seq;
  ro_seq.retry = &retry;
  solver::MipBatchStrategy seq(o);
  const auto reference = core::run_attack(p, w, seq, 30.0, ro_seq);
  ASSERT_FALSE(reference.batches.empty());

  for (const unsigned threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    solver::MipStrategyOptions po = o;
    po.pool = &pool;
    sim::FaultModel fault_par(fo);
    core::AttackRunOptions ro_par;
    ro_par.fault = &fault_par;
    ro_par.retry = &retry;
    solver::MipBatchStrategy par(po);
    const auto trace = core::run_attack(p, w, par, 30.0, ro_par);
    ASSERT_EQ(trace.batches.size(), reference.batches.size()) << threads;
    for (std::size_t i = 0; i < trace.batches.size(); ++i) {
      EXPECT_EQ(trace.batches[i].requests, reference.batches[i].requests)
          << "batch " << i << " threads=" << threads;
      EXPECT_EQ(trace.batches[i].accepted, reference.batches[i].accepted)
          << "batch " << i << " threads=" << threads;
      EXPECT_EQ(trace.batches[i].outcome, reference.batches[i].outcome)
          << "batch " << i << " threads=" << threads;
      EXPECT_EQ(trace.batches[i].cost, reference.batches[i].cost)
          << "batch " << i << " threads=" << threads;
    }
  }
}

TEST(ShardPlan, BoundsPartitionTheCandidateRange) {
  std::vector<double> work(257, 1.0);
  for (const std::size_t parties : {1u, 2u, 5u, 16u}) {
    for (const double npu : {1.0, 64.0, 1e6}) {
      const auto bounds = core::plan_score_shards(work, parties, npu);
      ASSERT_GE(bounds.size(), 2u) << parties << " " << npu;
      EXPECT_EQ(bounds.front(), 0u);
      EXPECT_EQ(bounds.back(), work.size());
      for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
        EXPECT_LT(bounds[s], bounds[s + 1]) << "empty shard " << s;
      }
    }
  }
  EXPECT_EQ(core::plan_score_shards({}, 4, 64.0),
            (std::vector<std::size_t>{0}));  // empty input: empty partition
}

TEST(ShardPlan, HubHeavyPrefixSplitsFinerThanTheTail) {
  // BA-like work profile: a few hubs with huge rows up front, a long flat
  // tail behind them. Equal-work shards must put far fewer candidates into
  // the first shard than into the last.
  std::vector<double> work(400, 1.0);
  for (std::size_t i = 0; i < 20; ++i) work[i] = 200.0;
  const auto bounds = core::plan_score_shards(work, /*parties=*/4, 64.0);
  ASSERT_GE(bounds.size(), 3u);
  const std::size_t first = bounds[1] - bounds[0];
  const std::size_t last = bounds[bounds.size() - 1] - bounds[bounds.size() - 2];
  EXPECT_LT(first, last);
  // And the shard count respects the 4..32-per-participant clamp.
  const std::size_t shards = bounds.size() - 1;
  EXPECT_GE(shards, 4u * 4u / 2u);  // >= half the lower clamp (rounding slack)
  EXPECT_LE(shards, 32u * 4u + 1u);
}

TEST(ShardPlan, CalibrationNeverChangesSelectedBatches) {
  // The EWMA that sizes shards drifts with measured timings, so consecutive
  // runs may use different shard layouts — the selected batch must not care.
  const Problem p = fixture_problem(true, 17, /*n=*/220);
  Observation obs(p);
  advance_observation(p, obs, 12, 17);
  core::BatchSelectOptions seq;
  seq.batch_size = 10;
  const auto reference = core::batch_select(obs, seq);
  ASSERT_FALSE(reference.empty());
  util::ThreadPool pool(4);
  core::BatchSelectOptions par = seq;
  par.pool = &pool;
  for (int run = 0; run < 5; ++run) {
    EXPECT_EQ(core::batch_select(obs, par), reference) << "run " << run;
  }
}

}  // namespace
}  // namespace recon
