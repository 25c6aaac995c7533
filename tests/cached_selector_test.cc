// Tests for the cross-batch score cache: exact equivalence with the
// uncached selector over full attacks (including a batch-by-batch
// differential campaign with ties, retries, cooldowns, timeouts, costs,
// varying k and a mid-campaign resume), cache-efficiency and frontier-work
// accounting, and the strategy-level wiring (PM-AReST use_cache on/off
// produce identical runs).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "core/attack.h"
#include "core/batch_select.h"
#include "core/cached_selector.h"
#include "core/m_arest.h"
#include "core/pm_arest.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "sim/observation.h"
#include "sim/problem.h"
#include "sim/world.h"
#include "util/rng.h"

namespace recon::core {
namespace {

using graph::NodeId;
using sim::Observation;
using sim::Problem;

Problem cache_problem(int seed, graph::NodeId n = 150, double boost = 0.15) {
  sim::ProblemOptions opts;
  opts.num_targets = 30;
  opts.base_acceptance = 0.35;
  opts.mutual_boost = boost;  // exercises q-increase invalidation
  opts.seed = static_cast<std::uint64_t>(seed);
  return sim::make_problem(
      graph::assign_edge_probs(graph::barabasi_albert(n, 4, seed),
                               graph::EdgeProbModel::uniform(0.25, 0.95), seed + 1),
      opts);
}

// Drive a full attack with BOTH selectors in lockstep on the same
// observation; every batch must be identical. The mutual-friend boost makes
// stale-cache bugs visible (scores can rise, not only fall).
class CachedEquivalence : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(CachedEquivalence, BatchesIdenticalThroughFullAttack) {
  const int seed = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  const bool retries = std::get<2>(GetParam());
  const Problem p = cache_problem(seed);
  const sim::World w(p, static_cast<std::uint64_t>(seed) * 13 + 1);
  Observation obs(p);
  CachedSelector cached(obs, MarginalPolicy::kWeighted);

  const std::uint32_t cap = retries ? 5 : 1;
  double budget = 90.0;
  while (budget > 0) {
    BatchSelectOptions bs;
    bs.batch_size = k;
    bs.allow_retries = retries;
    bs.max_attempts_per_node = cap;
    bs.remaining_budget = budget;
    const auto reference = batch_select(obs, bs);
    const auto fast = cached.select_batch(k, retries, cap, budget);
    ASSERT_EQ(fast, reference) << "seed=" << seed << " k=" << k
                               << " budget=" << budget;
    if (fast.empty()) break;
    for (NodeId u : fast) {
      if (w.attempt_accept(u, obs.attempts(u), obs.acceptance_prob(u))) {
        obs.record_accept(u, w.true_neighbors(u));
        cached.notify_accept(u);
      } else {
        obs.record_reject(u);
        cached.notify_reject(u);
      }
      budget -= 1.0;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CachedEquivalence,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 7),
                                            ::testing::Bool()));

TEST(CachedSelector, PoolBackedSelectorMatchesUncachedThroughFullAttack) {
  // The pool-composed cache (parallel dirty rescore + sequential pick loop)
  // must stay bit-identical to the plain uncached selector, at every pool
  // size, across a whole attack.
  for (const unsigned threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const Problem p = cache_problem(2);
    const sim::World w(p, 27);
    Observation obs(p);
    CachedSelector cached(obs, MarginalPolicy::kWeighted,
                          /*cost_sensitive=*/false, &pool);
    double budget = 80.0;
    while (budget > 0) {
      BatchSelectOptions bs;
      bs.batch_size = 6;
      bs.remaining_budget = budget;
      const auto reference = batch_select(obs, bs);
      const auto fast = cached.select_batch(6, false, 1, budget);
      ASSERT_EQ(fast, reference) << "threads=" << threads << " budget=" << budget;
      if (fast.empty()) break;
      for (NodeId u : fast) {
        if (w.attempt_accept(u, obs.attempts(u), obs.acceptance_prob(u))) {
          obs.record_accept(u, w.true_neighbors(u));
          cached.notify_accept(u);
        } else {
          obs.record_reject(u);
          cached.notify_reject(u);
        }
        budget -= 1.0;
      }
    }
  }
}

TEST(CachedSelector, PoolDoesNotChangeRescoreCount) {
  // Parallel rescoring fans the same dirty set across workers; the atomic
  // counter must land on the sequential value.
  const Problem p = cache_problem(3, 300);
  util::ThreadPool pool(4);
  Observation obs_seq(p), obs_par(p);
  CachedSelector seq(obs_seq, MarginalPolicy::kWeighted);
  CachedSelector par(obs_par, MarginalPolicy::kWeighted, false, &pool);
  (void)seq.select_batch(5, false, 1, 300.0);
  (void)par.select_batch(5, false, 1, 300.0);
  EXPECT_EQ(seq.rescore_count(), par.rescore_count());
  obs_seq.record_reject(7);
  obs_par.record_reject(7);
  seq.notify_reject(7);
  par.notify_reject(7);
  (void)seq.select_batch(5, false, 1, 300.0);
  (void)par.select_batch(5, false, 1, 300.0);
  EXPECT_EQ(seq.rescore_count(), par.rescore_count());
}

TEST(PmArestCache, CachePlusPoolMatchesSequentialAttack) {
  // use_cache && pool is no longer an error path: it must reproduce the
  // exact attack of the cache-less, pool-less strategy.
  util::ThreadPool pool(3);
  for (int seed = 1; seed <= 3; ++seed) {
    const Problem p = cache_problem(seed);
    const sim::World w(p, static_cast<std::uint64_t>(seed) + 31);
    PmArestOptions plain;
    plain.batch_size = 6;
    plain.use_cache = false;
    PmArestOptions fast = plain;
    fast.use_cache = true;
    fast.pool = &pool;
    PmArest splain(plain), sfast(fast);
    const auto tplain = run_attack(p, w, splain, 100.0);
    const auto tfast = run_attack(p, w, sfast, 100.0);
    ASSERT_EQ(tplain.batches.size(), tfast.batches.size()) << "seed " << seed;
    for (std::size_t i = 0; i < tplain.batches.size(); ++i) {
      ASSERT_EQ(tplain.batches[i].requests, tfast.batches[i].requests)
          << "seed " << seed << " batch " << i;
    }
    EXPECT_DOUBLE_EQ(tplain.total_benefit(), tfast.total_benefit());
  }
}

TEST(CachedSelector, RescoresOnlyDirtyRegion) {
  const Problem p = cache_problem(4, 400);
  const sim::World w(p, 9);
  Observation obs(p);
  CachedSelector cached(obs, MarginalPolicy::kWeighted);
  // First batch scores everyone once.
  (void)cached.select_batch(5, false, 1, 400.0);
  const std::uint64_t after_first = cached.rescore_count();
  EXPECT_GE(after_first, 350u);  // ~n initial scores
  // Observe one reject: only that node should be re-scored next batch.
  obs.record_reject(0);
  cached.notify_reject(0);
  (void)cached.select_batch(5, false, 1, 400.0);
  EXPECT_LE(cached.rescore_count() - after_first, 2u);
  // Observe one accept on a low-degree periphery node (late BA arrivals have
  // degree ~4): only its small 2-hop region is re-scored, far less than n.
  const NodeId periphery = 399;
  ASSERT_LE(p.graph.degree(periphery), 12u);
  const std::uint64_t before_accept = cached.rescore_count();
  obs.record_accept(periphery, w.true_neighbors(periphery));
  cached.notify_accept(periphery);
  (void)cached.select_batch(5, false, 1, 400.0);
  const std::uint64_t delta = cached.rescore_count() - before_accept;
  EXPECT_GT(delta, 0u);
  EXPECT_LT(delta, 200u);
}

TEST(PmArestCache, OnAndOffProduceIdenticalAttacks) {
  for (int seed = 1; seed <= 4; ++seed) {
    const Problem p = cache_problem(seed);
    const sim::World w(p, static_cast<std::uint64_t>(seed) + 77);
    PmArestOptions on;
    on.batch_size = 6;
    on.allow_retries = true;
    on.use_cache = true;
    PmArestOptions off = on;
    off.use_cache = false;
    PmArest son(on), soff(off);
    const auto ton = run_attack(p, w, son, 120.0);
    const auto toff = run_attack(p, w, soff, 120.0);
    ASSERT_EQ(ton.batches.size(), toff.batches.size()) << "seed " << seed;
    for (std::size_t i = 0; i < ton.batches.size(); ++i) {
      ASSERT_EQ(ton.batches[i].requests, toff.batches[i].requests)
          << "seed " << seed << " batch " << i;
    }
    EXPECT_DOUBLE_EQ(ton.total_benefit(), toff.total_benefit());
  }
}

TEST(PmArestCache, StrategyReusableAcrossRuns) {
  // begin() must fully reset the cache so a strategy object can be reused
  // for a different world/observation.
  const Problem p = cache_problem(5);
  PmArest strategy(PmArestOptions{.batch_size = 5});
  const sim::World w1(p, 1), w2(p, 2);
  const auto t1 = run_attack(p, w1, strategy, 40.0);
  const auto t2 = run_attack(p, w2, strategy, 40.0);
  // Re-running world 1 reproduces the original trace exactly.
  const auto t1b = run_attack(p, w1, strategy, 40.0);
  ASSERT_EQ(t1.batches.size(), t1b.batches.size());
  for (std::size_t i = 0; i < t1.batches.size(); ++i) {
    EXPECT_EQ(t1.batches[i].requests, t1b.batches[i].requests);
  }
  (void)t2;
}

TEST(MArestCache, DelegatesToCachedK1) {
  const Problem p = cache_problem(6);
  const sim::World w(p, 3);
  MArest m;
  const auto trace = run_attack(p, w, m, 30.0);
  EXPECT_EQ(trace.batches.size(), 30u);
  for (const auto& b : trace.batches) EXPECT_EQ(b.requests.size(), 1u);
  EXPECT_EQ(m.name(), "M-AReST");
}


// ---------------------------------------------------------------------------
// Differential campaign: PM-AReST on the persistent cached frontier against
// the sequential uncached batch_select (the oracle), batch by batch.

enum class Scenario {
  kRetryCap,       ///< retries capped at 3 attempts per node
  kCooldown,       ///< retry backoff that expires as the clock advances
  kTimeout,        ///< a quarter of requests time out (record_no_response)
  kCostSensitive,  ///< integer costs in {1,2,3}, ratio greedy, odd budget
  kBudgetTail,     ///< costs in {1..5}, plain greedy: expensive top entries
                   ///< turn unaffordable while the budget drains
  kVaryK,          ///< k drawn from [1, 7] every batch
  kResume,         ///< checkpoint -> resume mid-campaign, run in lockstep
};

std::string scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kRetryCap: return "RetryCap";
    case Scenario::kCooldown: return "Cooldown";
    case Scenario::kTimeout: return "Timeout";
    case Scenario::kCostSensitive: return "CostSensitive";
    case Scenario::kBudgetTail: return "BudgetTail";
    case Scenario::kVaryK: return "VaryK";
    case Scenario::kResume: return "Resume";
  }
  return "?";
}

// Small graph with constant edge probability, constant-ish acceptance and
// integer benefits, so equal scores (ties on original id) are common. Odd
// seeds relabel the graph degree-descending, so node id != original id.
Problem tie_heavy_problem(int seed, int max_cost) {
  const auto s = static_cast<std::uint64_t>(seed);
  graph::Graph g = seed % 2 == 0 ? graph::barabasi_albert(90, 3, s)
                                 : graph::erdos_renyi_gnm(90, 270, s);
  g = graph::assign_edge_probs(g, graph::EdgeProbModel::constant(0.5), s);
  if (seed % 2 == 1) g = graph::remap_graph(g, graph::degree_sort_permutation(g));
  sim::ProblemOptions opts;
  opts.num_targets = 40;
  opts.base_acceptance = 0.5;
  opts.mutual_boost = seed % 3 == 0 ? 0.25 : 0.0;
  opts.seed = s;
  Problem p = sim::make_problem(std::move(g), opts);
  util::Rng rng(s * 977 + 5);
  for (NodeId u = 0; u < p.graph.num_nodes(); ++u) {
    p.benefit.bf[u] = static_cast<double>(rng.range(0, 3));
    p.benefit.bfof[u] =
        std::min(p.benefit.bf[u], static_cast<double>(rng.range(0, 2)));
  }
  for (auto& bi : p.benefit.bi) bi = static_cast<double>(rng.range(0, 2));
  if (max_cost > 1) {
    p.cost.resize(p.graph.num_nodes());
    for (auto& c : p.cost) c = static_cast<double>(rng.range(1, max_cost));
  }
  p.validate();
  return p;
}

// A fresh observation holding the same state as `obs` (what a checkpoint
// carries: node/edge states, attempts, friends, exact benefit, clock,
// cooldowns).
std::unique_ptr<Observation> clone_via_restore(const Observation& obs) {
  const Problem& p = obs.problem();
  const NodeId n = p.graph.num_nodes();
  std::vector<sim::NodeState> nodes(n);
  std::vector<std::uint32_t> attempts(n);
  for (NodeId u = 0; u < n; ++u) {
    nodes[u] = obs.node_state(u);
    attempts[u] = obs.attempts(u);
  }
  auto out = std::make_unique<Observation>(p);
  out->restore(nodes, obs.edge_states(), attempts, obs.friends());
  out->restore_benefit(obs.benefit());
  out->set_clock(obs.clock());
  const auto ra = obs.retry_after();
  for (NodeId u = 0; u < static_cast<NodeId>(ra.size()); ++u) {
    if (ra[u] > 0.0) out->set_retry_after(u, ra[u]);
  }
  return out;
}

class FrontierDifferential
    : public ::testing::TestWithParam<std::tuple<Scenario, int, unsigned>> {};

TEST_P(FrontierDifferential, CachedPmArestMatchesUncachedOracleEveryBatch) {
  const Scenario sc = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  const unsigned threads = std::get<2>(GetParam());  // 0 = no pool
  const bool costs = sc == Scenario::kCostSensitive || sc == Scenario::kBudgetTail;
  const Problem p =
      tie_heavy_problem(seed, sc == Scenario::kBudgetTail ? 5 : costs ? 3 : 1);
  const sim::World w(p, static_cast<std::uint64_t>(seed) * 31 + 7);
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);

  PmArestOptions opts;
  opts.batch_size = sc == Scenario::kBudgetTail ? 2 : 5;
  opts.use_cache = true;
  opts.pool = pool.get();
  opts.allow_retries = sc != Scenario::kCostSensitive;
  opts.max_attempts_per_node = opts.allow_retries ? 3 : 1;
  opts.cost_sensitive = sc == Scenario::kCostSensitive;
  opts.seed = static_cast<std::uint64_t>(seed) + 101;
  if (sc == Scenario::kVaryK || sc == Scenario::kResume) {
    opts.vary_k_min = 1;
    opts.vary_k_max = 7;
  }
  if (sc == Scenario::kResume) {
    // Fixed on the cached tier, so the checkpoint carries the cache section.
    opts.planner.mode = PlannerMode::kFixed;
    opts.planner.fixed_strategy = PlanStrategy::kCollapsedCached;
    opts.planner.calibrate_time = false;  // keep save_state time-independent
  }
  const bool cooldowns = sc == Scenario::kCooldown || sc == Scenario::kTimeout ||
                         sc == Scenario::kResume;
  const bool timeouts = sc == Scenario::kTimeout || sc == Scenario::kResume;
  // Odd budgets with multi-unit costs run out in the middle of a batch.
  const double budget = costs ? 47.0 : 70.0;

  // Lane 0 is the uninterrupted campaign; kResume adds lane 1, resumed from
  // lane 0's checkpoint after batch 4 and driven in lockstep with it.
  struct Lane {
    std::unique_ptr<Observation> obs;
    std::unique_ptr<PmArest> strategy;
  };
  std::vector<Lane> lanes;
  lanes.push_back({std::make_unique<Observation>(p), std::make_unique<PmArest>(opts)});
  lanes[0].strategy->begin(p, budget);

  util::Rng k_stream(opts.seed);  // replays PM-AReST's varying-k draws
  util::Rng outcome_rng(static_cast<std::uint64_t>(seed) * 7 + 3);
  double spent = 0.0;
  double clock = 0.0;
  int batches = 0;
  for (int round = 0; round < 400 && spent < budget; ++round) {
    if (sc == Scenario::kResume && batches == 4 && lanes.size() == 1) {
      Lane resumed{clone_via_restore(*lanes[0].obs), std::make_unique<PmArest>(opts)};
      resumed.strategy->begin(p, budget);
      resumed.strategy->restore_state(lanes[0].strategy->save_state());
      lanes.push_back(std::move(resumed));
    }
    const Observation& obs = *lanes[0].obs;
    BatchSelectOptions bs;
    bs.batch_size =
        opts.vary_k_max > 0
            ? static_cast<int>(k_stream.range(opts.vary_k_min, opts.vary_k_max))
            : opts.batch_size;
    bs.cost_sensitive = opts.cost_sensitive;
    bs.allow_retries = opts.allow_retries;
    bs.max_attempts_per_node = opts.max_attempts_per_node;
    bs.remaining_budget = budget - spent;
    const std::vector<NodeId> expected = batch_select(obs, bs);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const auto got = lanes[l].strategy->next_batch(*lanes[l].obs, budget - spent);
      ASSERT_EQ(got, expected) << scenario_name(sc) << " seed=" << seed
                               << " threads=" << threads << " lane=" << l
                               << " batch=" << batches << " k=" << bs.batch_size;
    }
    if (expected.empty()) {
      const double next = obs.next_retry_time(opts.allow_retries);
      if (!cooldowns || next == std::numeric_limits<double>::infinity()) break;
      clock = std::ceil(next);
      for (auto& lane : lanes) lane.obs->set_clock(clock);
      continue;
    }
    ++batches;
    for (const NodeId u : expected) {
      spent += p.cost_of(u);
      ASSERT_LE(spent, budget + 1e-9);
      const bool timed_out = timeouts && outcome_rng.bernoulli(0.25);
      const bool accepted =
          !timed_out && w.attempt_accept(u, obs.attempts(u), obs.acceptance_prob(u));
      const double delay = cooldowns ? static_cast<double>(outcome_rng.range(0, 3)) : 0.0;
      for (auto& lane : lanes) {
        if (timed_out) {
          lane.obs->record_no_response(u);
        } else if (accepted) {
          lane.obs->record_accept(u, w.true_neighbors(u));
        } else {
          lane.obs->record_reject(u);
        }
        if (!accepted && delay > 0.0) lane.obs->set_retry_after(u, clock + delay);
      }
    }
    clock += 1.0;
    for (auto& lane : lanes) lane.obs->set_clock(clock);
  }
  EXPECT_GE(batches, 6) << "campaign too short to exercise the cache";
  if (sc == Scenario::kResume) {
    ASSERT_EQ(lanes.size(), 2u);
    EXPECT_EQ(lanes[1].strategy->save_state(), lanes[0].strategy->save_state());
  }
}

std::string frontier_case_name(
    const ::testing::TestParamInfo<FrontierDifferential::ParamType>& case_info) {
  return scenario_name(std::get<0>(case_info.param)) + "_seed" +
         std::to_string(std::get<1>(case_info.param)) + "_threads" +
         std::to_string(std::get<2>(case_info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Campaigns, FrontierDifferential,
    ::testing::Combine(::testing::Values(Scenario::kRetryCap, Scenario::kCooldown,
                                         Scenario::kTimeout, Scenario::kCostSensitive,
                                         Scenario::kBudgetTail, Scenario::kVaryK,
                                         Scenario::kResume),
                       ::testing::Values(1, 2, 3, 4),
                       ::testing::Values(0u, 1u, 4u)),
    frontier_case_name);

TEST(CachedSelector, PerCallParametersMayLoosenAndTighten) {
  // select_batch takes retries, the attempt cap and the budget per call. A
  // call looser than the last one (retries switched on, a higher or no cap,
  // a larger budget) re-admits nodes the persistent frontier had dropped.
  for (int seed = 1; seed <= 4; ++seed) {
    const Problem p = tie_heavy_problem(seed, 3);
    const sim::World w(p, static_cast<std::uint64_t>(seed) + 5);
    Observation obs(p);
    CachedSelector cached(obs, MarginalPolicy::kWeighted);
    util::Rng rng(static_cast<std::uint64_t>(seed) * 13);
    for (int round = 0; round < 30; ++round) {
      BatchSelectOptions bs;
      bs.batch_size = static_cast<int>(rng.range(1, 4));
      bs.allow_retries = rng.bernoulli(0.5);
      bs.max_attempts_per_node = static_cast<std::uint32_t>(rng.range(0, 3));
      bs.remaining_budget = static_cast<double>(rng.range(1, 12));
      const auto expected = batch_select(obs, bs);
      const auto got = cached.select_batch(bs.batch_size, bs.allow_retries,
                                           bs.max_attempts_per_node, bs.remaining_budget);
      ASSERT_EQ(got, expected) << "seed=" << seed << " round=" << round;
      for (const NodeId u : got) {
        if (w.attempt_accept(u, obs.attempts(u), obs.acceptance_prob(u))) {
          obs.record_accept(u, w.true_neighbors(u));
          cached.notify_accept(u);
        } else {
          obs.record_reject(u);
          cached.notify_reject(u);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Frontier work counters: after the two full-frontier batches of a BA
// campaign, a batch may only touch the frontier for nodes it rescored or
// popped — never a whole-frontier rebuild — and the counts cannot depend on
// the pool size.

struct FrontierWork {
  std::uint64_t pushes;
  std::uint64_t pops;
  std::uint64_t rescores;
  bool operator==(const FrontierWork&) const = default;
};

std::vector<FrontierWork> frontier_work_per_batch(const Problem& p, unsigned threads) {
  util::ThreadPool pool(threads);
  const sim::World w(p, 4242);
  Observation obs(p);
  CachedSelector cached(obs, MarginalPolicy::kWeighted, /*cost_sensitive=*/false, &pool);
  std::vector<FrontierWork> per_batch;
  FrontierWork before{0, 0, 0};
  double budget = 150.0;
  while (budget > 0) {
    const auto batch = cached.select_batch(10, false, 1, budget);
    const FrontierWork now{cached.frontier_push_count(), cached.frontier_pop_count(),
                           cached.rescore_count()};
    per_batch.push_back({now.pushes - before.pushes, now.pops - before.pops,
                         now.rescores - before.rescores});
    before = now;
    if (batch.empty()) break;
    for (const NodeId u : batch) {
      if (w.attempt_accept(u, obs.attempts(u), obs.acceptance_prob(u))) {
        obs.record_accept(u, w.true_neighbors(u));
        cached.notify_accept(u);
      } else {
        obs.record_reject(u);
        cached.notify_reject(u);
      }
      budget -= 1.0;
    }
  }
  return per_batch;
}

TEST(CachedSelector, FrontierWorkStaysWithinDirtyPlusPopped) {
  // The benchmark campaign's shape (k=10, K=150, 300 targets) on a sparse
  // BA graph: past the hub-heavy first batches, an accepted node's 2-hop
  // region is a small fraction of n.
  const NodeId n = 50000;
  sim::ProblemOptions opts;
  opts.num_targets = 300;
  opts.base_acceptance = 0.35;
  opts.mutual_boost = 0.15;
  opts.seed = 11;
  const Problem p = sim::make_problem(
      graph::assign_edge_probs(graph::barabasi_albert(n, 3, 11),
                               graph::EdgeProbModel::uniform(0.25, 0.95), 12),
      opts);
  const auto work = frontier_work_per_batch(p, 1);
  ASSERT_EQ(work.size(), 15u);
  EXPECT_GE(work[0].pushes, n / 2);  // the first batch builds the frontier
  for (std::size_t b = 2; b < work.size(); ++b) {
    EXPECT_LE(work[b].pushes, work[b].rescores + work[b].pops) << "batch " << b;
    EXPECT_LT(work[b].pushes, n / 20) << "batch " << b;
  }
  EXPECT_EQ(frontier_work_per_batch(p, 2), work);
  EXPECT_EQ(frontier_work_per_batch(p, 4), work);
}

}  // namespace
}  // namespace recon::core
