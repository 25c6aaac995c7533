// Tests for the cross-batch score cache: exact equivalence with the
// uncached selector over full attacks (including a batch-by-batch
// differential campaign with ties, retries, cooldowns, timeouts, costs,
// varying k and a mid-campaign resume), bit-exact clean scores under the
// pruned invalidation, upper-bound keys of the lazily rescored two-hop
// nodes, cache-efficiency and frontier-work accounting, and
// the strategy-level wiring (PM-AReST's attacks match a
// test-local uncached oracle strategy).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
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

/// The uncached selector behind the Strategy interface: batch_select from
/// scratch every batch, under PM-AReST's attempt cap (m = ceil(K / k) with
/// retries, else one). The reference the cached PM-AReST must reproduce.
class UncachedOracle : public Strategy {
 public:
  UncachedOracle(int k, bool retries) : k_(k), retries_(retries) {}
  std::string name() const override { return "uncached-oracle"; }
  void begin(const Problem& problem, double budget) override {
    (void)problem;
    cap_ = retries_ ? static_cast<std::uint32_t>(std::max(1.0, std::ceil(budget / k_)))
                    : 1;
  }
  std::vector<NodeId> next_batch(const Observation& obs,
                                 double remaining_budget) override {
    BatchSelectOptions bs;
    bs.batch_size = k_;
    bs.allow_retries = retries_;
    bs.max_attempts_per_node = cap_;
    bs.remaining_budget = remaining_budget;
    return batch_select(obs, bs);
  }

 private:
  int k_;
  bool retries_;
  std::uint32_t cap_ = 1;
};

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

TEST(CachedSelector, PristineObservationMatchesUncachedUntilAndAfterAnAccept) {
  // Rejects and no-responses keep the observation pristine, so the first
  // refreshes — fresh, or over a resumed rejects-only prefix — take the Γ₀
  // pass or the memo; the first accept sends every later rescore back to
  // marginal_gain. Each variant must match the uncached selector throughout.
  const Problem p = cache_problem(6, 300);
  const sim::World w(p, 41);
  const auto memo = compute_empty_scores(p, MarginalPolicy::kWeighted, false);
  util::ThreadPool pool(3);
  for (int variant = 0; variant < 4; ++variant) {
    Observation obs(p);
    for (NodeId u = 0; u < 300; u += 37) obs.record_reject(u);
    obs.record_no_response(5);
    ASSERT_TRUE(obs.pristine());
    CachedSelector cached(obs, MarginalPolicy::kWeighted, false,
                          (variant & 1) ? &pool : nullptr,
                          (variant & 2) ? memo : nullptr);
    double budget = 90.0;
    bool accepted = false;
    for (int round = 0; budget > 0; ++round) {
      BatchSelectOptions bs;
      bs.batch_size = 5;
      bs.allow_retries = true;
      bs.max_attempts_per_node = 3;
      bs.remaining_budget = budget;
      const auto reference = batch_select(obs, bs);
      const auto fast = cached.select_batch(5, true, 3, budget);
      ASSERT_EQ(fast, reference) << "variant " << variant << " round " << round;
      if (fast.empty()) break;
      for (NodeId u : fast) {
        // The first two rounds are all rejected; then the world decides.
        if (round >= 2 && w.attempt_accept(u, obs.attempts(u), obs.acceptance_prob(u))) {
          obs.record_accept(u, w.true_neighbors(u));
          cached.notify_accept(u);
          accepted = true;
        } else {
          obs.record_reject(u);
          cached.notify_reject(u);
        }
        budget -= 1.0;
      }
      EXPECT_EQ(obs.pristine(), !accepted) << "variant " << variant;
    }
    EXPECT_TRUE(accepted);
  }
}

TEST(CachedSelector, MismatchedMemoIsIgnored) {
  // A memo built for another policy, cost mode or problem must not seed
  // the selector.
  const Problem p = cache_problem(7, 300);
  Problem costly = p;
  costly.cost.assign(p.graph.num_nodes(), 1.0);
  for (NodeId u = 0; u < p.graph.num_nodes(); u += 2) costly.cost[u] = 2.5;
  const Problem other = cache_problem(8, 300);
  const std::shared_ptr<const EmptyScores> wrong[] = {
      compute_empty_scores(p, MarginalPolicy::kPaperLiteral, false),
      compute_empty_scores(costly, MarginalPolicy::kWeighted, true),
      compute_empty_scores(other, MarginalPolicy::kWeighted, false)};
  for (std::size_t i = 0; i < std::size(wrong); ++i) {
    Observation obs(p);
    CachedSelector cached(obs, MarginalPolicy::kWeighted, false, nullptr, wrong[i]);
    BatchSelectOptions bs;
    bs.batch_size = 8;
    bs.remaining_budget = 300.0;
    EXPECT_EQ(cached.select_batch(8, false, 1, 300.0), batch_select(obs, bs))
        << "memo " << i;
  }
}

TEST(PmArestCache, CachePlusPoolMatchesSequentialAttack) {
  // The pool-backed cache must reproduce the exact attack of the cache-less,
  // pool-less selector.
  util::ThreadPool pool(3);
  for (int seed = 1; seed <= 3; ++seed) {
    const Problem p = cache_problem(seed);
    const sim::World w(p, static_cast<std::uint64_t>(seed) + 31);
    PmArestOptions fast;
    fast.batch_size = 6;
    fast.pool = &pool;
    UncachedOracle splain(6, /*retries=*/false);
    PmArest sfast(fast);
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
  // Cache on (PM-AReST) and off (the uncached oracle), with retries and the
  // default m = ceil(K / k) attempt cap.
  for (int seed = 1; seed <= 4; ++seed) {
    const Problem p = cache_problem(seed);
    const sim::World w(p, static_cast<std::uint64_t>(seed) + 77);
    PmArestOptions on;
    on.batch_size = 6;
    on.allow_retries = true;
    PmArest son(on);
    UncachedOracle soff(6, /*retries=*/true);
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
  opts.pool = pool.get();
  opts.allow_retries = sc != Scenario::kCostSensitive;
  opts.max_attempts_per_node = opts.allow_retries ? 3 : 1;
  opts.cost_sensitive = sc == Scenario::kCostSensitive;
  opts.seed = static_cast<std::uint64_t>(seed) + 101;
  if (sc == Scenario::kVaryK || sc == Scenario::kResume) {
    opts.vary_k_min = 1;
    opts.vary_k_max = 7;
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

// ---------------------------------------------------------------------------
// Exact invalidation: an accept dirties x, x's neighbors, and the neighbors
// of only those that just turned FoF while carrying FoF benefit. Every node
// left clean must still hold marginal_gain's exact bits.

/// Asserts that every clean cached score of a non-friend equals
/// marginal_gain (over the cost when cost-sensitive) bit for bit; returns
/// how many scores were compared.
std::size_t expect_clean_scores_exact(const CachedSelector& cached, const Observation& obs,
                                      MarginalPolicy policy, bool cost_sensitive) {
  std::size_t checked = 0;
  for (NodeId u = 0; u < obs.problem().graph.num_nodes(); ++u) {
    const auto score = cached.base_score(u);
    if (obs.is_friend(u) || !score) continue;
    double expected = marginal_gain(obs, u, policy);
    if (cost_sensitive) expected /= obs.problem().cost_of(u);
    EXPECT_EQ(std::memcmp(&*score, &expected, sizeof expected), 0)
        << "node " << u << ": cached " << *score << ", marginal_gain " << expected;
    ++checked;
  }
  return checked;
}

class CleanScoresExact
    : public ::testing::TestWithParam<std::tuple<bool, MarginalPolicy, bool, double, bool>> {};

TEST_P(CleanScoresExact, AfterEveryBatchAndAcrossAResume) {
  const auto [ba, policy, paper, boost, costs] = GetParam();
  const std::uint64_t seed = 17;
  graph::Graph g = ba ? graph::barabasi_albert(300, 4, seed)
                      : graph::erdos_renyi_gnm(300, 1200, seed);
  g = graph::assign_edge_probs(g, graph::EdgeProbModel::uniform(0.25, 0.95), seed + 1);
  sim::ProblemOptions opts;
  opts.num_targets = 30;
  opts.base_acceptance = 0.45;
  opts.mutual_boost = boost;
  opts.paper_benefit = paper;
  opts.seed = seed;
  Problem p = sim::make_problem(std::move(g), opts);
  if (costs) {
    util::Rng rng(seed * 5);
    p.cost.resize(p.graph.num_nodes());
    for (auto& c : p.cost) c = static_cast<double>(rng.range(1, 3));
  }
  const sim::World w(p, seed * 3);

  // Lane 1 resumes from lane 0's observation after batch 4 with a new
  // selector; both are driven and checked in lockstep from then on.
  struct Lane {
    std::unique_ptr<Observation> obs;
    std::unique_ptr<CachedSelector> cached;
  };
  std::vector<Lane> lanes;
  lanes.push_back({std::make_unique<Observation>(p), nullptr});
  lanes[0].cached = std::make_unique<CachedSelector>(*lanes[0].obs, policy, costs);
  const double budget = 120.0;
  double spent = 0.0;
  std::size_t checked = 0;
  int accepts = 0;
  for (int batch = 0; spent < budget; ++batch) {
    if (batch == 4) {
      auto obs = clone_via_restore(*lanes[0].obs);
      auto cached = std::make_unique<CachedSelector>(*obs, policy, costs);
      lanes.push_back({std::move(obs), std::move(cached)});
    }
    const auto picked = lanes[0].cached->select_batch(6, true, 3, budget - spent);
    if (lanes.size() > 1) {
      ASSERT_EQ(lanes[1].cached->select_batch(6, true, 3, budget - spent), picked)
          << "batch " << batch;
    }
    if (picked.empty()) break;
    for (const NodeId u : picked) {
      spent += p.cost_of(u);
      const Observation& obs = *lanes[0].obs;
      const bool accepted = w.attempt_accept(u, obs.attempts(u), obs.acceptance_prob(u));
      accepts += accepted ? 1 : 0;
      for (auto& lane : lanes) {
        if (accepted) {
          lane.obs->record_accept(u, w.true_neighbors(u));
          lane.cached->notify_accept(u);
        } else {
          lane.obs->record_reject(u);
          lane.cached->notify_reject(u);
        }
      }
    }
    for (const auto& lane : lanes) {
      checked += expect_clean_scores_exact(*lane.cached, *lane.obs, policy, costs);
    }
    ASSERT_FALSE(HasFailure()) << "batch " << batch;
  }
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_GE(accepts, 8);
  EXPECT_GE(checked, 1000u);  // even the paper's full two-hop walk leaves these clean
}

std::string clean_scores_case_name(
    const ::testing::TestParamInfo<CleanScoresExact::ParamType>& case_info) {
  const auto [ba, policy, paper, boost, costs] = case_info.param;
  return std::string(ba ? "BA" : "ER") +
         (policy == MarginalPolicy::kWeighted ? "_Weighted" : "_PaperLiteral") +
         (paper ? "_PaperBenefit" : "_UniformBenefit") + (boost > 0.0 ? "_Boost" : "") +
         (costs ? "_Costs" : "");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CleanScoresExact,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(MarginalPolicy::kWeighted,
                                         MarginalPolicy::kPaperLiteral),
                       ::testing::Bool(), ::testing::Values(0.0, 0.25), ::testing::Bool()),
    clean_scores_case_name);

/// Per-batch rescore counts of the FrontierWork campaign (k = 10, K = 150)
/// with `threads` pool workers (0 = no pool), and the nodes each batch got
/// accepted and rejected.
struct RescoreLog {
  std::vector<std::uint64_t> rescores;
  std::vector<std::vector<NodeId>> accepted;
  std::vector<std::vector<NodeId>> rejected;
};

RescoreLog rescores_per_batch(const Problem& p, unsigned threads) {
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
  const sim::World w(p, 4242);
  Observation obs(p);
  CachedSelector cached(obs, MarginalPolicy::kWeighted, /*cost_sensitive=*/false,
                        pool.get());
  RescoreLog log;
  double budget = 150.0;
  while (budget > 0) {
    const std::uint64_t before = cached.rescore_count();
    const auto batch = cached.select_batch(10, false, 1, budget);
    log.rescores.push_back(cached.rescore_count() - before);
    if (batch.empty()) break;
    log.accepted.emplace_back();
    log.rejected.emplace_back();
    for (const NodeId u : batch) {
      if (w.attempt_accept(u, obs.attempts(u), obs.acceptance_prob(u))) {
        obs.record_accept(u, w.true_neighbors(u));
        cached.notify_accept(u);
        log.accepted.back().push_back(u);
      } else {
        obs.record_reject(u);
        cached.notify_reject(u);
        log.rejected.back().push_back(u);
      }
      budget -= 1.0;
    }
  }
  return log;
}

TEST(CachedSelector, AcceptsRescoreOnlyBenefitCarryingFofRegions) {
  // The FrontierWorkStaysWithinDirtyPlusPopped instance: paper benefit, so
  // only the 300 targets of 50k nodes carry FoF benefit. The paper's cache
  // dirties every node within two hops of an accept; batches 2..15 must
  // rescore under a tenth of that, at every pool size alike.
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
  const RescoreLog log = rescores_per_batch(p, 0);
  ASSERT_EQ(log.rescores.size(), 15u);

  // What the unpruned walk marks before batch b: every node within two hops
  // of an accept of batch b - 1, and each of its rejected nodes.
  const auto& g = p.graph;
  std::vector<std::size_t> marked_in(n, 0);
  std::uint64_t unpruned = 0;
  std::uint64_t pruned = 0;
  for (std::size_t b = 1; b < log.rescores.size(); ++b) {
    const auto mark = [&](NodeId u) {
      if (marked_in[u] != b) {
        marked_in[u] = b;
        ++unpruned;
      }
    };
    for (const NodeId x : log.rejected[b - 1]) mark(x);
    for (const NodeId x : log.accepted[b - 1]) {
      mark(x);
      for (const NodeId v : g.neighbors(x)) {
        mark(v);
        for (const NodeId u : g.neighbors(v)) mark(u);
      }
    }
    pruned += log.rescores[b];
  }
  EXPECT_LT(pruned * 10, unpruned) << "rescored " << pruned << " of " << unpruned;
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_EQ(rescores_per_batch(p, threads).rescores, log.rescores)
        << threads << " workers";
  }
}

// ---------------------------------------------------------------------------
// Bound entries: with the targets in one BFS ball (the served Table III
// shape) an accept flips many benefit-carrying FoFs, and the second hop of
// each flip keeps its old key, an upper bound, until it nears the heap top.

/// A BA graph with its targets in one BFS ball. `uniform` swaps in a
/// benefit where every node carries FoF benefit, over constant edge
/// probabilities: every flip is expanded and equal scores are common.
Problem ball_problem(double boost, bool costs, bool uniform) {
  const std::uint64_t seed = 23;
  graph::Graph g = graph::barabasi_albert(2000, 3, seed);
  g = graph::assign_edge_probs(g,
                               uniform ? graph::EdgeProbModel::constant(0.5)
                                       : graph::EdgeProbModel::uniform(0.25, 0.95),
                               seed + 1);
  sim::ProblemOptions opts;
  opts.num_targets = 80;  // n / 25, as on table3-serve
  opts.target_mode = sim::TargetMode::kBfsBall;
  opts.base_acceptance = 0.3;
  opts.mutual_boost = boost;
  opts.seed = seed;
  Problem p = sim::make_problem(std::move(g), opts);
  if (uniform) p.benefit = sim::make_uniform_benefit(p.graph, 0.5, 0.25);
  if (costs) {
    util::Rng rng(seed * 7);
    p.cost.resize(p.graph.num_nodes());
    for (auto& c : p.cost) c = static_cast<double>(rng.range(1, 3));
  }
  p.validate();
  return p;
}

/// What one k = 5 campaign on a ball problem did: per-batch frontier work
/// and the nodes each batch got accepted and rejected.
struct BallCampaign {
  std::vector<FrontierWork> work;
  std::vector<std::vector<NodeId>> accepted;
  std::vector<std::vector<NodeId>> rejected;
  std::size_t bound_checked = 0;  ///< bound keys compared with marginal_gain
};

/// Runs the campaign with `threads` pool workers (0 = no pool). With
/// `check`, every batch must equal uncached batch_select, and after every
/// batch and again after its notifications each clean score must equal
/// marginal_gain bit for bit and each bound key must be no lower.
BallCampaign ball_campaign(const Problem& p, MarginalPolicy policy, bool costs,
                           unsigned threads, bool check) {
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
  const sim::World w(p, 99);
  Observation obs(p);
  CachedSelector cached(obs, policy, costs, pool.get());
  BallCampaign out;
  const auto check_scores = [&] {
    expect_clean_scores_exact(cached, obs, policy, costs);
    for (NodeId u = 0; u < p.graph.num_nodes(); ++u) {
      const auto bound = cached.bound_key(u);
      if (obs.is_friend(u) || !bound) continue;
      double exact = marginal_gain(obs, u, policy);
      if (costs) exact /= p.cost_of(u);
      EXPECT_GE(*bound, exact) << "bound node " << u;
      ++out.bound_checked;
    }
  };
  FrontierWork before{0, 0, 0};
  double budget = 60.0;
  while (budget > 0) {
    BatchSelectOptions bs;
    bs.batch_size = 5;
    bs.policy = policy;
    bs.cost_sensitive = costs;
    bs.max_attempts_per_node = 1;
    bs.remaining_budget = budget;
    const auto reference = check ? batch_select(obs, bs) : std::vector<NodeId>{};
    const auto batch = cached.select_batch(5, false, 1, budget);
    const FrontierWork now{cached.frontier_push_count(), cached.frontier_pop_count(),
                           cached.rescore_count()};
    out.work.push_back({now.pushes - before.pushes, now.pops - before.pops,
                        now.rescores - before.rescores});
    before = now;
    if (check) {
      EXPECT_EQ(batch, reference) << "batch " << out.work.size() - 1;
      check_scores();
    }
    if (batch.empty()) break;
    out.accepted.emplace_back();
    out.rejected.emplace_back();
    for (const NodeId u : batch) {
      if (w.attempt_accept(u, obs.attempts(u), obs.acceptance_prob(u))) {
        obs.record_accept(u, w.true_neighbors(u));
        cached.notify_accept(u);
        out.accepted.back().push_back(u);
      } else {
        obs.record_reject(u);
        cached.notify_reject(u);
        out.rejected.back().push_back(u);
      }
      budget -= p.cost_of(u);
    }
    if (check) check_scores();
  }
  return out;
}

class BoundEntries
    : public ::testing::TestWithParam<std::tuple<MarginalPolicy, double, bool, bool>> {};

TEST_P(BoundEntries, BatchesMatchUncachedAndKeysBoundTheExactScores) {
  const auto [policy, boost, costs, uniform] = GetParam();
  const Problem p = ball_problem(boost, costs, uniform);
  const BallCampaign run = ball_campaign(p, policy, costs, 0, true);
  ASSERT_FALSE(HasFailure());
  ASSERT_GE(run.work.size(), 6u);
  EXPECT_GT(run.bound_checked, 0u);  // the sweep reaches the bound state
  // Settling, re-keying and its fan-out do not depend on the pool size.
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_EQ(ball_campaign(p, policy, costs, threads, false).work, run.work)
        << threads << " workers";
  }
}

std::string bound_entries_case_name(
    const ::testing::TestParamInfo<BoundEntries::ParamType>& case_info) {
  const auto [policy, boost, costs, uniform] = case_info.param;
  return std::string(policy == MarginalPolicy::kWeighted ? "Weighted" : "PaperLiteral") +
         (boost > 0.0 ? "_Boost" : "") + (costs ? "_Costs" : "") +
         (uniform ? "_UniformTies" : "_PaperBenefit");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundEntries,
    ::testing::Combine(::testing::Values(MarginalPolicy::kWeighted,
                                         MarginalPolicy::kPaperLiteral),
                       ::testing::Values(0.0, 0.2), ::testing::Bool(), ::testing::Bool()),
    bound_entries_case_name);

TEST(CachedSelector, BoundEntriesRescoreLessThanTheEagerWalk) {
  // Before batch b the eager walk rescored each candidate it marked for
  // batch b - 1's outcomes: the rejected nodes, each accepted node x and
  // its neighbors, and the neighbors of each neighbor that just turned FoF
  // while carrying FoF benefit. Without retries a candidate is a node never
  // requested. Settling rescores a bound node only when it nears the heap
  // top, so batches 2+ rescore fewer.
  const Problem p = ball_problem(0.2, false, false);
  const BallCampaign run = ball_campaign(p, MarginalPolicy::kWeighted, false, 0, false);
  ASSERT_GE(run.work.size(), 6u);

  const auto& g = p.graph;
  const sim::World w(p, 99);
  Observation obs(p);
  std::vector<std::uint8_t> requested(g.num_nodes(), 0);
  std::vector<std::uint8_t> expanded(g.num_nodes(), 0);
  std::vector<std::size_t> marked_in(g.num_nodes(), 0);
  std::uint64_t eager = 0;
  std::uint64_t lazy = 0;
  for (std::size_t b = 1; b < run.work.size(); ++b) {
    for (const auto* outcome : {&run.accepted[b - 1], &run.rejected[b - 1]}) {
      for (const NodeId x : *outcome) requested[x] = 1;
    }
    const auto mark = [&](NodeId u) {
      if (marked_in[u] != b) {
        marked_in[u] = b;
        eager += requested[u] ? 0 : 1;
      }
    };
    for (const NodeId x : run.accepted[b - 1]) {
      obs.record_accept(x, w.true_neighbors(x));
      for (const NodeId v : g.neighbors(x)) {
        mark(v);
        if (expanded[v] || p.benefit.bfof[v] == 0.0 || !obs.is_fof(v)) continue;
        expanded[v] = 1;
        for (const NodeId u : g.neighbors(v)) mark(u);
      }
    }
    lazy += run.work[b].rescores;
  }
  EXPECT_LT(lazy, eager) << "rescored " << lazy << " of " << eager;
}

}  // namespace
}  // namespace recon::core
