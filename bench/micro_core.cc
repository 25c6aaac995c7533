// Microbenchmarks for the core selection algorithms (google-benchmark):
// marginal gain, collapsed vs branch-tree BATCHSELECT (the DESIGN.md §2.3
// ablation), lazy vs eager greedy, and full batch rounds.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>

#include "core/attack.h"
#include "core/batch_select.h"
#include "core/batch_state.h"
#include "core/branch_tree.h"
#include "core/cached_selector.h"
#include "core/marginal.h"
#include "core/pm_arest.h"
#include "graph/generators.h"
#include "sim/observation.h"
#include "sim/world.h"
#include "sim/problem.h"
#include "util/thread_pool.h"

namespace {

using namespace recon;

sim::Problem bench_problem(graph::NodeId n, graph::NodeId ba_m = 8) {
  sim::ProblemOptions opts;
  opts.num_targets = n / 20;
  opts.base_acceptance = 0.3;
  opts.seed = 99;
  return sim::make_problem(
      graph::assign_edge_probs(graph::barabasi_albert(n, ba_m, 7),
                               graph::EdgeProbModel::uniform(0.3, 0.9), 8),
      opts);
}

void BM_MarginalGain(benchmark::State& state) {
  const auto problem = bench_problem(static_cast<graph::NodeId>(state.range(0)));
  sim::Observation obs(problem);
  graph::NodeId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::marginal_gain(obs, u, core::MarginalPolicy::kWeighted));
    u = (u + 1) % problem.graph.num_nodes();
  }
}
BENCHMARK(BM_MarginalGain)->Arg(1000)->Arg(10000);

void BM_BatchSelectCollapsed(benchmark::State& state) {
  const auto problem = bench_problem(static_cast<graph::NodeId>(state.range(0)));
  sim::Observation obs(problem);
  core::BatchSelectOptions opts;
  opts.batch_size = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::batch_select(obs, opts));
  }
  state.SetLabel("lazy greedy");
}
BENCHMARK(BM_BatchSelectCollapsed)
    ->Args({1000, 5})
    ->Args({1000, 15})
    ->Args({5000, 15});

void BM_BatchSelectBranchTree(benchmark::State& state) {
  // Exponential in k: keep the graph small and k modest. This is the
  // ablation showing why the collapsed form matters.
  const auto problem = bench_problem(200, 4);
  sim::Observation obs(problem);
  core::BranchTreeOptions opts;
  opts.batch_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::branch_tree_select(obs, opts));
  }
  state.SetLabel("2^k branches");
}
BENCHMARK(BM_BatchSelectBranchTree)->Arg(4)->Arg(8)->Arg(12);

void BM_BatchSelectParallelLazy(benchmark::State& state) {
  // The default parallel path: sharded kernel scoring + merged-frontier lazy
  // pick loop, bit-identical to BM_BatchSelectCollapsed's output. Thread
  // count is range(2); compare against the sequential n=5000,k=15 row for
  // the speedup figure (tools/bench_parallel_select.sh captures both).
  const auto problem = bench_problem(static_cast<graph::NodeId>(state.range(0)));
  sim::Observation obs(problem);
  util::ThreadPool pool(static_cast<unsigned>(state.range(2)));
  core::BatchSelectOptions opts;
  opts.batch_size = static_cast<int>(state.range(1));
  opts.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::batch_select(obs, opts));
  }
  state.SetLabel("parallel lazy greedy");
}
BENCHMARK(BM_BatchSelectParallelLazy)
    ->Args({5000, 15, 1})
    ->Args({5000, 15, 2})
    ->Args({5000, 15, 4})
    ->Args({5000, 15, 8})
    ->Args({20000, 15, 4});

void BM_BatchSelectEagerParallel(benchmark::State& state) {
  const auto problem = bench_problem(2000);
  sim::Observation obs(problem);
  util::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  core::BatchSelectOptions opts;
  opts.batch_size = 15;
  opts.pool = &pool;
  opts.parallel_eager = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::batch_select(obs, opts));
  }
}
BENCHMARK(BM_BatchSelectEagerParallel)->Arg(1)->Arg(4)->Arg(8);

/// One unit-cost attack (k = 10, budget 100) selecting every batch with the
/// cross-batch cache, notified after each outcome, or with batch_select from
/// scratch. Both pick identical batches; only the scoring work differs.
/// Returns the cache's base-score recomputations (0 when uncached).
std::uint64_t attack_with_selector(const sim::Problem& problem,
                                   const sim::World& world, bool cached) {
  sim::Observation obs(problem);
  std::optional<core::CachedSelector> cache;
  if (cached) cache.emplace(obs, core::MarginalPolicy::kWeighted);
  core::BatchSelectOptions bs;
  bs.batch_size = 10;
  bs.max_attempts_per_node = 1;
  double budget = 100.0;
  for (;;) {
    bs.remaining_budget = budget;
    const auto batch = cached ? cache->select_batch(10, false, 1, budget)
                              : core::batch_select(obs, bs);
    if (batch.empty()) break;
    for (const graph::NodeId u : batch) {
      if (world.attempt_accept(u, obs.attempts(u), obs.acceptance_prob(u))) {
        obs.record_accept(u, world.true_neighbors(u));
        if (cached) cache->notify_accept(u);
      } else {
        obs.record_reject(u);
        if (cached) cache->notify_reject(u);
      }
    }
    budget -= static_cast<double>(batch.size());
  }
  return cached ? cache->rescore_count() : 0;
}

void BM_FullAttackCachedVsUncached(benchmark::State& state) {
  // End-to-end selection cost over a whole attack: the cross-batch cache
  // (state.range(1)) rescores only the nodes an accept or reject can change
  // (core/cached_selector.h); `rescores` counts them per attack.
  const auto problem = bench_problem(static_cast<graph::NodeId>(state.range(0)));
  const bool cached = state.range(1) != 0;
  std::uint64_t seed = 0;
  std::uint64_t rescores = 0;
  for (auto _ : state) {
    const sim::World world(problem, seed++);
    const std::uint64_t r = attack_with_selector(problem, world, cached);
    benchmark::DoNotOptimize(r);
    rescores += r;
  }
  state.SetLabel(cached ? "cached" : "uncached");
  if (cached) {
    state.counters["rescores"] = benchmark::Counter(
        static_cast<double>(rescores), benchmark::Counter::kAvgIterations);
  }
}
BENCHMARK(BM_FullAttackCachedVsUncached)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({8000, 0})
    ->Args({8000, 1});

void BM_FullAttackCachedPool(benchmark::State& state) {
  // Cache + pool composition: dirty rescores fan out across workers
  // while the pick loop stays sequential (and bit-identical).
  const auto problem = bench_problem(8000);
  util::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    core::PmArestOptions o;
    o.batch_size = 10;
    o.pool = &pool;
    core::PmArest strategy(o);
    const sim::World world(problem, seed++);
    benchmark::DoNotOptimize(core::run_attack(problem, world, strategy, 100.0));
  }
  state.SetLabel("cached+pool");
}
BENCHMARK(BM_FullAttackCachedPool)->Arg(1)->Arg(4);

void BM_BatchStateSelect(benchmark::State& state) {
  const auto problem = bench_problem(5000);
  sim::Observation obs(problem);
  core::BatchState bs(problem.graph.num_nodes());
  graph::NodeId u = 0;
  for (auto _ : state) {
    if (bs.size() >= 64) bs.reset();
    if (!bs.is_selected(u)) bs.select(obs, u, 0.3);
    u = (u + 17) % problem.graph.num_nodes();
  }
}
BENCHMARK(BM_BatchStateSelect);

}  // namespace

BENCHMARK_MAIN();
