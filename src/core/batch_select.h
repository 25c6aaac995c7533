// BATCHSELECT (paper Alg. 2) — greedy selection of one batch of k requests.
//
// Default implementation uses the collapsed expectation tree (BatchState)
// with lazy greedy evaluation: adaptive submodularity guarantees scores only
// decrease as the batch grows, so a stale heap entry whose recomputed score
// still tops the heap can be selected without rescoring the rest (the CΔ
// cache of Alg. 2, lines 3–11).
//
// When a thread pool is supplied the default is a *parallel lazy greedy*:
// candidates are sharded across workers, each worker scores its shard
// through the flat CSR kernel (GammaKernel) into a local top-k heap, the
// shard heaps are merged into a frontier, and the sequential pick-and-repush
// loop runs over the merged frontier. The output is bit-identical to the
// sequential lazy greedy for every thread count (the (score, node-id) order
// is a strict total order, so the frontier organization cannot change which
// entry pops next).
//
// A parallel-eager mode rescoring all candidates each round through a thread
// pool reproduces the paper's massively-parallel row evaluation (used by the
// Table II utilization experiment).
#pragma once

#include <cstdint>
#include <vector>

#include "core/batch_state.h"
#include "core/marginal.h"
#include "sim/observation.h"
#include "util/thread_pool.h"

namespace recon::core {

struct BatchSelectOptions {
  int batch_size = 5;
  MarginalPolicy policy = MarginalPolicy::kWeighted;
  /// Divide scores by request cost (generalized cost function, Sec. IV-C).
  bool cost_sensitive = false;
  /// Retries: include previously-rejected nodes as candidates.
  bool allow_retries = false;
  /// Cap on requests per node (0 = unlimited); the paper's auxiliary-graph
  /// analysis allows up to m = K/k attempts per node.
  std::uint32_t max_attempts_per_node = 0;
  /// Remaining budget; candidates costing more are skipped. Batch stops
  /// early when nothing affordable remains.
  double remaining_budget = 1e18;
  /// Optional pool for the parallel lazy greedy (nullptr = sequential).
  /// Batches are bit-identical with and without a pool.
  util::ThreadPool* pool = nullptr;
  /// Rescore every candidate each round via the pool instead of lazy greedy.
  bool parallel_eager = false;
};

/// Selects up to options.batch_size nodes to request, greedily maximizing
/// the batch-aware marginal gain Γ. Returns fewer than k nodes when
/// candidates are exhausted or nothing affordable has positive gain.
std::vector<graph::NodeId> batch_select(const sim::Observation& obs,
                                        const BatchSelectOptions& options);

/// Enumerates the candidate set for a batch under the options (requestable
/// nodes, attempt cap, affordability). Exposed for tests and the MIP
/// strategy.
std::vector<graph::NodeId> batch_candidates(const sim::Observation& obs,
                                            bool allow_retries,
                                            std::uint32_t max_attempts_per_node,
                                            double max_cost);

/// Work units one score shard aims at (one unit ~ one adjacency-row entry
/// walked by the gamma kernel): ~100 µs at 64 ns/unit, long enough to
/// amortize a task dispatch, short enough that one hub-heavy shard cannot
/// straggle the whole pass.
inline constexpr double kShardTargetWork = 1562.5;

/// Shard boundaries for the parallel scoring pass: shard s covers
/// candidates [bounds[s], bounds[s+1]), bounds.front() == 0 and
/// bounds.back() == work.size(). Shards hold roughly equal *estimated
/// work* (work[i] models candidate i's scoring cost — the gamma kernel
/// walks the adjacency row, so batch_select uses 1 + degree), not equal
/// candidate counts: a hub-heavy prefix of a BA candidate list is split
/// into many small shards while the low-degree tail coarsens. Each shard
/// aims at `kShardTargetWork` work units, clamped to between 4 and 32
/// shards per participant. The plan only decides *where* candidates sit,
/// never the (score, node) frontier order, so selected batches are
/// identical under every plan. Exposed for tests.
std::vector<std::size_t> plan_score_shards(const std::vector<double>& work,
                                           std::size_t parties);

}  // namespace recon::core
