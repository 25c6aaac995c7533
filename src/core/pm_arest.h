// PM-AReST — the Parallel and adaptive Maximum-benefit Reconnaissance
// Strategy (paper Alg. 1).
//
// Each round, BATCHSELECT greedily picks k nodes using the collapsed
// expectation tree (or the literal branch tree), all k requests are sent in
// parallel, and the observation phase reveals accept/reject states plus the
// neighborhoods of accepting users. Variants implemented via options:
//
//  * retries (Sec. IV-C "Retrying Failed Requests"): rejected nodes return
//    to the candidate pool, capped at m = K/k attempts per node;
//  * varying batch sizes (Sec. IV-C, Thm. 5): k drawn uniformly from
//    [vary_k_min, vary_k_max] each round to evade OSN rate monitors;
//  * generalized costs: greedy ratio Δf(u|ω)/c(u);
//  * paper-literal vs probability-weighted marginal policies.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_select.h"
#include "core/cached_selector.h"
#include "core/planner.h"
#include "core/strategy.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace recon::core {

struct PmArestOptions {
  int batch_size = 5;
  MarginalPolicy policy = MarginalPolicy::kWeighted;
  bool allow_retries = false;
  /// 0 = default cap of max(1, ceil(K / k)) attempts per node (paper's m).
  std::uint32_t max_attempts_per_node = 0;
  bool cost_sensitive = false;
  /// When vary_k_max > 0, each round's batch size is drawn uniformly from
  /// [vary_k_min, vary_k_max].
  int vary_k_min = 0;
  int vary_k_max = 0;
  /// Use the exponential branch-tree selector instead of the collapsed one.
  bool use_branch_tree = false;
  /// Keep base marginal scores cached across batches, re-scoring only the
  /// 2-hop neighborhood of observed nodes (paper Alg. 2 lines 8-11). Exactly
  /// equivalent to the uncached selector; large speedup on big graphs.
  /// Composes with `pool` (parallel rescore of the dirty region).
  bool use_cache = true;
  /// Optional pool: parallelizes candidate scoring (cached and uncached
  /// selectors alike) without changing any batch — selection is bit-identical
  /// for every pool size, including none.
  util::ThreadPool* pool = nullptr;
  bool parallel_eager = false;
  std::uint64_t seed = 0x9d5f;  ///< randomness for varying batch sizes
  /// Runtime planner (core/planner.h). Off (default): dispatch frozen by the
  /// use_branch_tree / use_cache flags above, bit-identical to pre-planner
  /// builds. Auto: per batch, the cheapest of {cached, uncached, tree} by
  /// the calibrated cost models (cached and uncached select identical
  /// batches — the cache is exactly equivalent — so only the branch tree
  /// choice can alter a trace, and its 2^k cost model keeps it to tiny
  /// frontiers). Fixed: pinned to one selector for parity runs. Ignored in
  /// parallel_eager mode. The planner's shard calibration replaces the
  /// process-wide one and is checkpointed with the strategy.
  PlannerOptions planner = {};
};

class PmArest : public Strategy {
 public:
  explicit PmArest(PmArestOptions options);

  std::string name() const override;
  void begin(const sim::Problem& problem, double budget) override;
  std::vector<graph::NodeId> next_batch(const sim::Observation& obs,
                                        double remaining_budget) override;
  /// Checkpoints the varying-k RNG stream, plus — when the planner is on and
  /// the cached selector has run — the cache-accounting section (sparse
  /// last-seen attempt counters and the accounting-dirty node set), so a
  /// resumed campaign feeds the planner the same cached-tier work counts as
  /// the uninterrupted run. The score cache itself stays a pure function of
  /// the observation and is rebuilt on resume.
  std::string save_state() const override;
  void restore_state(const std::string& blob) override;

  const PmArestOptions& options() const noexcept { return options_; }
  const ExecutionPlanner& planner() const noexcept { return planner_; }

 private:
  int draw_batch_size();
  std::vector<graph::NodeId> planned_batch(const sim::Observation& obs,
                                           double remaining_budget, int k);
  /// Diffs the observation against the last-seen attempt counters and feeds
  /// accept/reject notifications into the cached selector. Only the nodes
  /// the observation journaled since the previous sync are diffed; a fresh
  /// cache or a restored observation takes one full scan.
  void sync_cache(const sim::Observation& obs);

  // lint:ckpt-coverage-ok(construction-time config; the harness rebuilds the
  // strategy with identical options before calling restore_state)
  PmArestOptions options_;
  // lint:ckpt-coverage-ok(re-derived in begin() from options_ and the
  // fault-model retry budget on every run, including resumed ones)
  std::uint32_t attempt_cap_ = 0;
  util::Rng rng_;
  // lint:ckpt-coverage-ok(cross-batch score cache, a pure function of the
  // observation; sync_cache rebuilds it on the first post-resume batch and
  // re-applies the checkpointed accounting overlay to it)
  std::unique_ptr<CachedSelector> cache_;
  // lint:ckpt-coverage-ok(transient pointer identity of the last-seen
  // observation, only meaningful within one process lifetime)
  const sim::Observation* cache_obs_ = nullptr;
  // lint:ckpt-coverage-ok(checkpointed via the cache section: save_state
  // emits the sparse nonzero entries and restore_state parses them into
  // restored_attempts_, which sync_cache applies when it rebuilds the
  // selector on the first post-resume batch)
  std::vector<std::uint32_t> last_attempts_;
  // lint:ckpt-coverage-ok(read cursor into the observation's touched-node
  // journal, only meaningful within one process lifetime; a rebuilt cache
  // re-diffs every counter)
  std::size_t journal_pos_ = 0;
  // lint:ckpt-coverage-ok(journal generation paired with journal_pos_;
  // transient for the same reason)
  std::uint64_t journal_generation_ = 0;
  /// Cache section parsed out of a checkpoint blob, held until sync_cache
  /// rebuilds the selector and can apply it: sparse (node, attempts) pairs
  /// for last_attempts_ and the accounting-dirty node set.
  std::vector<std::pair<graph::NodeId, std::uint32_t>> restored_attempts_;
  std::vector<graph::NodeId> restored_acct_dirty_;
  bool has_restored_cache_ = false;
  // lint:ckpt-coverage-ok(planner serializes itself; its blob is appended to
  // this strategy's state line when the planner is enabled)
  ExecutionPlanner planner_;
};

}  // namespace recon::core
