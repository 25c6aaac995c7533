// PM-AReST — the Parallel and adaptive Maximum-benefit Reconnaissance
// Strategy (paper Alg. 1).
//
// Each round, BATCHSELECT greedily picks k nodes using the collapsed
// expectation tree over the cross-batch CΔ cache (core/cached_selector.h,
// paper Alg. 2 lines 3–11), all k requests are sent in parallel, and the
// observation phase reveals accept/reject states plus the neighborhoods of
// accepting users. Variants implemented via options:
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
#include <vector>

#include "core/batch_select.h"
#include "core/cached_selector.h"
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
  /// Optional pool: parallelizes the cache's dirty rescore (or, in
  /// parallel_eager mode, every candidate's scoring) without changing any
  /// batch — selection is bit-identical for every pool size, including none.
  util::ThreadPool* pool = nullptr;
  /// Paper Table II's parallel selection: batch_select's eager parallel
  /// rescore of every candidate each round, bypassing the cache.
  bool parallel_eager = false;
  std::uint64_t seed = 0x9d5f;  ///< randomness for varying batch sizes
};

class PmArest : public Strategy {
 public:
  /// `empty_scores` is an optional Γ₀ memo of the problem the strategy
  /// will attack (core/cached_selector.h); the cache seeds its first
  /// pristine scoring from it when it matches, and ignores it otherwise.
  explicit PmArest(PmArestOptions options,
                   std::shared_ptr<const EmptyScores> empty_scores = nullptr);

  std::string name() const override;
  void begin(const sim::Problem& problem, double budget) override;
  std::vector<graph::NodeId> next_batch(const sim::Observation& obs,
                                        double remaining_budget) override;
  /// Checkpoints the varying-k RNG stream ("pmarest w0 w1 w2 w3"). The score
  /// cache is a pure function of the observation and is rebuilt on resume.
  /// A blob with trailing tokens (the cache/planner sections older builds
  /// wrote for `--planner` runs) is refused: PM-AReST hosts no planner.
  std::string save_state() const override;
  void restore_state(const std::string& blob) override;

  const PmArestOptions& options() const noexcept { return options_; }

 private:
  int draw_batch_size();
  /// Feeds accept/reject notifications for the nodes the observation
  /// journaled since the previous sync into the cached selector. A new or
  /// restored observation (another generation) gets a fresh, all-dirty
  /// cache instead, with no per-node work.
  void sync_cache(const sim::Observation& obs);

  // lint:ckpt-coverage-ok(construction-time config; the harness rebuilds the
  // strategy with identical options before calling restore_state)
  PmArestOptions options_;
  // lint:ckpt-coverage-ok(immutable Γ₀ memo handed over at construction;
  // a pure function of the problem, so the resuming host passes it again)
  std::shared_ptr<const EmptyScores> empty_scores_;
  // lint:ckpt-coverage-ok(re-derived in begin() from options_ and the
  // fault-model retry budget on every run, including resumed ones)
  std::uint32_t attempt_cap_ = 0;
  util::Rng rng_;
  // lint:ckpt-coverage-ok(cross-batch score cache, a pure function of the
  // observation; sync_cache rebuilds it on the first post-resume batch)
  std::unique_ptr<CachedSelector> cache_;
  // lint:ckpt-coverage-ok(transient pointer identity of the last-seen
  // observation, only meaningful within one process lifetime)
  const sim::Observation* cache_obs_ = nullptr;
  // lint:ckpt-coverage-ok(read cursor into the observation's touched-node
  // journal, only meaningful within one process lifetime; a rebuilt cache
  // starts all-dirty)
  std::size_t journal_pos_ = 0;
  // lint:ckpt-coverage-ok(journal generation paired with journal_pos_;
  // transient for the same reason)
  std::uint64_t journal_generation_ = 0;
};

}  // namespace recon::core
