// Cross-batch score caching (paper Alg. 2, lines 8–11, applied across the
// whole attack) over a frontier that persists from batch to batch.
//
// batch_select() recomputes every candidate's base score at the start of
// each batch — O(n · deg) per batch. But an observation only changes the
// marginal gain of nodes within two hops of what was observed: accepting u
// reveals u's edges (touching u's neighbors' FoF terms and their neighbors'
// edge/FoF sums) and bumps mutual counters of u's neighbors. CachedSelector
// keeps the base marginal Δf(u | ω) of every candidate across batches and
// re-scores only the dirty 2-hop region, exactly like the paper's CΔ cache.
//
// The frontier. The base scores live in an addressable max-heap keyed by
// (score, original node id) with a position index per node, so a batch
// costs O(dirty · log n), not an O(n log n) rebuild:
//  * notify_* marks nodes dirty and appends them to a dirty list; at batch
//    start only that list is rescored (one pool fan-out when a pool is set)
//    and only those keys are updated in place. The list is visited in id
//    order so rescoring reads the CSR rows front to back; only a list so
//    long that sorting it costs more than one pass over the n-byte dirty
//    bitmap is regathered from that bitmap.
//  * Valid-entry rule: every entry best_score / pop_best expose is a
//    candidate of this batch (requestable, under the attempt cap,
//    affordable under the call's budget) with a positive base score. Dead
//    entries on top — friends, rejected without retries, at the attempt
//    cap, unaffordable — are discarded before any peek, so the pick loop's
//    score-only push-back test sees exactly the uncached selector's heap
//    and ties resolve identically. Those exclusions are permanent while the
//    call parameters do not loosen (budget and attempts only move one way
//    in a campaign); a call that loosens them (retries switched on, a
//    higher cap or budget) rebuilds the frontier from a full scan.
//  * Cooldown stash: a node in retry backoff is not a candidate now but
//    becomes one when the clock passes its deadline, with no notification.
//    When it surfaces it is stashed and reinserted after the batch.
//  * Every node popped during a batch — selected, unaffordable at the
//    running budget, or skipped for Γ(u | A) ≤ 0 — goes back in at the end
//    with its cached base score; in-batch rescored entries sit in a
//    batch-local heap that is dropped when the batch ends.
//  * Memory: one heap slot and one position index per node, never more; the
//    BatchState is a member reused through its O(1) reset().
//  * Bulk rule: when the dirty nodes to re-key outnumber frontier size /
//    log2(frontier size) — the first batches of a BA campaign, whose hubs
//    dirty most of the graph — one make_heap over the frontier replaces the
//    per-node sifts.
//
// With a thread pool the dirty rescore fans out over the pool (each node's
// score is independent; the rescore counter is atomic), while the pick loop
// (core/lazy_greedy.h, shared with batch_select) stays sequential for
// determinism. Batches are identical with and without a pool.
//
// Equivalence contract (tested differentially against batch_select):
// CachedSelector::select_batch returns the same batch as core::batch_select
// for every observation sequence, provided the observation is only mutated
// through record_* calls each followed by notify_accept / notify_reject.
//
// Thread compatibility: the memo tables (cached_, dirty_) are not guarded by
// a mutex on purpose — during the parallel rescore each pool worker takes a
// disjoint range of the duplicate-free dirty list and so writes distinct
// slots of both vectors (data-race-free by partitioning, not locking;
// TSan-verified in cached_selector_test), and the only cross-thread write is
// the atomic rescore counter. Outside select_batch the selector is
// single-thread confined: callers must not invoke notify_* / select_batch
// concurrently on one instance.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/batch_state.h"
#include "core/marginal.h"
#include "sim/observation.h"
#include "util/thread_pool.h"

namespace recon::core {

class CachedSelector {
 public:
  /// Binds to an observation (must outlive the selector). `policy` and
  /// `cost_sensitive` are fixed for the selector's lifetime; batch size,
  /// retries, and budget vary per call. When `pool` is non-null, dirty
  /// candidates are re-scored in parallel at the start of each batch.
  CachedSelector(const sim::Observation& obs, MarginalPolicy policy,
                 bool cost_sensitive = false, util::ThreadPool* pool = nullptr);

  /// Must be called after every observation mutation, with the same node.
  void notify_accept(graph::NodeId u);
  void notify_reject(graph::NodeId u);

  /// Selects a batch using cached base scores + the collapsed batch state.
  std::vector<graph::NodeId> select_batch(int batch_size, bool allow_retries,
                                          std::uint32_t max_attempts_per_node,
                                          double remaining_budget);

  /// Number of base-score recomputations performed so far (for tests and
  /// the cache-efficiency microbenchmark).
  std::uint64_t rescore_count() const noexcept {
    return rescores_.load(std::memory_order_relaxed);
  }

  /// Deterministic frontier work: entries placed into the persistent heap
  /// (inserts and in-place key updates, batch-end reinsertions, and every
  /// entry of a bulk make_heap) and entries taken off it (pops, dead-entry
  /// discards, removals). Batch-local re-pushes are not counted. Identical
  /// at every pool size.
  std::uint64_t frontier_push_count() const noexcept { return pushes_; }
  std::uint64_t frontier_pop_count() const noexcept { return pops_; }

 private:
  class PickFrontier;

  /// One persistent-heap slot; the key is (score, rank) under ranks_before.
  struct Slot {
    double score;
    graph::NodeId node;
    graph::NodeId rank;
  };
  static constexpr std::uint32_t kNotInHeap = ~std::uint32_t{0};

  void rescore_node(graph::NodeId u);  ///< recomputes cached_[u], clears dirty
  void mark_dirty(graph::NodeId u);
  void mark_two_hop_dirty(graph::NodeId u);

  /// Not permanently excluded under the current call's parameters: a
  /// candidate now, or one once its retry cooldown expires.
  bool admissible(graph::NodeId u) const noexcept;
  bool candidate(graph::NodeId u) const noexcept {
    return admissible(u) && !obs_->cooling_down(u);
  }

  /// Batch-start refresh: full scan + bulk build on the first call and
  /// after a loosening call, else the dirty-list path.
  void refresh_full();
  void refresh_dirty();
  void rescore(const std::vector<graph::NodeId>& nodes);

  // Addressable heap over heap_ with pos_[node] = slot index.
  static bool better(const Slot& a, const Slot& b) noexcept;
  void place(std::size_t i, const Slot& s) noexcept;
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  void heap_set(graph::NodeId u, double score);  ///< insert or re-key
  void heap_erase(graph::NodeId u);
  void heap_pop();
  void heap_rebuild();  ///< make_heap over heap_, then refill pos_
  bool in_heap(graph::NodeId u) const noexcept { return pos_[u] != kNotInHeap; }

  const sim::Observation* obs_;
  MarginalPolicy policy_;
  bool cost_sensitive_;
  util::ThreadPool* pool_;
  std::vector<double> cached_;        ///< base Δf (cost-adjusted) per node
  std::vector<std::uint8_t> dirty_;   ///< cache invalid flags
  std::vector<graph::NodeId> dirty_list_;  ///< nodes marked since last batch
  std::atomic<std::uint64_t> rescores_{0};

  std::vector<Slot> heap_;
  std::vector<std::uint32_t> pos_;
  /// Nodes popped or stashed during the current batch, reinserted with
  /// their base score when it ends.
  std::vector<graph::NodeId> returning_;
  BatchState state_;
  std::uint64_t pushes_ = 0;
  std::uint64_t pops_ = 0;

  /// The previous call's parameters; a call looser in any of them takes
  /// the full-refresh path. `primed_` is false until the first refresh.
  bool primed_ = false;
  bool allow_retries_ = false;
  std::uint32_t max_attempts_ = 0;
  double budget_ = 0.0;
};

}  // namespace recon::core
