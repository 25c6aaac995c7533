// Cross-batch score caching (paper Alg. 2, lines 8–11, applied across the
// whole attack) over a frontier that persists from batch to batch.
//
// batch_select() recomputes every candidate's base score at the start of
// each batch — O(n · deg) per batch. But an observation changes the marginal
// gain of few nodes. A reject changes only the rejected node's. Accepting x
// reveals x's edges and bumps the mutual counters and FoF flags of x's true
// neighbors, so x and every neighbor v of x are stale. A node w two hops
// away depends on v only through its term p̂_wv · Bfof(v), which vanishes
// when v turns FoF; so v's neighbors are touched only when v carries FoF
// benefit (Bfof(v) ≠ 0), is a FoF now, and was not expanded before. With
// Bfof(v) = 0 the term is a zero, and dropping it leaves w's score bit for
// bit (mark_two_hop_dirty has the argument). CachedSelector keeps the base
// marginal Δf(u | ω) of every candidate across batches and rescores only
// the nodes whose score can change: the paper's CΔ cache (Alg. 2 lines
// 8–11), which dirties the whole 2-hop neighbourhood of an accept, pruned.
//
// Stale and bound. A node adjacent to an accept, or rejected, is "stale":
// rescored at the start of the next batch. A node touched only as the
// second hop of a FoF flip is "bound" and keeps its old key (Minoux's
// accelerated greedy, CELF). Its score can only have fallen: its q, its
// mutual count, its FoF flag and its edge states move only when it is
// adjacent to an accept, so all it lost are terms p̂_wv · Bfof(v) ≥ 0
// (validated finite and non-negative). Round-to-nearest addition,
// multiplication by q ≥ 0 and division by a cost > 0 are all monotone, so
// the kept key is ≥ the exact score bit for bit, and an exact key that
// tops every bound key tops their exact scores too, ties included.
//
// The frontier. The base scores live in an addressable max-heap keyed by
// (score, original node id) with a position index per node, so a batch
// costs O(dirty · log n), not an O(n log n) rebuild:
//  * notify_* marks nodes stale and appends them to a dirty list; at batch
//    start only that list is rescored (one pool fan-out when a pool is set)
//    and only those keys are updated in place. Bound nodes are not listed.
//    The list is visited in id order so rescoring reads the CSR rows front
//    to back; only a list so long that sorting it costs more than one pass
//    over the n-byte dirty bitmap is regathered from that bitmap.
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
//  * Settle: before the pick loop sees the heap's top, every bound entry
//    above the heap's fresh frontier — reachable from the root through
//    bound entries only — is rescored in one pool fan-out and re-keyed
//    under the bulk rule below; then the top is checked again. A bound
//    entry below a fresh one is no better than that entry's exact key, so
//    it can wait. The exposed top is the all-exact heap's top.
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
//    log2(frontier size) — an accepted BA hub with many neighbors, or a
//    settle that surfaces a large bound region — one make_heap over the
//    frontier replaces the per-node sifts.
//
// The first batch. A campaign's first refresh_full scores the whole
// frontier on an empty observation (Observation::pristine(): no friend, no
// revealed edge — rejects and no-responses keep it so). There every per-arc
// state load of marginal_gain is a constant, so a pristine rescore reads
// only the problem, bit-identical to marginal_gain: a full refresh with
// most of the graph stale runs the whole-graph edge-major pass,
// empty_marginal_gains_all (core/marginal.h), with one owner range per
// pool participant; a shorter pristine dirty list (after a batch of
// rejects) runs the subset kernel, empty_marginal_gains. Any other
// observation takes the marginal_gain path. When the selector was handed a
// Γ₀ memo (EmptyScores) built for its problem, policy and cost mode, a
// pristine rescore copies the memo instead of scoring: a service-resident
// problem pays for Γ₀ once at CampaignRegistry::register_problem, not once
// per campaign.
//
// With a thread pool the dirty and settle rescores fan out over the pool
// (each node's score is independent; the rescore counter is atomic), while
// the pick loop (core/lazy_greedy.h, shared with batch_select) stays
// sequential for determinism. Batches are identical with and without a
// pool.
//
// Equivalence contract (tested differentially against batch_select):
// CachedSelector::select_batch returns the same batch as core::batch_select
// for every observation sequence, provided the observation is only mutated
// through record_* calls each followed by notify_accept / notify_reject.
//
// Thread compatibility: the memo tables (cached_, dirty_) are not guarded by
// a mutex on purpose — during the parallel rescore each pool worker takes a
// disjoint range of the duplicate-free dirty or settle list and so writes
// distinct slots of both vectors (data-race-free by partitioning, not
// locking; TSan-verified in cached_selector_test), and the only cross-thread
// write is the atomic rescore counter. Outside select_batch the selector is
// single-thread confined: callers must not invoke notify_* / select_batch
// concurrently on one instance.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/batch_state.h"
#include "core/marginal.h"
#include "sim/observation.h"
#include "util/thread_pool.h"

namespace recon::core {

/// Γ₀ memo: every node's base score on the empty observation of one
/// problem, under one policy and cost mode — exactly what a selector's
/// pristine rescore caches. Immutable once built and shared read-only
/// between the selectors of campaigns on that problem.
struct EmptyScores {
  const sim::Problem* problem = nullptr;
  MarginalPolicy policy = MarginalPolicy::kWeighted;
  bool cost_sensitive = false;
  std::vector<double> scores;  ///< size n, cost-adjusted when cost_sensitive
};

/// Builds the Γ₀ memo of `problem` through the whole-graph pass (one owner
/// range per participant of `pool`, when set).
std::shared_ptr<EmptyScores> compute_empty_scores(const sim::Problem& problem,
                                                  MarginalPolicy policy,
                                                  bool cost_sensitive,
                                                  util::ThreadPool* pool = nullptr);

class CachedSelector {
 public:
  /// Binds to an observation (must outlive the selector). `policy` and
  /// `cost_sensitive` are fixed for the selector's lifetime; batch size,
  /// retries, and budget vary per call. When `pool` is non-null, dirty
  /// candidates are re-scored in parallel at the start of each batch.
  /// `empty_scores`, when it was built for this problem, policy and cost
  /// mode, seeds pristine rescoring instead of scoring; otherwise it is
  /// ignored.
  CachedSelector(const sim::Observation& obs, MarginalPolicy policy,
                 bool cost_sensitive = false, util::ThreadPool* pool = nullptr,
                 std::shared_ptr<const EmptyScores> empty_scores = nullptr);

  /// Must be called after every observation mutation, with the same node.
  void notify_accept(graph::NodeId u);
  void notify_reject(graph::NodeId u);

  /// Selects a batch using cached base scores + the collapsed batch state.
  std::vector<graph::NodeId> select_batch(int batch_size, bool allow_retries,
                                          std::uint32_t max_attempts_per_node,
                                          double remaining_budget);

  /// u's cached base score Δf(u | ω) (divided by c(u) when cost-sensitive),
  /// or nullopt while u is stale or bound. Read-only; for exactness tests.
  std::optional<double> base_score(graph::NodeId u) const {
    if (dirty_[u] != kClean) return std::nullopt;
    return cached_[u];
  }

  /// u's kept key while u is bound — an upper bound on its base score —
  /// else nullopt. Read-only; for exactness tests.
  std::optional<double> bound_key(graph::NodeId u) const {
    if (dirty_[u] != kBound) return std::nullopt;
    return cached_[u];
  }

  /// Number of base-score recomputations performed so far (for tests and
  /// the cache-efficiency microbenchmark). A score seeded from the Γ₀ memo
  /// counts as one, so the count does not depend on the memo.
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
  /// dirty_ states: cached_ exact; invalid; an upper bound (see the header).
  static constexpr std::uint8_t kClean = 0;
  static constexpr std::uint8_t kStale = 1;
  static constexpr std::uint8_t kBound = 2;

  void rescore_node(graph::NodeId u);  ///< recomputes cached_[u], marks it clean
  void mark_dirty(graph::NodeId u);    ///< stale
  void mark_bound(graph::NodeId u);    ///< bound, unless stale already
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
  /// Rescores and re-keys the admissible nodes of `nodes` (ascending ids)
  /// and drops the others from the heap, their dirty state kept for a
  /// later full refresh.
  void refresh(std::span<const graph::NodeId> nodes);
  /// Rescores the bound entries above the heap's fresh frontier (settle).
  void refresh_bound_top();
  /// Recomputes cached_ for `nodes` and marks them clean; on a pristine
  /// observation through the state-free Γ₀ pass or the memo.
  void rescore(const std::vector<graph::NodeId>& nodes);
  void rescore_pristine(std::span<const graph::NodeId> nodes);

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
  std::shared_ptr<const EmptyScores> empty_;  ///< null unless it matches
  std::vector<double> cached_;        ///< base Δf (cost-adjusted) per node
  std::vector<std::uint8_t> dirty_;   ///< kClean, kStale or kBound per node
  std::vector<graph::NodeId> dirty_list_;  ///< nodes made stale since last batch
  /// FoFs whose neighbors were dirtied for their flip (or that were FoFs
  /// already at construction); see mark_two_hop_dirty.
  std::vector<std::uint8_t> fof_seen_;
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
