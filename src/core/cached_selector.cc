#include "core/cached_selector.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <queue>

#include "core/lazy_greedy.h"
#include "core/marginal.h"

namespace recon::core {

using detail::HeapEntry;
using graph::NodeId;

/// The pick loop's view of the persistent heap for one batch: the heap's
/// valid top, merged with a batch-local heap of in-batch rescored entries.
/// Before every peek dead entries are discarded, cooling-down ones stashed
/// (the valid-entry rule in the header) and a bound top settled.
class CachedSelector::PickFrontier {
 public:
  explicit PickFrontier(CachedSelector& sel) : sel_(sel) {}

  bool empty() {
    settle();
    return sel_.heap_.empty() && repush_.empty();
  }

  double best_score() {
    settle();
    if (sel_.heap_.empty()) return repush_.top().score;
    if (repush_.empty()) return sel_.heap_.front().score;
    return std::max(sel_.heap_.front().score, repush_.top().score);
  }

  HeapEntry pop_best() {
    settle();
    if (!repush_.empty() &&
        (sel_.heap_.empty() ||
         detail::ranks_before(repush_.top(), entry(sel_.heap_.front())))) {
      const HeapEntry top = repush_.top();
      repush_.pop();
      return top;
    }
    const HeapEntry top = entry(sel_.heap_.front());
    sel_.heap_pop();
    sel_.returning_.push_back(top.node);
    return top;
  }

  void repush(HeapEntry e) { repush_.push(e); }

 private:
  void settle() {
    while (!sel_.heap_.empty()) {
      const NodeId u = sel_.heap_.front().node;
      if (!sel_.candidate(u)) {
        sel_.heap_pop();
        if (sel_.admissible(u)) sel_.returning_.push_back(u);  // cooling down
      } else if (sel_.dirty_[u] == kBound) {
        sel_.refresh_bound_top();
      } else {
        return;
      }
    }
  }

  /// A persistent entry carries the base score Γ(u | ∅), i.e. stamp 0.
  static HeapEntry entry(const Slot& s) noexcept {
    return {s.score, s.node, s.rank, 0};
  }

  CachedSelector& sel_;
  std::priority_queue<HeapEntry> repush_;
};

namespace {

/// Γ₀ base scores of `nodes` into out[u], divided by cost exactly as
/// rescore_node divides a marginal_gain score.
void score_empty(const sim::Problem& problem, MarginalPolicy policy, bool cost_sensitive,
                 std::span<const NodeId> nodes, std::span<double> out) {
  empty_marginal_gains(problem, policy, nodes, out);
  if (cost_sensitive) {
    for (const NodeId u : nodes) out[u] /= problem.cost_of(u);
  }
}

}  // namespace

std::shared_ptr<EmptyScores> compute_empty_scores(const sim::Problem& problem,
                                                  MarginalPolicy policy,
                                                  bool cost_sensitive,
                                                  util::ThreadPool* pool) {
  auto memo = std::make_shared<EmptyScores>();
  memo->problem = &problem;
  memo->policy = policy;
  memo->cost_sensitive = cost_sensitive;
  std::vector<NodeId> nodes(problem.graph.num_nodes());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  memo->scores.assign(nodes.size(), 0.0);
  const std::span<const NodeId> all(nodes);
  if (pool != nullptr) {
    pool->parallel_for(0, nodes.size(), [&](std::size_t lo, std::size_t hi) {
      score_empty(problem, policy, cost_sensitive, all.subspan(lo, hi - lo), memo->scores);
    });
  } else {
    score_empty(problem, policy, cost_sensitive, all, memo->scores);
  }
  return memo;
}

CachedSelector::CachedSelector(const sim::Observation& obs, MarginalPolicy policy,
                               bool cost_sensitive, util::ThreadPool* pool,
                               std::shared_ptr<const EmptyScores> empty_scores)
    : obs_(&obs),
      policy_(policy),
      cost_sensitive_(cost_sensitive),
      pool_(pool),
      state_(obs.problem().graph.num_nodes()) {
  const NodeId n = obs.problem().graph.num_nodes();
  if (empty_scores != nullptr && empty_scores->problem == &obs.problem() &&
      empty_scores->policy == policy && empty_scores->cost_sensitive == cost_sensitive &&
      empty_scores->scores.size() == n) {
    empty_ = std::move(empty_scores);
  }
  cached_.assign(n, 0.0);
  dirty_.assign(n, 1);  // everything needs an initial score
  // FoFs so far are covered by that initial score.
  const auto fof = obs.fof_mask();
  fof_seen_.assign(fof.begin(), fof.end());
  pos_.assign(n, kNotInHeap);
}

void CachedSelector::rescore_node(NodeId u) {
  double s = obs_->is_friend(u) ? 0.0 : marginal_gain(*obs_, u, policy_);
  if (cost_sensitive_) s /= obs_->problem().cost_of(u);
  cached_[u] = s;
  dirty_[u] = kClean;
  rescores_.fetch_add(1, std::memory_order_relaxed);
}

void CachedSelector::mark_dirty(NodeId u) {
  if (dirty_[u] != kStale) {
    dirty_[u] = kStale;
    dirty_list_.push_back(u);
  }
}

void CachedSelector::mark_bound(NodeId u) {
  if (dirty_[u] == kClean) dirty_[u] = kBound;
}

// Accepting x changes only x, x's incident edges, and the mutual counter
// and FoF flag of x's true neighbors (Observation::record_accept). So x and
// every graph neighbor v of x are stale: the edge (x, v) is revealed, and
// v's mutual count, FoF flag and q(v) may move. A node w two hops away sees
// v's change only through its term p̂_wv · Bfof(v), which marginal_gain
// drops once v is a FoF; w's score can only fall, so w is bound (the
// header has the argument) unless it is stale for another reason. When
// Bfof(v) is ±0 that term is ±0: adding -0.0 never changes a sum, and
// adding +0.0 changes only a -0.0 one, which `inner` is not — it starts at
// Bf(w) or Bf(w) − Bfof(w) (validated Bf ≥ Bfof ≥ 0) and only grows by
// products of non-negative factors — so w's score keeps every bit. (-0.0
// passes that validation; a -0.0 Bf(w) could flip the sign of a zero
// score, which no `> 0.0` test tells apart.) v's neighbors are therefore
// bound only when v carries FoF benefit, is a FoF now, and has not been
// expanded before; FoF status is monotone (a FoF only ever becomes a
// friend), so each flip is expanded once. A node that turns FoF and is
// accepted before its flip is expanded here needs none: its own
// notify_accept makes its neighbors stale.
void CachedSelector::mark_two_hop_dirty(NodeId x) {
  const auto& g = obs_->problem().graph;
  const auto& bfof = obs_->problem().benefit.bfof;
  mark_dirty(x);
  for (const NodeId v : g.neighbors(x)) {
    mark_dirty(v);
    if (fof_seen_[v] || bfof[v] == 0.0 || !obs_->is_fof(v)) continue;
    fof_seen_[v] = 1;
    for (const NodeId w : g.neighbors(v)) mark_bound(w);
  }
}

void CachedSelector::notify_accept(NodeId u) { mark_two_hop_dirty(u); }

void CachedSelector::notify_reject(NodeId u) { mark_dirty(u); }

bool CachedSelector::admissible(NodeId u) const noexcept {
  if (obs_->is_friend(u)) return false;
  const sim::NodeState st = obs_->node_state(u);
  if (st == sim::NodeState::kRejected && !allow_retries_) return false;
  if (max_attempts_ != 0 && obs_->attempts(u) >= max_attempts_) return false;
  return obs_->problem().cost_of(u) <= budget_;
}

// ---------------------------------------------------------------------------
// Addressable heap

bool CachedSelector::better(const Slot& a, const Slot& b) noexcept {
  if (a.score != b.score) return a.score > b.score;
  return a.rank < b.rank;
}

void CachedSelector::place(std::size_t i, const Slot& s) noexcept {
  heap_[i] = s;
  pos_[s.node] = static_cast<std::uint32_t>(i);
}

void CachedSelector::sift_up(std::size_t i) noexcept {
  const Slot s = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!better(s, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, s);
}

void CachedSelector::sift_down(std::size_t i) noexcept {
  const Slot s = heap_[i];
  const std::size_t size = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= size) break;
    if (child + 1 < size && better(heap_[child + 1], heap_[child])) ++child;
    if (!better(heap_[child], s)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, s);
}

void CachedSelector::heap_set(NodeId u, double score) {
  ++pushes_;
  if (in_heap(u)) {
    const std::size_t i = pos_[u];
    const bool up = score > heap_[i].score;
    heap_[i].score = score;
    if (up) {
      sift_up(i);
    } else {
      sift_down(i);
    }
    return;
  }
  heap_.push_back({score, u, obs_->problem().graph.orig_id(u)});
  pos_[u] = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
}

void CachedSelector::heap_erase(NodeId u) {
  ++pops_;
  const std::size_t i = pos_[u];
  pos_[u] = kNotInHeap;
  const Slot last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  place(i, last);
  sift_up(i);
  sift_down(pos_[last.node]);
}

void CachedSelector::heap_pop() { heap_erase(heap_.front().node); }

void CachedSelector::heap_rebuild() {
  pushes_ += heap_.size();
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const Slot& a, const Slot& b) { return better(b, a); });
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    pos_[heap_[i].node] = static_cast<std::uint32_t>(i);
  }
}

// ---------------------------------------------------------------------------
// Batch-start refresh

void CachedSelector::rescore_pristine(std::span<const NodeId> nodes) {
  if (empty_ != nullptr) {
    for (const NodeId u : nodes) cached_[u] = empty_->scores[u];
  } else {
    score_empty(obs_->problem(), policy_, cost_sensitive_, nodes, cached_);
  }
  for (const NodeId u : nodes) dirty_[u] = kClean;
  rescores_.fetch_add(nodes.size(), std::memory_order_relaxed);
}

void CachedSelector::rescore(const std::vector<NodeId>& nodes) {
  if (obs_->pristine()) {
    // No friend yet, so no node is excluded by rescore_node's friend test.
    const std::span<const NodeId> all(nodes);
    if (pool_ != nullptr && empty_ == nullptr) {
      pool_->parallel_for(0, nodes.size(), [&](std::size_t lo, std::size_t hi) {
        rescore_pristine(all.subspan(lo, hi - lo));
      });
    } else {
      rescore_pristine(all);
    }
    return;
  }
  if (pool_ != nullptr) {
    // Distinct nodes touch distinct cache slots, so the only shared write
    // is the (atomic) rescore counter.
    pool_->parallel_for(0, nodes.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) rescore_node(nodes[i]);
    });
  } else {
    for (const NodeId u : nodes) rescore_node(u);
  }
}

void CachedSelector::refresh_full() {
  const NodeId n = obs_->problem().graph.num_nodes();
  const auto& g = obs_->problem().graph;
  for (const Slot& s : heap_) pos_[s.node] = kNotInHeap;
  pops_ += heap_.size();
  heap_.clear();
  heap_.reserve(n);
  std::vector<NodeId> stale;
  for (NodeId u = 0; u < n; ++u) {
    if (!admissible(u)) continue;
    heap_.push_back({0.0, u, g.orig_id(u)});  // keyed once scores are fresh
    if (dirty_[u]) stale.push_back(u);
  }
  // Inadmissible dirty nodes keep their state for a later full refresh.
  dirty_list_.clear();
  rescore(stale);

  std::size_t out = 0;
  for (const Slot& s : heap_) {
    if (cached_[s.node] > 0.0) heap_[out++] = {cached_[s.node], s.node, s.rank};
  }
  heap_.resize(out);
  heap_rebuild();
}

namespace {

/// Puts a list of the nodes whose `marked` entry is `state` in ascending id
/// order, so the passes over it (and the rescoring, which walks each
/// node's CSR row) read memory front to back. A list long enough that
/// sorting it would cost more than one pass over the bitmap is regathered
/// from the bitmap instead; that also brings back marked nodes the list had
/// dropped as excluded, which the caller filters out again.
void order_by_id(std::vector<NodeId>& list, const std::vector<std::uint8_t>& marked,
                 std::uint8_t state) {
  const std::size_t d = list.size();
  if (d * static_cast<std::size_t>(std::bit_width(d)) <= marked.size()) {
    std::sort(list.begin(), list.end());
    return;
  }
  list.clear();
  for (NodeId u = 0; u < static_cast<NodeId>(marked.size()); ++u) {
    if (marked[u] == state) list.push_back(u);
  }
}

}  // namespace

void CachedSelector::refresh_dirty() {
  order_by_id(dirty_list_, dirty_, kStale);
  refresh(dirty_list_);
  dirty_list_.clear();
}

// The bound entries reachable from the root through bound entries only.
// Every other bound entry has a fresh ancestor, whose exact key ranks
// before its bound and so before its exact score.
void CachedSelector::refresh_bound_top() {
  std::vector<NodeId> bound;
  std::vector<std::size_t> walk{0};
  while (!walk.empty()) {
    const std::size_t i = walk.back();
    walk.pop_back();
    if (i >= heap_.size() || dirty_[heap_[i].node] != kBound) continue;
    bound.push_back(heap_[i].node);
    walk.push_back(2 * i + 1);
    walk.push_back(2 * i + 2);
  }
  std::sort(bound.begin(), bound.end());
  refresh(bound);
}

void CachedSelector::refresh(std::span<const NodeId> nodes) {
  std::vector<NodeId> stale;
  stale.reserve(nodes.size());
  for (const NodeId u : nodes) {
    if (admissible(u)) {
      stale.push_back(u);
    } else if (in_heap(u)) {
      heap_erase(u);  // dirty state kept for a later full refresh
    }
  }
  rescore(stale);

  const std::size_t size = heap_.size() + stale.size();
  const bool bulk =
      size > 1 && stale.size() * static_cast<std::size_t>(std::bit_width(size)) > size;
  if (!bulk) {
    for (const NodeId u : stale) {
      if (cached_[u] > 0.0) {
        heap_set(u, cached_[u]);
      } else if (in_heap(u)) {
        heap_erase(u);
      }
    }
    return;
  }
  // Re-key in place, drop non-positive scores, append new entries, then one
  // make_heap: O(frontier) instead of |stale| sifts.
  std::size_t out = 0;
  for (const Slot& s : heap_) {
    const double score = cached_[s.node];
    if (score > 0.0) {
      heap_[out++] = {score, s.node, s.rank};
    } else {
      pos_[s.node] = kNotInHeap;
      ++pops_;
    }
  }
  heap_.resize(out);
  const auto& g = obs_->problem().graph;
  for (const NodeId u : stale) {
    if (cached_[u] > 0.0 && !in_heap(u)) {
      heap_.push_back({cached_[u], u, g.orig_id(u)});
      pos_[u] = 0;  // marks membership until heap_rebuild sets the slot
    }
  }
  heap_rebuild();
}

std::vector<NodeId> CachedSelector::select_batch(int batch_size, bool allow_retries,
                                                 std::uint32_t max_attempts_per_node,
                                                 double remaining_budget) {
  if (batch_size <= 0) return {};
  const bool loosened =
      (allow_retries && !allow_retries_) ||
      (max_attempts_ != 0 &&
       (max_attempts_per_node == 0 || max_attempts_per_node > max_attempts_)) ||
      remaining_budget > budget_;
  allow_retries_ = allow_retries;
  max_attempts_ = max_attempts_per_node;
  budget_ = remaining_budget;
  if (!primed_ || loosened) {
    refresh_full();
    primed_ = true;
  } else {
    refresh_dirty();
  }

  state_.reset();
  const auto& problem = obs_->problem();
  auto score_of = [&](NodeId u) {
    double s = state_.gamma(*obs_, u, policy_);
    if (cost_sensitive_) s /= problem.cost_of(u);
    return s;
  };
  std::vector<NodeId> batch;
  {
    PickFrontier frontier(*this);
    batch = detail::lazy_pick_loop(*obs_, batch_size, state_, remaining_budget,
                                   frontier, score_of);
  }
  // Everything popped or stashed goes back with its base score; the next
  // refresh re-keys or discards whatever the observation changes.
  for (const NodeId u : returning_) {
    if (cached_[u] > 0.0 && !in_heap(u)) heap_set(u, cached_[u]);
  }
  returning_.clear();
  return batch;
}

}  // namespace recon::core
