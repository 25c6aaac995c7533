#include "core/cached_selector.h"

#include <algorithm>
#include <bit>
#include <queue>

#include "core/lazy_greedy.h"
#include "core/marginal.h"

namespace recon::core {

using detail::HeapEntry;
using graph::NodeId;

/// The pick loop's view of the persistent heap for one batch: the heap's
/// valid top, merged with a batch-local heap of in-batch rescored entries.
/// Dead entries are discarded and cooling-down ones stashed before every
/// peek (the valid-entry rule in the header).
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
      if (sel_.candidate(u)) return;
      sel_.heap_pop();
      if (sel_.admissible(u)) sel_.returning_.push_back(u);  // cooling down
    }
  }

  /// A persistent entry carries the base score Γ(u | ∅), i.e. stamp 0.
  static HeapEntry entry(const Slot& s) noexcept {
    return {s.score, s.node, s.rank, 0};
  }

  CachedSelector& sel_;
  std::priority_queue<HeapEntry> repush_;
};

CachedSelector::CachedSelector(const sim::Observation& obs, MarginalPolicy policy,
                               bool cost_sensitive, util::ThreadPool* pool)
    : obs_(&obs),
      policy_(policy),
      cost_sensitive_(cost_sensitive),
      pool_(pool),
      state_(obs.problem().graph.num_nodes()) {
  const NodeId n = obs.problem().graph.num_nodes();
  cached_.assign(n, 0.0);
  dirty_.assign(n, 1);  // everything needs an initial score
  acct_dirty_.assign(n, 1);
  pos_.assign(n, kNotInHeap);
}

std::vector<NodeId> CachedSelector::accounting_dirty_nodes() const {
  std::vector<NodeId> nodes;
  for (NodeId u = 0; u < static_cast<NodeId>(acct_dirty_.size()); ++u) {
    if (acct_dirty_[u]) nodes.push_back(u);
  }
  return nodes;
}

void CachedSelector::restore_accounting(const std::vector<NodeId>& dirty_nodes) {
  acct_dirty_.assign(acct_dirty_.size(), 0);
  for (const NodeId u : dirty_nodes) {
    if (static_cast<std::size_t>(u) < acct_dirty_.size()) acct_dirty_[u] = 1;
  }
  acct_rescores_ = 0;
  primed_ = false;  // the pending list is rebuilt by the next full refresh
}

void CachedSelector::rescore_node(NodeId u) {
  double s = obs_->is_friend(u) ? 0.0 : marginal_gain(*obs_, u, policy_);
  if (cost_sensitive_) s /= obs_->problem().cost_of(u);
  cached_[u] = s;
  dirty_[u] = 0;
  rescores_.fetch_add(1, std::memory_order_relaxed);
}

void CachedSelector::mark_dirty(NodeId u) {
  if (!dirty_[u]) {
    dirty_[u] = 1;
    dirty_list_.push_back(u);
  }
  if (!acct_dirty_[u]) {
    acct_dirty_[u] = 1;
    acct_pending_.push_back(u);
  }
}

void CachedSelector::mark_two_hop_dirty(NodeId u) {
  const auto& g = obs_->problem().graph;
  mark_dirty(u);
  for (NodeId v : g.neighbors(u)) {
    mark_dirty(v);
    for (NodeId w : g.neighbors(v)) mark_dirty(w);
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

void CachedSelector::rescore(const std::vector<NodeId>& nodes) {
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
  // Accounting (sequential, before any real rescoring): every candidate
  // whose accounting bit is set counts one rescore, then clears its bit.
  // Admissible nodes still owing a count (cooling down) stay pending.
  acct_pending_.clear();
  std::vector<NodeId> stale;
  for (NodeId u = 0; u < n; ++u) {
    if (!admissible(u)) continue;
    heap_.push_back({0.0, u, g.orig_id(u)});  // keyed once scores are fresh
    if (dirty_[u]) stale.push_back(u);
    if (!acct_dirty_[u]) continue;
    if (obs_->cooling_down(u)) {
      acct_pending_.push_back(u);
    } else {
      ++acct_rescores_;
      acct_dirty_[u] = 0;
    }
  }
  // Inadmissible dirty nodes keep their bit for a later full refresh.
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

/// Puts a marked-node list in ascending id order, so the passes over it
/// (and the rescoring, which walks each node's CSR row) read memory front
/// to back. A list long enough that sorting it would cost more than one
/// pass over the bitmap is regathered from the bitmap instead; that also
/// brings back marked nodes the list had dropped as excluded, which the
/// caller filters out again.
void order_by_id(std::vector<NodeId>& list, const std::vector<std::uint8_t>& marked) {
  const std::size_t d = list.size();
  if (d * static_cast<std::size_t>(std::bit_width(d)) <= marked.size()) {
    std::sort(list.begin(), list.end());
    return;
  }
  list.clear();
  for (NodeId u = 0; u < static_cast<NodeId>(marked.size()); ++u) {
    if (marked[u]) list.push_back(u);
  }
}

}  // namespace

void CachedSelector::refresh_dirty() {
  order_by_id(acct_pending_, acct_dirty_);
  order_by_id(dirty_list_, dirty_);
  std::size_t keep = 0;
  for (const NodeId u : acct_pending_) {
    if (!acct_dirty_[u] || !admissible(u)) continue;  // bit kept if excluded
    if (obs_->cooling_down(u)) {
      acct_pending_[keep++] = u;
    } else {
      ++acct_rescores_;
      acct_dirty_[u] = 0;
    }
  }
  acct_pending_.resize(keep);

  std::vector<NodeId> stale;
  stale.reserve(dirty_list_.size());
  for (const NodeId u : dirty_list_) {
    if (admissible(u)) {
      stale.push_back(u);
    } else if (in_heap(u)) {
      heap_erase(u);  // dirty bit kept for a later full refresh
    }
  }
  dirty_list_.clear();
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
