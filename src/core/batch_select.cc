#include "core/batch_select.h"

#include <algorithm>
#include <cstdint>
#include <queue>

#include "core/lazy_greedy.h"

namespace recon::core {

using graph::NodeId;
using detail::HeapEntry;
using detail::lazy_pick_loop;
using detail::ranks_before;

std::vector<std::size_t> plan_score_shards(const std::vector<double>& work,
                                           std::size_t parties) {
  std::vector<std::size_t> bounds{0};
  const std::size_t n = work.size();
  if (n == 0) return bounds;
  if (parties == 0) parties = 1;
  double total = 0.0;
  for (const double w : work) total += w;
  // Clamp the per-shard target to between 4 shards per participant (steal
  // balance) and 32 (dispatch overhead).
  double target = std::min(kShardTargetWork,
                           total / static_cast<double>(parties * 4));
  target = std::max(target, total / static_cast<double>(parties * 32));
  target = std::max(target, 1.0);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += work[i];
    if (acc >= target && i + 1 < n) {
      bounds.push_back(i + 1);
      acc = 0.0;
    }
  }
  bounds.push_back(n);
  return bounds;
}

std::vector<NodeId> batch_candidates(const sim::Observation& obs, bool allow_retries,
                                     std::uint32_t max_attempts_per_node,
                                     double max_cost) {
  const auto& problem = obs.problem();
  std::vector<NodeId> out;
  out.reserve(problem.graph.num_nodes());
  for (NodeId u = 0; u < problem.graph.num_nodes(); ++u) {
    if (!obs.requestable(u, allow_retries)) continue;
    if (max_attempts_per_node != 0 && obs.attempts(u) >= max_attempts_per_node) continue;
    if (problem.cost_of(u) > max_cost) continue;
    out.push_back(u);
  }
  return out;
}

namespace {

/// One shard of the parallel frontier: the worker's top-k entries sorted by
/// ranks_before (the merged frontier reads these through a cursor), plus the
/// unsorted overflow, sorted lazily in the rare case the head runs dry
/// before the batch is full — which keeps the frontier exact, not a top-k
/// approximation.
struct ShardFrontier {
  std::vector<HeapEntry> head;
  std::vector<HeapEntry> overflow;
  std::size_t cursor = 0;
};

/// Cursor-heap entry: the current best un-consumed entry of one shard.
struct CursorRef {
  double score;
  NodeId node;
  NodeId rank;
  std::uint32_t shard;

  bool operator<(const CursorRef& o) const noexcept {
    if (score != o.score) return score < o.score;
    return rank > o.rank;
  }
};

/// The sequential frontier: a plain binary heap.
class HeapFrontier {
 public:
  void push(HeapEntry e) { heap_.push(e); }
  void repush(HeapEntry e) { heap_.push(e); }
  bool empty() const noexcept { return heap_.empty(); }
  double best_score() const noexcept { return heap_.top().score; }
  HeapEntry pop_best() {
    HeapEntry top = heap_.top();
    heap_.pop();
    return top;
  }

 private:
  std::priority_queue<HeapEntry> heap_;
};

/// The merged parallel frontier: a cursor heap over per-shard sorted runs
/// plus a binary heap of re-pushed (stale-rescored) entries. pop_best /
/// best_score take the maximum across both sources under the same total
/// order as HeapFrontier, so the pick loop cannot tell them apart.
class MergedFrontier {
 public:
  explicit MergedFrontier(std::vector<ShardFrontier> shards)
      : shards_(std::move(shards)) {
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      if (!shards_[s].head.empty()) {
        cursors_.push({shards_[s].head[0].score, shards_[s].head[0].node,
                       shards_[s].head[0].rank, s});
      }
    }
  }

  void repush(HeapEntry e) { repush_.push(e); }
  bool empty() const noexcept { return cursors_.empty() && repush_.empty(); }

  double best_score() const noexcept {
    if (cursors_.empty()) return repush_.top().score;
    if (repush_.empty()) return cursors_.top().score;
    return std::max(cursors_.top().score, repush_.top().score);
  }

  HeapEntry pop_best() {
    const bool from_repush =
        cursors_.empty() ||
        (!repush_.empty() &&
         ranks_before(
             {repush_.top().score, repush_.top().node, repush_.top().rank, 0},
             {cursors_.top().score, cursors_.top().node, cursors_.top().rank,
              0}));
    if (from_repush) {
      HeapEntry top = repush_.top();
      repush_.pop();
      return top;
    }
    const CursorRef c = cursors_.top();
    cursors_.pop();
    advance_shard(c.shard);
    return {c.score, c.node, c.rank, 0};  // shard entries carry initial scores
  }

 private:
  void advance_shard(std::uint32_t s) {
    ShardFrontier& sf = shards_[s];
    ++sf.cursor;
    if (sf.cursor >= sf.head.size()) {
      if (sf.overflow.empty()) return;  // shard exhausted
      std::sort(sf.overflow.begin(), sf.overflow.end(), ranks_before);
      sf.head = std::move(sf.overflow);
      sf.overflow.clear();
      sf.cursor = 0;
    }
    cursors_.push({sf.head[sf.cursor].score, sf.head[sf.cursor].node,
                   sf.head[sf.cursor].rank, s});
  }

  std::vector<ShardFrontier> shards_;
  std::priority_queue<CursorRef> cursors_;
  std::priority_queue<HeapEntry> repush_;
};

}  // namespace

std::vector<NodeId> batch_select(const sim::Observation& obs,
                                 const BatchSelectOptions& options) {
  const auto& problem = obs.problem();
  BatchState state(problem.graph.num_nodes());

  const double budget = options.remaining_budget;
  std::vector<NodeId> candidates = batch_candidates(
      obs, options.allow_retries, options.max_attempts_per_node, budget);
  if (candidates.empty() || options.batch_size <= 0) return {};

  auto score_of = [&](NodeId u) {
    double s = state.gamma(obs, u, options.policy);
    if (options.cost_sensitive) s /= problem.cost_of(u);
    return s;
  };

  if (options.parallel_eager && options.pool != nullptr) {
    // Eager mode: rescore the whole candidate set each round in parallel
    // (the Table II utilization experiment's massively-parallel row sweep).
    double eager_budget = budget;
    std::vector<NodeId> batch;
    batch.reserve(static_cast<std::size_t>(options.batch_size));
    std::vector<double> scores(candidates.size());
    std::vector<std::uint8_t> taken(candidates.size(), 0);
    while (batch.size() < static_cast<std::size_t>(options.batch_size)) {
      options.pool->parallel_for(
          0, candidates.size(), [&](std::size_t lo, std::size_t hi) {
            const GammaKernel kernel(obs, state, options.policy);
            for (std::size_t i = lo; i < hi; ++i) {
              const NodeId u = candidates[i];
              if (taken[i] || problem.cost_of(u) > eager_budget) {
                scores[i] = -1.0;
                continue;
              }
              double s = kernel.score(u, obs.acceptance_prob(u));
              if (options.cost_sensitive) s /= problem.cost_of(u);
              scores[i] = s;
            }
          });
      std::size_t best = candidates.size();
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (taken[i] || scores[i] <= 0.0) continue;
        if (best == candidates.size() || scores[i] > scores[best] ||
            (scores[i] == scores[best] &&
             problem.graph.orig_id(candidates[i]) <
                 problem.graph.orig_id(candidates[best]))) {
          best = i;
        }
      }
      if (best == candidates.size()) break;
      const NodeId u = candidates[best];
      taken[best] = 1;
      state.select(obs, u, obs.acceptance_prob(u));
      eager_budget -= problem.cost_of(u);
      batch.push_back(u);
    }
    return batch;
  }

  if (options.pool != nullptr) {
    // Parallel lazy greedy: shard the candidates across workers, score each
    // shard through the flat kernel into a local top-k heap (overflow kept
    // for exactness), then run the sequential pick-and-repush loop over the
    // merged frontier. Output is bit-identical to the sequential path: the
    // shard layout only changes *where* an entry sits, never the total order
    // in which entries are popped.
    //
    // Shard boundaries come from plan_score_shards: equal estimated work per
    // shard — degree-weighted, so hub-heavy ranges split finer than
    // low-degree tails.
    const std::size_t n = candidates.size();
    const std::size_t parties = static_cast<std::size_t>(options.pool->size()) + 1;
    const auto& g = problem.graph;
    std::vector<double> work(n);
    for (std::size_t i = 0; i < n; ++i) {
      work[i] = 1.0 + static_cast<double>(g.degree(candidates[i]));
    }
    const std::vector<std::size_t> bounds = plan_score_shards(work, parties);
    const std::size_t num_shards = bounds.size() - 1;
    const std::size_t keep = static_cast<std::size_t>(options.batch_size);

    std::vector<ShardFrontier> shards(num_shards);
    const GammaKernel kernel(obs, state, options.policy);
    auto score_shard = [&](std::size_t s) {
      const std::size_t lo = bounds[s];
      const std::size_t hi = bounds[s + 1];
      ShardFrontier& sf = shards[s];
      sf.head.reserve(std::min(keep, hi - lo));
      // Min-heap on head (worst entry on top) caps the sorted portion at
      // k entries; the rest lands in overflow, sorted only if needed.
      for (std::size_t i = lo; i < hi; ++i) {
        const NodeId u = candidates[i];
        double sc = kernel.score(u, obs.acceptance_prob(u));
        if (options.cost_sensitive) sc /= problem.cost_of(u);
        if (sc <= 0.0) continue;
        const HeapEntry e{sc, u, g.orig_id(u), 0};
        if (sf.head.size() < keep) {
          sf.head.push_back(e);
          std::push_heap(sf.head.begin(), sf.head.end(), ranks_before);
        } else if (ranks_before(e, sf.head.front())) {
          std::pop_heap(sf.head.begin(), sf.head.end(), ranks_before);
          sf.overflow.push_back(sf.head.back());
          sf.head.back() = e;
          std::push_heap(sf.head.begin(), sf.head.end(), ranks_before);
        } else {
          sf.overflow.push_back(e);
        }
      }
      std::sort(sf.head.begin(), sf.head.end(), ranks_before);
    };
    options.pool->parallel_for(0, num_shards, score_shard, /*grain=*/1);

    MergedFrontier frontier(std::move(shards));
    return lazy_pick_loop(obs, options.batch_size, state, budget, frontier, score_of);
  }

  // Sequential lazy greedy.
  HeapFrontier frontier;
  for (NodeId u : candidates) {
    const double s = score_of(u);
    if (s > 0.0) frontier.push({s, u, problem.graph.orig_id(u), 0});
  }
  return lazy_pick_loop(obs, options.batch_size, state, budget, frontier, score_of);
}

}  // namespace recon::core
