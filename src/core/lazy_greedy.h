// Lazy-greedy pick loop shared by the uncached selector (batch_select) and
// the cross-batch cache (CachedSelector). Internal to core/: not part of the
// public selection API.
//
// Adaptive submodularity guarantees a candidate's batch-aware gain Γ(u | A)
// only falls as the batch A grows, so an entry whose recomputed score still
// (weakly) tops the frontier is selected without rescoring the rest (Minoux
// 1978; the CΔ cache of paper Alg. 2, lines 3–11).
#pragma once

#include <cstdint>
#include <vector>

#include "core/batch_state.h"
#include "graph/graph.h"
#include "sim/observation.h"

namespace recon::core::detail {

struct HeapEntry {
  double score;
  graph::NodeId node;  ///< current (possibly relabeled) id, used for scoring
  graph::NodeId rank;  ///< original pre-relabeling id (Graph::orig_id), for ties
  std::uint32_t stamp;  ///< batch size when the score was computed

  bool operator<(const HeapEntry& o) const noexcept {
    if (score != o.score) return score < o.score;
    return rank > o.rank;  // deterministic tie-break: lower original id wins
  }
};

/// Strict total order used everywhere a "best candidate" is chosen: higher
/// score first, lower *original* node id on ties. Tie-breaking on orig_id
/// (identity for never-relabeled graphs) makes the selected batch invariant
/// under vertex relabelings such as the degree-sorted binary layout. Agrees
/// with HeapEntry::operator<.
inline bool ranks_before(const HeapEntry& a, const HeapEntry& b) noexcept {
  if (a.score != b.score) return a.score > b.score;
  return a.rank < b.rank;
}

/// The pick loop. `frontier` must behave like the single priority queue of
/// the sequential algorithm: pop_best removes and returns the maximum by
/// (score, original node id), best_score peeks at the new maximum, repush
/// puts a rescored entry back. Because (score, orig id) is a strict total
/// order, any frontier organization with these operations yields a
/// bit-identical selection sequence — provided every entry it exposes is a
/// candidate of this batch (the push-back test below compares scores only).
template <typename Frontier, typename ScoreFn>
std::vector<graph::NodeId> lazy_pick_loop(const sim::Observation& obs,
                                          int batch_size, BatchState& state,
                                          double budget, Frontier& frontier,
                                          const ScoreFn& score_of) {
  const auto& problem = obs.problem();
  std::vector<graph::NodeId> batch;
  batch.reserve(static_cast<std::size_t>(batch_size));
  while (batch.size() < static_cast<std::size_t>(batch_size) && !frontier.empty()) {
    HeapEntry top = frontier.pop_best();
    if (problem.cost_of(top.node) > budget) continue;  // unaffordable this batch
    const auto cur = static_cast<std::uint32_t>(batch.size());
    if (top.stamp != cur) {
      top.score = score_of(top.node);
      top.stamp = cur;
      if (top.score <= 0.0) continue;
      // Re-push unless it still (weakly) dominates the next-best entry.
      if (!frontier.empty() && top.score < frontier.best_score()) {
        frontier.repush(top);
        continue;
      }
    }
    const graph::NodeId u = top.node;
    state.select(obs, u, obs.acceptance_prob(u));
    budget -= problem.cost_of(u);
    batch.push_back(u);
  }
  return batch;
}

}  // namespace recon::core::detail
