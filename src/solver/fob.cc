#include "solver/fob.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "solver/bnb.h"
#include "util/timer.h"

namespace recon::solver {

using graph::NodeId;

std::vector<NodeId> fob_candidates(const sim::Observation& obs, bool allow_retries) {
  const auto& g = obs.problem().graph;
  std::vector<NodeId> out;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (obs.requestable(u, allow_retries)) out.push_back(u);
  }
  return out;
}

namespace {

/// Candidates per singleton block when a deadline is armed: the deadline is
/// polled between blocks, as often as a candidate-by-candidate scan did.
constexpr std::size_t kSingletonBlock = 64;

/// out[i] = SAA objective of {candidates[i]} for i in [lo, hi). With a pool
/// the block is one fan-out over candidates, each candidate evaluated
/// serially inside its task: sorted_sum makes an objective independent of
/// the thread that computed it, so the values are bit-identical to a
/// sequential scan.
void score_singletons(const sim::Observation& obs, const std::vector<Scenario>& scenarios,
                      const std::vector<NodeId>& candidates, std::size_t lo,
                      std::size_t hi, const SaaEvalOptions& eval,
                      std::vector<double>& out) {
  if (eval.pool != nullptr && hi - lo > 1) {
    const SaaEvalOptions serial{nullptr, eval.antithetic_pairs};
    eval.pool->parallel_for(lo, hi, [&](std::size_t i) {
      out[i] = saa_objective(obs, scenarios, {candidates[i]}, serial);
    });
  } else {
    for (std::size_t i = lo; i < hi; ++i) {
      out[i] = saa_objective(obs, scenarios, {candidates[i]}, eval);
    }
  }
}

/// Sorts candidates by decreasing singleton objective, ties by ascending
/// node id, and keeps the first `cap` (0 = all).
RankedCandidates rank_by_singleton(const std::vector<NodeId>& candidates,
                                   const std::vector<double>& singleton,
                                   std::size_t cap) {
  std::vector<std::pair<double, NodeId>> ranked;
  ranked.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    ranked.emplace_back(singleton[i], candidates[i]);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  if (cap != 0 && ranked.size() > cap) ranked.resize(cap);
  RankedCandidates out;
  out.nodes.reserve(ranked.size());
  out.singleton.reserve(ranked.size());
  for (const auto& [value, u] : ranked) {
    out.singleton.push_back(value);
    out.nodes.push_back(u);
  }
  return out;
}

/// Lazy greedy; `singleton` receives every candidate's singleton objective
/// (entries past a singleton-phase timeout are left 0).
FobResult greedy_solve(const sim::Observation& obs, const std::vector<Scenario>& scenarios,
                       std::size_t k, const std::vector<NodeId>& candidates,
                       double deadline_seconds, const SaaEvalOptions& eval,
                       std::vector<double>& singleton) {
  FobResult result;
  if (k == 0 || candidates.empty()) return result;
  const auto objective = [&](const std::vector<NodeId>& batch) {
    ++result.saa_evals;
    return saa_objective(obs, scenarios, batch, eval);
  };
  util::WallTimer timer;
  const auto past_deadline = [&] {
    return deadline_seconds > 0.0 && timer.seconds() > deadline_seconds;
  };

  struct Entry {
    double gain;
    std::size_t index;  ///< into candidates
    std::size_t stamp;
    bool operator<(const Entry& o) const noexcept {
      if (gain != o.gain) return gain < o.gain;
      return index > o.index;
    }
  };

  std::vector<NodeId> batch;
  double current = 0.0;
  std::priority_queue<Entry> heap;
  singleton.assign(candidates.size(), 0.0);
  const std::size_t block =
      deadline_seconds > 0.0 ? kSingletonBlock : candidates.size();
  for (std::size_t lo = 0; lo < candidates.size(); lo += block) {
    if (past_deadline()) {
      // Deadline hit during singleton scoring: return what is scored so far
      // greedily (possibly nothing — the caller falls back another tier).
      result.timed_out = true;
      break;
    }
    const std::size_t hi = std::min(candidates.size(), lo + block);
    score_singletons(obs, scenarios, candidates, lo, hi, eval, singleton);
    result.saa_evals += hi - lo;
    for (std::size_t i = lo; i < hi; ++i) {
      if (singleton[i] > 0.0) heap.push({singleton[i], i, 0});
    }
  }
  while (batch.size() < k && !heap.empty()) {
    if (past_deadline()) {
      result.timed_out = true;
      break;
    }
    Entry top = heap.top();
    heap.pop();
    if (top.stamp != batch.size()) {
      std::vector<NodeId> with = batch;
      with.push_back(candidates[top.index]);
      top.gain = objective(with) - current;
      top.stamp = batch.size();
      if (top.gain <= 0.0) continue;
      if (!heap.empty() && top.gain < heap.top().gain) {
        heap.push(top);
        continue;
      }
    }
    batch.push_back(candidates[top.index]);
    current += top.gain;
  }
  result.batch = std::move(batch);
  result.objective = result.batch.empty() ? 0.0 : objective(result.batch);
  return result;
}

}  // namespace

FobResult fob_greedy(const sim::Observation& obs, const std::vector<Scenario>& scenarios,
                     std::size_t k, const std::vector<NodeId>& candidates,
                     double deadline_seconds, util::ThreadPool* pool,
                     bool antithetic) {
  std::vector<double> singleton;
  return greedy_solve(obs, scenarios, k, candidates, deadline_seconds,
                      SaaEvalOptions{pool, antithetic}, singleton);
}

RankedCandidates rank_candidates(const sim::Observation& obs,
                                 const std::vector<Scenario>& scenarios,
                                 const std::vector<NodeId>& candidates, std::size_t cap,
                                 const SaaEvalOptions& eval) {
  std::vector<double> singleton(candidates.size());
  score_singletons(obs, scenarios, candidates, 0, candidates.size(), eval, singleton);
  return rank_by_singleton(candidates, singleton, cap);
}

FobResult fob_exact(const sim::Observation& obs, const std::vector<Scenario>& scenarios,
                    std::size_t k, const std::vector<NodeId>& candidates,
                    const FobExactOptions& options) {
  util::WallTimer timer;
  const SaaEvalOptions eval{options.pool, options.antithetic};
  std::uint64_t evals = 0;
  std::vector<double> all_singletons;
  FobResult greedy = greedy_solve(obs, scenarios, k, candidates,
                                  options.deadline_seconds, eval, all_singletons);
  evals += greedy.saa_evals;
  if (greedy.timed_out) {
    greedy.exact = false;
    return greedy;  // no time left for the search; partial greedy incumbent
  }
  if (k == 0 || candidates.empty()) return greedy;
  greedy.saa_evals = 0;  // folded into the running `evals` total instead

  // Order candidates by decreasing singleton gain for pruning power, and
  // optionally cap the candidate pool. The greedy pass already scored every
  // singleton (it did not time out), so the ranking reuses those values.
  const RankedCandidates ranked = rank_by_singleton(
      candidates, all_singletons,
      options.candidate_cap != 0 ? std::max(options.candidate_cap, k) : 0);
  const std::vector<NodeId>& items = ranked.nodes;
  const std::vector<double>& singleton = ranked.singleton;
  const std::size_t pool = items.size();
  if (pool < k) {
    greedy.saa_evals = evals;
    return greedy;
  }

  // Suffix top-sums of singleton gains: bound_extra[i][r] = sum of the r
  // largest singleton gains among items i..end. Because items are sorted by
  // singleton gain, that is simply the next r entries. Submodularity makes
  // singleton gains upper-bound marginals, so value(S) + Σ next r singleton
  // gains is admissible.
  std::vector<double> prefix(pool + 1, 0.0);
  for (std::size_t i = 0; i < pool; ++i) prefix[i + 1] = prefix[i] + singleton[i];

  auto to_nodes = [&](const std::vector<std::size_t>& idx) {
    std::vector<NodeId> nodes;
    nodes.reserve(idx.size());
    for (std::size_t i : idx) nodes.push_back(items[i]);
    return nodes;
  };

  BnbOracle oracle;
  oracle.num_items = pool;
  oracle.cardinality = k;
  oracle.evaluate = [&](const std::vector<std::size_t>& chosen) {
    ++evals;
    return saa_objective(obs, scenarios, to_nodes(chosen), eval);
  };
  oracle.bound = [&](const std::vector<std::size_t>& chosen, std::size_t next) {
    if (!chosen.empty()) ++evals;
    const double base =
        chosen.empty() ? 0.0 : saa_objective(obs, scenarios, to_nodes(chosen), eval);
    const std::size_t need = k - chosen.size();
    const std::size_t take = std::min(need, pool - next);
    return base + (prefix[next + take] - prefix[next]);
  };

  BnbLimits limits;
  limits.max_nodes = options.max_nodes;
  if (options.deadline_seconds > 0.0) {
    // The search gets whatever wall-clock budget the greedy incumbent left
    // over.
    limits.deadline_seconds =
        std::max(1e-6, options.deadline_seconds - timer.seconds());
  }
  BnbResult bnb = branch_and_bound(oracle, limits);

  FobResult result;
  result.nodes_explored = bnb.nodes_explored;
  result.saa_evals = evals;
  result.exact = bnb.completed;
  result.timed_out = bnb.timed_out;
  if (bnb.best_value >= greedy.objective && !bnb.best_set.empty()) {
    result.batch = to_nodes(bnb.best_set);
    std::sort(result.batch.begin(), result.batch.end());
    result.objective = bnb.best_value;
  } else {
    result.batch = greedy.batch;
    result.objective = greedy.objective;
  }
  return result;
}

}  // namespace recon::solver
