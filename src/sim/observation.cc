#include "sim/observation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace recon::sim {

using graph::EdgeId;
using graph::NodeId;

Observation::Observation(const Problem& problem) : problem_(&problem) {
  const NodeId n = problem.graph.num_nodes();
  node_state_.assign(n, NodeState::kUnknown);
  edge_state_.assign(problem.graph.num_edges(), EdgeState::kUnknown);
  is_friend_.assign(n, 0);
  is_fof_.assign(n, 0);
  attempts_.assign(n, 0);
  mutual_.assign(n, 0);
}

BenefitBreakdown Observation::record_reject(NodeId u) {
  if (is_friend_[u]) throw std::logic_error("record_reject: u is already a friend");
  ++attempts_[u];
  touched_.push_back(u);
  node_state_[u] = NodeState::kRejected;
  return {};
}

void Observation::record_no_response(NodeId u) {
  if (is_friend_[u]) {
    throw std::logic_error("record_no_response: u is already a friend");
  }
  ++attempts_[u];
  touched_.push_back(u);
}

void Observation::set_retry_after(NodeId u, double until) {
  if (retry_after_.empty()) retry_after_.assign(node_state_.size(), 0.0);
  retry_after_[u] = until;
}

double Observation::next_retry_time(bool allow_retries) const noexcept {
  if (retry_after_.empty()) return std::numeric_limits<double>::infinity();
  double best = std::numeric_limits<double>::infinity();
  for (NodeId u = 0; u < static_cast<NodeId>(retry_after_.size()); ++u) {
    if (retry_after_[u] <= clock_) continue;
    if (is_friend_[u]) continue;
    if (node_state_[u] == NodeState::kRejected && !allow_retries) continue;
    best = std::min(best, retry_after_[u]);
  }
  return best;
}

BenefitBreakdown Observation::record_accept(NodeId u,
                                            std::span<const NodeId> true_neighbors) {
  if (is_friend_[u]) throw std::logic_error("record_accept: u is already a friend");
  ++attempts_[u];
  touched_.push_back(u);
  node_state_[u] = NodeState::kAccepted;
  is_friend_[u] = 1;
  friends_.push_back(u);
  pristine_ = false;

  BenefitBreakdown delta;
  delta.friends += problem_->benefit.bf[u];
  if (is_fof_[u]) {
    // Upgrade: a node produces only one kind of benefit (Sec. II-B).
    delta.fofs -= problem_->benefit.bfof[u];
    is_fof_[u] = 0;
  }

  // Reveal u's neighborhood: walk the graph adjacency and the (sorted)
  // true-neighbor list in lockstep.
  const auto nbrs = problem_->graph.neighbors(u);
  const auto eids = problem_->graph.incident_edges(u);
  std::size_t t = 0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const NodeId v = nbrs[i];
    const EdgeId e = eids[i];
    while (t < true_neighbors.size() && true_neighbors[t] < v) ++t;
    const bool exists = t < true_neighbors.size() && true_neighbors[t] == v;
    if (edge_state_[e] == EdgeState::kUnknown) {
      edge_state_[e] = exists ? EdgeState::kPresent : EdgeState::kAbsent;
      if (exists) delta.edges += problem_->benefit.bi[e];
    }
    if (exists) {
      // v gained the attacker's new friend u as a mutual friend.
      ++mutual_[v];
      if (!is_friend_[v] && !is_fof_[v]) {
        is_fof_[v] = 1;
        delta.fofs += problem_->benefit.bfof[v];
      }
    }
  }
  benefit_ += delta;
  return delta;
}

BenefitBreakdown Observation::recompute_benefit() const {
  BenefitBreakdown total;
  const auto& g = problem_->graph;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (is_friend_[u]) {
      total.friends += problem_->benefit.bf[u];
    } else {
      // FoF per Eq. (1): adjacent to some friend via an existing edge.
      bool fof = false;
      const auto nbrs = g.neighbors(u);
      const auto eids = g.incident_edges(u);
      for (std::size_t i = 0; i < nbrs.size() && !fof; ++i) {
        fof = is_friend_[nbrs[i]] && edge_state_[eids[i]] == EdgeState::kPresent;
      }
      if (fof) total.fofs += problem_->benefit.bfof[u];
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (edge_state_[e] == EdgeState::kPresent) total.edges += problem_->benefit.bi[e];
  }
  return total;
}

void Observation::restore(std::span<const NodeState> node_states,
                          std::span<const EdgeState> edge_states,
                          std::span<const std::uint32_t> attempts,
                          std::span<const NodeId> friends_in_order) {
  const auto& g = problem_->graph;
  if (node_states.size() != g.num_nodes() || attempts.size() != g.num_nodes() ||
      edge_states.size() != g.num_edges()) {
    throw std::invalid_argument("Observation::restore: state size mismatch");
  }
  node_state_.assign(node_states.begin(), node_states.end());
  edge_state_.assign(edge_states.begin(), edge_states.end());
  attempts_.assign(attempts.begin(), attempts.end());
  friends_.assign(friends_in_order.begin(), friends_in_order.end());
  is_friend_.assign(g.num_nodes(), 0);
  for (NodeId f : friends_) {
    if (f >= g.num_nodes() || node_state_[f] != NodeState::kAccepted ||
        is_friend_[f] != 0) {
      throw std::invalid_argument("Observation::restore: inconsistent friend list");
    }
    is_friend_[f] = 1;
  }
  // Derived state: mutual_[v] counts friends adjacent to v via revealed
  // existing edges; fof iff a non-friend has any such neighbor.
  mutual_.assign(g.num_nodes(), 0);
  for (NodeId f : friends_) {
    const auto nbrs = g.neighbors(f);
    const auto eids = g.incident_edges(f);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (edge_state_[eids[i]] == EdgeState::kPresent) ++mutual_[nbrs[i]];
    }
  }
  is_fof_.assign(g.num_nodes(), 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!is_friend_[u] && mutual_[u] > 0) is_fof_[u] = 1;
  }
  benefit_ = recompute_benefit();
  pristine_ = friends_.empty() &&
              std::all_of(edge_state_.begin(), edge_state_.end(),
                          [](EdgeState es) { return es == EdgeState::kUnknown; });
  retry_after_.clear();
  clock_ = 0.0;
  touched_.clear();
  ++journal_generation_;
}

void Observation::restore_benefit(const BenefitBreakdown& exact) {
  // The recomputed value and the incrementally-accumulated one may disagree
  // only by summation-order rounding; anything larger means the checkpointed
  // value does not belong to this state.
  const auto close = [](double a, double b) {
    const double tol = 1e-9 * (1.0 + std::max(std::abs(a), std::abs(b)));
    return std::abs(a - b) <= tol;
  };
  if (!close(exact.friends, benefit_.friends) || !close(exact.fofs, benefit_.fofs) ||
      !close(exact.edges, benefit_.edges)) {
    throw std::invalid_argument(
        "Observation::restore_benefit: checkpointed benefit disagrees with the "
        "restored state beyond rounding tolerance");
  }
  benefit_ = exact;
}

}  // namespace recon::sim
