// Partial realization ω — everything the attacker has observed so far.
//
// Tracks per-node request state Y_u ∈ {accept, reject, ?}, per-edge state
// Y_uv ∈ {present, absent, ?}, the friend / friend-of-friend sets, mutual
// friend counters, retry attempt counts, and the exact benefit breakdown
// accumulated so far. Observation is the single mutable object threaded
// through an attack; strategies read it, the attack runner writes it.
//
// Benefit accounting follows Eq. (1): a node yields Bf when it becomes a
// friend (upgrading a friend-of-friend replaces its Bfof with Bf), a node
// yields Bfof the first time it is seen adjacent to a friend via an existing
// edge, and an existing edge yields Bi exactly once, when first revealed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/problem.h"

namespace recon::sim {

enum class NodeState : std::uint8_t { kUnknown = 0, kAccepted = 1, kRejected = 2 };
enum class EdgeState : std::uint8_t { kUnknown = 0, kPresent = 1, kAbsent = 2 };

class Observation {
 public:
  /// Binds to a problem (held by pointer; must outlive the observation).
  explicit Observation(const Problem& problem);

  const Problem& problem() const noexcept { return *problem_; }

  NodeState node_state(graph::NodeId u) const noexcept { return node_state_[u]; }
  EdgeState edge_state(graph::EdgeId e) const noexcept { return edge_state_[e]; }

  /// Flat read-only views of the per-edge / per-node state arrays, for
  /// scoring kernels that hoist the base pointers out of hot loops.
  std::span<const EdgeState> edge_states() const noexcept { return edge_state_; }
  std::span<const std::uint8_t> friend_mask() const noexcept { return is_friend_; }
  std::span<const std::uint8_t> fof_mask() const noexcept { return is_fof_; }

  bool is_friend(graph::NodeId u) const noexcept { return is_friend_[u] != 0; }
  bool is_fof(graph::NodeId u) const noexcept { return is_fof_[u] != 0; }

  /// Number of requests sent to u so far (for retry bookkeeping and as the
  /// world's per-attempt randomness index).
  std::uint32_t attempts(graph::NodeId u) const noexcept { return attempts_[u]; }

  /// Mutual friends between the attacker and u: |N(u) ∩ F| over revealed
  /// existing edges.
  std::uint32_t mutual_friends(graph::NodeId u) const noexcept { return mutual_[u]; }

  /// True while the attacker has no friend and no edge is revealed — the
  /// empty observation of a campaign's first batch. Rejects and
  /// no-responses keep it, since they touch no mask, edge or mutual
  /// counter; every scoring input then equals a fresh observation's. O(1).
  bool pristine() const noexcept { return pristine_; }

  /// The attacker's current friend list (acceptance order).
  std::span<const graph::NodeId> friends() const noexcept { return friends_; }

  /// Current belief about edge e: p_e if unobserved, else 0 / 1.
  double edge_belief(graph::EdgeId e) const noexcept {
    switch (edge_state_[e]) {
      case EdgeState::kUnknown: return problem_->graph.edge_prob(e);
      case EdgeState::kPresent: return 1.0;
      case EdgeState::kAbsent: return 0.0;
    }
    return 0.0;
  }

  /// Acceptance probability q(u | ω) under the problem's model, reflecting
  /// currently revealed mutual friends.
  double acceptance_prob(graph::NodeId u) const noexcept {
    return problem_->acceptance.probability(problem_->graph, u, mutual_[u]);
  }

  /// Whether u may be requested: not yet a friend, not cooling down under a
  /// retry-backoff policy, and either never asked or previously rejected
  /// with retries allowed.
  bool requestable(graph::NodeId u, bool allow_retries) const noexcept {
    if (is_friend_[u]) return false;
    if (cooling_down(u)) return false;
    return node_state_[u] == NodeState::kUnknown ||
           (allow_retries && node_state_[u] == NodeState::kRejected);
  }

  /// Logical attack clock: batch rounds in the synchronous runner, seconds
  /// in the rolling-window runner. Only consulted by retry cooldowns.
  double clock() const noexcept { return clock_; }
  void set_clock(double now) noexcept { clock_ = now; }

  /// Blocks requests to u until the clock reaches `until` (retry backoff).
  /// Storage is allocated lazily, so attacks without backoff pay nothing.
  void set_retry_after(graph::NodeId u, double until);

  bool cooling_down(graph::NodeId u) const noexcept {
    return !retry_after_.empty() && retry_after_[u] > clock_;
  }

  /// Earliest cooldown expiry among nodes that would otherwise be
  /// requestable; +infinity when nothing is cooling down. The runner uses
  /// this to fast-forward the clock instead of ending the attack.
  double next_retry_time(bool allow_retries) const noexcept;

  /// Per-node cooldown deadlines (empty when no backoff was ever applied);
  /// exposed for checkpoint serialization.
  std::span<const double> retry_after() const noexcept { return retry_after_; }

  /// Records a rejected request to u. Returns the (empty) benefit delta.
  BenefitBreakdown record_reject(graph::NodeId u);

  /// Records a request to u that produced no observable outcome (timeout or
  /// dropped response): the attempt index is consumed — the next retry draws
  /// fresh acceptance randomness — but the node's state is unchanged.
  void record_no_response(graph::NodeId u);

  /// Records an accepted request to u and reveals its neighborhood:
  /// `true_neighbors` is the subset of graph.neighbors(u) that exist in the
  /// ground truth (must be sorted ascending). Returns the benefit delta.
  BenefitBreakdown record_accept(graph::NodeId u,
                                 std::span<const graph::NodeId> true_neighbors);

  /// Journal of the nodes whose attempt counter moved: one entry per
  /// record_accept / record_reject / record_no_response call, in call order.
  /// Consumers that mirror per-node state keep a read cursor into it and
  /// diff only the entries past that cursor, instead of scanning all nodes.
  std::span<const graph::NodeId> touched_nodes() const noexcept { return touched_; }

  /// Bumped by restore(), which rewrites every counter without journaling
  /// and clears the journal: a cursor from another generation is invalid
  /// and its holder must rescan every node.
  std::uint64_t journal_generation() const noexcept { return journal_generation_; }

  /// Total benefit accumulated so far.
  const BenefitBreakdown& benefit() const noexcept { return benefit_; }

  /// Recomputes the benefit from node/edge states from scratch (Eq. 1);
  /// used by tests to validate incremental accounting.
  BenefitBreakdown recompute_benefit() const;

  /// Rebuilds the observation from checkpointed primary state (node/edge
  /// states, attempt counters, friends in acceptance order); derived state —
  /// friend/fof masks, mutual counters, benefit — is recomputed. Throws
  /// std::invalid_argument on size mismatches or inconsistent friends.
  void restore(std::span<const NodeState> node_states,
               std::span<const EdgeState> edge_states,
               std::span<const std::uint32_t> attempts,
               std::span<const graph::NodeId> friends_in_order);

  /// Overrides the benefit accumulator with the exact value carried by a
  /// checkpoint. restore() recomputes the benefit from scratch, which sums
  /// the same terms in a different order than the incremental accounting and
  /// can differ in the last bits — enough to perturb subsequent trace deltas
  /// and break bit-identical resume. Must be called right after restore();
  /// throws std::invalid_argument when `exact` disagrees with the recomputed
  /// value beyond floating-point reassociation tolerance (a corrupt value,
  /// not drift).
  void restore_benefit(const BenefitBreakdown& exact);

 private:
  const Problem* problem_;
  std::vector<NodeState> node_state_;
  std::vector<EdgeState> edge_state_;
  std::vector<std::uint8_t> is_friend_;
  std::vector<std::uint8_t> is_fof_;
  std::vector<std::uint32_t> attempts_;
  std::vector<std::uint32_t> mutual_;
  std::vector<graph::NodeId> friends_;
  BenefitBreakdown benefit_;
  std::vector<double> retry_after_;  ///< lazily allocated cooldown deadlines
  std::vector<graph::NodeId> touched_;
  std::uint64_t journal_generation_ = 0;
  double clock_ = 0.0;
  bool pristine_ = true;
};

}  // namespace recon::sim
