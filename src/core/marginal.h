// Expected marginal benefit Δf(u | ω) of a single friend request (Sec. III).
//
// Closed form (Lemma 1):
//   Δf(u | ω) = q(u | ω) · ( Bf(u)
//                          + Σ_{v ∈ N'(u)}  p̂_uv · Bfof(v)
//                          + Σ_{e ∈ N''(u)} [p̂_e ·] Bi(e) )
// where N'(u) excludes current friends and friends-of-friends, N''(u) are
// u's unrevealed incident edges, and p̂ is the current edge belief.
//
// Two policies are supported (DESIGN.md §2.1–2.2):
//  * kWeighted (default): weights the Bi term by p̂_e (an edge only yields
//    benefit if it exists) and charges the friend term Bf(u) − Bfof(u) when
//    u is already a friend-of-friend (a node produces one kind of benefit).
//  * kPaperLiteral: reproduces the paper's formulas verbatim — unweighted
//    Bi and unconditional Bf(u).
#pragma once

#include <span>

#include "graph/graph.h"
#include "sim/observation.h"
#include "sim/problem.h"

namespace recon::util {
class ThreadPool;
}

namespace recon::core {

enum class MarginalPolicy { kWeighted, kPaperLiteral };

/// Δf(u | ω): the expected gain of requesting u given the observation, with
/// no batch context. Requires u not already a friend.
double marginal_gain(const sim::Observation& obs, graph::NodeId u,
                     MarginalPolicy policy = MarginalPolicy::kWeighted);

/// Γ₀(u) = Δf(u | ∅) for every u in `nodes`, written to out[u] (`out` is
/// indexed by node id). The empty observation — no friend, no FoF, every
/// edge unknown, no mutual friend — is folded in, so the pass reads only the
/// problem: bit-identical to marginal_gain on a fresh Observation (same
/// terms in the same order), without its per-arc state loads.
void empty_marginal_gains(const sim::Problem& problem, MarginalPolicy policy,
                          std::span<const graph::NodeId> nodes, std::span<double> out);

/// Γ₀(u) = Δf(u | ∅) for every node, written to out[u] (`out` has size n):
/// the whole-graph form of empty_marginal_gains, scored edge-major. Each
/// participant — the caller and every `pool` worker, or the caller alone
/// without a pool — owns one contiguous node range, walks the (u, v)-sorted
/// edge list upward from edge 0 until edge_u reaches the range's end, and
/// adds each edge's two terms to its owned endpoints, straight into `out`.
/// The graph's edge order (graph/graph.h) makes that the order of each
/// node's CSR row, so every score is bit-identical to empty_marginal_gains,
/// whatever the pool size. Ranges balance the scanned prefix plus the owned
/// degree, one per participant.
void empty_marginal_gains_all(const sim::Problem& problem, MarginalPolicy policy,
                              std::span<double> out, util::ThreadPool* pool = nullptr);

}  // namespace recon::core
