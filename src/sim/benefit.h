// Information-benefit model (paper Sec. II-B).
//
// Benefit comes from three sources: friends made Bf(u), friends-of-friends
// made Bfof(u) <= Bf(u), and edges revealed Bi(u, v). A node produces only
// one kind of benefit (friend supersedes friend-of-friend).
//
// The model is stored as dense per-node / per-edge coefficient vectors so
// hot loops avoid virtual dispatch; factories build the paper's
// target-based instantiation.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace recon::sim {

struct BenefitModel {
  std::vector<double> bf;    ///< size n: benefit of u as a friend
  std::vector<double> bfof;  ///< size n: benefit of u as a friend-of-friend
  std::vector<double> bi;    ///< size m: benefit of revealing edge e

  double friend_benefit(graph::NodeId u) const noexcept { return bf[u]; }
  double fof_benefit(graph::NodeId u) const noexcept { return bfof[u]; }
  double edge_benefit(graph::EdgeId e) const noexcept { return bi[e]; }

  /// Validates sizes, finiteness, and the Bfof(u) <= Bf(u) and
  /// nonnegativity invariants.
  /// Throws std::invalid_argument on violation.
  void validate(const graph::Graph& g) const;
};

/// The paper's experimental benefit model (Sec. V):
///   Bf(u)   = 1   if u in T else 0
///   Bfof(u) = 0.5 if u in T else 0
///   Bi(u,v) = 2^{|{u,v} ∩ T|} / M, with M the maximum expected degree.
BenefitModel make_paper_benefit(const graph::Graph& g,
                                const std::vector<std::uint8_t>& is_target);

/// Uniform benefit: Bf = 1, Bfof = fof_value, Bi = edge_value for all nodes
/// and edges (targets ignored) — used by tests and ablations.
BenefitModel make_uniform_benefit(const graph::Graph& g, double fof_value = 0.5,
                                  double edge_value = 0.01);

struct BenefitBreakdown {
  double friends = 0.0;
  double fofs = 0.0;
  double edges = 0.0;

  double total() const noexcept { return friends + fofs + edges; }

  BenefitBreakdown& operator+=(const BenefitBreakdown& o) noexcept {
    friends += o.friends;
    fofs += o.fofs;
    edges += o.edges;
    return *this;
  }
  friend BenefitBreakdown operator-(BenefitBreakdown a,
                                    const BenefitBreakdown& b) noexcept {
    a.friends -= b.friends;
    a.fofs -= b.fofs;
    a.edges -= b.edges;
    return a;
  }
};

}  // namespace recon::sim
