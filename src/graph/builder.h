// Mutable edge-list accumulator that produces an immutable CSR Graph.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace recon::graph {

/// Accumulates undirected edges and node attributes, then builds a Graph.
///
/// Duplicate edges (in either orientation) are merged: the *maximum*
/// probability wins, matching the "most optimistic link prediction"
/// convention. Self-loops are rejected. Every graph built here has its
/// edge ids strictly ascending by (edge_u, edge_v), so every row's edge ids
/// ascend too (the edge-order invariant of graph/graph.h).
class GraphBuilder {
 public:
  /// Creates a builder for `num_nodes` nodes.
  explicit GraphBuilder(NodeId num_nodes);

  NodeId num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_pending_edges() const noexcept { return us_.size(); }

  /// Adds an undirected edge {u, v} with existence probability p in [0, 1].
  /// Throws std::invalid_argument on self-loops, out-of-range ids, or p
  /// outside [0, 1].
  void add_edge(NodeId u, NodeId v, double p = 1.0);

  /// Returns true if the edge has already been added (linear in pending
  /// edges; intended for tests and generators that need dedup-on-insert
  /// should keep their own set).
  bool has_pending_edge(NodeId u, NodeId v) const noexcept;

  /// Attaches categorical attributes: `values` has num_nodes * dim entries.
  void set_attributes(std::vector<std::uint16_t> values, unsigned dim);

  /// Builds the CSR graph: edges are counting-sorted by (u, v) and
  /// duplicates merged. The builder may be reused afterwards (its pending
  /// edges are retained).
  Graph build() const;

  /// CSR assembly for generators whose edges are *unique* by construction
  /// (no duplicate pairs in either orientation): consumes the parallel edge
  /// arrays, canonicalizing endpoints in place and releasing them before
  /// the CSR is filled, so no pending-edge copy outlives the call. Same
  /// sort and CSR fill as build(). Throws std::invalid_argument on
  /// self-loops, out-of-range ids, bad probabilities, duplicate edges, or
  /// length mismatches.
  static Graph from_unique_edges(NodeId num_nodes, std::vector<NodeId> us,
                                 std::vector<NodeId> vs, std::vector<double> ps);

 private:
  /// Sorts canonical (u < v) edges by (u, v) into a Graph's edge arrays;
  /// duplicate pairs are merged with max probability, or rejected when
  /// `merge_duplicates` is false. The CSR arrays are left for fill_csr.
  static Graph assemble(NodeId num_nodes, const std::vector<NodeId>& us,
                        const std::vector<NodeId>& vs, const std::vector<double>& ps,
                        bool merge_duplicates);
  /// Fills offsets, adjacency and edge ids from g's (u, v)-sorted edges.
  static void fill_csr(Graph& g);

  NodeId num_nodes_;
  std::vector<NodeId> us_, vs_;   // canonicalized: us_[i] < vs_[i]
  std::vector<double> ps_;
  std::vector<std::uint16_t> attributes_;
  unsigned attribute_dim_ = 0;
};

}  // namespace recon::graph
