// Compressed-sparse-row social graph with per-edge existence probabilities.
//
// The paper models an OSN as a graph G = (V, E) where each possible
// friendship e carries an existence probability p_e estimated via link
// prediction (Sec. II-A). Friendships are symmetric, so we store an
// undirected multigraph-free simple graph in CSR form: every undirected edge
// appears in both endpoints' adjacency lists, and both directed slots carry
// the same undirected EdgeId, which indexes per-edge state elsewhere
// (probabilities, revealed bitmaps, ground-truth existence).
//
// Storage: every accessor reads through a raw array pointer that binds to
// one of two backings —
//   * owned std::vectors (GraphBuilder / generators / text parse), or
//   * a shared read-only mmap arena (graph/format.h, `#recon-graph v1`
//     files), in which case the Graph holds the arena alive via shared_ptr
//     and the vectors stay empty: opening a million-node graph touches only
//     the header pages, not the whole file.
// The two backings are indistinguishable through the public API and produce
// bit-identical results everywhere (same arrays, same iteration order).
//
// Edge order: the edge list is strictly ascending by (edge_u, edge_v), and
// every row lists its neighbours in ascending order. Together they make
// every row's edge ids strictly ascending: row x holds first its edges
// (v, x) with v < x, ascending in v, then its edges (x, v), ascending in v.
// GraphBuilder establishes this for every graph it builds, and the binary
// loader refuses a validated file without it; trusted (unvalidated) opens
// assume it like every other structural property. Edge-major kernels rely
// on it: one ascending pass over edge ids visits each node's incident edges
// in its row order (core::empty_marginal_gains_all).
//
// Relabeled graphs: a degree-sorted binary file stores the graph under new
// ids together with the new->old map; orig_id(u) recovers a node's original
// (pre-remap) id, and is the identity for graphs that were never relabeled.
// Selection code tie-breaks on orig_id so relabeling cannot change which of
// two equally-scored candidates is picked (see core/batch_select.cc).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace recon::util {
class MappedFile;
}

namespace recon::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

class GraphBuilder;
class GraphArena;  // graph/format.cc: constructs mmap-backed graphs

/// Immutable undirected graph in CSR form. Construct via GraphBuilder or map
/// a binary file with graph::map_graph_binary_file (graph/format.h).
class Graph {
 public:
  Graph() = default;
  Graph(const Graph& o);
  Graph(Graph&& o) noexcept;
  Graph& operator=(const Graph& o);
  Graph& operator=(Graph&& o) noexcept;
  ~Graph() = default;

  NodeId num_nodes() const noexcept { return num_nodes_; }
  EdgeId num_edges() const noexcept { return num_edges_; }

  /// Neighbors of u (sorted ascending).
  std::span<const NodeId> neighbors(NodeId u) const noexcept {
    return {adj_p_ + off_p_[u], adj_p_ + off_p_[u + 1]};
  }

  /// Undirected edge ids aligned with neighbors(u).
  std::span<const EdgeId> incident_edges(NodeId u) const noexcept {
    return {eid_p_ + off_p_[u], eid_p_ + off_p_[u + 1]};
  }

  NodeId degree(NodeId u) const noexcept {
    return static_cast<NodeId>(off_p_[u + 1] - off_p_[u]);
  }

  /// Adjacency slots of the nodes below u, for u <= num_nodes() (the CSR
  /// row offset): arc_offset(hi) - arc_offset(lo) is the total degree of
  /// the nodes in [lo, hi).
  std::uint64_t arc_offset(NodeId u) const noexcept { return off_p_[u]; }

  /// Existence probability of undirected edge e.
  double edge_prob(EdgeId e) const noexcept { return prob_p_[e]; }

  /// All edge probabilities, indexed by EdgeId (for flat scoring kernels
  /// that hoist the array base pointer out of per-neighbor loops).
  std::span<const double> edge_probs() const noexcept {
    return {prob_p_, num_edges_};
  }

  /// Endpoints of undirected edge e, with endpoint_u < endpoint_v. Edge ids
  /// are ordered by (edge_u, edge_v), strictly ascending.
  NodeId edge_u(EdgeId e) const noexcept { return eu_p_[e]; }
  NodeId edge_v(EdgeId e) const noexcept { return ev_p_[e]; }

  /// Given edge e and one endpoint, returns the other endpoint.
  NodeId other_endpoint(EdgeId e, NodeId u) const noexcept {
    return eu_p_[e] == u ? ev_p_[e] : eu_p_[e];
  }

  /// Finds the undirected edge id between u and v (binary search over the
  /// smaller adjacency list); kInvalidEdge when absent.
  EdgeId find_edge(NodeId u, NodeId v) const noexcept;

  bool has_edge(NodeId u, NodeId v) const noexcept {
    return find_edge(u, v) != kInvalidEdge;
  }

  /// Expected degree of u: sum of incident edge probabilities.
  double expected_degree(NodeId u) const noexcept;

  /// Maximum expected degree over all nodes (the paper's constant M in the
  /// Bi benefit definition). Returns 0 for an empty graph.
  double max_expected_degree() const noexcept;

  /// Optional per-node categorical attributes (empty when unset). Attribute
  /// dimension d of node u is attributes()[u * attribute_dim() + d].
  std::span<const std::uint16_t> attributes() const noexcept {
    return {attr_p_, static_cast<std::size_t>(num_nodes_) * attribute_dim_};
  }
  unsigned attribute_dim() const noexcept { return attribute_dim_; }
  bool has_attributes() const noexcept { return attribute_dim_ > 0; }
  std::span<const std::uint16_t> node_attributes(NodeId u) const noexcept {
    return {attr_p_ + static_cast<std::size_t>(u) * attribute_dim_,
            attribute_dim_};
  }

  /// Original (pre-relabeling) id of node u; the identity for graphs that
  /// were never relabeled. Selection tie-breaks use this so a degree-sorted
  /// layout selects exactly the same nodes as the original labeling.
  NodeId orig_id(NodeId u) const noexcept {
    return orig_p_ != nullptr ? orig_p_[u] : u;
  }

  /// The full new->old map (empty span for identity labelings).
  std::span<const NodeId> orig_ids() const noexcept {
    return orig_p_ != nullptr
               ? std::span<const NodeId>{orig_p_, num_nodes_}
               : std::span<const NodeId>{};
  }
  bool is_relabeled() const noexcept { return orig_p_ != nullptr; }

  /// Attaches the new->old id map of a relabeling (size must be num_nodes).
  /// Pass an empty vector to clear back to the identity.
  void set_orig_ids(std::vector<NodeId> new_to_old);

  /// Replaces every edge probability, indexed by EdgeId (size must be
  /// num_edges, each value in [0, 1]; std::invalid_argument otherwise).
  /// Topology, edge ids, attributes and orig ids are kept. The new values
  /// are owned even when the other arrays are arena-backed.
  void set_edge_probs(std::vector<double> probs);

  /// Replaces the per-node attributes: `dim` values per node, node-major
  /// (size must be num_nodes * dim with dim > 0; std::invalid_argument
  /// otherwise). Topology, edge ids, probabilities and orig ids are kept;
  /// the new values are owned even when the other arrays are arena-backed.
  void set_attributes(std::vector<std::uint16_t> values, unsigned dim);

  /// True when the arrays live in a shared mmap arena rather than owned
  /// vectors. Mapped graphs are safe to copy (copies share the arena) and
  /// keep the mapping alive until the last copy is destroyed.
  bool is_mapped() const noexcept { return arena_ != nullptr; }

 private:
  friend class GraphBuilder;
  friend class GraphArena;

  /// Points every accessor pointer at this object's own vectors. Called
  /// after the vectors are (re)filled and after copies/moves of owned
  /// storage.
  void rebind_owned() noexcept;
  /// After copying storage from `o`, fixes each pointer: arena-backed
  /// pointers are shared verbatim, vector-backed pointers rebind to the
  /// corresponding own vector.
  void fix_pointers(const Graph& o) noexcept;

  NodeId num_nodes_ = 0;
  EdgeId num_edges_ = 0;
  // Owned storage (empty for arena-backed sections).
  std::vector<std::uint64_t> offsets_;  // n + 1
  std::vector<NodeId> adjacency_;       // 2m, sorted within each node
  std::vector<EdgeId> edge_ids_;        // 2m, aligned with adjacency_
  std::vector<double> edge_prob_;       // m
  std::vector<NodeId> edge_u_, edge_v_; // m, with edge_u_ < edge_v_
  std::vector<std::uint16_t> attributes_;
  std::vector<NodeId> orig_ids_;        // n when relabeled, else empty
  unsigned attribute_dim_ = 0;
  // Keeps the mapped pages alive for arena-backed graphs.
  std::shared_ptr<const util::MappedFile> arena_;
  // The accessor pointers: each binds to the matching vector or the arena.
  const std::uint64_t* off_p_ = nullptr;
  const NodeId* adj_p_ = nullptr;
  const EdgeId* eid_p_ = nullptr;
  const double* prob_p_ = nullptr;
  const NodeId* eu_p_ = nullptr;
  const NodeId* ev_p_ = nullptr;
  const std::uint16_t* attr_p_ = nullptr;
  const NodeId* orig_p_ = nullptr;
};

}  // namespace recon::graph
