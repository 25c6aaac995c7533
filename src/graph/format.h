// `#recon-graph v1` — versioned binary CSR graph format + mmap loader.
//
// A graph is parsed from text once (`recon graph convert`) and mapped
// forever after: opening a million-node binary graph touches only the
// header pages, so load time is milliseconds instead of a full re-parse.
// The format is little-endian with every section 8-byte aligned, so the
// on-disk arrays are exactly the in-memory CSR arrays and the loader hands
// the scoring kernels pointers straight into the mapping (zero copy).
//
// Layout (see docs/API.md for the normative grammar):
//
//   bytes 0..23   magic "#recon-graph v1\n" padded with NULs to 24 bytes
//   8 x u64       endian_tag (0x0123456789ABCDEF), num_nodes, num_edges,
//                 attribute_dim, flags, section_count,
//                 payload_checksum, header_checksum
//   section table section_count x {u64 section_id, u64 offset, u64 bytes}
//   sections      8-byte aligned, zero-padded, in section-id order:
//                   1 offsets    u64 x (n+1)      5 edge_u     u32 x m
//                   2 adjacency  u32 x 2m         6 edge_v     u32 x m
//                   3 edge_ids   u32 x 2m         7 new_to_old u32 x n  (flag 0)
//                   4 edge_prob  f64 x m          8 old_to_new u32 x n  (flag 0)
//                                                 9 attributes u16 x n*d (flag 1)
//
// Checksums are FNV-1a folded over 64-bit words (tail bytes folded singly):
// header_checksum covers bytes [0, 80), payload_checksum covers every byte
// from the first section to end-of-file (padding included). The header
// checksum is always verified at open; payload verification and structural
// validation (offset monotonicity, id bounds, row sortedness, (u, v) order
// of the edge list, CSR/edge-list cross-consistency, probability range,
// remap bijectivity) are on by
// default and can be disabled for minimum-latency opens of trusted files.
//
// Degree-sorted layout: the writer can relabel nodes by (degree descending,
// old id ascending) before serializing, so hot high-degree rows sit in
// dense leading cache lines. The new->old and old->new maps ride along in
// the file; Graph::orig_id() exposes the original labeling, and selection
// tie-breaks on it, keeping selected batches identical across layouts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace recon::graph {

/// How the writer lays out vertices on disk.
enum class GraphLayout {
  kKeep,          ///< preserve the graph's current labeling
  kDegreeSorted,  ///< relabel by (degree desc, old id asc); maps stored
};

struct GraphBinaryWriteOptions {
  GraphLayout layout = GraphLayout::kDegreeSorted;
};

struct GraphBinaryReadOptions {
  /// Verify the payload checksum at open. Touches every page (trades away
  /// mmap laziness for end-to-end corruption detection).
  bool verify_checksum = true;
  /// Validate CSR structure (bounds, sorted rows and edge list,
  /// cross-consistency). Keeps a malicious or torn file from ever producing
  /// an out-of-bounds node or edge id, or an edge order the edge-major
  /// kernels do not expect, downstream.
  bool validate_structure = true;
};

struct GraphBinaryInfo {
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  bool relabeled = false;
  unsigned attribute_dim = 0;
  std::uint64_t file_bytes = 0;
};

/// Serializes g to `path` (atomically: tmp file + rename). With the default
/// degree-sorted layout the graph is relabeled before writing and the file
/// carries the id maps; an already-degree-sorted graph degrades to kKeep.
/// Throws std::runtime_error on I/O failure.
GraphBinaryInfo write_graph_binary_file(const std::string& path, const Graph& g,
                                        const GraphBinaryWriteOptions& options = {});

/// Opens a binary graph as a zero-copy mmap-backed Graph. The returned Graph
/// (and every copy of it) keeps the mapping alive; it is immutable and safe
/// to read from any number of threads. Throws std::runtime_error on open or
/// format errors (truncation, bad magic/endianness, checksum mismatch,
/// structural violations).
Graph map_graph_binary_file(const std::string& path,
                            const GraphBinaryReadOptions& options = {});

/// Header-only probe: counts and flags without touching payload pages.
GraphBinaryInfo probe_graph_binary_file(const std::string& path);

/// True when the file starts with the `#recon-graph v1` magic (used by the
/// CLI to auto-detect binary vs text graph inputs).
bool is_graph_binary_file(const std::string& path);

/// Stable degree-descending relabeling: old_to_new[old] = new, ordered by
/// (degree desc, old id asc). new id 0 is the highest-degree vertex.
std::vector<NodeId> degree_sort_permutation(const Graph& g);

/// Relabels every node u of g to old_to_new[u] (a bijection on [0, n)).
/// Edge ids are re-canonicalized; probabilities and attributes follow their
/// edges/nodes. The result's orig_ids() composes with g's own relabeling,
/// always mapping back to the *original* labeling.
Graph remap_graph(const Graph& g, std::span<const NodeId> old_to_new);

/// FNV-1a folded over 64-bit little-endian words (tail bytes folded singly);
/// `seed` chains incremental use. Exposed for tests and the bench harness.
std::uint64_t fnv64_words(const void* data, std::size_t bytes,
                          std::uint64_t seed = 0xcbf29ce484222325ull);

}  // namespace recon::graph
