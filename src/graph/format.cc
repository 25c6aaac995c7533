#include "graph/format.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "graph/builder.h"
#include "util/crashpoint.h"
#include "util/fs.h"
#include "util/mmap_file.h"

namespace recon::graph {

/// Befriended by Graph: the only way to build an arena-backed Graph whose
/// accessor pointers alias a mapping, and the writer's window into the CSR
/// arrays without copying them out through spans.
class GraphArena {
 public:
  static const std::uint64_t* off(const Graph& g) noexcept { return g.off_p_; }
  static const NodeId* adj(const Graph& g) noexcept { return g.adj_p_; }
  static const EdgeId* eid(const Graph& g) noexcept { return g.eid_p_; }
  static const double* prob(const Graph& g) noexcept { return g.prob_p_; }
  static const NodeId* eu(const Graph& g) noexcept { return g.eu_p_; }
  static const NodeId* ev(const Graph& g) noexcept { return g.ev_p_; }
  static const std::uint16_t* attr(const Graph& g) noexcept { return g.attr_p_; }

  static Graph make(std::shared_ptr<const util::MappedFile> arena, NodeId n,
                    EdgeId m, unsigned attr_dim, const std::uint64_t* off,
                    const NodeId* adj, const EdgeId* eid, const double* prob,
                    const NodeId* eu, const NodeId* ev,
                    const std::uint16_t* attr, const NodeId* orig) {
    Graph g;
    g.num_nodes_ = n;
    g.num_edges_ = m;
    g.attribute_dim_ = attr_dim;
    g.arena_ = std::move(arena);
    g.off_p_ = off;
    g.adj_p_ = adj;
    g.eid_p_ = eid;
    g.prob_p_ = prob;
    g.eu_p_ = eu;
    g.ev_p_ = ev;
    g.attr_p_ = attr;
    g.orig_p_ = orig;
    return g;
  }
};

namespace {

constexpr std::size_t kMagicBytes = 24;
constexpr char kMagic[kMagicBytes] = {'#', 'r', 'e', 'c', 'o', 'n', '-', 'g',
                                      'r', 'a', 'p', 'h', ' ', 'v', '1', '\n',
                                      0,   0,   0,   0,   0,   0,   0,   0};
constexpr std::uint64_t kEndianTag = 0x0123456789ABCDEFull;

constexpr std::uint64_t kFlagRelabeled = 1u << 0;
constexpr std::uint64_t kFlagAttributes = 1u << 1;

enum SectionId : std::uint64_t {
  kSecOffsets = 1,
  kSecAdjacency = 2,
  kSecEdgeIds = 3,
  kSecEdgeProb = 4,
  kSecEdgeU = 5,
  kSecEdgeV = 6,
  kSecNewToOld = 7,
  kSecOldToNew = 8,
  kSecAttributes = 9,
};

struct HeaderFields {
  std::uint64_t endian_tag;
  std::uint64_t num_nodes;
  std::uint64_t num_edges;
  std::uint64_t attribute_dim;
  std::uint64_t flags;
  std::uint64_t section_count;
  std::uint64_t payload_checksum;
  std::uint64_t header_checksum;
};
static_assert(sizeof(HeaderFields) == 64);
static_assert(std::is_trivially_copyable_v<HeaderFields>);

constexpr std::size_t kHeaderBytes = kMagicBytes + sizeof(HeaderFields);
// header_checksum covers everything before itself.
constexpr std::size_t kHeaderChecksumSpan = kHeaderBytes - sizeof(std::uint64_t);

struct SectionTableEntry {
  std::uint64_t id;
  std::uint64_t offset;
  std::uint64_t bytes;
};
static_assert(sizeof(SectionTableEntry) == 24);

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("recon-graph binary '" + path + "': " + what);
}

std::uint64_t byteswap64(std::uint64_t v) {
  std::uint64_t r = 0;
  for (int i = 0; i < 8; ++i) r = (r << 8) | ((v >> (8 * i)) & 0xFF);
  return r;
}

std::size_t pad8(std::size_t bytes) { return (8 - bytes % 8) % 8; }

struct PendingSection {
  std::uint64_t id;
  const void* data;
  std::uint64_t bytes;
};

void fwrite_checked(const void* data, std::size_t bytes, std::FILE* f,
                    const std::string& path) {
  if (bytes == 0) return;
  if (std::fwrite(data, 1, bytes, f) != bytes) fail(path, "write failed");
}

}  // namespace

std::uint64_t fnv64_words(const void* data, std::size_t bytes,
                          std::uint64_t seed) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h ^= w;
    h *= kPrime;
  }
  for (; i < bytes; ++i) {
    h ^= p[i];
    h *= kPrime;
  }
  return h;
}

std::vector<NodeId> degree_sort_permutation(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), NodeId{0});
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&g](NodeId a, NodeId b) { return g.degree(a) > g.degree(b); });
  std::vector<NodeId> old_to_new(n);
  for (NodeId rank = 0; rank < n; ++rank) old_to_new[by_degree[rank]] = rank;
  return old_to_new;
}

Graph remap_graph(const Graph& g, std::span<const NodeId> old_to_new) {
  const NodeId n = g.num_nodes();
  if (old_to_new.size() != n) {
    throw std::invalid_argument("remap_graph: permutation size mismatch");
  }
  {
    std::vector<bool> seen(n, false);
    for (NodeId u = 0; u < n; ++u) {
      const NodeId nu = old_to_new[u];
      if (nu >= n || seen[nu]) {
        throw std::invalid_argument("remap_graph: map is not a bijection on [0, n)");
      }
      seen[nu] = true;
    }
  }

  GraphBuilder b(n);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    b.add_edge(old_to_new[g.edge_u(e)], old_to_new[g.edge_v(e)], g.edge_prob(e));
  }
  if (g.has_attributes()) {
    const unsigned d = g.attribute_dim();
    std::vector<std::uint16_t> attrs(static_cast<std::size_t>(n) * d);
    for (NodeId u = 0; u < n; ++u) {
      const auto row = g.node_attributes(u);
      std::copy(row.begin(), row.end(),
                attrs.begin() + static_cast<std::size_t>(old_to_new[u]) * d);
    }
    b.set_attributes(std::move(attrs), d);
  }
  Graph out = b.build();

  // Compose with g's own relabeling so orig_id always reaches the original
  // (pre-every-remap) labeling.
  std::vector<NodeId> new_to_orig(n);
  for (NodeId u = 0; u < n; ++u) new_to_orig[old_to_new[u]] = g.orig_id(u);
  out.set_orig_ids(std::move(new_to_orig));
  return out;
}

GraphBinaryInfo write_graph_binary_file(const std::string& path, const Graph& g,
                                        const GraphBinaryWriteOptions& options) {
  const Graph* src = &g;
  Graph remapped;
  if (options.layout == GraphLayout::kDegreeSorted) {
    std::vector<NodeId> perm = degree_sort_permutation(g);
    bool identity = true;
    for (NodeId u = 0; u < g.num_nodes() && identity; ++u) {
      identity = perm[u] == u;
    }
    if (!identity) {
      remapped = remap_graph(g, perm);
      src = &remapped;
    }
  }

  const NodeId n = src->num_nodes();
  const EdgeId m = src->num_edges();
  const unsigned d = src->attribute_dim();

  // Maps stored when the written labeling differs from the original one.
  std::vector<NodeId> new_to_old, old_to_new;
  if (src->is_relabeled()) {
    const auto orig = src->orig_ids();
    new_to_old.assign(orig.begin(), orig.end());
    old_to_new.resize(n);
    for (NodeId u = 0; u < n; ++u) old_to_new[new_to_old[u]] = u;
  }

  // A default-constructed (empty) Graph has no offsets array; every built
  // graph carries n + 1 entries.
  static constexpr std::uint64_t kZeroOffset = 0;
  const std::uint64_t* off = GraphArena::off(*src);
  if (off == nullptr) off = &kZeroOffset;

  std::vector<PendingSection> sections;
  const auto slots = 2 * static_cast<std::uint64_t>(m);
  sections.push_back({kSecOffsets, off, (static_cast<std::uint64_t>(n) + 1) * 8});
  sections.push_back({kSecAdjacency, GraphArena::adj(*src), slots * 4});
  sections.push_back({kSecEdgeIds, GraphArena::eid(*src), slots * 4});
  sections.push_back({kSecEdgeProb, GraphArena::prob(*src),
                      static_cast<std::uint64_t>(m) * 8});
  sections.push_back({kSecEdgeU, GraphArena::eu(*src),
                      static_cast<std::uint64_t>(m) * 4});
  sections.push_back({kSecEdgeV, GraphArena::ev(*src),
                      static_cast<std::uint64_t>(m) * 4});
  if (!new_to_old.empty()) {
    sections.push_back({kSecNewToOld, new_to_old.data(),
                        static_cast<std::uint64_t>(n) * 4});
    sections.push_back({kSecOldToNew, old_to_new.data(),
                        static_cast<std::uint64_t>(n) * 4});
  }
  if (d > 0) {
    sections.push_back({kSecAttributes, GraphArena::attr(*src),
                        static_cast<std::uint64_t>(n) * d * 2});
  }

  // Lay out sections (8-byte aligned, zero padded) and checksum the payload
  // exactly as it will appear on disk.
  std::vector<SectionTableEntry> table(sections.size());
  const std::size_t payload_start =
      kHeaderBytes + sections.size() * sizeof(SectionTableEntry);
  std::uint64_t cursor = payload_start;
  std::uint64_t payload_checksum = 0xcbf29ce484222325ull;
  static constexpr char kPad[8] = {0};
  for (std::size_t i = 0; i < sections.size(); ++i) {
    table[i] = {sections[i].id, cursor, sections[i].bytes};
    // Chain word-aligned: hash whole words of the section, then fold the
    // tail bytes zero-extended to one word — exactly what the reader sees
    // when it hashes section + padding as one contiguous byte range.
    const std::uint64_t whole = sections[i].bytes / 8 * 8;
    if (whole > 0) {
      payload_checksum = fnv64_words(sections[i].data, whole, payload_checksum);
    }
    const std::size_t tail = static_cast<std::size_t>(sections[i].bytes - whole);
    if (tail > 0) {
      unsigned char last[8] = {0};
      std::memcpy(last,
                  static_cast<const unsigned char*>(sections[i].data) + whole,
                  tail);
      payload_checksum = fnv64_words(last, 8, payload_checksum);
    }
    cursor += sections[i].bytes + pad8(sections[i].bytes);
  }

  HeaderFields h{};
  h.endian_tag = kEndianTag;
  h.num_nodes = n;
  h.num_edges = m;
  h.attribute_dim = d;
  h.flags = (new_to_old.empty() ? 0 : kFlagRelabeled) |
            (d > 0 ? kFlagAttributes : 0);
  h.section_count = sections.size();
  h.payload_checksum = payload_checksum;
  {
    std::uint64_t hc = fnv64_words(kMagic, kMagicBytes);
    hc = fnv64_words(&h, kHeaderChecksumSpan - kMagicBytes, hc);
    h.header_checksum = hc;
  }

  // Atomic publish: write the tmp file fully, then rename into place.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) fail(path, "cannot create " + tmp);
  try {
    fwrite_checked(kMagic, kMagicBytes, f, path);
    fwrite_checked(&h, sizeof(h), f, path);
    if (std::fflush(f) != 0) fail(path, "flush failed");
    RECON_CRASH_POINT("graph.tmp-torn");
    fwrite_checked(table.data(), table.size() * sizeof(SectionTableEntry), f,
                   path);
    for (const auto& s : sections) {
      fwrite_checked(s.data, s.bytes, f, path);
      fwrite_checked(kPad, pad8(s.bytes), f, path);
    }
    if (std::fflush(f) != 0) fail(path, "flush failed");
  } catch (...) {
    std::fclose(f);
    std::remove(tmp.c_str());
    throw;
  }
  if (std::fclose(f) != 0) {
    std::remove(tmp.c_str());
    fail(path, "close failed");
  }
  RECON_CRASH_POINT("graph.tmp-written");
  // Durable publish: fsync the tmp file, rename, fsync the directory — a
  // crash after return can no longer lose the file.
  util::durable_rename(tmp, path);

  GraphBinaryInfo info;
  info.num_nodes = n;
  info.num_edges = m;
  info.relabeled = !new_to_old.empty();
  info.attribute_dim = d;
  info.file_bytes = cursor;
  return info;
}

namespace {

/// Header + section-table validation shared by probe and map. Returns the
/// parsed header; `out_table` receives the bounds-checked table pointer.
const HeaderFields& read_header(const util::MappedFile& mf,
                                const SectionTableEntry** out_table) {
  const std::string& path = mf.path();
  if (mf.size() < kHeaderBytes) fail(path, "truncated header");
  if (std::memcmp(mf.data(), kMagic, kMagicBytes) != 0) {
    fail(path, "bad magic (not a #recon-graph v1 file)");
  }
  const HeaderFields& h = *mf.range<HeaderFields>(kMagicBytes, 1);
  if (h.endian_tag != kEndianTag) {
    if (byteswap64(h.endian_tag) == kEndianTag) {
      fail(path, "endianness mismatch (file written on a byte-swapped host)");
    }
    fail(path, "corrupt endian tag");
  }
  {
    std::uint64_t hc = fnv64_words(mf.data(), kHeaderChecksumSpan);
    if (hc != h.header_checksum) fail(path, "header checksum mismatch");
  }
  if (h.num_nodes > 0xFFFFFFFFull - 1 || h.num_edges > 0xFFFFFFFFull - 1) {
    fail(path, "node/edge count exceeds 32-bit id space");
  }
  if (h.num_nodes == 0 && h.num_edges > 0) fail(path, "edges without nodes");
  if (h.attribute_dim > 0xFFFF) fail(path, "implausible attribute dimension");
  if (h.section_count == 0 || h.section_count > 16) {
    fail(path, "implausible section count");
  }
  const auto* table = reinterpret_cast<const SectionTableEntry*>(
      mf.range<std::uint64_t>(kHeaderBytes, 3 * h.section_count));
  *out_table = table;
  return h;
}

struct SectionPtrs {
  const std::uint64_t* off = nullptr;
  const NodeId* adj = nullptr;
  const EdgeId* eid = nullptr;
  const double* prob = nullptr;
  const NodeId* eu = nullptr;
  const NodeId* ev = nullptr;
  const NodeId* new_to_old = nullptr;
  const NodeId* old_to_new = nullptr;
  const std::uint16_t* attr = nullptr;
};

SectionPtrs locate_sections(const util::MappedFile& mf, const HeaderFields& h,
                            const SectionTableEntry* table) {
  const std::string& path = mf.path();
  const std::uint64_t n = h.num_nodes;
  const std::uint64_t m = h.num_edges;
  const bool relabeled = (h.flags & kFlagRelabeled) != 0;
  const bool has_attrs = (h.flags & kFlagAttributes) != 0;
  if (has_attrs != (h.attribute_dim > 0)) {
    fail(path, "attribute flag/dimension disagreement");
  }

  SectionPtrs p;
  std::uint64_t seen_mask = 0;
  for (std::uint64_t i = 0; i < h.section_count; ++i) {
    const SectionTableEntry& s = table[i];
    if (s.id == 0 || s.id > kSecAttributes) {
      fail(path, "unknown section id " + std::to_string(s.id));
    }
    if (seen_mask & (1ull << s.id)) {
      fail(path, "duplicate section id " + std::to_string(s.id));
    }
    seen_mask |= 1ull << s.id;
    if (s.offset % 8 != 0) {
      fail(path, "misaligned section " + std::to_string(s.id));
    }
    const auto expect = [&](std::uint64_t count, std::uint64_t elem) {
      if (s.bytes != count * elem) {
        fail(path, "section " + std::to_string(s.id) + " has " +
                       std::to_string(s.bytes) + " bytes, expected " +
                       std::to_string(count * elem));
      }
      return count;
    };
    // MappedFile::range bounds- and alignment-checks every access.
    switch (s.id) {
      case kSecOffsets:
        p.off = mf.range<std::uint64_t>(s.offset, expect(n + 1, 8));
        break;
      case kSecAdjacency:
        p.adj = mf.range<NodeId>(s.offset, expect(2 * m, 4));
        break;
      case kSecEdgeIds:
        p.eid = mf.range<EdgeId>(s.offset, expect(2 * m, 4));
        break;
      case kSecEdgeProb:
        p.prob = mf.range<double>(s.offset, expect(m, 8));
        break;
      case kSecEdgeU:
        p.eu = mf.range<NodeId>(s.offset, expect(m, 4));
        break;
      case kSecEdgeV:
        p.ev = mf.range<NodeId>(s.offset, expect(m, 4));
        break;
      case kSecNewToOld:
        p.new_to_old = mf.range<NodeId>(s.offset, expect(n, 4));
        break;
      case kSecOldToNew:
        p.old_to_new = mf.range<NodeId>(s.offset, expect(n, 4));
        break;
      case kSecAttributes:
        p.attr = mf.range<std::uint16_t>(s.offset,
                                         expect(n * h.attribute_dim, 2));
        break;
    }
  }

  constexpr std::uint64_t kRequired =
      (1ull << kSecOffsets) | (1ull << kSecAdjacency) | (1ull << kSecEdgeIds) |
      (1ull << kSecEdgeProb) | (1ull << kSecEdgeU) | (1ull << kSecEdgeV);
  std::uint64_t want = kRequired;
  if (relabeled) want |= (1ull << kSecNewToOld) | (1ull << kSecOldToNew);
  if (has_attrs) want |= 1ull << kSecAttributes;
  if (seen_mask != want) fail(path, "missing or unexpected sections");
  return p;
}

/// Full CSR validation: O(n + m), single pass. Guarantees every id handed
/// out by any Graph accessor is in range, so downstream code can index
/// without checks even on untrusted files.
void validate_structure(const util::MappedFile& mf, const HeaderFields& h,
                        const SectionPtrs& p) {
  const std::string& path = mf.path();
  const std::uint64_t n = h.num_nodes;
  const std::uint64_t m = h.num_edges;

  if (p.off[0] != 0) fail(path, "offsets[0] != 0");
  if (p.off[n] != 2 * m) fail(path, "offsets[n] != 2m");
  for (std::uint64_t e = 0; e < m; ++e) {
    if (p.eu[e] >= p.ev[e] || p.ev[e] >= n) {
      fail(path, "edge " + std::to_string(e) + " has invalid endpoints");
    }
    if (e > 0 && (p.eu[e - 1] > p.eu[e] ||
                  (p.eu[e - 1] == p.eu[e] && p.ev[e - 1] >= p.ev[e]))) {
      fail(path, "edge " + std::to_string(e) + " out of (u, v) order");
    }
    const double pe = p.prob[e];
    if (!(pe >= 0.0 && pe <= 1.0)) {
      fail(path, "edge " + std::to_string(e) + " probability outside [0,1]");
    }
  }
  for (std::uint64_t u = 0; u < n; ++u) {
    const std::uint64_t lo = p.off[u];
    const std::uint64_t hi = p.off[u + 1];
    if (lo > hi || hi > 2 * m) fail(path, "offsets not monotone");
    for (std::uint64_t i = lo; i < hi; ++i) {
      const NodeId v = p.adj[i];
      const EdgeId e = p.eid[i];
      if (v >= n || v == u) fail(path, "adjacency id out of range");
      if (i > lo && p.adj[i - 1] >= v) fail(path, "adjacency row not sorted");
      if (e >= m) fail(path, "edge id out of range");
      // Strictly-sorted rows + 2m total slots force each edge to appear
      // exactly once per endpoint, so this cross-check pins the whole CSR to
      // the edge list.
      const NodeId a = static_cast<NodeId>(std::min<std::uint64_t>(u, v));
      const NodeId b = static_cast<NodeId>(std::max<std::uint64_t>(u, v));
      if (p.eu[e] != a || p.ev[e] != b) {
        fail(path, "adjacency disagrees with edge list at slot " +
                       std::to_string(i));
      }
    }
  }
  if (p.new_to_old != nullptr) {
    std::vector<bool> seen(n, false);
    for (std::uint64_t u = 0; u < n; ++u) {
      const NodeId old = p.new_to_old[u];
      if (old >= n || seen[old]) fail(path, "new_to_old is not a bijection");
      seen[old] = true;
      if (p.old_to_new[old] != u) {
        fail(path, "old_to_new is not the inverse of new_to_old");
      }
    }
  }
}

}  // namespace

Graph map_graph_binary_file(const std::string& path,
                            const GraphBinaryReadOptions& options) {
  std::shared_ptr<const util::MappedFile> mf = util::MappedFile::open(path);
  const SectionTableEntry* table = nullptr;
  const HeaderFields& h = read_header(*mf, &table);
  if (options.verify_checksum) {
    const std::size_t payload_start =
        kHeaderBytes + h.section_count * sizeof(SectionTableEntry);
    if (payload_start > mf->size()) fail(path, "truncated section table");
    const std::uint64_t got =
        fnv64_words(mf->data() + payload_start, mf->size() - payload_start);
    if (got != h.payload_checksum) fail(path, "payload checksum mismatch");
  }
  const SectionPtrs p = locate_sections(*mf, h, table);
  if (options.validate_structure) validate_structure(*mf, h, p);

  const auto n = static_cast<NodeId>(h.num_nodes);
  const auto m = static_cast<EdgeId>(h.num_edges);
  return GraphArena::make(std::move(mf), n, m,
                          static_cast<unsigned>(h.attribute_dim), p.off, p.adj,
                          p.eid, p.prob, p.eu, p.ev, p.attr, p.new_to_old);
}

GraphBinaryInfo probe_graph_binary_file(const std::string& path) {
  std::shared_ptr<const util::MappedFile> mf = util::MappedFile::open(path);
  const SectionTableEntry* table = nullptr;
  const HeaderFields& h = read_header(*mf, &table);
  GraphBinaryInfo info;
  info.num_nodes = h.num_nodes;
  info.num_edges = h.num_edges;
  info.relabeled = (h.flags & kFlagRelabeled) != 0;
  info.attribute_dim = static_cast<unsigned>(h.attribute_dim);
  info.file_bytes = mf->size();
  return info;
}

bool is_graph_binary_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[kMagicBytes];
  const std::size_t got = std::fread(buf, 1, kMagicBytes, f);
  std::fclose(f);
  return got == kMagicBytes && std::memcmp(buf, kMagic, kMagicBytes) == 0;
}

}  // namespace recon::graph
