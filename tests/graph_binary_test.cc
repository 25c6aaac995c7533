// Tests for the `#recon-graph v1` binary substrate: write/map round-trips,
// degree-sorted relabeling, corruption handling on the mmap loader, the
// streaming generators, and the relabeling-determinism guarantee of
// batch_select (remapped graphs select the same nodes, modulo relabeling,
// at every thread count).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/batch_select.h"
#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "sim/observation.h"
#include "sim/problem.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "test_scratch.h"

namespace recon::graph {
namespace {

std::string temp_path(const std::string& name) {
  return recon::test::scratch_path("recon_graph_binary_test_" + name);
}

/// A small graph with a distinctive degree profile and dyadic-exact edge
/// probabilities (alternating 1.0 / 0.5 keeps every score computation exact
/// in binary floating point, so selection comparisons are order-independent).
Graph dyadic_graph(NodeId n, EdgeId m, std::uint64_t seed) {
  const Graph base = erdos_renyi_gnm(n, m, seed);
  GraphBuilder b(n);
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    b.add_edge(base.edge_u(e), base.edge_v(e), e % 2 == 0 ? 1.0 : 0.5);
  }
  return b.build();
}

Graph dyadic_ba_graph(NodeId n, NodeId m_per_node, std::uint64_t seed) {
  const Graph base = barabasi_albert(n, m_per_node, seed);
  GraphBuilder b(n);
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    b.add_edge(base.edge_u(e), base.edge_v(e), e % 2 == 0 ? 1.0 : 0.5);
  }
  return b.build();
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Structural equality through the public accessors.
void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    ASSERT_EQ(a.degree(u), b.degree(u)) << "node " << u;
    const auto na = a.neighbors(u);
    const auto nb = b.neighbors(u);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin())) << "node " << u;
    const auto ea = a.incident_edges(u);
    const auto eb = b.incident_edges(u);
    ASSERT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin())) << "node " << u;
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    ASSERT_EQ(a.edge_u(e), b.edge_u(e));
    ASSERT_EQ(a.edge_v(e), b.edge_v(e));
    ASSERT_EQ(a.edge_prob(e), b.edge_prob(e));
  }
}

TEST(GraphBinary, RoundTripKeepLayout) {
  const Graph g = dyadic_graph(60, 150, 11);
  const std::string path = temp_path("roundtrip.bin");
  GraphBinaryWriteOptions wo;
  wo.layout = GraphLayout::kKeep;
  const GraphBinaryInfo info = write_graph_binary_file(path, g, wo);
  EXPECT_EQ(info.num_nodes, 60u);
  EXPECT_EQ(info.num_edges, g.num_edges());
  EXPECT_FALSE(info.relabeled);

  const Graph m = map_graph_binary_file(path);
  EXPECT_TRUE(m.is_mapped());
  EXPECT_FALSE(m.is_relabeled());
  expect_same_graph(g, m);
  std::remove(path.c_str());
}

TEST(GraphBinary, RoundTripWithAttributes) {
  GraphBuilder b(5);
  b.add_edge(0, 1, 0.5);
  b.add_edge(1, 2, 1.0);
  b.add_edge(3, 4, 0.25);
  std::vector<std::uint16_t> attrs;
  for (std::uint16_t i = 0; i < 10; ++i) attrs.push_back(i);
  b.set_attributes(attrs, 2);
  const Graph g = b.build();

  const std::string path = temp_path("attrs.bin");
  GraphBinaryWriteOptions wo;
  wo.layout = GraphLayout::kKeep;
  const auto info = write_graph_binary_file(path, g, wo);
  EXPECT_EQ(info.attribute_dim, 2u);

  const Graph m = map_graph_binary_file(path);
  ASSERT_EQ(m.attribute_dim(), 2u);
  for (NodeId u = 0; u < 5; ++u) {
    const auto ga = g.node_attributes(u);
    const auto ma = m.node_attributes(u);
    ASSERT_TRUE(std::equal(ga.begin(), ga.end(), ma.begin()));
  }
  std::remove(path.c_str());
}

TEST(GraphBinary, DegreeSortedLayoutRelabelsAndMapsBack) {
  const Graph g = dyadic_ba_graph(80, 3, 7);
  const std::string path = temp_path("sorted.bin");
  const auto info = write_graph_binary_file(path, g);  // default: degree-sorted
  const Graph m = map_graph_binary_file(path);
  ASSERT_EQ(info.relabeled, m.is_relabeled());

  // Degrees must be nonincreasing in the new labeling when relabeled.
  if (m.is_relabeled()) {
    for (NodeId u = 1; u < m.num_nodes(); ++u) {
      EXPECT_GE(m.degree(u - 1), m.degree(u));
    }
  }
  // orig_id is a bijection and maps every structural fact back to g.
  std::vector<std::uint8_t> seen(g.num_nodes(), 0);
  for (NodeId u = 0; u < m.num_nodes(); ++u) {
    const NodeId o = m.orig_id(u);
    ASSERT_LT(o, g.num_nodes());
    ASSERT_FALSE(seen[o]);
    seen[o] = 1;
    ASSERT_EQ(m.degree(u), g.degree(o));
    std::vector<NodeId> mapped;
    for (NodeId v : m.neighbors(u)) mapped.push_back(m.orig_id(v));
    std::sort(mapped.begin(), mapped.end());
    const auto orig = g.neighbors(o);
    ASSERT_TRUE(std::equal(orig.begin(), orig.end(), mapped.begin()));
  }
  // Edge probabilities follow their edges through the relabeling.
  for (EdgeId e = 0; e < m.num_edges(); ++e) {
    const NodeId ou = m.orig_id(m.edge_u(e));
    const NodeId ov = m.orig_id(m.edge_v(e));
    const EdgeId oe = g.find_edge(ou, ov);
    ASSERT_NE(oe, kInvalidEdge);
    EXPECT_EQ(m.edge_prob(e), g.edge_prob(oe));
  }
  std::remove(path.c_str());
}

TEST(GraphBinary, AlreadySortedGraphDegradesToKeep) {
  const Graph g = dyadic_ba_graph(50, 2, 3);
  const std::string p1 = temp_path("sorted_once.bin");
  const std::string p2 = temp_path("sorted_twice.bin");
  write_graph_binary_file(p1, g);
  const Graph sorted = map_graph_binary_file(p1);
  // Re-sorting an already degree-sorted graph is the identity permutation,
  // which the writer degrades to kKeep (no map sections, not relabeled...
  // relative to its own labeling; the original orig-id map is preserved).
  write_graph_binary_file(p2, sorted);
  const auto info = probe_graph_binary_file(p2);
  const Graph again = map_graph_binary_file(p2);
  expect_same_graph(sorted, again);
  EXPECT_EQ(info.num_nodes, g.num_nodes());
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(GraphBinary, ProbeMatchesMapAndSniffsFormat) {
  const Graph g = dyadic_graph(40, 80, 5);
  const std::string bin = temp_path("probe.bin");
  const std::string txt = temp_path("probe.txt");
  const auto info = write_graph_binary_file(bin, g);
  write_edge_list_file(txt, g);

  EXPECT_TRUE(is_graph_binary_file(bin));
  EXPECT_FALSE(is_graph_binary_file(txt));
  EXPECT_FALSE(is_graph_binary_file(temp_path("nonexistent.bin")));

  const auto probed = probe_graph_binary_file(bin);
  EXPECT_EQ(probed.num_nodes, info.num_nodes);
  EXPECT_EQ(probed.num_edges, info.num_edges);
  EXPECT_EQ(probed.relabeled, info.relabeled);
  EXPECT_EQ(probed.file_bytes, info.file_bytes);
  std::remove(bin.c_str());
  std::remove(txt.c_str());
}

TEST(GraphBinary, TruncatedFilesThrowNotCrash) {
  const Graph g = dyadic_graph(30, 60, 9);
  const std::string path = temp_path("trunc.bin");
  write_graph_binary_file(path, g);
  const std::vector<char> whole = read_bytes(path);
  ASSERT_GT(whole.size(), 100u);

  // Every prefix length in a sweep (including header-splitting cuts) must
  // produce an exception, never a crash or a silently wrong graph.
  for (std::size_t keep : {std::size_t{0}, std::size_t{7}, std::size_t{23},
                           std::size_t{24}, std::size_t{60}, std::size_t{88},
                           whole.size() / 2, whole.size() - 1}) {
    write_bytes(path, {whole.begin(), whole.begin() + static_cast<std::ptrdiff_t>(keep)});
    EXPECT_THROW(map_graph_binary_file(path), std::exception) << "keep=" << keep;
  }
  std::remove(path.c_str());
}

TEST(GraphBinary, GarbageHeaderThrows) {
  const Graph g = dyadic_graph(20, 30, 13);
  const std::string path = temp_path("garbage.bin");
  write_graph_binary_file(path, g);
  const std::vector<char> whole = read_bytes(path);

  // Corrupt magic.
  std::vector<char> bad = whole;
  bad[0] = 'X';
  write_bytes(path, bad);
  EXPECT_THROW(map_graph_binary_file(path), std::exception);

  // Flip the endianness tag (simulates a foreign-endian writer).
  bad = whole;
  std::reverse(bad.begin() + 24, bad.begin() + 32);
  write_bytes(path, bad);
  EXPECT_THROW(map_graph_binary_file(path), std::exception);

  // A text file with the wrong magic is rejected up front.
  write_bytes(path, {'h', 'e', 'l', 'l', 'o', '\n'});
  EXPECT_THROW(map_graph_binary_file(path), std::exception);
  std::remove(path.c_str());
}

TEST(GraphBinary, PayloadCorruptionFailsChecksum) {
  const Graph g = dyadic_graph(30, 60, 17);
  const std::string path = temp_path("corrupt.bin");
  write_graph_binary_file(path, g);
  std::vector<char> bytes = read_bytes(path);
  // Flip one bit near the end of the payload (edge probabilities / maps).
  bytes[bytes.size() - 5] = static_cast<char>(bytes[bytes.size() - 5] ^ 0x40);
  write_bytes(path, bytes);
  EXPECT_THROW(map_graph_binary_file(path), std::exception);
  std::remove(path.c_str());
}

TEST(GraphBinary, RandomMutationsNeverCrash) {
  const Graph g = dyadic_graph(25, 50, 19);
  const std::string path = temp_path("fuzz.bin");
  write_graph_binary_file(path, g);
  const std::vector<char> whole = read_bytes(path);

  util::Rng rng(0xF022);
  int rejected = 0;
  int accepted = 0;
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<char> mutated = whole;
    const std::size_t pos = rng.below(mutated.size());
    mutated[pos] = static_cast<char>(rng.below(256));
    if (rng.below(4) == 0) {
      mutated.resize(1 + rng.below(mutated.size()));  // truncate too
    }
    write_bytes(path, mutated);
    try {
      const Graph m = map_graph_binary_file(path);
      // A no-op mutation (same byte value) can legitimately succeed; the
      // result must then still be a well-formed graph.
      ASSERT_EQ(m.num_nodes(), g.num_nodes());
      ++accepted;
    } catch (const std::exception&) {
      ++rejected;  // rejection is the expected outcome
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_LT(accepted, 200);
  std::remove(path.c_str());
}

TEST(GraphBinary, StreamingGeneratorsProduceValidDeterministicFiles) {
  const std::string p1 = temp_path("stream_er1.bin");
  const std::string p2 = temp_path("stream_er2.bin");
  const auto info =
      stream_erdos_renyi_binary(p1, 500, 1500, EdgeProbModel::uniform(0.2, 0.9), 42);
  EXPECT_EQ(info.num_nodes, 500u);
  EXPECT_EQ(info.num_edges, 1500u);
  const Graph g = map_graph_binary_file(p1);
  EXPECT_EQ(g.num_nodes(), 500u);
  EXPECT_EQ(g.num_edges(), 1500u);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_NE(g.edge_u(e), g.edge_v(e));
    EXPECT_GE(g.edge_prob(e), 0.2);
    EXPECT_LE(g.edge_prob(e), 0.9);
  }

  // Same seed -> byte-identical file.
  stream_erdos_renyi_binary(p2, 500, 1500, EdgeProbModel::uniform(0.2, 0.9), 42);
  EXPECT_EQ(read_bytes(p1), read_bytes(p2));

  const std::string pb = temp_path("stream_ba.bin");
  const auto ba = stream_barabasi_albert_binary(pb, 400, 4,
                                                EdgeProbModel::constant(1.0), 7);
  const Graph gb = map_graph_binary_file(pb);
  EXPECT_EQ(gb.num_nodes(), 400u);
  EXPECT_EQ(gb.num_edges(), ba.num_edges);
  // Structural probabilities cannot stream.
  EXPECT_THROW(stream_erdos_renyi_binary(p2, 10, 5,
                                         EdgeProbModel::structural(0.4, 0.5), 1),
               std::invalid_argument);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
  std::remove(pb.c_str());
}

TEST(GraphBinary, StreamedBarabasiAlbertBytesArePinned) {
  // Payload checksums of small streamed BA files, one per streamable model:
  // the sampler's RNG order (attachment picks interleaved with per-edge
  // probability draws) and the CSR assembly must keep the file byte-identical.
  struct Pin {
    EdgeProbModel model;
    std::uint64_t payload_checksum;
  };
  const Pin pins[] = {{EdgeProbModel::constant(1.0), 0xc2f24fd717b74e4eull},
                      {EdgeProbModel::uniform(0.2, 0.9), 0x08f8b0ed62e1c911ull},
                      {EdgeProbModel::beta(2.0, 3.0), 0x202065194fb785cfull}};
  const std::string path = temp_path("stream_ba_pinned.bin");
  for (const Pin& pin : pins) {
    const auto info = stream_barabasi_albert_binary(path, 400, 4, pin.model, 7);
    EXPECT_EQ(info.file_bytes, 57568u);
    const std::vector<char> bytes = read_bytes(path);
    ASSERT_GE(bytes.size(), 80u);
    std::uint64_t payload_checksum = 0;  // header word 6, after magic + 6 words
    std::memcpy(&payload_checksum, bytes.data() + 72, sizeof payload_checksum);
    EXPECT_EQ(payload_checksum, pin.payload_checksum)
        << "model kind " << static_cast<int>(pin.model.kind);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Relabeling determinism: a degree-sorted remap of the same instance selects
// the same nodes (modulo the relabeling) at every thread count, because all
// selection tie-breaks use orig ids. Edge probabilities and benefits are
// dyadic-exact so every score is computed exactly regardless of the
// neighbor-summation order.
// ---------------------------------------------------------------------------

sim::Problem problem_on(Graph g, const std::vector<NodeId>& targets) {
  sim::Problem p;
  p.targets = targets;
  std::sort(p.targets.begin(), p.targets.end());
  p.is_target.assign(g.num_nodes(), 0);
  for (NodeId t : p.targets) p.is_target[t] = 1;
  p.benefit = sim::make_uniform_benefit(g, 0.5, 0.5);
  p.acceptance = sim::make_constant_acceptance(0.5);
  p.acceptance.mutual_boost = 0.25;
  p.graph = std::move(g);
  p.validate();
  return p;
}

/// Accepts the same (original-label) nodes in both observations, revealing
/// the full neighborhood each time, so the two observations stay isomorphic
/// under the relabeling.
void accept_nodes(sim::Observation& obs, const std::vector<NodeId>& orig_nodes,
                  const std::vector<NodeId>& old_to_new) {
  for (NodeId o : orig_nodes) {
    const NodeId u = old_to_new.empty() ? o : old_to_new[o];
    obs.record_accept(u, obs.problem().graph.neighbors(u));
  }
}

void check_remap_determinism(const Graph& g, const std::string& tag) {
  const std::vector<NodeId> perm = degree_sort_permutation(g);
  const Graph rg = remap_graph(g, perm);
  ASSERT_TRUE(rg.is_relabeled());

  std::vector<NodeId> targets_orig;
  for (NodeId t = 0; t < g.num_nodes(); t += 7) targets_orig.push_back(t);
  std::vector<NodeId> targets_new;
  for (NodeId t : targets_orig) targets_new.push_back(perm[t]);

  const sim::Problem p_id = problem_on(g, targets_orig);
  const sim::Problem p_rm = problem_on(rg, targets_new);

  sim::Observation obs_id(p_id);
  sim::Observation obs_rm(p_rm);
  const std::vector<NodeId> accepted = {0, 5, 9};
  accept_nodes(obs_id, accepted, {});
  accept_nodes(obs_rm, accepted, perm);

  core::BatchSelectOptions options;
  options.batch_size = 8;

  // Reference: sequential selection on the identity labeling.
  const std::vector<NodeId> base = core::batch_select(obs_id, options);
  ASSERT_FALSE(base.empty());

  for (unsigned threads : {0u, 2u, 8u}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    options.pool = pool.get();

    const std::vector<NodeId> got_id = core::batch_select(obs_id, options);
    EXPECT_EQ(got_id, base) << tag << " threads=" << threads;

    const std::vector<NodeId> got_rm = core::batch_select(obs_rm, options);
    ASSERT_EQ(got_rm.size(), base.size()) << tag << " threads=" << threads;
    for (std::size_t i = 0; i < base.size(); ++i) {
      // Same node, same position, expressed in the remapped labeling.
      EXPECT_EQ(rg.orig_id(got_rm[i]), base[i])
          << tag << " threads=" << threads << " position " << i;
    }
  }
}

TEST(GraphBinaryDeterminism, DegreeRemapSelectsSameBatchOnBa) {
  check_remap_determinism(dyadic_ba_graph(300, 3, 21), "ba");
}

TEST(GraphBinaryDeterminism, DegreeRemapSelectsSameBatchOnEr) {
  check_remap_determinism(dyadic_graph(300, 900, 23), "er");
}

TEST(GraphBinaryDeterminism, MappedFileSelectsSameBatchAsInRam) {
  // End-to-end: the mmap-backed keep-layout graph drives selection exactly
  // like the in-RAM original.
  const Graph g = dyadic_ba_graph(200, 3, 29);
  const std::string path = temp_path("parity.bin");
  GraphBinaryWriteOptions wo;
  wo.layout = GraphLayout::kKeep;
  write_graph_binary_file(path, g, wo);
  const Graph m = map_graph_binary_file(path);

  std::vector<NodeId> targets;
  for (NodeId t = 0; t < g.num_nodes(); t += 5) targets.push_back(t);
  const sim::Problem p_ram = problem_on(g, targets);
  const sim::Problem p_map = problem_on(m, targets);
  sim::Observation obs_ram(p_ram);
  sim::Observation obs_map(p_map);
  accept_nodes(obs_ram, {1, 2, 3}, {});
  accept_nodes(obs_map, {1, 2, 3}, {});

  core::BatchSelectOptions options;
  options.batch_size = 10;
  EXPECT_EQ(core::batch_select(obs_ram, options), core::batch_select(obs_map, options));
  std::remove(path.c_str());
}

TEST(GraphBinaryDeterminism, AssignEdgeProbsKeepsOrigIdsOfMappedRelabeledGraph) {
  // Attaching probabilities to a mapped degree-sorted graph keeps its
  // new->old map, so selection still tie-breaks on the original labels and
  // picks the same batch as the unrelabeled graph. With p = 0 every
  // candidate outside the accepted nodes' neighbourhoods ties, so the
  // tie-break decides the whole batch.
  const Graph g = barabasi_albert(300, 3, 31);
  const std::string path = temp_path("relabeled_probs.bin");
  write_graph_binary_file(path, g);  // default: degree-sorted
  const Graph m = map_graph_binary_file(path);
  ASSERT_TRUE(m.is_relabeled());
  const std::vector<NodeId> new_to_old(m.orig_ids().begin(), m.orig_ids().end());
  std::vector<NodeId> old_to_new(new_to_old.size());
  for (NodeId u = 0; u < m.num_nodes(); ++u) old_to_new[new_to_old[u]] = u;
  std::vector<NodeId> targets_orig;
  std::vector<NodeId> targets_new;
  for (NodeId t = 0; t < g.num_nodes(); t += 7) {
    targets_orig.push_back(t);
    targets_new.push_back(old_to_new[t]);
  }

  for (const double p : {0.5, 0.0}) {
    const EdgeProbModel model = EdgeProbModel::constant(p);
    const Graph gp = assign_edge_probs(g, model, 5);
    const Graph mp = assign_edge_probs(m, model, 5);
    ASSERT_TRUE(mp.is_relabeled()) << "p=" << p;
    EXPECT_TRUE(std::equal(new_to_old.begin(), new_to_old.end(), mp.orig_ids().begin(),
                           mp.orig_ids().end()));

    const sim::Problem p_id = problem_on(gp, targets_orig);
    const sim::Problem p_rm = problem_on(mp, targets_new);
    sim::Observation obs_id(p_id);
    sim::Observation obs_rm(p_rm);
    accept_nodes(obs_id, {0, 5, 9}, {});
    accept_nodes(obs_rm, {0, 5, 9}, old_to_new);
    core::BatchSelectOptions options;
    options.batch_size = 8;
    const std::vector<NodeId> base = core::batch_select(obs_id, options);
    const std::vector<NodeId> got = core::batch_select(obs_rm, options);
    ASSERT_EQ(got.size(), base.size()) << "p=" << p;
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(new_to_old[got[i]], base[i]) << "p=" << p << " position " << i;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace recon::graph
