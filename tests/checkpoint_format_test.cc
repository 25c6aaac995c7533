// Byte-level format tests for checkpoint documents, framed generations and
// chain manifests.
//
// The golden files under tests/golden/ were written by the original
// ostream-based encoder; the encoder may change only if every byte it emits
// stays the same, so old checkpoints keep resuming and digests of published
// generations keep matching. The fixtures are built by hand (no attack run)
// so every field, including the trace's select_seconds, is fixed.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "core/checkpoint.h"
#include "core/checkpoint_chain.h"
#include "test_scratch.h"
#include "util/fs.h"

namespace recon::core {
namespace {

using sim::EdgeState;
using sim::NodeState;

std::string golden_path(const std::string& name) {
  return std::string(RECON_GOLDEN_DIR) + "/" + name;
}

sim::BatchRecord batch(std::vector<graph::NodeId> requests,
                       std::vector<std::uint8_t> accepted,
                       std::vector<std::uint8_t> outcome,
                       sim::BenefitBreakdown delta, double cost,
                       double cumulative_cost, double select_seconds) {
  sim::BatchRecord b;
  b.requests = std::move(requests);
  b.accepted = std::move(accepted);
  b.outcome = std::move(outcome);
  b.delta = delta;
  b.cost = cost;
  b.cumulative_cost = cumulative_cost;
  b.select_seconds = select_seconds;
  return b;
}

/// Synchronous (v1) record: every state digit, non-empty sparse sections,
/// a fault window, and doubles that need all 17 significant digits or an
/// exponent.
AttackCheckpoint golden_v1() {
  AttackCheckpoint cp;
  cp.world_seed = std::numeric_limits<std::uint64_t>::max();
  cp.budget = 100.5;
  cp.spent = 0.1;
  cp.round = 7;
  cp.clock = 3.25;
  cp.node_states = {NodeState::kUnknown,  NodeState::kAccepted,
                    NodeState::kRejected, NodeState::kRejected,
                    NodeState::kAccepted, NodeState::kUnknown};
  cp.edge_states = {EdgeState::kPresent, EdgeState::kUnknown, EdgeState::kAbsent};
  cp.attempts = {0, 2, 0, 1, 0, std::numeric_limits<std::uint32_t>::max()};
  cp.friends = {3, 1};
  cp.retry_after = {0.0, 12.5, 0.0, 0.0, 1e21, 0.0};
  cp.has_benefit = true;
  cp.benefit = {2.0, 0.1 + 0.2, 1.5};
  cp.has_fault = true;
  cp.fault.sends = 9;
  cp.fault.tick = 4;
  cp.fault.suspended_until = 6;
  cp.fault.window = {{3, 2}, {4, 1}};
  cp.fault.counters = {5, 1, 1, 1, 0, 1};
  cp.strategy_name = "PM-AReST (k=2)";
  cp.strategy_state = "rng=1,2,3,4 round=7";
  cp.trace.batches.push_back(
      batch({1, 2}, {0, 1}, {}, {1.0, 0.5, 1.0}, 2.0, 2.0, 0.125));
  cp.trace.batches.push_back(
      batch({3, 5}, {1, 0}, {0, 2}, {1.0, 1.0 / 3.0, 0.0}, 1.5, 3.5, 1e-3));
  return cp;
}

/// Rolling-window (v2) record: n = 1, m = 0, empty sparse sections, an empty
/// fault window, in-flight entries and a send-time cost (ccost) batch.
AttackCheckpoint golden_v2() {
  AttackCheckpoint cp;
  cp.world_seed = 42;
  cp.budget = 10.0;
  cp.spent = 2.0;
  cp.round = 3;
  cp.clock = 0.0;
  cp.node_states = {NodeState::kRejected};
  cp.attempts = {0};
  cp.has_benefit = true;
  cp.benefit = {0.0, 0.0, 0.0};
  cp.has_fault = true;
  cp.fault.sends = 3;
  cp.fault.tick = 2;
  cp.fault.counters = {3, 0, 0, 0, 0, 0};
  cp.strategy_name = kAsyncCheckpointStrategy;
  cp.has_async = true;
  cp.async.window = 4;
  cp.async.now = 2.75;
  cp.async.requests_sent = 3;
  cp.async.accepts = 1;
  cp.async.rng_state = "1 2 3 18446744073709551615";
  cp.async.in_flight = {{0, 1, 0, 0.5, 3.0}, {0, 2, 3, 0.1, 4.125}};
  cp.trace.batches.push_back(batch({0}, {1}, {}, {1.0, 0.0, 0.0}, 1.0, 2.0, 0.0));
  return cp;
}

std::string encode(const AttackCheckpoint& cp) {
  std::ostringstream out;
  write_checkpoint(out, cp);
  return out.str();
}

struct Golden {
  const char* name;
  AttackCheckpoint (*build)();
};

class CheckpointGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(CheckpointGolden, DocumentMatchesGoldenBytes) {
  const Golden& g = GetParam();
  const std::string want = util::read_file_bytes(golden_path(std::string(g.name) + ".ckpt"));
  EXPECT_EQ(encode(g.build()), want);
}

TEST_P(CheckpointGolden, FramedGenerationMatchesGoldenBytes) {
  const Golden& g = GetParam();
  const std::string doc = util::read_file_bytes(golden_path(std::string(g.name) + ".ckpt"));
  const std::string framed = util::read_file_bytes(golden_path(std::string(g.name) + ".gen"));
  std::string in_place = doc;
  const std::uint64_t fnv = frame_generation(in_place);
  EXPECT_EQ(in_place, framed);
  // The returned hash covers the footer too: it is the manifest's fnv.
  EXPECT_EQ(fnv, util::fnv1a64(framed.data(), framed.size()));
  EXPECT_EQ(unframe_generation(framed), doc);
}

TEST_P(CheckpointGolden, ReadThenWriteRoundTripsExactly) {
  const Golden& g = GetParam();
  const std::string doc = util::read_file_bytes(golden_path(std::string(g.name) + ".ckpt"));
  std::istringstream in(doc);
  EXPECT_EQ(encode(read_checkpoint(in)), doc);
}

TEST_P(CheckpointGolden, PublishedGenerationMatchesGoldenBytes) {
  const Golden& g = GetParam();
  const std::string dir = test::scratch_path(std::string("golden_") + g.name);
  std::filesystem::create_directories(dir);
  CheckpointChain chain(dir + "/c");
  const std::uint64_t gen = chain.write(g.build());
  EXPECT_EQ(util::read_file_bytes(chain.generation_path(gen)),
            util::read_file_bytes(golden_path(std::string(g.name) + ".gen")));
}

INSTANTIATE_TEST_SUITE_P(Format, CheckpointGolden,
                         ::testing::Values(Golden{"v1", golden_v1},
                                           Golden{"v2", golden_v2}),
                         [](const auto& p) { return std::string(p.param.name); });

TEST(CheckpointFormat, WriteSetsStreamPrecision) {
  std::ostringstream out;
  out.precision(3);
  write_checkpoint(out, golden_v2());
  EXPECT_EQ(out.precision(), 17);
}

/// The manifest a chain would write for its live generations, recomputed
/// from the files on disk.
std::string manifest_from_disk(const CheckpointChain& chain) {
  std::string text = "#recon-ckpt-manifest v1\n";
  const std::vector<std::uint64_t> gens = chain.list_generations();
  for (const std::uint64_t g : gens) {
    const std::string bytes = util::read_file_bytes(chain.generation_path(g));
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      util::fnv1a64(bytes.data(), bytes.size())));
    text += "gen " + std::to_string(g) + " fnv=" + hex +
            " bytes=" + std::to_string(bytes.size()) + "\n";
  }
  text += "end " + std::to_string(gens.size()) + "\n";
  return text;
}

TEST(CheckpointManifest, MatchesDiskAcrossTwoWriters) {
  const std::string dir = test::scratch_path("manifest_two_writers");
  std::filesystem::create_directories(dir);
  const std::string base = dir + "/c";
  // Generations of different sizes, so a hash or size taken from the wrong
  // generation cannot match by accident.
  AttackCheckpoint cps[5];
  for (int i = 0; i < 5; ++i) {
    cps[i] = i % 2 == 0 ? golden_v1() : golden_v2();
    cps[i].round = static_cast<std::uint64_t>(i) * 1000;
  }
  const auto size_of = [&](const CheckpointChain& c, std::uint64_t g) {
    return static_cast<std::uint64_t>(
        std::filesystem::file_size(c.generation_path(g)));
  };

  CheckpointChain first(base);
  EXPECT_EQ(first.write(cps[0]), 0u);
  EXPECT_EQ(first.write(cps[1]), 1u);
  EXPECT_EQ(util::read_file_bytes(first.manifest_path()), manifest_from_disk(first));
  // A single writer hashes what it publishes and never reads it back.
  EXPECT_EQ(first.manifest_readback_bytes(), 0u);

  // A second object on the same base (a restarted worker) publishes 2..4.
  // Only generations the other writer published are read back: 0 and 1
  // for gen 2, 1 for gen 3 (0 is pruned), none for gen 4.
  CheckpointChain second(base);
  const std::uint64_t gen0 = size_of(second, 0);
  const std::uint64_t gen1 = size_of(second, 1);
  EXPECT_EQ(second.write(cps[2]), 2u);
  EXPECT_EQ(util::read_file_bytes(second.manifest_path()), manifest_from_disk(second));
  EXPECT_EQ(second.manifest_readback_bytes(), gen0 + gen1);
  EXPECT_EQ(second.write(cps[3]), 3u);
  EXPECT_EQ(util::read_file_bytes(second.manifest_path()), manifest_from_disk(second));
  EXPECT_EQ(second.manifest_readback_bytes(), gen0 + 2 * gen1);
  EXPECT_EQ(second.write(cps[4]), 4u);
  EXPECT_EQ(util::read_file_bytes(second.manifest_path()), manifest_from_disk(second));
  EXPECT_EQ(second.manifest_readback_bytes(), gen0 + 2 * gen1);
  EXPECT_EQ(second.list_generations(), (std::vector<std::uint64_t>{2, 3, 4}));
  EXPECT_EQ(first.manifest_readback_bytes(), 0u);
}

TEST(CheckpointManifest, MatchesDiskAfterChainIsWipedAndRefilled) {
  const std::string dir = test::scratch_path("manifest_refilled");
  std::filesystem::create_directories(dir);
  const std::string base = dir + "/c";
  CheckpointChain first(base);
  EXPECT_EQ(first.write(golden_v1()), 0u);
  EXPECT_EQ(first.write(golden_v2()), 1u);
  EXPECT_EQ(first.write(golden_v1()), 2u);

  // The chain's files are removed and another writer starts it over, so
  // indices 0 and 1 now name files `first` did not write (sizes differ
  // from the ones it remembers).
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::filesystem::remove(entry.path());
  }
  CheckpointChain second(base);
  EXPECT_EQ(second.write(golden_v2()), 0u);
  EXPECT_EQ(second.write(golden_v1()), 1u);
  const auto size_of = [&](std::uint64_t g) {
    return static_cast<std::uint64_t>(
        std::filesystem::file_size(second.generation_path(g)));
  };
  const std::uint64_t refilled = size_of(0) + size_of(1);

  EXPECT_EQ(first.write(golden_v2()), 2u);
  EXPECT_EQ(util::read_file_bytes(first.manifest_path()), manifest_from_disk(first));
  EXPECT_EQ(first.manifest_readback_bytes(), refilled);
}

TEST(CheckpointManifest, MatchesDiskBesideThousandsOfUnrelatedFiles) {
  // One scan per publish yields both the next index and the live list; the
  // files beside the chain (another chain's generations, a serve state_dir's
  // traces) must change neither.
  const std::string dir = test::scratch_path("manifest_crowded");
  std::filesystem::create_directories(dir);
  for (int i = 0; i < 3000; ++i) {
    std::ofstream(dir + "/trace-" + std::to_string(i) + ".txt") << i << '\n';
  }
  CheckpointChain chain(dir + "/c");
  CheckpointChain neighbour(dir + "/cc");
  for (std::uint64_t i = 0; i < 6; ++i) {
    AttackCheckpoint cp = i % 2 == 0 ? golden_v1() : golden_v2();
    cp.round = i;
    EXPECT_EQ(chain.write(cp), i);
    EXPECT_EQ(util::read_file_bytes(chain.manifest_path()), manifest_from_disk(chain))
        << "after generation " << i;
    EXPECT_EQ(neighbour.write(cp), i);
    EXPECT_EQ(util::read_file_bytes(neighbour.manifest_path()),
              manifest_from_disk(neighbour))
        << "neighbour after generation " << i;
  }
  EXPECT_EQ(chain.list_generations(), (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(chain.manifest_readback_bytes(), 0u);
}

}  // namespace
}  // namespace recon::core
