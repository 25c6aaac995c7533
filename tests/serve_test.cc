// Campaign service tests: concurrent campaigns byte-identical to sequential
// runs at several pool sizes, pause/resume from autosnapshots, cancel,
// deterministic ids, mid-campaign trace readability, the per-problem Γ₀
// memo, and the line protocol.
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/attack.h"
#include "core/pm_arest.h"
#include "graph/generators.h"
#include "service/protocol.h"
#include "service/registry.h"
#include "sim/problem.h"
#include "sim/trace_io.h"
#include "sim/world.h"
#include "util/rng.h"
#include "test_scratch.h"

namespace recon::service {
namespace {

using sim::Problem;

Problem ba_problem(int seed, graph::NodeId n = 300) {
  sim::ProblemOptions opts;
  opts.num_targets = 30;
  opts.base_acceptance = 0.4;
  opts.seed = static_cast<std::uint64_t>(seed);
  return sim::make_problem(
      graph::assign_edge_probs(graph::barabasi_albert(n, 4, seed),
                               graph::EdgeProbModel::uniform(0.3, 0.95),
                               seed + 1),
      opts);
}

Problem er_problem(int seed, graph::NodeId n = 250) {
  sim::ProblemOptions opts;
  opts.num_targets = 25;
  opts.base_acceptance = 0.35;
  opts.seed = static_cast<std::uint64_t>(seed);
  return sim::make_problem(
      graph::assign_edge_probs(graph::erdos_renyi_gnm(n, 4 * n, seed),
                               graph::EdgeProbModel::uniform(0.3, 0.9),
                               seed + 1),
      opts);
}

/// mkdtemp-backed scratch dir, removed (one level deep) on destruction.
struct TempDir {
  TempDir() {
    std::string tmpl = recon::test::scratch_path("recon_serve_XXXXXX");
    const char* p = ::mkdtemp(tmpl.data());
    if (p == nullptr) throw std::runtime_error("mkdtemp failed");
    path = p;
  }
  ~TempDir() {
    if (DIR* d = ::opendir(path.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..") {
          std::remove((path + "/" + name).c_str());
        }
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  }
  std::string path;
};

/// The campaign a spec describes, run directly through core::run_attack —
/// the sequential `recon attack` ground truth the service must match.
sim::AttackTrace reference_run(const Problem& p, const CampaignSpec& spec) {
  core::PmArestOptions o;
  o.batch_size = spec.batch_size;
  o.allow_retries = spec.allow_retries;
  core::PmArest strategy(o);
  const sim::World world(p, util::derive_seed(spec.seed, 0));
  return core::run_attack(p, world, strategy, spec.budget);
}

/// Serialized trace with the one wall-clock field (sel=) zeroed: equal
/// strings mean byte-identical trace files.
std::string canonical(sim::AttackTrace t) {
  for (auto& b : t.batches) b.select_seconds = 0.0;
  std::ostringstream os;
  sim::write_traces(os, {std::move(t)});
  return os.str();
}

std::string canonical_file(const std::string& path) {
  auto traces = sim::read_traces_file(path);
  EXPECT_EQ(traces.size(), 1u) << path;
  return canonical(std::move(traces.front()));
}

TEST(CampaignService, ConcurrentCampaignsMatchSequentialAtEveryPoolSize) {
  const Problem ba = ba_problem(3);
  const Problem er = er_problem(5);
  for (const unsigned threads : {1u, 2u, 8u}) {
    TempDir dir;
    CampaignRegistry registry({dir.path, threads});
    registry.register_problem("ba", ba_problem(3));
    registry.register_problem("er", er_problem(5));

    std::vector<std::pair<std::string, CampaignSpec>> submitted;
    for (int i = 0; i < 8; ++i) {
      CampaignSpec spec;
      spec.problem = (i % 2 == 0) ? "ba" : "er";
      spec.batch_size = 3 + (i % 3);
      spec.budget = 24.0;
      spec.seed = static_cast<std::uint64_t>(100 + i);
      submitted.emplace_back(registry.submit(spec), spec);
    }
    for (const auto& [id, spec] : submitted) {
      const CampaignStatus st = registry.wait(id);
      ASSERT_EQ(st.state, CampaignState::kCompleted)
          << id << " at " << threads << " threads: " << st.error;
      const Problem& p = spec.problem == "ba" ? ba : er;
      EXPECT_EQ(canonical_file(st.trace_path), canonical(reference_run(p, spec)))
          << id << " diverged from the sequential run at " << threads
          << " threads";
      EXPECT_GT(st.rounds, 0u);
      EXPECT_DOUBLE_EQ(st.spent, spec.budget);
    }
  }
}

TEST(CampaignService, DeterministicIdsHashTheSpec) {
  TempDir dir;
  CampaignRegistry registry({dir.path, 2});
  registry.register_problem("ba", ba_problem(3));
  CampaignSpec spec;
  spec.problem = "ba";
  spec.budget = 6.0;
  const std::string a = registry.submit(spec);
  const std::string b = registry.submit(spec);
  // Same spec: same hash suffix, distinct submission sequence numbers.
  EXPECT_EQ(a.substr(a.find('-')), b.substr(b.find('-')));
  EXPECT_NE(a, b);
  CampaignSpec other = spec;
  other.seed += 1;
  const std::string c = registry.submit(other);
  EXPECT_NE(c.substr(c.find('-')), a.substr(a.find('-')));
  registry.wait(a);
  registry.wait(b);
  registry.wait(c);
}

TEST(CampaignService, PauseResumeFromAutosnapshotIsBitIdentical) {
  const Problem ba = ba_problem(7);
  TempDir dir;
  CampaignRegistry registry({dir.path, 2});
  registry.register_problem("ba", ba_problem(7));

  CampaignSpec spec;
  spec.problem = "ba";
  spec.batch_size = 3;
  spec.budget = 120.0;  // ~40 rounds: plenty of room to pause mid-flight
  spec.seed = 11;
  spec.checkpoint_every_rounds = 1;
  const std::string id = registry.submit(spec);

  // Poll until a couple of rounds have completed, then pause.
  for (int i = 0; i < 2000 && registry.status(id).rounds < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (registry.pause(id)) {
    const CampaignStatus paused = registry.status(id);
    ASSERT_EQ(paused.state, CampaignState::kPaused);
    // The streamed trace is readable mid-campaign (no `end` marker needed).
    const auto partial = sim::read_traces_file_recover(paused.trace_path);
    ASSERT_EQ(partial.size(), 1u);
    EXPECT_EQ(partial.front().batches.size(), paused.rounds);
    EXPECT_LT(paused.spent, spec.budget);

    ASSERT_TRUE(registry.resume(id));
    EXPECT_FALSE(registry.resume(id));  // not paused anymore
  }
  const CampaignStatus done = registry.wait(id);
  ASSERT_EQ(done.state, CampaignState::kCompleted) << done.error;
  EXPECT_EQ(canonical_file(done.trace_path), canonical(reference_run(ba, spec)))
      << "resumed campaign diverged from the uninterrupted run";
}

TEST(CampaignService, CancelStopsACampaignTerminally) {
  TempDir dir;
  CampaignRegistry registry({dir.path, 2});
  registry.register_problem("ba", ba_problem(9));
  CampaignSpec spec;
  spec.problem = "ba";
  spec.batch_size = 2;
  spec.budget = 200.0;
  const std::string id = registry.submit(spec);
  EXPECT_TRUE(registry.cancel(id));
  const CampaignStatus st = registry.wait(id);
  EXPECT_TRUE(is_terminal(st.state));
  EXPECT_FALSE(registry.cancel(id));  // already terminal
  EXPECT_FALSE(registry.pause(id));
  EXPECT_FALSE(registry.resume(id));
}

TEST(CampaignService, RejectsBadSpecsSynchronously) {
  TempDir dir;
  CampaignRegistry registry({dir.path, 2});
  registry.register_problem("ba", ba_problem(3));
  CampaignSpec spec;
  spec.problem = "nope";
  EXPECT_THROW(registry.submit(spec), std::invalid_argument);
  spec.problem = "ba";
  spec.strategy = "quantum";
  EXPECT_THROW(registry.submit(spec), std::invalid_argument);
  spec.strategy = "pm";
  spec.budget = -1.0;
  EXPECT_THROW(registry.submit(spec), std::invalid_argument);
  EXPECT_THROW(registry.status("c99-0"), std::invalid_argument);
}

TEST(CampaignService, ReplacingALiveProblemThrows) {
  TempDir dir;
  CampaignRegistry registry({dir.path, 2});
  registry.register_problem("ba", ba_problem(3));
  CampaignSpec spec;
  spec.problem = "ba";
  spec.budget = 150.0;
  const std::string id = registry.submit(spec);
  EXPECT_THROW(registry.register_problem("ba", ba_problem(4)),
               std::invalid_argument);
  registry.cancel(id);
  registry.wait(id);
  EXPECT_NO_THROW(registry.register_problem("ba", ba_problem(4)));
}

// register_problem scores the Γ₀ frontier once and every pm campaign on the
// problem seeds its first batch from that memo; none of that may show in a
// trace.
TEST(CampaignService, MemoSeededCampaignsMatchDirectRuns) {
  const Problem ba = ba_problem(13);
  TempDir dir;
  CampaignRegistry registry({dir.path, 2});
  registry.register_problem("ba", ba_problem(13));
  for (const bool retries : {false, true}) {
    for (const int k : {1, 4}) {
      CampaignSpec spec;
      spec.problem = "ba";
      spec.batch_size = k;
      spec.budget = 30.0;
      spec.seed = 21;
      spec.allow_retries = retries;
      const CampaignStatus st = registry.wait(registry.submit(spec));
      ASSERT_EQ(st.state, CampaignState::kCompleted) << st.error;
      EXPECT_EQ(canonical_file(st.trace_path), canonical(reference_run(ba, spec)))
          << "k=" << k << " retries=" << retries;
    }
  }
}

TEST(CampaignService, MemoSeededPauseResumeMatchesUninterruptedRun) {
  // A low acceptance rate makes the first rounds rejects-only, so a pause
  // there resumes onto a pristine observation, which takes the memo again.
  sim::ProblemOptions opts;
  opts.num_targets = 30;
  opts.base_acceptance = 0.03;
  opts.seed = 17;
  const Problem p = sim::make_problem(
      graph::assign_edge_probs(graph::barabasi_albert(300, 4, 17),
                               graph::EdgeProbModel::uniform(0.3, 0.95), 18),
      opts);
  TempDir dir;
  CampaignRegistry registry({dir.path, 2});
  registry.register_problem("low", Problem(p));
  CampaignSpec spec;
  spec.problem = "low";
  spec.batch_size = 2;
  spec.budget = 80.0;
  spec.seed = 5;
  spec.allow_retries = true;
  const sim::AttackTrace reference = reference_run(p, spec);
  ASSERT_GT(reference.batches.size(), 3u);
  for (std::size_t b = 0; b < 3; ++b) {
    for (const std::uint8_t a : reference.batches[b].accepted) ASSERT_EQ(a, 0) << b;
  }
  const std::string id = registry.submit(spec);
  for (int i = 0; i < 2000 && registry.status(id).rounds < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (registry.pause(id)) {
    ASSERT_TRUE(registry.resume(id));
  }
  const CampaignStatus done = registry.wait(id);
  ASSERT_EQ(done.state, CampaignState::kCompleted) << done.error;
  EXPECT_EQ(canonical_file(done.trace_path), canonical(reference));
}

TEST(CampaignService, ReregisteringAProblemReplacesItsMemo) {
  // Same name, same node count: the new problem reuses the resident slot,
  // so only a replaced memo keeps the first batch right.
  const Problem first = ba_problem(3);
  const Problem second = ba_problem(4);
  ASSERT_EQ(first.graph.num_nodes(), second.graph.num_nodes());
  TempDir dir;
  CampaignRegistry registry({dir.path, 2});
  CampaignSpec spec;
  spec.problem = "ba";
  spec.batch_size = 5;
  spec.budget = 20.0;
  spec.seed = 8;
  registry.register_problem("ba", Problem(first));
  const CampaignStatus a = registry.wait(registry.submit(spec));
  ASSERT_EQ(a.state, CampaignState::kCompleted) << a.error;
  EXPECT_EQ(canonical_file(a.trace_path), canonical(reference_run(first, spec)));
  registry.register_problem("ba", Problem(second));
  const CampaignStatus b = registry.wait(registry.submit(spec));
  ASSERT_EQ(b.state, CampaignState::kCompleted) << b.error;
  const std::string expected = canonical(reference_run(second, spec));
  EXPECT_NE(expected, canonical(reference_run(first, spec)));
  EXPECT_EQ(canonical_file(b.trace_path), expected);
}

TEST(CampaignProtocol, PmSubmitRefusesAPlanner) {
  // The runtime planner was removed: planner= is an unknown SUBMIT key for
  // every strategy, and a refused SUBMIT queues nothing.
  TempDir dir;
  CampaignRegistry registry({dir.path, 2});
  registry.register_problem("ba", ba_problem(3));
  bool shutdown = false;
  for (const char* strategy : {"pm", "mip", "fallback"}) {
    const std::string reply = handle_protocol_line(
        std::string("SUBMIT problem=ba strategy=") + strategy + " planner=off",
        registry, &shutdown);
    EXPECT_EQ(reply, "ERR unknown SUBMIT key 'planner'") << strategy;
  }
  EXPECT_EQ(handle_protocol_line("LIST", registry, &shutdown), "OK 0");
}

TEST(CampaignProtocol, SessionOverStreams) {
  TempDir dir;
  CampaignRegistry registry({dir.path, 2});
  registry.register_problem("ba", ba_problem(3));

  std::istringstream in(
      "PROBLEMS\n"
      "# a comment, ignored\n"
      "\n"
      "SUBMIT problem=ba k=4 budget=12 seed=9\n"
      "LIST\n"
      "BOGUS\n"
      "SUBMIT problem=nope\n"
      "SUBMIT k=broken\n"
      "STATUS c999-0\n"
      "SHUTDOWN\n");
  std::ostringstream out;
  run_protocol(in, out, registry);

  std::vector<std::string> lines;
  std::istringstream parsed(out.str());
  for (std::string l; std::getline(parsed, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), 8u) << out.str();
  EXPECT_EQ(lines[0], "OK 1 ba");
  EXPECT_EQ(lines[1].rfind("OK c0-", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("OK 1 c0-", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3], "ERR unknown command 'BOGUS'");
  EXPECT_EQ(lines[4], "ERR unknown problem 'nope'");
  EXPECT_EQ(lines[5].rfind("ERR bad value for k", 0), 0u) << lines[5];
  EXPECT_EQ(lines[6], "ERR unknown campaign 'c999-0'");
  EXPECT_EQ(lines[7], "OK bye");

  // WAIT through the one-line handler: the campaign settles to completed.
  const std::string id = lines[1].substr(3);
  bool shutdown = false;
  const std::string waited =
      handle_protocol_line("WAIT " + id, registry, &shutdown);
  EXPECT_FALSE(shutdown);
  EXPECT_EQ(waited.rfind("OK " + id + " state=completed", 0), 0u) << waited;
  const std::string paused =
      handle_protocol_line("PAUSE " + id, registry, &shutdown);
  EXPECT_EQ(paused.rfind("ERR", 0), 0u) << paused;  // not pausable anymore
}

}  // namespace
}  // namespace recon::service
