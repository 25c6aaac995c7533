// Chaos tests for the crash-resilience layer: crash-point coverage, atomic
// publish under injected kills, supervised recovery that is byte-identical
// to an uninterrupted run, restart bounds, and corrupted-generation
// quarantine. Kill-based tests fork a child, arm a crash point there, and
// assert the parent-visible state afterwards — the same torn state a power
// cut would leave, produced deterministically.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/async_attack.h"
#include "core/attack.h"
#include "core/checkpoint.h"
#include "core/checkpoint_chain.h"
#include "core/pm_arest.h"
#include "core/retry_policy.h"
#include "core/supervisor.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "sim/fault.h"
#include "sim/problem.h"
#include "sim/trace_io.h"
#include "util/crashpoint.h"
#include "util/fs.h"
#include "util/thread_pool.h"
#include "test_scratch.h"

namespace recon::core {
namespace {

using graph::NodeId;
using sim::Problem;

Problem test_problem(int seed) {
  sim::ProblemOptions opts;
  opts.num_targets = 20;
  opts.base_acceptance = 0.4;
  opts.seed = static_cast<std::uint64_t>(seed);
  graph::Graph g = graph::barabasi_albert(100, 4, seed);
  return sim::make_problem(
      graph::assign_edge_probs(std::move(g),
                               graph::EdgeProbModel::uniform(0.3, 0.95), seed + 1),
      opts);
}

/// mkdtemp-backed scratch directory, recursively (one level) removed on
/// destruction — chain files, quarantines, and tmp leftovers included.
struct TempDir {
  TempDir() {
    std::string tmpl = recon::test::scratch_path("recon_crash_XXXXXX");
    const char* p = ::mkdtemp(tmpl.data());
    if (p == nullptr) throw std::runtime_error("mkdtemp failed");
    path = p;
  }
  ~TempDir() {
    if (DIR* d = ::opendir(path.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..") std::remove((path + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  }
  std::string path;
};

/// select_seconds is the one wall-clock field in a trace; zero it so byte
/// comparison tests pure attack content.
sim::AttackTrace zeroed(sim::AttackTrace t) {
  for (auto& b : t.batches) b.select_seconds = 0.0;
  return t;
}

std::string trace_bytes(const sim::AttackTrace& t) {
  std::ostringstream out;
  sim::write_traces(out, {zeroed(t)});
  return out.str();
}

int wait_exit(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.is_open()) << path;
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Crash-point registry.
// ---------------------------------------------------------------------------

// Every registered site must actually execute during one pass over the
// durable writers it claims to instrument — a site in the table that never
// fires would make env-armed chaos sweeps of it vacuous.
TEST(CrashPoints, EveryRegisteredSiteFires) {
  namespace cp = util::crashpoint;
  cp::reset_counts();
  TempDir dir;
  const Problem p = test_problem(12);
  const sim::World w(p, 99);

  // Single-file checkpoint writes: ckpt.* and durable.*.
  const std::string ck = dir.path + "/ck";
  PmArest strategy(PmArestOptions{.batch_size = 5});
  AttackRunOptions ro;
  ro.checkpoint_path = ck;
  ro.checkpoint_every_rounds = 1;
  ro.stop_after_rounds = 2;
  run_attack(p, w, strategy, 30.0, ro);
  const AttackCheckpoint snapshot = read_checkpoint_file(ck);

  // Chain publishes: chain.* (three writes at max_generations=2 force a
  // prune, so chain.pruned fires too).
  CheckpointChain chain(dir.path + "/chain",
                        CheckpointChainOptions{.max_generations = 2});
  for (int i = 0; i < 3; ++i) chain.write(snapshot);

  // Trace and graph-binary publishes: trace.* and graph.*.
  sim::write_traces_file(dir.path + "/t.traces", {snapshot.trace});
  graph::write_graph_binary_file(dir.path + "/g.bin", p.graph);

  for (const std::string& site : cp::all_sites()) {
    EXPECT_GT(cp::hit_count(site), 0u) << "site never executed: " << site;
  }
}

TEST(CrashPoints, ArmRejectsUnknownSiteAndZeroCount) {
  namespace cp = util::crashpoint;
  EXPECT_THROW(cp::arm("no.such.site", 1), std::invalid_argument);
  EXPECT_THROW(cp::arm("ckpt.tmp-written", 0), std::invalid_argument);
  cp::disarm();
}

TEST(CrashPoints, ArmedSiteKillsAtNthExecution) {
  TempDir dir;
  const Problem p = test_problem(13);
  const sim::World w(p, 7);
  const std::string ck = dir.path + "/ck";
  PmArest strategy(PmArestOptions{.batch_size = 5});
  AttackRunOptions ro;
  ro.checkpoint_path = ck;
  ro.stop_after_rounds = 1;
  run_attack(p, w, strategy, 30.0, ro);
  const AttackCheckpoint snapshot = read_checkpoint_file(ck);

  CheckpointChain chain(dir.path + "/chain");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    util::crashpoint::arm("chain.gen-published", 2);
    try {
      chain.write(snapshot);  // survives: first execution
      chain.write(snapshot);  // dies mid-call, after publishing gen 1
    } catch (...) {
      ::_exit(9);
    }
    ::_exit(7);  // unreachable when the kill fires
  }
  EXPECT_EQ(wait_exit(pid), util::crashpoint::kExitCode);
  // Both generations were published (the kill is *after* the second rename),
  // and the chain recovers from the newest.
  const auto good = chain.load_last_good();
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->generation, 1u);
  EXPECT_EQ(good->quarantined, 0u);
}

// ---------------------------------------------------------------------------
// Atomic publish: a kill at any instrumented point leaves the destination
// either the old complete document or the new one — never torn.
// ---------------------------------------------------------------------------

TEST(AtomicPublish, CheckpointFileSurvivesKillAtEverySite) {
  TempDir dir;
  const Problem p = test_problem(14);
  const sim::World w(p, 5);
  const std::string staging = dir.path + "/stage";
  const auto checkpoint_after = [&](std::uint64_t rounds) {
    PmArest strategy(PmArestOptions{.batch_size = 5});
    AttackRunOptions ro;
    ro.checkpoint_path = staging;
    ro.stop_after_rounds = rounds;
    run_attack(p, w, strategy, 30.0, ro);
    return read_checkpoint_file(staging);
  };
  const AttackCheckpoint old_cp = checkpoint_after(1);
  const AttackCheckpoint new_cp = checkpoint_after(2);
  ASSERT_NE(old_cp.round, new_cp.round);

  const std::vector<std::string> sites = {
      "ckpt.tmp-open", "ckpt.tmp-torn", "ckpt.tmp-written",
      "durable.fsynced", "durable.renamed"};
  for (const std::string& site : sites) {
    const std::string path = dir.path + "/ck." + site;
    write_checkpoint_file(path, old_cp);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      util::crashpoint::arm(site, 1);
      try {
        write_checkpoint_file(path, new_cp);
      } catch (...) {
        ::_exit(9);
      }
      ::_exit(7);
    }
    EXPECT_EQ(wait_exit(pid), util::crashpoint::kExitCode) << site;
    const AttackCheckpoint got = read_checkpoint_file(path);  // must parse
    if (site == "durable.renamed") {
      EXPECT_EQ(got.round, new_cp.round) << site;  // kill lands after rename
    } else {
      EXPECT_EQ(got.round, old_cp.round) << site;
    }
  }
}

TEST(AtomicPublish, TraceAndGraphFilesSurviveTornWriteKills) {
  TempDir dir;
  const Problem p = test_problem(15);

  const std::string tr = dir.path + "/t.traces";
  sim::AttackTrace one;
  one.batches.emplace_back();
  one.batches.back().requests = {1};
  one.batches.back().accepted = {1};
  one.batches.back().cost = 1.0;
  one.batches.back().cumulative_cost = 1.0;
  sim::write_traces_file(tr, {one});
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    util::crashpoint::arm("trace.tmp-torn", 1);
    try {
      sim::write_traces_file(tr, {one, one});
    } catch (...) {
      ::_exit(9);
    }
    ::_exit(7);
  }
  EXPECT_EQ(wait_exit(pid), util::crashpoint::kExitCode);
  EXPECT_EQ(sim::read_traces_file(tr).size(), 1u);  // old document intact

  const std::string gb = dir.path + "/g.bin";
  graph::write_graph_binary_file(gb, p.graph);
  pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    util::crashpoint::arm("graph.tmp-torn", 1);
    try {
      graph::write_graph_binary_file(gb, p.graph);
    } catch (...) {
      ::_exit(9);
    }
    ::_exit(7);
  }
  EXPECT_EQ(wait_exit(pid), util::crashpoint::kExitCode);
  const graph::Graph mapped = graph::map_graph_binary_file(gb);
  EXPECT_EQ(mapped.num_nodes(), p.graph.num_nodes());
}

// ---------------------------------------------------------------------------
// Supervised chaos sweep: kill the worker at every chain / durable / trace
// site, let the supervisor restart it from the last good generation, and
// require the final trace to be byte-identical to an uninterrupted run.
// ---------------------------------------------------------------------------

struct SweepConfig {
  bool async = false;
  bool faulted = false;
  unsigned threads = 0;  ///< 0 = no thread pool
};

sim::FaultOptions sweep_fault() {
  sim::FaultOptions fo;
  fo.timeout_rate = 0.1;
  fo.drop_rate = 0.05;
  fo.throttle_rate = 0.05;
  fo.seed = 17;
  return fo;
}

RetryPolicy sweep_retry() {
  RetryPolicy retry;
  retry.backoff = RetryBackoff::kFixed;
  retry.base_delay = 2.0;
  return retry;
}

constexpr double kSweepBudget = 30.0;
constexpr std::uint64_t kSweepWorldSeed = 424242;

sim::AttackTrace reference_trace(const Problem& p, const SweepConfig& cfg) {
  const sim::World w(p, kSweepWorldSeed);
  const RetryPolicy retry = sweep_retry();
  if (cfg.async) {
    AsyncAttackOptions ao;
    ao.window = 4;
    std::unique_ptr<sim::FaultModel> fm;
    if (cfg.faulted) {
      fm = std::make_unique<sim::FaultModel>(sweep_fault());
      ao.fault = fm.get();
      ao.allow_retries = true;
      ao.retry = &retry;
    }
    return run_async_attack(p, w, ao, kSweepBudget).trace;
  }
  // The reference is deliberately pool-free: parallel and sequential
  // selection are bit-identical, so one reference serves every thread count.
  PmArestOptions po{.batch_size = 5};
  po.allow_retries = cfg.faulted;
  PmArest strategy(po);
  AttackRunOptions ro;
  std::unique_ptr<sim::FaultModel> fm;
  if (cfg.faulted) {
    fm = std::make_unique<sim::FaultModel>(sweep_fault());
    ro.fault = fm.get();
    ro.retry = &retry;
  }
  return run_attack(p, w, strategy, kSweepBudget, ro);
}

/// One supervised run with `site`:`nth` armed in the first worker attempt.
/// Returns the supervisor result; `out_path` receives the worker's final
/// trace (select_seconds zeroed in the worker so files byte-compare).
SuperviseResult run_supervised_case(const Problem& p, const SweepConfig& cfg,
                                    CheckpointChain& chain,
                                    const std::string& out_path,
                                    const std::string& site, std::uint64_t nth) {
  const SupervisedWorker worker = [&](const AttackCheckpoint* resume,
                                      int /*attempt*/) -> int {
    const sim::World w(p, kSweepWorldSeed);
    const RetryPolicy retry = sweep_retry();
    sim::AttackTrace trace;
    if (cfg.async) {
      AsyncAttackOptions ao;
      ao.window = 4;
      ao.checkpoint_chain = &chain;
      ao.checkpoint_every_events = 1;
      ao.resume = resume;
      std::unique_ptr<sim::FaultModel> fm;
      if (cfg.faulted) {
        fm = std::make_unique<sim::FaultModel>(sweep_fault());
        ao.fault = fm.get();
        ao.allow_retries = true;
        ao.retry = &retry;
      }
      trace = run_async_attack(p, w, ao, kSweepBudget).trace;
    } else {
      // The pool (when any) lives strictly inside the forked worker: the
      // supervisor parent must stay single-threaded across fork().
      std::unique_ptr<util::ThreadPool> pool;
      PmArestOptions po{.batch_size = 5};
      po.allow_retries = cfg.faulted;
      if (cfg.threads > 0) {
        pool = std::make_unique<util::ThreadPool>(cfg.threads);
        po.pool = pool.get();
      }
      PmArest strategy(po);
      AttackRunOptions ro;
      ro.checkpoint_chain = &chain;
      ro.checkpoint_every_rounds = 1;
      ro.resume = resume;
      std::unique_ptr<sim::FaultModel> fm;
      if (cfg.faulted) {
        fm = std::make_unique<sim::FaultModel>(sweep_fault());
        ro.fault = fm.get();
        ro.retry = &retry;
      }
      trace = run_attack(p, w, strategy, kSweepBudget, ro);
    }
    sim::write_traces_file(out_path, {zeroed(trace)});
    return 0;
  };

  SuperviseOptions so;
  so.max_restarts = 3;
  so.backoff_base_seconds = 0.001;
  so.backoff_max_seconds = 0.002;
  util::crashpoint::arm(site, nth);
  const SuperviseResult result = run_supervised(chain, so, worker);
  // The armed state is inherited by forked workers but lives in this (the
  // parent/test) process too — disarm before the next in-process write.
  util::crashpoint::disarm();
  return result;
}

void run_sweep(const SweepConfig& cfg) {
  const Problem p = test_problem(11);
  const std::string ref = trace_bytes(reference_trace(p, cfg));

  struct Case {
    const char* site;
    std::uint64_t nth;
  };
  const std::vector<Case> cases = {
      {"chain.tmp-open", 1},   {"chain.tmp-torn", 1},
      {"chain.tmp-written", 1}, {"chain.gen-published", 1},
      {"chain.manifest-written", 1}, {"chain.pruned", 1},
      {"durable.fsynced", 1},  {"durable.renamed", 1},
      {"trace.tmp-torn", 1},   {"trace.tmp-written", 1},
      {"chain.tmp-written", 3}, {"chain.gen-published", 3},
      {"durable.renamed", 3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.site) + ":" + std::to_string(c.nth));
    TempDir dir;
    CheckpointChain chain(dir.path + "/chain");
    const std::string out = dir.path + "/out.traces";
    const SuperviseResult r =
        run_supervised_case(p, cfg, chain, out, c.site, c.nth);
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_FALSE(r.crash_loop);
    // Every swept site executes at least once per run, so nth=1 always
    // kills attempt 0 — the recovery path genuinely ran.
    if (c.nth == 1) {
      EXPECT_EQ(r.restarts, 1);
    }
    EXPECT_EQ(util::read_file_bytes(out), ref);
  }
}

TEST(SupervisedChaos, SyncSweepByteIdentical) { run_sweep({}); }

TEST(SupervisedChaos, AsyncSweepByteIdentical) { run_sweep({.async = true}); }

TEST(SupervisedChaos, FaultedRetriedSweepByteIdentical) {
  run_sweep({.faulted = true});
}

TEST(SupervisedChaos, TwoThreadSweepByteIdentical) { run_sweep({.threads = 2}); }

TEST(SupervisedChaos, EightThreadSweepByteIdentical) {
  run_sweep({.threads = 8});
}

// ---------------------------------------------------------------------------
// Supervisor restart bounds and stop semantics.
// ---------------------------------------------------------------------------

AttackCheckpoint synthetic_checkpoint(std::uint64_t round) {
  AttackCheckpoint cp;
  cp.round = round;
  cp.strategy_name = "synthetic";
  return cp;
}

TEST(Supervisor, RestartBudgetExhaustedHaltsNonzero) {
  TempDir dir;
  CheckpointChain chain(dir.path + "/chain");
  SuperviseOptions so;
  so.max_restarts = 2;
  so.backoff_base_seconds = 0.001;
  so.backoff_max_seconds = 0.002;
  // Progresses every attempt (so crash-loop detection never trips), but
  // always crashes: only the restart budget can end this.
  const SuperviseResult r = run_supervised(
      chain, so, [&](const AttackCheckpoint*, int attempt) -> int {
        chain.write(synthetic_checkpoint(static_cast<std::uint64_t>(attempt) + 1));
        return 42;
      });
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.restart_budget_exhausted);
  EXPECT_FALSE(r.crash_loop);
  EXPECT_EQ(r.restarts, so.max_restarts + 1);
  // Every attempt wrote its generation before crashing, so the chain records
  // exactly max_restarts + 1 launches (workers run in forked children — the
  // chain, not parent-side counters, is the witness).
  const auto good = chain.load_last_good();
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->checkpoint.round,
            static_cast<std::uint64_t>(so.max_restarts) + 1);
}

TEST(Supervisor, CrashLoopWithoutProgressDetected) {
  TempDir dir;
  CheckpointChain chain(dir.path + "/chain");
  SuperviseOptions so;
  so.max_restarts = 10;
  so.crash_loop_threshold = 3;
  so.backoff_base_seconds = 0.001;
  so.backoff_max_seconds = 0.002;
  // Crashes without ever writing a checkpoint: the loop detector must give
  // up long before the restart budget.
  const SuperviseResult r = run_supervised(
      chain, so, [](const AttackCheckpoint*, int) -> int { return 42; });
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.crash_loop);
  EXPECT_FALSE(r.restart_budget_exhausted);
  EXPECT_EQ(r.restarts, so.crash_loop_threshold);
}

TEST(Supervisor, GracefulStopExitPassesThroughWithoutRestart) {
  TempDir dir;
  CheckpointChain chain(dir.path + "/chain");
  const SuperviseResult r = run_supervised(
      chain, SuperviseOptions{},
      [](const AttackCheckpoint*, int) -> int { return kWorkerStopExit; });
  EXPECT_EQ(r.exit_code, kWorkerStopExit);
  EXPECT_EQ(r.restarts, 0);
}

TEST(Supervisor, ResumesFromNewestGoodGeneration) {
  TempDir dir;
  CheckpointChain chain(dir.path + "/chain");
  chain.write(synthetic_checkpoint(3));
  chain.write(synthetic_checkpoint(7));
  const SuperviseResult r = run_supervised(
      chain, SuperviseOptions{},
      [&](const AttackCheckpoint* resume, int) -> int {
        // The worker runs in a fork; report the observation via exit code.
        return resume != nullptr && resume->round == 7 ? 0 : 33;
      });
  EXPECT_EQ(r.exit_code, 0);
}

// ---------------------------------------------------------------------------
// Cooperative stop: a should_stop runner writes a final forced snapshot,
// and resuming from it completes the attack byte-identically.
// ---------------------------------------------------------------------------

TEST(CooperativeStop, ForcedSnapshotResumesByteIdentical) {
  TempDir dir;
  const Problem p = test_problem(16);
  const sim::World w(p, kSweepWorldSeed);
  PmArest full_strategy(PmArestOptions{.batch_size = 5});
  const sim::AttackTrace full = run_attack(p, w, full_strategy, kSweepBudget);

  CheckpointChain chain(dir.path + "/chain");
  int polls = 0;
  PmArest first_half(PmArestOptions{.batch_size = 5});
  AttackRunOptions stop_opts;
  stop_opts.checkpoint_chain = &chain;
  stop_opts.checkpoint_every_rounds = 0;  // only the forced stop snapshot
  stop_opts.should_stop = [&]() { return ++polls > 3; };
  const sim::AttackTrace partial =
      run_attack(p, w, first_half, kSweepBudget, stop_opts);
  ASSERT_LT(partial.batches.size(), full.batches.size());

  const auto good = chain.load_last_good();
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->checkpoint.round, partial.batches.size());

  PmArest second_half(PmArestOptions{.batch_size = 5});
  AttackRunOptions resume_opts;
  resume_opts.resume = &good->checkpoint;
  const sim::AttackTrace resumed =
      run_attack(p, w, second_half, kSweepBudget, resume_opts);
  EXPECT_EQ(trace_bytes(resumed), trace_bytes(full));
}

// ---------------------------------------------------------------------------
// Corrupted-generation fuzz: bit flips and truncations of a generation must
// quarantine it (never silently delete) and fall back deterministically.
// ---------------------------------------------------------------------------

class ChainFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    const Problem p = test_problem(17);
    const sim::World w(p, 77);
    chain_base_ = dir_.path + "/chain";
    CheckpointChain chain(chain_base_);
    PmArest strategy(PmArestOptions{.batch_size = 5});
    AttackRunOptions ro;
    ro.checkpoint_chain = &chain;
    ro.checkpoint_every_rounds = 1;
    run_attack(p, w, strategy, kSweepBudget, ro);
    gens_ = chain.list_generations();
    ASSERT_GE(gens_.size(), 3u);
    for (const std::uint64_t g : gens_) {
      pristine_[g] = util::read_file_bytes(chain.generation_path(g));
    }
  }

  /// Restores every generation file and removes quarantine leftovers, so
  /// each corruption case starts from the identical pristine directory.
  void restore_pristine() {
    CheckpointChain chain(chain_base_);
    for (const auto& [g, bytes] : pristine_) {
      const std::string path = chain.generation_path(g);
      std::remove((path + ".quarantine").c_str());
      write_raw(path, bytes);
    }
  }

  std::uint64_t newest() const { return gens_.back(); }
  std::uint64_t second_newest() const { return gens_[gens_.size() - 2]; }

  TempDir dir_;
  std::string chain_base_;
  std::vector<std::uint64_t> gens_;
  std::map<std::uint64_t, std::string> pristine_;
};

TEST_F(ChainFuzz, BitFlipsQuarantineNewestAndFallBack) {
  const std::string& bytes = pristine_[newest()];
  for (const std::size_t offset :
       {std::size_t{0}, bytes.size() / 3, bytes.size() - 2}) {
    SCOPED_TRACE("flip at " + std::to_string(offset));
    restore_pristine();
    CheckpointChain chain(chain_base_);
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x20);
    write_raw(chain.generation_path(newest()), corrupt);

    const auto good = chain.load_last_good();
    ASSERT_TRUE(good.has_value());
    EXPECT_EQ(good->generation, second_newest());
    EXPECT_EQ(good->quarantined, 1u);
    EXPECT_FALSE(util::path_exists(chain.generation_path(newest())));
    EXPECT_TRUE(
        util::path_exists(chain.generation_path(newest()) + ".quarantine"));
    // Deterministic: a second recovery pass (fresh chain object, quarantine
    // already in place) lands on the same generation without re-quarantining.
    CheckpointChain again(chain_base_);
    const auto second = again.load_last_good();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->generation, second_newest());
    EXPECT_EQ(second->quarantined, 0u);
  }
}

TEST_F(ChainFuzz, TruncationsQuarantineNewestAndFallBack) {
  const std::string& bytes = pristine_[newest()];
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
    SCOPED_TRACE("truncate to " + std::to_string(keep));
    restore_pristine();
    CheckpointChain chain(chain_base_);
    write_raw(chain.generation_path(newest()), bytes.substr(0, keep));

    const auto good = chain.load_last_good();
    ASSERT_TRUE(good.has_value());
    EXPECT_EQ(good->generation, second_newest());
    EXPECT_EQ(good->quarantined, 1u);
    EXPECT_TRUE(
        util::path_exists(chain.generation_path(newest()) + ".quarantine"));
  }
}

TEST_F(ChainFuzz, AllGenerationsCorruptMeansFreshStart) {
  restore_pristine();
  CheckpointChain chain(chain_base_);
  for (const std::uint64_t g : gens_) {
    std::string corrupt = pristine_[g];
    corrupt[corrupt.size() / 2] = static_cast<char>(corrupt[corrupt.size() / 2] ^ 0xFF);
    write_raw(chain.generation_path(g), corrupt);
  }
  EXPECT_FALSE(chain.load_last_good().has_value());
  EXPECT_TRUE(chain.list_generations().empty());
  for (const std::uint64_t g : gens_) {
    EXPECT_TRUE(util::path_exists(chain.generation_path(g) + ".quarantine"));
  }
  // New writes must not reuse quarantined indices: the same index holding
  // two different documents would make "which gen-N was that?" ambiguous.
  const std::uint64_t fresh = chain.write(synthetic_checkpoint(1));
  EXPECT_GT(fresh, newest());
}

// ---------------------------------------------------------------------------
// Torn-trace recovery (read_traces_recover).
// ---------------------------------------------------------------------------

std::string two_batch_trace_doc() {
  sim::AttackTrace t;
  for (int i = 0; i < 2; ++i) {
    sim::BatchRecord b;
    b.requests = {static_cast<NodeId>(10 + i), static_cast<NodeId>(20 + i)};
    b.accepted = {1, 0};
    b.delta.friends = 1.0;
    b.cost = 2.0;
    b.cumulative_cost = 2.0 * (i + 1);
    t.batches.push_back(std::move(b));
  }
  std::ostringstream out;
  sim::write_traces(out, {t});
  return out.str();
}

TEST(TraceRecovery, TornTailDroppedOnlyInRecoverMode) {
  const std::string doc = two_batch_trace_doc();
  // Cut mid-way through the final batch line — the torn append a crash
  // leaves behind.
  const std::size_t last_line = doc.rfind("batch ");
  const std::string torn = doc.substr(0, last_line + 10);

  std::istringstream strict(torn);
  EXPECT_THROW(sim::read_traces(strict), std::runtime_error);

  std::istringstream lenient(torn);
  const auto traces = sim::read_traces_recover(lenient);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].batches.size(), 1u);  // torn record dropped
  EXPECT_EQ(traces[0].batches[0].requests, (std::vector<NodeId>{10, 20}));
}

TEST(TraceRecovery, MissingEndMarkerToleratedOnlyInRecoverMode) {
  const std::string doc = two_batch_trace_doc();
  const std::string no_end = doc.substr(0, doc.rfind("end "));

  std::istringstream strict(no_end);
  EXPECT_THROW(sim::read_traces(strict), std::runtime_error);

  std::istringstream lenient(no_end);
  const auto traces = sim::read_traces_recover(lenient);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].batches.size(), 2u);  // both records were complete
}

TEST(TraceRecovery, MidFileCorruptionStillThrowsInRecoverMode) {
  const std::string doc = two_batch_trace_doc();
  // Corrupt the *first* batch line: not a torn tail, so recovery must not
  // paper over it.
  std::string corrupt = doc;
  const std::size_t first = corrupt.find("sel=");
  corrupt.replace(first, 4, "sXl=");
  std::istringstream in(corrupt);
  EXPECT_THROW(sim::read_traces_recover(in), std::runtime_error);

  // An end-count mismatch means lost traces, not a torn record.
  std::string bad_count = doc;
  bad_count.replace(bad_count.rfind("end 1"), 5, "end 5");
  std::istringstream in2(bad_count);
  EXPECT_THROW(sim::read_traces_recover(in2), std::runtime_error);
}

TEST(TraceRecovery, FileVariantRecoversTornTail) {
  TempDir dir;
  const std::string path = dir.path + "/torn.traces";
  const std::string doc = two_batch_trace_doc();
  write_raw(path, doc.substr(0, doc.rfind("batch ") + 12));
  EXPECT_THROW(sim::read_traces_file(path), std::runtime_error);
  const auto traces = sim::read_traces_file_recover(path);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].batches.size(), 1u);
}

}  // namespace
}  // namespace recon::core
