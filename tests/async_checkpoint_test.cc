// Checkpoint/resume tests for the rolling-window (async) runner: v2 record
// round trips, bit-identical resumption at arbitrary event indices (with
// outstanding requests and mid-suspension), and cross-runner rejection.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/async_attack.h"
#include "core/attack.h"
#include "core/checkpoint.h"
#include "core/pm_arest.h"
#include "core/retry_policy.h"
#include "graph/generators.h"
#include "sim/fault.h"
#include "sim/problem.h"
#include "test_scratch.h"

namespace recon::core {
namespace {

using graph::NodeId;
using sim::Problem;

enum class GraphKind { kBarabasiAlbert, kErdosRenyi };

Problem test_problem(int seed, GraphKind kind = GraphKind::kBarabasiAlbert,
                     NodeId n = 100) {
  sim::ProblemOptions opts;
  opts.num_targets = 20;
  opts.base_acceptance = 0.4;
  opts.seed = static_cast<std::uint64_t>(seed);
  graph::Graph g = kind == GraphKind::kBarabasiAlbert
                       ? graph::barabasi_albert(n, 4, seed)
                       : graph::erdos_renyi_gnm(n, 4 * n, seed);
  return sim::make_problem(
      graph::assign_edge_probs(std::move(g),
                               graph::EdgeProbModel::uniform(0.3, 0.95), seed + 1),
      opts);
}

/// Trace equality with exact double comparison (select_seconds excluded:
/// it is wall clock and the async runner leaves it zero anyway).
void expect_traces_equal(const sim::AttackTrace& a, const sim::AttackTrace& b) {
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].requests, b.batches[i].requests) << "batch " << i;
    EXPECT_EQ(a.batches[i].accepted, b.batches[i].accepted) << "batch " << i;
    EXPECT_EQ(a.batches[i].outcome, b.batches[i].outcome) << "batch " << i;
    EXPECT_DOUBLE_EQ(a.batches[i].cost, b.batches[i].cost) << "batch " << i;
    EXPECT_DOUBLE_EQ(a.batches[i].cumulative_cost, b.batches[i].cumulative_cost)
        << "batch " << i;
    EXPECT_DOUBLE_EQ(a.batches[i].delta.total(), b.batches[i].delta.total());
    EXPECT_DOUBLE_EQ(a.batches[i].cumulative.total(),
                     b.batches[i].cumulative.total());
  }
}

struct TempFile {
  explicit TempFile(const std::string& name) : path(recon::test::scratch_path(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

sim::FaultOptions flaky_fault() {
  sim::FaultOptions fo;
  fo.timeout_rate = 0.15;
  fo.drop_rate = 0.1;
  fo.throttle_rate = 0.1;
  fo.seed = 99;
  return fo;
}

RetryPolicy fixed_retry() {
  RetryPolicy retry;
  retry.backoff = RetryBackoff::kFixed;
  retry.base_delay = 2.0;
  return retry;
}

TEST(AsyncCheckpoint, V2RoundTripPreservesEverything) {
  const Problem p = test_problem(1);
  const sim::World w(p, 77);
  const RetryPolicy retry = fixed_retry();
  sim::FaultModel fault(flaky_fault());
  TempFile f("recon_async_ckpt_roundtrip.ckpt");
  AsyncAttackOptions opts;
  opts.window = 5;
  opts.allow_retries = true;
  opts.fault = &fault;
  opts.retry = &retry;
  opts.stop_after_events = 8;
  opts.checkpoint_path = f.path;
  const auto res = run_async_attack(p, w, opts, 40.0);
  ASSERT_EQ(res.trace.batches.size(), 8u);

  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  EXPECT_TRUE(cp.has_async);
  EXPECT_EQ(cp.strategy_name, kAsyncCheckpointStrategy);
  EXPECT_EQ(cp.world_seed, 77u);
  EXPECT_DOUBLE_EQ(cp.budget, 40.0);
  EXPECT_EQ(cp.round, 8u);
  EXPECT_TRUE(cp.has_fault);
  EXPECT_EQ(cp.async.window, 5);
  EXPECT_DOUBLE_EQ(cp.async.now, res.makespan_seconds);
  EXPECT_FALSE(cp.async.rng_state.empty());
  EXPECT_LE(cp.async.in_flight.size(), 5u);
  EXPECT_EQ(cp.trace.batches.size(), 8u);

  // Serialize the parsed checkpoint again: the round trip must be lossless.
  std::ostringstream out;
  write_checkpoint(out, cp);
  EXPECT_EQ(out.str().rfind("#recon-checkpoint v2", 0), 0u);
  std::istringstream in(out.str());
  const AttackCheckpoint cp2 = read_checkpoint(in);
  EXPECT_EQ(cp2.node_states, cp.node_states);
  EXPECT_EQ(cp2.edge_states, cp.edge_states);
  EXPECT_EQ(cp2.attempts, cp.attempts);
  EXPECT_EQ(cp2.friends, cp.friends);
  EXPECT_EQ(cp2.retry_after, cp.retry_after);
  EXPECT_EQ(cp2.fault.sends, cp.fault.sends);
  EXPECT_EQ(cp2.fault.window, cp.fault.window);
  EXPECT_TRUE(cp2.has_async);
  EXPECT_EQ(cp2.async.window, cp.async.window);
  EXPECT_DOUBLE_EQ(cp2.async.now, cp.async.now);
  EXPECT_EQ(cp2.async.requests_sent, cp.async.requests_sent);
  EXPECT_EQ(cp2.async.accepts, cp.async.accepts);
  EXPECT_EQ(cp2.async.rng_state, cp.async.rng_state);
  EXPECT_EQ(cp2.async.in_flight, cp.async.in_flight);
  expect_traces_equal(cp2.trace, cp.trace);
}

/// Kills a fault+retry run at several event indices and resumes each one;
/// the resumed result must match the uninterrupted run bit-for-bit (trace,
/// makespan, tallies) — including kill points with outstanding requests.
void check_resume_bit_identical(GraphKind kind, int window) {
  const Problem p = test_problem(kind == GraphKind::kBarabasiAlbert ? 2 : 3, kind);
  const RetryPolicy retry = fixed_retry();
  const sim::FaultOptions fo = flaky_fault();
  AsyncAttackOptions base;
  base.window = window;
  base.allow_retries = true;
  base.retry = &retry;
  base.seed = 0xD1CE;
  const double budget = 35.0;

  const sim::World w(p, 1234);
  sim::FaultModel fault_full(fo);
  AsyncAttackOptions full_opts = base;
  full_opts.fault = &fault_full;
  const auto full = run_async_attack(p, w, full_opts, budget);
  ASSERT_GT(full.trace.batches.size(), 6u);

  bool saw_outstanding = false;
  TempFile f("recon_async_ckpt_resume.ckpt");
  for (std::uint64_t k : {std::uint64_t{1}, std::uint64_t{3}, std::uint64_t{6},
                          full.trace.batches.size() - 2}) {
    sim::FaultModel fault_partial(fo);
    AsyncAttackOptions partial = base;
    partial.fault = &fault_partial;
    partial.stop_after_events = k;
    partial.checkpoint_path = f.path;
    run_async_attack(p, w, partial, budget);

    const AttackCheckpoint cp = read_checkpoint_file(f.path);
    EXPECT_EQ(cp.round, k);
    saw_outstanding = saw_outstanding || !cp.async.in_flight.empty();

    const sim::World resumed_world(p, cp.world_seed);
    sim::FaultModel fault_resume(fo);
    AsyncAttackOptions resume = base;
    resume.fault = &fault_resume;
    resume.resume = &cp;
    const auto resumed = run_async_attack(p, resumed_world, resume, budget);
    expect_traces_equal(resumed.trace, full.trace);
    EXPECT_DOUBLE_EQ(resumed.makespan_seconds, full.makespan_seconds)
        << "W=" << window << " k=" << k;
    EXPECT_EQ(resumed.requests_sent, full.requests_sent);
    EXPECT_EQ(resumed.accepts, full.accepts);
  }
  // For W > 1 the sweep must have exercised a checkpoint with a non-empty
  // window, or the in-flight serialization went untested. (W = 1 snapshots
  // always land between a resolution and the next send, so nothing is ever
  // outstanding there.)
  if (window > 1) {
    EXPECT_TRUE(saw_outstanding) << "W=" << window;
  }
}

TEST(AsyncCheckpoint, ResumeBitIdenticalWindowOneBA) {
  check_resume_bit_identical(GraphKind::kBarabasiAlbert, 1);
}

TEST(AsyncCheckpoint, ResumeBitIdenticalWindowFiveBA) {
  check_resume_bit_identical(GraphKind::kBarabasiAlbert, 5);
}

TEST(AsyncCheckpoint, ResumeBitIdenticalWindowOneER) {
  check_resume_bit_identical(GraphKind::kErdosRenyi, 1);
}

TEST(AsyncCheckpoint, ResumeBitIdenticalWindowFiveER) {
  check_resume_bit_identical(GraphKind::kErdosRenyi, 5);
}

TEST(AsyncCheckpoint, ResumeMidSuspensionWithEmptyWindow) {
  // A rate-limit-heavy fault model: the window drains while the account is
  // suspended, so some checkpoint catches the loop mid-lockout with nothing
  // outstanding. Resuming from it must replay the same lockout arithmetic.
  const Problem p = test_problem(4);
  sim::FaultOptions fo;
  fo.suspension.max_requests = 4;
  fo.suspension.window_ticks = 6;
  fo.suspension.lockout_ticks = 10;
  fo.seed = 7;
  AsyncAttackOptions base;
  base.window = 5;
  base.seed = 0xBEEF;
  const double budget = 30.0;

  const sim::World w(p, 555);
  sim::FaultModel fault_full(fo);
  AsyncAttackOptions full_opts = base;
  full_opts.fault = &fault_full;
  const auto full = run_async_attack(p, w, full_opts, budget);

  TempFile f("recon_async_ckpt_suspended.ckpt");
  bool found_suspended_empty = false;
  for (std::uint64_t k = 1; k < full.trace.batches.size(); ++k) {
    sim::FaultModel fault_partial(fo);
    AsyncAttackOptions partial = base;
    partial.fault = &fault_partial;
    partial.stop_after_events = k;
    partial.checkpoint_path = f.path;
    run_async_attack(p, w, partial, budget);

    const AttackCheckpoint cp = read_checkpoint_file(f.path);
    const bool suspended_empty = cp.has_fault &&
                                 cp.fault.tick < cp.fault.suspended_until &&
                                 cp.async.in_flight.empty();
    found_suspended_empty = found_suspended_empty || suspended_empty;
    if (!suspended_empty) continue;

    const sim::World resumed_world(p, cp.world_seed);
    sim::FaultModel fault_resume(fo);
    AsyncAttackOptions resume = base;
    resume.fault = &fault_resume;
    resume.resume = &cp;
    const auto resumed = run_async_attack(p, resumed_world, resume, budget);
    expect_traces_equal(resumed.trace, full.trace);
    EXPECT_DOUBLE_EQ(resumed.makespan_seconds, full.makespan_seconds);
    EXPECT_EQ(resumed.requests_sent, full.requests_sent);
  }
  // The fault parameters above must actually produce the scenario under test.
  EXPECT_TRUE(found_suspended_empty);
}

TEST(AsyncCheckpoint, PeriodicCheckpointsMatchForcedOnes) {
  const Problem p = test_problem(5);
  const sim::World w(p, 31);
  TempFile periodic("recon_async_ckpt_periodic.ckpt");
  AsyncAttackOptions opts;
  opts.window = 4;
  opts.checkpoint_path = periodic.path;
  opts.checkpoint_every_events = 5;
  opts.stop_after_events = 15;
  run_async_attack(p, w, opts, 25.0);
  // 15 is a multiple of 5, so the last periodic write is also the forced one.
  const AttackCheckpoint cp = read_checkpoint_file(periodic.path);
  EXPECT_EQ(cp.round, 15u);
  EXPECT_TRUE(cp.has_async);
}

TEST(AsyncCheckpoint, SyncCheckpointsStayV1) {
  const Problem p = test_problem(6);
  const sim::World w(p, 9);
  PmArest strategy(PmArestOptions{.batch_size = 5});
  TempFile f("recon_async_ckpt_sync_v1.ckpt");
  AttackRunOptions ro;
  ro.stop_after_rounds = 3;
  ro.checkpoint_path = f.path;
  run_attack(p, w, strategy, 30.0, ro);
  std::ifstream in(f.path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, "#recon-checkpoint v1");
  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  EXPECT_FALSE(cp.has_async);
  EXPECT_EQ(cp.round, 3u);
}

TEST(AsyncCheckpoint, CrossRunnerResumeRejected) {
  const Problem p = test_problem(7);
  const sim::World w(p, 13);
  const double budget = 25.0;

  // Async checkpoint -> synchronous runner must refuse.
  TempFile async_f("recon_async_ckpt_cross_a.ckpt");
  AsyncAttackOptions ao;
  ao.window = 3;
  ao.stop_after_events = 4;
  ao.checkpoint_path = async_f.path;
  run_async_attack(p, w, ao, budget);
  const AttackCheckpoint async_cp = read_checkpoint_file(async_f.path);
  PmArest strategy(PmArestOptions{.batch_size = 5});
  AttackRunOptions ro;
  ro.resume = &async_cp;
  EXPECT_THROW(run_attack(p, w, strategy, budget, ro), std::runtime_error);

  // Sync checkpoint -> rolling-window runner must refuse.
  TempFile sync_f("recon_async_ckpt_cross_s.ckpt");
  AttackRunOptions stop;
  stop.stop_after_rounds = 2;
  stop.checkpoint_path = sync_f.path;
  PmArest first_half(PmArestOptions{.batch_size = 5});
  run_attack(p, w, first_half, budget, stop);
  const AttackCheckpoint sync_cp = read_checkpoint_file(sync_f.path);
  AsyncAttackOptions resume;
  resume.window = 3;
  resume.resume = &sync_cp;
  EXPECT_THROW(run_async_attack(p, w, resume, budget), std::runtime_error);
}

TEST(AsyncCheckpoint, ResumeMismatchesRejected) {
  const Problem p = test_problem(8);
  const sim::World w(p, 21);
  TempFile f("recon_async_ckpt_mismatch.ckpt");
  sim::FaultModel fault(flaky_fault());
  AsyncAttackOptions opts;
  opts.window = 4;
  opts.fault = &fault;
  opts.stop_after_events = 3;
  opts.checkpoint_path = f.path;
  run_async_attack(p, w, opts, 25.0);
  const AttackCheckpoint cp = read_checkpoint_file(f.path);

  sim::FaultModel fresh(flaky_fault());
  AsyncAttackOptions resume;
  resume.window = 4;
  resume.fault = &fresh;
  resume.resume = &cp;
  // Budget mismatch.
  EXPECT_THROW(run_async_attack(p, w, resume, 26.0), std::runtime_error);
  // World-seed mismatch.
  const sim::World other(p, 22);
  EXPECT_THROW(run_async_attack(p, other, resume, 25.0), std::runtime_error);
  // Window mismatch.
  AsyncAttackOptions narrow = resume;
  narrow.window = 2;
  EXPECT_THROW(run_async_attack(p, w, narrow, 25.0), std::runtime_error);
  // Fault-configuration mismatch (checkpointed with faults, resumed without).
  AsyncAttackOptions no_fault = resume;
  no_fault.fault = nullptr;
  EXPECT_THROW(run_async_attack(p, w, no_fault, 25.0), std::runtime_error);
  // checkpoint_every_events without a path is rejected up front.
  AsyncAttackOptions bad;
  bad.checkpoint_every_events = 2;
  EXPECT_THROW(run_async_attack(p, w, bad, 25.0), std::invalid_argument);
}

TEST(AsyncCheckpoint, TruncatedV2Rejected) {
  const Problem p = test_problem(9);
  const sim::World w(p, 3);
  TempFile f("recon_async_ckpt_trunc.ckpt");
  sim::FaultModel fault(flaky_fault());
  AsyncAttackOptions opts;
  opts.window = 3;
  opts.fault = &fault;
  opts.stop_after_events = 5;
  opts.checkpoint_path = f.path;
  run_async_attack(p, w, opts, 20.0);
  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  std::ostringstream out;
  write_checkpoint(out, cp);
  const std::string doc = out.str();

  // Cutting the document at any line boundary short of the full text must be
  // detected (either by the checkpoint reader or the embedded trace reader).
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    if (doc[i] == '\n' && i + 1 < doc.size()) cuts.push_back(i + 1);
  }
  ASSERT_GT(cuts.size(), 10u);
  for (const std::size_t cut : cuts) {
    std::istringstream in(doc.substr(0, cut));
    EXPECT_THROW(read_checkpoint(in), std::runtime_error) << "cut at " << cut;
  }
}

TEST(AsyncCheckpoint, MalformedV2SectionsRejected) {
  const Problem p = test_problem(10);
  const sim::World w(p, 5);
  TempFile f("recon_async_ckpt_malformed.ckpt");
  AsyncAttackOptions opts;
  opts.window = 3;
  opts.stop_after_events = 4;
  opts.checkpoint_path = f.path;
  run_async_attack(p, w, opts, 20.0);
  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  std::ostringstream out;
  write_checkpoint(out, cp);
  const std::string doc = out.str();

  const auto expect_reject = [](std::string broken) {
    std::istringstream in(broken);
    EXPECT_THROW(read_checkpoint(in), std::runtime_error);
  };
  // v1 readers never accepted these keywords, so a v1-headed document with a
  // v2 body must fail as "unknown section".
  std::string v1_body = doc;
  v1_body.replace(0, std::string("#recon-checkpoint v2").size(),
                  "#recon-checkpoint v1");
  expect_reject(v1_body);
  // A v2 header without the async sections is incomplete.
  std::string no_async = doc;
  const std::size_t async_pos = no_async.find("\nasync ");
  const std::size_t strategy_pos = no_async.find("\nstrategy ");
  ASSERT_NE(async_pos, std::string::npos);
  ASSERT_NE(strategy_pos, std::string::npos);
  no_async.erase(async_pos, strategy_pos - async_pos);
  expect_reject(no_async);
  // Corrupted rng / inflight lines.
  std::string bad_rng = doc;
  bad_rng.replace(bad_rng.find("\nrng "), 5, "\nrng x");
  expect_reject(bad_rng);
  std::string bad_window = doc;
  const std::size_t aw = bad_window.find("\nasync window=");
  ASSERT_NE(aw, std::string::npos);
  const std::size_t val = aw + std::string("\nasync window=").size();
  bad_window.replace(val, bad_window.find(' ', val) - val, "0");
  expect_reject(bad_window);
}

}  // namespace
}  // namespace recon::core
