// Checkpoint/resume tests: round-trip fidelity and bit-identical resumption
// of interrupted attacks, with and without faults and retry backoff.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/attack.h"
#include "core/baselines.h"
#include "core/checkpoint.h"
#include "core/pm_arest.h"
#include "core/retry_policy.h"
#include "graph/generators.h"
#include "sim/fault.h"
#include "sim/problem.h"
#include "solver/fallback.h"
#include "solver/strategy_mip.h"
#include "test_scratch.h"

namespace recon::core {
namespace {

using graph::NodeId;
using sim::Problem;

Problem test_problem(int seed, NodeId n = 100) {
  sim::ProblemOptions opts;
  opts.num_targets = 20;
  opts.base_acceptance = 0.4;
  opts.seed = static_cast<std::uint64_t>(seed);
  return sim::make_problem(
      graph::assign_edge_probs(graph::barabasi_albert(n, 4, seed),
                               graph::EdgeProbModel::uniform(0.3, 0.95), seed + 1),
      opts);
}

Problem er_problem(int seed, NodeId n = 50, graph::EdgeId m = 180) {
  sim::ProblemOptions opts;
  opts.num_targets = 16;
  opts.base_acceptance = 0.5;
  opts.seed = static_cast<std::uint64_t>(seed);
  return sim::make_problem(
      graph::assign_edge_probs(graph::erdos_renyi_gnm(n, m, seed),
                               graph::EdgeProbModel::uniform(0.2, 0.9), seed + 1),
      opts);
}

/// Trace equality modulo select_seconds (wall clock, never reproducible).
void expect_traces_equal(const sim::AttackTrace& a, const sim::AttackTrace& b) {
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].requests, b.batches[i].requests) << "batch " << i;
    EXPECT_EQ(a.batches[i].accepted, b.batches[i].accepted) << "batch " << i;
    EXPECT_EQ(a.batches[i].outcome, b.batches[i].outcome) << "batch " << i;
    EXPECT_DOUBLE_EQ(a.batches[i].cost, b.batches[i].cost) << "batch " << i;
    EXPECT_DOUBLE_EQ(a.batches[i].cumulative_cost, b.batches[i].cumulative_cost);
    EXPECT_DOUBLE_EQ(a.batches[i].delta.total(), b.batches[i].delta.total());
    EXPECT_DOUBLE_EQ(a.batches[i].cumulative.total(), b.batches[i].cumulative.total());
  }
}

struct TempFile {
  explicit TempFile(const std::string& name) : path(recon::test::scratch_path(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(Checkpoint, StreamRoundTripPreservesEverything) {
  const Problem p = test_problem(1);
  const sim::World w(p, 77);
  RetryPolicy retry;
  retry.backoff = RetryBackoff::kFixed;
  retry.base_delay = 2.0;
  sim::FaultModel fault(
      [] {
        sim::FaultOptions fo;
        fo.timeout_rate = 0.3;
        fo.seed = 5;
        return fo;
      }());
  AttackRunOptions ro;
  ro.fault = &fault;
  ro.retry = &retry;
  TempFile f("recon_ckpt_roundtrip.ckpt");
  ro.stop_after_rounds = 4;
  ro.checkpoint_path = f.path;
  PmArest run_strategy(PmArestOptions{.batch_size = 5, .allow_retries = true});
  run_attack(p, w, run_strategy, 50.0, ro);

  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  EXPECT_EQ(cp.world_seed, 77u);
  EXPECT_DOUBLE_EQ(cp.budget, 50.0);
  EXPECT_EQ(cp.round, 4u);
  EXPECT_TRUE(cp.has_fault);
  EXPECT_EQ(cp.strategy_name, run_strategy.name());
  EXPECT_FALSE(cp.strategy_state.empty());
  EXPECT_EQ(cp.trace.batches.size(), 4u);

  // Serialize the parsed checkpoint again: the round trip must be lossless.
  std::ostringstream out;
  write_checkpoint(out, cp);
  std::istringstream in(out.str());
  const AttackCheckpoint cp2 = read_checkpoint(in);
  EXPECT_EQ(cp2.node_states, cp.node_states);
  EXPECT_EQ(cp2.edge_states, cp.edge_states);
  EXPECT_EQ(cp2.attempts, cp.attempts);
  EXPECT_EQ(cp2.friends, cp.friends);
  EXPECT_EQ(cp2.retry_after, cp.retry_after);
  EXPECT_EQ(cp2.fault.sends, cp.fault.sends);
  EXPECT_EQ(cp2.fault.window, cp.fault.window);
  EXPECT_EQ(cp2.strategy_state, cp.strategy_state);
  expect_traces_equal(cp2.trace, cp.trace);
}

TEST(Checkpoint, ResumeIsBitIdenticalPlain) {
  const Problem p = test_problem(2);
  const sim::World w(p, 42);
  PmArest full_strategy(PmArestOptions{.batch_size = 6, .allow_retries = true});
  const auto full = run_attack(p, w, full_strategy, 45.0);

  TempFile f("recon_ckpt_plain.ckpt");
  AttackRunOptions stop;
  stop.stop_after_rounds = 3;
  stop.checkpoint_path = f.path;
  PmArest first_half(PmArestOptions{.batch_size = 6, .allow_retries = true});
  run_attack(p, w, first_half, 45.0, stop);

  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  const sim::World resumed_world(p, cp.world_seed);
  AttackRunOptions resume;
  resume.resume = &cp;
  PmArest second_half(PmArestOptions{.batch_size = 6, .allow_retries = true});
  const auto resumed = run_attack(p, resumed_world, second_half, 45.0, resume);
  expect_traces_equal(full, resumed);
}

TEST(Checkpoint, ResumeIsBitIdenticalUnderFaultsAndRetries) {
  const Problem p = test_problem(3);
  const sim::World w(p, 43);
  sim::FaultOptions fo;
  fo.timeout_rate = 0.2;
  fo.throttle_rate = 0.15;
  fo.suspension.max_requests = 20;
  fo.suspension.window_ticks = 3;
  fo.suspension.lockout_ticks = 2;
  fo.seed = 9;
  RetryPolicy retry;
  retry.backoff = RetryBackoff::kExponential;
  retry.base_delay = 1.0;
  retry.max_delay = 4.0;
  retry.jitter = 0.25;

  auto make_options = [&](sim::FaultModel& fm) {
    AttackRunOptions o;
    o.fault = &fm;
    o.retry = &retry;
    return o;
  };

  sim::FaultModel fm_full(fo);
  PmArest full_strategy(PmArestOptions{.batch_size = 6, .allow_retries = true});
  const auto full = run_attack(p, w, full_strategy, 45.0, make_options(fm_full));

  TempFile f("recon_ckpt_faulted.ckpt");
  sim::FaultModel fm_half(fo);
  auto stop = make_options(fm_half);
  stop.stop_after_rounds = 3;
  stop.checkpoint_path = f.path;
  PmArest first_half(PmArestOptions{.batch_size = 6, .allow_retries = true});
  run_attack(p, w, first_half, 45.0, stop);

  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  const sim::World resumed_world(p, cp.world_seed);
  sim::FaultModel fm_resume(fo);  // state overwritten by apply_checkpoint
  auto resume = make_options(fm_resume);
  resume.resume = &cp;
  PmArest second_half(PmArestOptions{.batch_size = 6, .allow_retries = true});
  const auto resumed = run_attack(p, resumed_world, second_half, 45.0, resume);
  expect_traces_equal(full, resumed);
}

TEST(Checkpoint, PeriodicCheckpointsResumeFromLastOne) {
  const Problem p = test_problem(4);
  const sim::World w(p, 44);
  PmArest full_strategy(PmArestOptions{.batch_size = 5});
  const auto full = run_attack(p, w, full_strategy, 30.0);

  TempFile f("recon_ckpt_periodic.ckpt");
  AttackRunOptions stop;
  stop.checkpoint_every_rounds = 2;
  stop.checkpoint_path = f.path;
  stop.stop_after_rounds = 4;
  PmArest first_half(PmArestOptions{.batch_size = 5});
  run_attack(p, w, first_half, 30.0, stop);

  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  EXPECT_EQ(cp.round, 4u);
  const sim::World resumed_world(p, cp.world_seed);
  AttackRunOptions resume;
  resume.resume = &cp;
  PmArest second_half(PmArestOptions{.batch_size = 5});
  const auto resumed = run_attack(p, resumed_world, second_half, 30.0, resume);
  expect_traces_equal(full, resumed);
}

TEST(Checkpoint, StrategyMismatchIsRejected) {
  const Problem p = test_problem(5);
  const sim::World w(p, 45);
  TempFile f("recon_ckpt_mismatch.ckpt");
  AttackRunOptions stop;
  stop.stop_after_rounds = 2;
  stop.checkpoint_path = f.path;
  PmArest pm(PmArestOptions{.batch_size = 5});
  run_attack(p, w, pm, 30.0, stop);

  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  AttackRunOptions resume;
  resume.resume = &cp;
  RandomStrategy random(5, 123);
  EXPECT_THROW(run_attack(p, w, random, 30.0, resume), std::runtime_error);
}

TEST(Checkpoint, PlannerCarryingPmArestBlobsFailClearly) {
  // Builds that let PM-AReST host the runtime planner appended a cache
  // section and a planner line to the state of `--planner` runs. PM-AReST
  // runs one selector now: such a blob is refused with a message that says
  // so, while the planner-off line stays readable byte for byte.
  const std::string plain = "pmarest 11 22 33 44";
  std::string planner = "planner 1 0 0 64 5";
  for (int i = 0; i < 5; ++i) planner += " 4607182418800017408 4634204016564240384 3";
  for (const std::string& blob :
       {plain + " cache 2 3:1 7:2 1 9 " + planner, plain + " " + planner,
        plain + " cache 0 0"}) {
    PmArest pm(PmArestOptions{.batch_size = 5});
    try {
      pm.restore_state(blob);
      ADD_FAILURE() << "accepted: " << blob;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("no longer hosts a planner"),
                std::string::npos)
          << e.what();
    }
  }
  PmArest pm(PmArestOptions{.batch_size = 5});
  pm.restore_state(plain);
  EXPECT_EQ(pm.save_state(), plain);
}

/// Blobs the runtime planner's hosts wrote for `--planner` runs: the host's
/// planner-off state line followed by a planner section.
std::vector<std::string> planner_carrying_blobs(const std::string& plain) {
  std::string planner = "planner 1 0 0 64 5";
  for (int i = 0; i < 5; ++i) planner += " 4607182418800017408 4634204016564240384 3";
  return {plain + " " + planner, plain + " x"};
}

/// The runtime planner is gone from the solver hosts too: a blob with a
/// trailing section is refused with a message that says so, while the
/// planner-off line stays readable byte for byte.
template <typename Host, typename Options>
void expect_planner_blobs_fail_clearly(const Options& o, const std::string& plain) {
  for (const std::string& blob : planner_carrying_blobs(plain)) {
    Host host(o);
    try {
      host.restore_state(blob);
      ADD_FAILURE() << "accepted: " << blob;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("runtime planner was removed"),
                std::string::npos)
          << e.what();
    }
  }
  Host host(o);
  host.restore_state(plain);
  EXPECT_EQ(host.save_state(), plain);
}

TEST(Checkpoint, PlannerCarryingFallbackBlobsFailClearly) {
  expect_planner_blobs_fail_clearly<solver::FallbackStrategy>(
      solver::FallbackOptions{}, "fallback 4 2 1 1");
}

TEST(Checkpoint, PlannerCarryingMipBlobsFailClearly) {
  expect_planner_blobs_fail_clearly<solver::MipBatchStrategy>(
      solver::MipStrategyOptions{}, "mip 4 1");
}

/// Runs `o`'s strategy once uninterrupted and once stopped after two rounds
/// and resumed from the checkpoint: traces and the final strategy state
/// must be bit-identical.
template <typename Host, typename Options>
void expect_resume_bit_exact(const Options& o, const std::string& file) {
  const Problem p = er_problem(35);
  const sim::World w(p, 305);
  Host full_strategy(o);
  const auto full = run_attack(p, w, full_strategy, 8.0);
  ASSERT_GT(full.batches.size(), 2u);

  TempFile f(file);
  AttackRunOptions stop;
  stop.stop_after_rounds = 2;
  stop.checkpoint_path = f.path;
  Host first_half(o);
  run_attack(p, w, first_half, 8.0, stop);

  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  const sim::World resumed_world(p, cp.world_seed);
  AttackRunOptions resume;
  resume.resume = &cp;
  Host second_half(o);
  const auto resumed = run_attack(p, resumed_world, second_half, 8.0, resume);
  expect_traces_equal(full, resumed);
  EXPECT_EQ(second_half.save_state(), full_strategy.save_state());
}

TEST(Checkpoint, FallbackResumeRestoresFullStateBitExact) {
  solver::FallbackOptions o;
  o.batch_size = 2;
  o.scenarios_per_batch = 60;
  o.exact_deadline_seconds = 30.0;  // the exact tier wins every batch
  o.saa_deadline_seconds = 30.0;
  o.candidate_cap = 8;
  expect_resume_bit_exact<solver::FallbackStrategy>(o, "recon_ckpt_fallback.ckpt");
}

TEST(Checkpoint, FallbackFloorTierResumeRestoresFullStateBitExact) {
  // Zero deadlines pin the lazy-greedy floor; retries let it re-request
  // nodes refused before the checkpoint.
  solver::FallbackOptions o;
  o.batch_size = 2;
  o.allow_retries = true;
  o.exact_deadline_seconds = 0.0;
  o.saa_deadline_seconds = 0.0;
  expect_resume_bit_exact<solver::FallbackStrategy>(o, "recon_ckpt_fallback_floor.ckpt");
}

TEST(Checkpoint, MipGreedyOnlyResumeRestoresFullStateBitExact) {
  solver::MipStrategyOptions o;
  o.batch_size = 2;
  o.scenarios_per_batch = 60;
  o.greedy_only = true;
  expect_resume_bit_exact<solver::MipBatchStrategy>(o, "recon_ckpt_mip_greedy.ckpt");
}

TEST(Checkpoint, MipResumeRestoresFullStateBitExact) {
  solver::MipStrategyOptions o;
  o.batch_size = 2;
  o.scenarios_per_batch = 60;
  o.candidate_cap = 8;
  expect_resume_bit_exact<solver::MipBatchStrategy>(o, "recon_ckpt_mip.ckpt");
}

// PM-AReST hosts no planner: its state is the four varying-k RNG words, and
// a resumed campaign must end in the same full state as an uninterrupted one.
TEST(PlannerCheckpoint, PmArestResumeRestoresFullStateBitExact) {
  const Problem p = test_problem(34);
  const sim::World w(p, 304);
  PmArestOptions o;
  o.batch_size = 6;
  o.allow_retries = true;

  PmArest full_strategy(o);
  const auto full = run_attack(p, w, full_strategy, 45.0);

  TempFile f("recon_planner_fullstate.ckpt");
  AttackRunOptions stop;
  stop.stop_after_rounds = 3;
  stop.checkpoint_path = f.path;
  PmArest first_half(o);
  run_attack(p, w, first_half, 45.0, stop);

  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  const sim::World resumed_world(p, cp.world_seed);
  AttackRunOptions resume;
  resume.resume = &cp;
  PmArest second_half(o);
  const auto resumed = run_attack(p, resumed_world, second_half, 45.0, resume);
  expect_traces_equal(full, resumed);

  // Full strategy state, not just the selections it produces, is
  // bit-identical across the resume, and it carries no planner section.
  EXPECT_EQ(second_half.save_state(), full_strategy.save_state());
  EXPECT_EQ(full_strategy.save_state().find("planner"), std::string::npos);

  // Checkpoint -> checkpoint round-trip is lossless even before the rebuilt
  // cache exists: a freshly restored strategy re-emits the same blob.
  PmArest reloaded(o);
  reloaded.restore_state(second_half.save_state());
  EXPECT_EQ(reloaded.save_state(), second_half.save_state());
}

TEST(Checkpoint, BudgetAndSeedMismatchesAreRejected) {
  const Problem p = test_problem(6);
  const sim::World w(p, 46);
  TempFile f("recon_ckpt_budget.ckpt");
  AttackRunOptions stop;
  stop.stop_after_rounds = 2;
  stop.checkpoint_path = f.path;
  PmArest pm(PmArestOptions{.batch_size = 5});
  run_attack(p, w, pm, 30.0, stop);

  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  AttackRunOptions resume;
  resume.resume = &cp;
  PmArest pm2(PmArestOptions{.batch_size = 5});
  EXPECT_THROW(run_attack(p, w, pm2, 31.0, resume), std::runtime_error);

  const sim::World other_world(p, 999);  // not the checkpointed world
  PmArest pm3(PmArestOptions{.batch_size = 5});
  EXPECT_THROW(run_attack(p, other_world, pm3, 30.0, resume), std::runtime_error);
}

TEST(Checkpoint, FaultConfigurationMismatchIsRejected) {
  const Problem p = test_problem(7);
  const sim::World w(p, 47);
  TempFile f("recon_ckpt_faultcfg.ckpt");
  sim::FaultOptions fo;
  fo.timeout_rate = 0.2;
  sim::FaultModel fm(fo);
  AttackRunOptions stop;
  stop.fault = &fm;
  stop.stop_after_rounds = 2;
  stop.checkpoint_path = f.path;
  PmArest pm(PmArestOptions{.batch_size = 5});
  run_attack(p, w, pm, 30.0, stop);

  // Checkpoint carries fault state, but the resuming run has no fault model.
  const AttackCheckpoint cp = read_checkpoint_file(f.path);
  AttackRunOptions resume;
  resume.resume = &cp;
  PmArest pm2(PmArestOptions{.batch_size = 5});
  EXPECT_THROW(run_attack(p, w, pm2, 30.0, resume), std::runtime_error);
}

TEST(Checkpoint, TruncatedOrCorruptFilesAreRejected) {
  const Problem p = test_problem(8);
  const sim::World w(p, 48);
  TempFile f("recon_ckpt_trunc.ckpt");
  AttackRunOptions stop;
  stop.stop_after_rounds = 3;
  stop.checkpoint_path = f.path;
  PmArest pm(PmArestOptions{.batch_size = 5});
  run_attack(p, w, pm, 30.0, stop);

  std::ifstream in(f.path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string good = buf.str();
  ASSERT_FALSE(good.empty());
  {
    std::istringstream ok(good);
    EXPECT_NO_THROW(read_checkpoint(ok));
  }
  // Chop the file at every line boundary: every prefix must be rejected.
  std::size_t pos = 0;
  int prefixes = 0;
  while ((pos = good.find('\n', pos)) != std::string::npos) {
    ++pos;
    if (pos == good.size()) break;
    std::istringstream truncated(good.substr(0, pos));
    EXPECT_THROW(read_checkpoint(truncated), std::runtime_error)
        << "prefix of " << pos << " bytes parsed";
    ++prefixes;
  }
  EXPECT_GT(prefixes, 5);
  // Header corruption.
  std::istringstream bad_header("#recon-checkpoint v9\n" +
                                good.substr(good.find('\n') + 1));
  EXPECT_THROW(read_checkpoint(bad_header), std::runtime_error);
  // Missing file.
  EXPECT_THROW(
      read_checkpoint_file(recon::test::scratch_path("recon_ckpt_does_not_exist.ckpt")),
               std::runtime_error);
}

}  // namespace
}  // namespace recon::core
