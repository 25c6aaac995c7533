// Tests for the CLI command layer (driven directly, no subprocesses).
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "cli/commands.h"
#include "graph/io.h"
#include "sim/trace_io.h"
#include "test_scratch.h"

namespace recon::cli {
namespace {

using recon::test::scratch_path;

int run(std::initializer_list<const char*> argv, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::vector<const char*> full{"recon"};
  full.insert(full.end(), argv.begin(), argv.end());
  std::ostringstream out, err;
  const int rc =
      dispatch(static_cast<int>(full.size()), full.data(), out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return rc;
}

TEST(Cli, HelpAndUnknownCommand) {
  std::string out;
  EXPECT_EQ(run({"help"}, &out), 0);
  EXPECT_NE(out.find("generate"), std::string::npos);
  std::string err;
  EXPECT_EQ(run({"frobnicate"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
  EXPECT_EQ(run({}, nullptr, &err), 2);
}

TEST(Cli, GenerateWritesGraph) {
  const std::string path = scratch_path("recon_cli_test_g.txt");
  std::string out;
  ASSERT_EQ(run({"generate", "--model", "ws", "--nodes", "100", "--k", "4",
                 "--out", path.c_str(), "--seed", "5"},
                &out),
            0);
  EXPECT_NE(out.find("100 nodes"), std::string::npos);
  const auto g = graph::read_edge_list_file(path);
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_EQ(g.num_edges(), 400u);
}

TEST(Cli, GenerateEveryModel) {
  for (const char* model : {"ba", "ws", "er", "sbm", "powerlaw"}) {
    const std::string path = scratch_path(std::string("recon_cli_") + model + ".txt");
    EXPECT_EQ(run({"generate", "--model", model, "--nodes", "80", "--out",
                   path.c_str()}),
              0)
        << model;
  }
}

TEST(Cli, GenerateRejectsBadInput) {
  std::string err;
  EXPECT_EQ(run({"generate", "--model", "nope", "--out", scratch_path("x.txt").c_str()},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("unknown --model"), std::string::npos);
  EXPECT_EQ(run({"generate", "--model", "ba"}, nullptr, &err), 1);  // no --out
  EXPECT_EQ(run({"generate", "--model", "ba", "--probs", "nah", "--out",
                 scratch_path("x.txt").c_str()},
                nullptr, &err),
            1);
}

TEST(Cli, AttackMetricsPipeline) {
  const std::string graph_path = scratch_path("recon_cli_pipe_g.txt");
  const std::string trace_path = scratch_path("recon_cli_pipe_t.traces");
  ASSERT_EQ(run({"generate", "--model", "ba", "--nodes", "200", "--m", "4", "--out",
                 graph_path.c_str()}),
            0);
  std::string out;
  ASSERT_EQ(run({"attack", "--graph", graph_path.c_str(), "--strategy", "pm", "--k",
                 "8", "--budget", "40", "--runs", "4", "--retries", "--traces",
                 trace_path.c_str()},
                &out),
            0);
  EXPECT_NE(out.find("PM-AReST(k=8,retry)"), std::string::npos);
  const auto traces = sim::read_traces_file(trace_path);
  EXPECT_EQ(traces.size(), 4u);

  ASSERT_EQ(run({"metrics", "--traces", trace_path.c_str(), "--threshold", "5"},
                &out),
            0);
  EXPECT_NE(out.find("RRS"), std::string::npos);
  EXPECT_NE(out.find("RT-RRS"), std::string::npos);
}

TEST(Cli, AttackEveryStrategy) {
  const std::string graph_path = scratch_path("recon_cli_strat_g.txt");
  ASSERT_EQ(run({"generate", "--model", "er", "--nodes", "60", "--edges", "150",
                 "--out", graph_path.c_str()}),
            0);
  for (const char* strategy : {"pm", "m", "random", "degree", "mip", "lshaped"}) {
    std::string out, err;
    EXPECT_EQ(run({"attack", "--graph", graph_path.c_str(), "--strategy", strategy,
                   "--k", "3", "--budget", "9", "--runs", "2", "--targets", "15",
                   "--samples", "40"},
                  &out, &err),
              0)
        << strategy << ": " << err;
    EXPECT_NE(out.find("mean benefit"), std::string::npos);
  }
}

TEST(Cli, AttackRejectsBadInput) {
  std::string err;
  EXPECT_EQ(run({"attack"}, nullptr, &err), 1);  // no graph
  EXPECT_EQ(run({"attack", "--graph", "/nonexistent.txt"}, nullptr, &err), 1);
  const std::string graph_path = scratch_path("recon_cli_bad_g.txt");
  ASSERT_EQ(run({"generate", "--model", "ba", "--nodes", "60", "--out",
                 graph_path.c_str()}),
            0);
  EXPECT_EQ(run({"attack", "--graph", graph_path.c_str(), "--strategy", "nope"},
                nullptr, &err),
            1);
  EXPECT_EQ(run({"attack", "--graph", graph_path.c_str(), "--target-mode", "nope"},
                nullptr, &err),
            1);
}

TEST(Cli, AttackRejectsInvalidRobustnessCombos) {
  const std::string graph_path = scratch_path("recon_cli_combo_g.txt");
  ASSERT_EQ(run({"generate", "--model", "ba", "--nodes", "60", "--out",
                 graph_path.c_str()}),
            0);
  std::string err;
  // Backoff policy without --retries is a no-op — refuse with guidance.
  EXPECT_EQ(run({"attack", "--graph", graph_path.c_str(), "--retry-policy",
                 "exponential"},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("--retries"), std::string::npos);
  // A per-node attempt cap above the budget lets one node eat everything.
  err.clear();
  EXPECT_EQ(run({"attack", "--graph", graph_path.c_str(), "--retries",
                 "--max-attempts", "50", "--budget", "20"},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("exceeds --budget"), std::string::npos);
  // Fault rates must be probabilities that sum to at most one.
  EXPECT_EQ(run({"attack", "--graph", graph_path.c_str(), "--fault-timeout",
                 "0.7", "--fault-drop", "0.7"},
                nullptr, &err),
            1);
  EXPECT_EQ(run({"attack", "--graph", graph_path.c_str(), "--fault-timeout",
                 "-0.1"},
                nullptr, &err),
            1);
  // Unknown backoff name.
  EXPECT_EQ(run({"attack", "--graph", graph_path.c_str(), "--retries",
                 "--retry-policy", "quadratic"},
                nullptr, &err),
            1);
  // Checkpoint flags drive a single run.
  EXPECT_EQ(run({"attack", "--graph", graph_path.c_str(), "--checkpoint",
                 scratch_path("recon_cli_combo.ckpt").c_str(), "--stop-after", "2",
                 "--runs", "3"},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("--runs 1"), std::string::npos);
  // --checkpoint-every without a file to write to.
  EXPECT_EQ(run({"attack", "--graph", graph_path.c_str(), "--checkpoint-every",
                 "2", "--runs", "1"},
                nullptr, &err),
            1);
  // Resuming from a missing checkpoint is an error, not a fresh start.
  EXPECT_EQ(run({"attack", "--graph", graph_path.c_str(), "--resume",
                 scratch_path("recon_cli_no_such.ckpt").c_str(), "--runs", "1"},
                nullptr, &err),
            1);
}

TEST(Cli, AttackWithFaultsReportsOutcomes) {
  const std::string problem_path = scratch_path("recon_cli_fault.problem");
  const std::string graph_path = scratch_path("recon_cli_fault_g.txt");
  ASSERT_EQ(run({"generate", "--model", "ba", "--nodes", "100", "--out",
                 graph_path.c_str()}),
            0);
  ASSERT_EQ(run({"attack", "--graph", graph_path.c_str(), "--budget", "20",
                 "--runs", "1", "--save-problem", problem_path.c_str()}),
            0);
  std::string out, err;
  // Single-run path (--stop-after high enough not to bite) prints counters.
  ASSERT_EQ(run({"attack", "--problem", problem_path.c_str(), "--budget", "20",
                 "--runs", "1", "--stop-after", "999", "--retries",
                 "--retry-policy", "fixed", "--fault-timeout", "0.3",
                 "--fault-throttle", "0.2"},
                &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("fault outcomes"), std::string::npos);
  EXPECT_NE(out.find("timeouts"), std::string::npos);
  // Monte-Carlo path accepts the same fault flags.
  ASSERT_EQ(run({"attack", "--problem", problem_path.c_str(), "--budget", "20",
                 "--runs", "2", "--fault-timeout", "0.3"},
                &out, &err),
            0)
      << err;
}

TEST(Cli, CheckpointResumeRoundTrip) {
  const std::string graph_path = scratch_path("recon_cli_ckpt_g.txt");
  const std::string problem_path = scratch_path("recon_cli_ckpt.problem");
  const std::string ckpt_path = scratch_path("recon_cli_ckpt.ckpt");
  ASSERT_EQ(run({"generate", "--model", "ba", "--nodes", "100", "--out",
                 graph_path.c_str()}),
            0);
  std::string full_out;
  ASSERT_EQ(run({"attack", "--graph", graph_path.c_str(), "--budget", "30",
                 "--runs", "1", "--save-problem", problem_path.c_str()},
                &full_out),
            0);
  // Interrupt after 2 rounds, then resume; the final numbers must match the
  // uninterrupted run exactly.
  ASSERT_EQ(run({"attack", "--problem", problem_path.c_str(), "--budget", "30",
                 "--runs", "1", "--stop-after", "2", "--checkpoint",
                 ckpt_path.c_str()}),
            0);
  std::string resumed_out, err;
  ASSERT_EQ(run({"attack", "--problem", problem_path.c_str(), "--budget", "30",
                 "--runs", "1", "--resume", ckpt_path.c_str()},
                &resumed_out, &err),
            0)
      << err;
  const auto benefit_line = [](const std::string& s) {
    const auto pos = s.find("mean benefit");
    return s.substr(pos, s.find('\n', pos) - pos);
  };
  EXPECT_EQ(benefit_line(full_out), benefit_line(resumed_out));
}

TEST(Cli, AsyncAttackReportsMakespan) {
  const std::string graph_path = scratch_path("recon_cli_async_g.txt");
  ASSERT_EQ(run({"generate", "--model", "ba", "--nodes", "100", "--out",
                 graph_path.c_str()}),
            0);
  std::string out, err;
  ASSERT_EQ(run({"attack", "--graph", graph_path.c_str(), "--async", "--window",
                 "8", "--budget", "25", "--runs", "2", "--mean-delay", "100"},
                &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("strategy rolling-window(W=8)"), std::string::npos);
  EXPECT_NE(out.find("mean makespan"), std::string::npos);
  EXPECT_NE(out.find("mean accepts"), std::string::npos);
  // Bad delay model is rejected with the flag's vocabulary in the message.
  EXPECT_EQ(run({"attack", "--graph", graph_path.c_str(), "--async",
                 "--delay-model", "bogus"},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("--delay-model"), std::string::npos);
  // Checkpoint flags demand a single run, like the synchronous path.
  EXPECT_EQ(run({"attack", "--graph", graph_path.c_str(), "--async",
                 "--checkpoint", scratch_path("recon_cli_async_bad.ckpt").c_str()},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("--runs 1"), std::string::npos);
}

TEST(Cli, AsyncCheckpointResumeRoundTrip) {
  const std::string graph_path = scratch_path("recon_cli_async_ckpt_g.txt");
  const std::string problem_path = scratch_path("recon_cli_async_ckpt.problem");
  const std::string ckpt_path = scratch_path("recon_cli_async_ckpt.ckpt");
  ASSERT_EQ(run({"generate", "--model", "ba", "--nodes", "100", "--out",
                 graph_path.c_str()}),
            0);
  std::string full_out;
  ASSERT_EQ(run({"attack", "--graph", graph_path.c_str(), "--async", "--window",
                 "5", "--budget", "30", "--runs", "1", "--fault-timeout", "0.2",
                 "--save-problem", problem_path.c_str()},
                &full_out),
            0);
  // Interrupt after 7 resolved events (mid-window), then resume; the final
  // numbers must match the uninterrupted run exactly.
  ASSERT_EQ(run({"attack", "--problem", problem_path.c_str(), "--async",
                 "--window", "5", "--budget", "30", "--runs", "1",
                 "--fault-timeout", "0.2", "--stop-after", "7", "--checkpoint",
                 ckpt_path.c_str()}),
            0);
  std::string resumed_out, err;
  ASSERT_EQ(run({"attack", "--problem", problem_path.c_str(), "--async",
                 "--window", "5", "--budget", "30", "--runs", "1",
                 "--fault-timeout", "0.2", "--resume", ckpt_path.c_str()},
                &resumed_out, &err),
            0)
      << err;
  const auto line = [](const std::string& s, const char* key) {
    const auto pos = s.find(key);
    EXPECT_NE(pos, std::string::npos) << key;
    return s.substr(pos, s.find('\n', pos) - pos);
  };
  EXPECT_EQ(line(full_out, "mean benefit"), line(resumed_out, "mean benefit"));
  EXPECT_EQ(line(full_out, "mean makespan"), line(resumed_out, "mean makespan"));
  EXPECT_EQ(line(full_out, "mean requests"), line(resumed_out, "mean requests"));
  EXPECT_EQ(line(full_out, "mean accepts"), line(resumed_out, "mean accepts"));
}

TEST(Cli, AttackFallbackStrategyRuns) {
  const std::string graph_path = scratch_path("recon_cli_fb_g.txt");
  ASSERT_EQ(run({"generate", "--model", "er", "--nodes", "50", "--edges", "120",
                 "--out", graph_path.c_str()}),
            0);
  std::string out, err;
  ASSERT_EQ(run({"attack", "--graph", graph_path.c_str(), "--strategy",
                 "fallback", "--k", "3", "--budget", "9", "--runs", "2",
                 "--targets", "12", "--samples", "50", "--fob-deadline-ms", "1",
                 "--saa-deadline-ms", "1"},
                &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("Fallback(k=3)"), std::string::npos);
  EXPECT_NE(out.find("mean benefit"), std::string::npos);
}

TEST(Cli, SaveAndReuseProblem) {
  const std::string graph_path = scratch_path("recon_cli_prob_g.txt");
  const std::string problem_path = scratch_path("recon_cli_prob.problem");
  ASSERT_EQ(run({"generate", "--model", "ba", "--nodes", "120", "--out",
                 graph_path.c_str()}),
            0);
  std::string out1;
  ASSERT_EQ(run({"attack", "--graph", graph_path.c_str(), "--k", "5", "--budget",
                 "25", "--runs", "3", "--save-problem", problem_path.c_str()},
                &out1),
            0);
  // Re-running from the saved problem reproduces the exact results (the
  // instance, including targets, is identical).
  std::string out2;
  ASSERT_EQ(run({"attack", "--problem", problem_path.c_str(), "--k", "5",
                 "--budget", "25", "--runs", "3"},
                &out2),
            0);
  const auto benefit_line = [](const std::string& s) {
    const auto pos = s.find("mean benefit");
    return s.substr(pos, s.find('\n', pos) - pos);
  };
  EXPECT_EQ(benefit_line(out1), benefit_line(out2));
  std::string err;
  EXPECT_EQ(run({"attack", "--problem", "/nonexistent.problem"}, nullptr, &err), 1);
}

TEST(Cli, MetricsRejectsBadInput) {
  std::string err;
  EXPECT_EQ(run({"metrics"}, nullptr, &err), 1);
  EXPECT_EQ(run({"metrics", "--traces", "/nonexistent.traces"}, nullptr, &err), 1);
}

TEST(Cli, AuditListsMonitors) {
  const std::string graph_path = scratch_path("recon_cli_audit_g.txt");
  ASSERT_EQ(run({"generate", "--model", "ba", "--nodes", "150", "--out",
                 graph_path.c_str()}),
            0);
  std::string out;
  ASSERT_EQ(run({"audit", "--graph", graph_path.c_str(), "--monitors", "5",
                 "--budget", "30", "--runs", "3"},
                &out),
            0);
  EXPECT_NE(out.find("monitor placements"), std::string::npos);
  // Table has 5 monitor rows (header + separator + 5).
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n';
  EXPECT_GE(lines, 8u);
}

}  // namespace
}  // namespace recon::cli
