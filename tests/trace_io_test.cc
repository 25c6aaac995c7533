// Tests for attack-trace serialization: roundtrips of real traces and
// malformed-input rejection.
#include <gtest/gtest.h>

#include <sstream>

#include "core/attack.h"
#include "core/pm_arest.h"
#include "graph/generators.h"
#include "sim/problem.h"
#include "sim/trace_io.h"
#include "test_scratch.h"

namespace recon::sim {
namespace {

std::vector<AttackTrace> real_traces() {
  ProblemOptions opts;
  opts.num_targets = 15;
  opts.base_acceptance = 0.4;
  opts.seed = 3;
  const Problem p = make_problem(
      graph::assign_edge_probs(graph::barabasi_albert(80, 4, 3),
                               graph::EdgeProbModel::uniform(0.3, 0.9), 4),
      opts);
  const auto mc = core::run_monte_carlo(
      p,
      [](int) {
        return std::make_unique<core::PmArest>(
            core::PmArestOptions{.batch_size = 6, .allow_retries = true});
      },
      3, 40.0, 11);
  return mc.traces;
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const auto traces = real_traces();
  std::stringstream ss;
  write_traces(ss, traces);
  const auto loaded = read_traces(ss);
  ASSERT_EQ(loaded.size(), traces.size());
  for (std::size_t t = 0; t < traces.size(); ++t) {
    ASSERT_EQ(loaded[t].batches.size(), traces[t].batches.size());
    for (std::size_t b = 0; b < traces[t].batches.size(); ++b) {
      const auto& orig = traces[t].batches[b];
      const auto& got = loaded[t].batches[b];
      EXPECT_EQ(got.requests, orig.requests);
      EXPECT_EQ(got.accepted, orig.accepted);
      EXPECT_DOUBLE_EQ(got.select_seconds, orig.select_seconds);
      EXPECT_DOUBLE_EQ(got.cost, orig.cost);
      EXPECT_DOUBLE_EQ(got.delta.friends, orig.delta.friends);
      EXPECT_DOUBLE_EQ(got.delta.fofs, orig.delta.fofs);
      EXPECT_DOUBLE_EQ(got.delta.edges, orig.delta.edges);
      // Cumulative fields are recomputed; they must match to FP exactness of
      // summation order (identical order -> identical values).
      EXPECT_DOUBLE_EQ(got.cumulative_cost, orig.cumulative_cost);
      EXPECT_NEAR(got.cumulative.total(), orig.cumulative.total(), 1e-9);
    }
    EXPECT_NEAR(loaded[t].total_benefit(), traces[t].total_benefit(), 1e-9);
  }
}

TEST(TraceIo, EmptySetRoundTrips) {
  std::stringstream ss;
  write_traces(ss, {});
  EXPECT_TRUE(read_traces(ss).empty());
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::stringstream ss;
  write_traces(ss, {AttackTrace{}});
  const auto loaded = read_traces(ss);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded[0].batches.empty());
}

TEST(TraceIo, RejectsBadHeader) {
  std::stringstream ss("#something-else v9\n");
  EXPECT_THROW(read_traces(ss), std::runtime_error);
}

TEST(TraceIo, RejectsBatchBeforeTrace) {
  std::stringstream ss("#recon-trace v1\nbatch sel=0 cost=1 reqs=1:1 df=0 dx=0 de=0\n");
  EXPECT_THROW(read_traces(ss), std::runtime_error);
}

TEST(TraceIo, RejectsMalformedFields) {
  std::stringstream ss1("#recon-trace v1\ntrace 0\nbatch sel=x cost=1 reqs=1:1 df=0 dx=0 de=0\n");
  EXPECT_THROW(read_traces(ss1), std::runtime_error);
  std::stringstream ss2("#recon-trace v1\ntrace 0\nbatch sel=0 cost=1 reqs=1-1 df=0 dx=0 de=0\n");
  EXPECT_THROW(read_traces(ss2), std::runtime_error);
  std::stringstream ss3("#recon-trace v1\ntrace 0\nwhatever\n");
  EXPECT_THROW(read_traces(ss3), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  const auto traces = real_traces();
  const std::string path = recon::test::scratch_path("recon_trace_io_test.txt");
  write_traces_file(path, traces);
  const auto loaded = read_traces_file(path);
  EXPECT_EQ(loaded.size(), traces.size());
  EXPECT_THROW(read_traces_file("/nonexistent/recon.txt"), std::runtime_error);
}

TEST(TraceIo, MetricsSurviveRoundTrip) {
  // RRS / RT-RRS computed on loaded traces match the originals.
  const auto traces = real_traces();
  std::stringstream ss;
  write_traces(ss, traces);
  const auto loaded = read_traces(ss);
  for (std::size_t t = 0; t < traces.size(); ++t) {
    EXPECT_EQ(loaded[t].requests_to_reach(5.0), traces[t].requests_to_reach(5.0));
    EXPECT_NEAR(loaded[t].total_select_seconds(), traces[t].total_select_seconds(),
                1e-12);
  }
}

}  // namespace
}  // namespace recon::sim
