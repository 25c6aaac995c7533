// Tests for full Problem serialization: roundtrips across model variants and
// attack-equivalence of the loaded instance.
#include <gtest/gtest.h>

#include <sstream>

#include "core/attack.h"
#include "core/pm_arest.h"
#include "graph/generators.h"
#include "sim/problem_io.h"
#include "test_scratch.h"

namespace recon::sim {
namespace {

using graph::NodeId;

Problem rich_problem() {
  graph::Graph g = graph::watts_strogatz(60, 3, 0.2, 5);
  g = graph::assign_edge_probs(g, graph::EdgeProbModel::uniform(0.2, 0.9), 6);
  g = graph::assign_attributes(g, 2, 5, 0.6, 7);
  ProblemOptions opts;
  opts.num_targets = 12;
  opts.seed = 9;
  Problem p = make_problem(std::move(g), opts);
  p.acceptance = make_attribute_acceptance(p.graph, 0.25, 0.3, 0.1, 11);
  p.cost.assign(p.graph.num_nodes(), 1.0);
  p.cost[3] = 2.5;
  p.validate();
  return p;
}

void expect_problems_equal(const Problem& a, const Problem& b) {
  ASSERT_EQ(a.graph.num_nodes(), b.graph.num_nodes());
  ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
  for (graph::EdgeId e = 0; e < a.graph.num_edges(); ++e) {
    EXPECT_EQ(a.graph.edge_u(e), b.graph.edge_u(e));
    EXPECT_EQ(a.graph.edge_v(e), b.graph.edge_v(e));
    EXPECT_DOUBLE_EQ(a.graph.edge_prob(e), b.graph.edge_prob(e));
  }
  EXPECT_EQ(a.targets, b.targets);
  EXPECT_EQ(a.acceptance.q0, b.acceptance.q0);
  EXPECT_DOUBLE_EQ(a.acceptance.mutual_boost, b.acceptance.mutual_boost);
  EXPECT_DOUBLE_EQ(a.acceptance.attr_weight, b.acceptance.attr_weight);
  EXPECT_EQ(a.acceptance.attacker_attrs, b.acceptance.attacker_attrs);
  EXPECT_EQ(a.benefit.bf, b.benefit.bf);
  EXPECT_EQ(a.benefit.bfof, b.benefit.bfof);
  EXPECT_EQ(a.benefit.bi, b.benefit.bi);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.graph.attribute_dim(), b.graph.attribute_dim());
  if (a.graph.has_attributes()) {
    for (NodeId u = 0; u < a.graph.num_nodes(); ++u) {
      const auto aa = a.graph.node_attributes(u);
      const auto bb = b.graph.node_attributes(u);
      for (std::size_t d = 0; d < aa.size(); ++d) EXPECT_EQ(aa[d], bb[d]);
    }
  }
}

TEST(ProblemIo, RichRoundTrip) {
  const Problem original = rich_problem();
  std::stringstream ss;
  write_problem(ss, original);
  const Problem loaded = read_problem(ss);
  expect_problems_equal(original, loaded);
}

TEST(ProblemIo, PaperBenefitSerializedCompactly) {
  ProblemOptions opts;
  opts.num_targets = 10;
  opts.seed = 3;
  const Problem p = make_problem(graph::barabasi_albert(80, 3, 2), opts);
  std::stringstream ss;
  write_problem(ss, p);
  EXPECT_NE(ss.str().find("benefit paper"), std::string::npos);
  EXPECT_EQ(ss.str().find("benefit custom"), std::string::npos);
  const Problem loaded = read_problem(ss);
  expect_problems_equal(p, loaded);
}

TEST(ProblemIo, CustomBenefitRoundTrips) {
  ProblemOptions opts;
  opts.num_targets = 8;
  opts.paper_benefit = false;  // uniform benefit != paper model
  opts.seed = 3;
  const Problem p = make_problem(graph::erdos_renyi_gnm(30, 60, 1), opts);
  std::stringstream ss;
  write_problem(ss, p);
  EXPECT_NE(ss.str().find("benefit custom"), std::string::npos);
  const Problem loaded = read_problem(ss);
  expect_problems_equal(p, loaded);
}

TEST(ProblemIo, LoadedProblemReproducesAttacksExactly) {
  const Problem original = rich_problem();
  std::stringstream ss;
  write_problem(ss, original);
  const Problem loaded = read_problem(ss);
  const World w1(original, 42), w2(loaded, 42);
  core::PmArest s1(core::PmArestOptions{.batch_size = 5});
  core::PmArest s2(core::PmArestOptions{.batch_size = 5});
  const auto t1 = core::run_attack(original, w1, s1, 30.0);
  const auto t2 = core::run_attack(loaded, w2, s2, 30.0);
  ASSERT_EQ(t1.batches.size(), t2.batches.size());
  for (std::size_t i = 0; i < t1.batches.size(); ++i) {
    EXPECT_EQ(t1.batches[i].requests, t2.batches[i].requests);
    EXPECT_EQ(t1.batches[i].accepted, t2.batches[i].accepted);
  }
  EXPECT_DOUBLE_EQ(t1.total_benefit(), t2.total_benefit());
}

TEST(ProblemIo, RejectsMalformedInput) {
  std::stringstream bad1("#wrong header\n");
  EXPECT_THROW(read_problem(bad1), std::runtime_error);
  std::stringstream bad2("#recon-problem v1\ngraph 2 1\ne 0 1 0.5\nbenefit paper\n");
  EXPECT_THROW(read_problem(bad2), std::runtime_error);  // missing acceptance
  std::stringstream bad3(
      "#recon-problem v1\ngraph 2 1\ne 0 1 0.5\ntargets 1 5\n"
      "acceptance uniform 0.5\nbenefit paper\ncosts uniform\n");
  EXPECT_THROW(read_problem(bad3), std::runtime_error);  // target out of range
  std::stringstream bad4(
      "#recon-problem v1\ngraph 2 1\ne 0 1 0.5\nwhatever\n");
  EXPECT_THROW(read_problem(bad4), std::runtime_error);
}

TEST(ProblemIo, FileRoundTrip) {
  const Problem p = rich_problem();
  const std::string path = recon::test::scratch_path("recon_problem_io_test.txt");
  write_problem_file(path, p);
  const Problem loaded = read_problem_file(path);
  expect_problems_equal(p, loaded);
  EXPECT_THROW(read_problem_file("/nonexistent/problem.txt"), std::runtime_error);
}

}  // namespace
}  // namespace recon::sim
