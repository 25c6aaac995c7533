// Tests for the simulation substrate: benefit models, acceptance models,
// problem construction and target selection.
#include <gtest/gtest.h>

#include <limits>

#include "graph/builder.h"
#include "graph/generators.h"
#include "sim/problem.h"

namespace recon::sim {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::NodeId;

Graph path4() {
  GraphBuilder b(4);
  b.add_edge(0, 1, 0.5);
  b.add_edge(1, 2, 0.5);
  b.add_edge(2, 3, 0.5);
  return b.build();
}

TEST(BenefitModel, PaperModelValues) {
  const Graph g = path4();
  std::vector<std::uint8_t> is_target{0, 1, 1, 0};
  const BenefitModel m = make_paper_benefit(g, is_target);
  EXPECT_DOUBLE_EQ(m.bf[0], 0.0);
  EXPECT_DOUBLE_EQ(m.bf[1], 1.0);
  EXPECT_DOUBLE_EQ(m.bfof[1], 0.5);
  EXPECT_DOUBLE_EQ(m.bfof[3], 0.0);
  // M = max expected degree = node 1 or 2: 0.5 + 0.5 = 1.0.
  // Edge (0,1): one endpoint in T -> 2/1; edge (1,2): both -> 4; (2,3): one -> 2.
  EXPECT_DOUBLE_EQ(m.bi[g.find_edge(0, 1)], 2.0);
  EXPECT_DOUBLE_EQ(m.bi[g.find_edge(1, 2)], 4.0);
  EXPECT_DOUBLE_EQ(m.bi[g.find_edge(2, 3)], 2.0);
  m.validate(g);
}

TEST(BenefitModel, UniformModel) {
  const Graph g = path4();
  const BenefitModel m = make_uniform_benefit(g, 0.25, 0.125);
  for (NodeId u = 0; u < 4; ++u) {
    EXPECT_DOUBLE_EQ(m.bf[u], 1.0);
    EXPECT_DOUBLE_EQ(m.bfof[u], 0.25);
  }
  EXPECT_DOUBLE_EQ(m.bi[0], 0.125);
}

TEST(BenefitModel, ValidationCatchesViolations) {
  const Graph g = path4();
  BenefitModel m = make_uniform_benefit(g);
  m.bfof[1] = 2.0;  // Bfof > Bf
  EXPECT_THROW(m.validate(g), std::invalid_argument);
  m = make_uniform_benefit(g);
  m.bf.pop_back();
  EXPECT_THROW(m.validate(g), std::invalid_argument);
  m = make_uniform_benefit(g);
  m.bi[0] = -1.0;
  EXPECT_THROW(m.validate(g), std::invalid_argument);
}

// NaN passes every `< 0.0` and `>` test, and an infinite benefit or cost
// makes a score inf or NaN; either would break the cached selector's
// upper-bound keys, so each field rejects both.
constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity()};

TEST(BenefitModel, ValidationRejectsNonFiniteFriendBenefit) {
  const Graph g = path4();
  for (const double bad : kNonFinite) {
    BenefitModel m = make_uniform_benefit(g);
    m.bf[2] = bad;
    EXPECT_THROW(m.validate(g), std::invalid_argument) << bad;
  }
}

TEST(BenefitModel, ValidationRejectsNonFiniteFofBenefit) {
  const Graph g = path4();
  for (const double bad : kNonFinite) {
    BenefitModel m = make_uniform_benefit(g);
    m.bfof[2] = bad;
    EXPECT_THROW(m.validate(g), std::invalid_argument) << bad;
  }
}

TEST(BenefitModel, ValidationRejectsNonFiniteEdgeBenefit) {
  const Graph g = path4();
  for (const double bad : kNonFinite) {
    BenefitModel m = make_uniform_benefit(g);
    m.bi[1] = bad;
    EXPECT_THROW(m.validate(g), std::invalid_argument) << bad;
  }
}

TEST(BenefitBreakdown, Arithmetic) {
  BenefitBreakdown a{1.0, 2.0, 3.0};
  BenefitBreakdown b{0.5, 0.5, 0.5};
  a += b;
  EXPECT_DOUBLE_EQ(a.total(), 7.5);
  const BenefitBreakdown d = a - b;
  EXPECT_DOUBLE_EQ(d.total(), 6.0);
}

TEST(AcceptanceModel, ConstantBase) {
  const Graph g = path4();
  const AcceptanceModel m = make_constant_acceptance(0.3);
  m.validate(g);
  EXPECT_DOUBLE_EQ(m.probability(g, 0, 0), 0.3);
  EXPECT_DOUBLE_EQ(m.probability(g, 3, 0), 0.3);
}

TEST(AcceptanceModel, MutualBoostSaturating) {
  const Graph g = path4();
  AcceptanceModel m = make_constant_acceptance(0.3);
  m.mutual_boost = 0.5;
  const double q0 = m.probability(g, 0, 0);
  const double q1 = m.probability(g, 0, 1);
  const double q2 = m.probability(g, 0, 2);
  EXPECT_DOUBLE_EQ(q0, 0.3);
  EXPECT_DOUBLE_EQ(q1, 1.0 - 0.7 * 0.5);
  EXPECT_DOUBLE_EQ(q2, 1.0 - 0.7 * 0.25);
  EXPECT_LT(q1, q2);
  EXPECT_LE(q2, 1.0);
}

TEST(AcceptanceModel, PerNodeBaseRates) {
  const Graph g = path4();
  const AcceptanceModel m = make_uniform_acceptance(g, 0.1, 0.5, 0.0, 7);
  m.validate(g);
  for (NodeId u = 0; u < 4; ++u) {
    EXPECT_GE(m.probability(g, u, 0), 0.1);
    EXPECT_LE(m.probability(g, u, 0), 0.5);
  }
}

TEST(AcceptanceModel, AttributeSimilarityBoost) {
  Graph g = path4();
  g = graph::assign_attributes(g, 4, 3, 0.0, 11);
  AcceptanceModel m = make_attribute_acceptance(g, 0.2, 0.4, 0.0, 13);
  m.validate(g);
  // Probability must stay within [0.2, 0.6] and match the formula.
  for (NodeId u = 0; u < 4; ++u) {
    const double q = m.probability(g, u, 0);
    EXPECT_GE(q, 0.2 - 1e-12);
    EXPECT_LE(q, 0.6 + 1e-12);
  }
  // The node whose attributes the attacker cloned gets the full boost.
  bool some_full = false;
  for (NodeId u = 0; u < 4; ++u) {
    some_full |= std::abs(m.probability(g, u, 0) - 0.6) < 1e-12;
  }
  EXPECT_TRUE(some_full);
}

TEST(AcceptanceModel, Validation) {
  const Graph g = path4();
  AcceptanceModel m;
  EXPECT_THROW(m.validate(g), std::invalid_argument);  // empty q0
  m.q0 = {1.5};
  EXPECT_THROW(m.validate(g), std::invalid_argument);
  m.q0 = {0.5};
  m.mutual_boost = 1.0;
  EXPECT_THROW(m.validate(g), std::invalid_argument);
  m.mutual_boost = 0.0;
  m.attr_weight = 0.3;  // no attributes on graph
  EXPECT_THROW(m.validate(g), std::invalid_argument);
}

TEST(Problem, MakeProblemBasics) {
  ProblemOptions opts;
  opts.num_targets = 20;
  opts.seed = 3;
  const Problem p = make_problem(graph::barabasi_albert(100, 3, 5), opts);
  EXPECT_EQ(p.targets.size(), 20u);
  EXPECT_EQ(p.graph.num_nodes(), 100u);
  std::size_t bitmap_count = 0;
  for (auto b : p.is_target) bitmap_count += b;
  EXPECT_EQ(bitmap_count, 20u);
  EXPECT_DOUBLE_EQ(p.cost_of(0), 1.0);
  EXPECT_GT(p.benefit_upper_bound(), 0.0);
}

TEST(Problem, TargetModes) {
  const Graph g = graph::barabasi_albert(200, 3, 5);
  const auto random_t = select_targets(g, 30, TargetMode::kRandom, 1);
  const auto ball_t = select_targets(g, 30, TargetMode::kBfsBall, 1);
  const auto degree_t = select_targets(g, 30, TargetMode::kHighDegree, 1);
  EXPECT_EQ(random_t.size(), 30u);
  EXPECT_EQ(ball_t.size(), 30u);
  EXPECT_EQ(degree_t.size(), 30u);
  EXPECT_TRUE(std::is_sorted(ball_t.begin(), ball_t.end()));
  // High-degree targets should have larger mean degree than random ones.
  auto mean_deg = [&](const std::vector<NodeId>& nodes) {
    double s = 0;
    for (NodeId u : nodes) s += g.degree(u);
    return s / static_cast<double>(nodes.size());
  };
  EXPECT_GT(mean_deg(degree_t), mean_deg(random_t));
}

TEST(Problem, BfsBallIsConnectedish) {
  const Graph g = graph::watts_strogatz(200, 3, 0.0, 1);  // ring lattice
  const auto ball = select_targets(g, 25, TargetMode::kBfsBall, 9);
  // On a ring, a BFS ball is an interval: max - min spans < 2 * count
  // (allowing wraparound to fail this occasionally, use a permissive check:
  // the targets must be far denser than uniform).
  std::vector<NodeId> sorted = ball;
  std::sort(sorted.begin(), sorted.end());
  NodeId best_gap = 0;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    best_gap = std::max(best_gap, sorted[i] - sorted[i - 1]);
  }
  // Uniform sampling would have typical max gaps of ~n/count * log(count);
  // a contiguous ball (possibly wrapping) has one large gap at most.
  std::size_t big_gaps = 0;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    big_gaps += (sorted[i] - sorted[i - 1]) > 10;
  }
  EXPECT_LE(big_gaps, 1u);
}

TEST(Problem, ValidateCatchesBadCost) {
  ProblemOptions opts;
  opts.num_targets = 5;
  Problem p = make_problem(graph::erdos_renyi_gnm(20, 40, 1), opts);
  p.cost.assign(20, 1.0);
  p.cost[3] = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.cost.assign(3, 1.0);
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Problem, ValidateRejectsNonFiniteCost) {
  ProblemOptions opts;
  opts.num_targets = 5;
  Problem p = make_problem(graph::erdos_renyi_gnm(20, 40, 1), opts);
  for (const double bad : kNonFinite) {
    p.cost.assign(20, 1.0);
    p.cost[3] = bad;
    EXPECT_THROW(p.validate(), std::invalid_argument) << bad;
  }
}

TEST(Problem, TargetCountClamped) {
  ProblemOptions opts;
  opts.num_targets = 1000;  // more than nodes
  const Problem p = make_problem(graph::erdos_renyi_gnm(20, 40, 1), opts);
  EXPECT_EQ(p.targets.size(), 20u);
}

}  // namespace
}  // namespace recon::sim
