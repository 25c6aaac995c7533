// End-to-end tests of strategies and the attack runner.
#include <gtest/gtest.h>

#include <memory>

#include "core/attack.h"
#include "core/baselines.h"
#include "core/branch_tree.h"
#include "core/m_arest.h"
#include "core/pm_arest.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "sim/problem.h"

namespace recon::core {
namespace {

using graph::NodeId;
using sim::Problem;

Problem test_problem(int seed, graph::NodeId n = 120) {
  sim::ProblemOptions opts;
  opts.num_targets = 25;
  opts.base_acceptance = 0.4;
  opts.seed = static_cast<std::uint64_t>(seed);
  return sim::make_problem(
      graph::assign_edge_probs(graph::barabasi_albert(n, 4, seed),
                               graph::EdgeProbModel::uniform(0.3, 0.95), seed + 1),
      opts);
}

TEST(RunAttack, RespectsBudgetExactly) {
  const Problem p = test_problem(1);
  const sim::World w(p, 11);
  PmArest strategy(PmArestOptions{.batch_size = 7});
  const auto trace = run_attack(p, w, strategy, 35.0);
  EXPECT_LE(trace.total_cost(), 35.0 + 1e-9);
  EXPECT_EQ(trace.total_requests(), 35u);  // uniform costs, enough candidates
  for (const auto& b : trace.batches) EXPECT_LE(b.requests.size(), 7u);
}

TEST(RunAttack, NonDivisibleBudgetTruncatesLastBatch) {
  const Problem p = test_problem(1);
  const sim::World w(p, 11);
  PmArest strategy(PmArestOptions{.batch_size = 10});
  const auto trace = run_attack(p, w, strategy, 25.0);
  EXPECT_EQ(trace.total_requests(), 25u);
  EXPECT_EQ(trace.batches.back().requests.size(), 5u);
}

TEST(RunAttack, DeterministicGivenSeeds) {
  const Problem p = test_problem(2);
  const sim::World w(p, 42);
  PmArest s1(PmArestOptions{.batch_size = 5});
  PmArest s2(PmArestOptions{.batch_size = 5});
  const auto t1 = run_attack(p, w, s1, 30.0);
  const auto t2 = run_attack(p, w, s2, 30.0);
  ASSERT_EQ(t1.batches.size(), t2.batches.size());
  for (std::size_t i = 0; i < t1.batches.size(); ++i) {
    EXPECT_EQ(t1.batches[i].requests, t2.batches[i].requests);
    EXPECT_EQ(t1.batches[i].accepted, t2.batches[i].accepted);
  }
  EXPECT_DOUBLE_EQ(t1.total_benefit(), t2.total_benefit());
}

TEST(RunAttack, CumulativeBookkeepingConsistent) {
  const Problem p = test_problem(3);
  const sim::World w(p, 5);
  PmArest strategy(PmArestOptions{.batch_size = 6});
  const auto trace = run_attack(p, w, strategy, 42.0);
  sim::BenefitBreakdown sum;
  double cost = 0.0;
  for (const auto& b : trace.batches) {
    sum += b.delta;
    cost += b.cost;
    EXPECT_NEAR(sum.total(), b.cumulative.total(), 1e-9);
    EXPECT_NEAR(cost, b.cumulative_cost, 1e-9);
    ASSERT_EQ(b.requests.size(), b.accepted.size());
  }
  EXPECT_GT(trace.total_benefit(), 0.0);
}

TEST(RunAttack, BenefitByRequestIsMonotone) {
  const Problem p = test_problem(4);
  const sim::World w(p, 5);
  MArest strategy;
  const auto trace = run_attack(p, w, strategy, 30.0);
  const auto curve = trace.benefit_by_request();
  EXPECT_EQ(curve.size(), trace.total_requests());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1] - 1e-12);
  }
  EXPECT_NEAR(curve.back(), trace.total_benefit(), 1e-12);
}

TEST(RunAttack, MArestSendsSingleRequests) {
  const Problem p = test_problem(5);
  const sim::World w(p, 9);
  MArest strategy;
  const auto trace = run_attack(p, w, strategy, 20.0);
  EXPECT_EQ(trace.batches.size(), 20u);
  for (const auto& b : trace.batches) EXPECT_EQ(b.requests.size(), 1u);
}

TEST(RunAttack, RejectsBadBudget) {
  const Problem p = test_problem(1);
  const sim::World w(p, 1);
  MArest strategy;
  EXPECT_THROW(run_attack(p, w, strategy, 0.0), std::invalid_argument);
}

TEST(RunAttack, RetriesReattemptRejectedNodes) {
  const Problem p = test_problem(6);
  const sim::World w(p, 3);
  PmArest strategy(PmArestOptions{.batch_size = 5, .allow_retries = true});
  const auto trace = run_attack(p, w, strategy, 200.0);
  // With only 120 nodes and budget 200, retries must occur.
  std::map<NodeId, int> attempts;
  for (const auto& b : trace.batches) {
    for (NodeId u : b.requests) ++attempts[u];
  }
  int retried = 0;
  for (const auto& [u, a] : attempts) retried += a > 1;
  EXPECT_GT(retried, 0);
  // More requests than nodes proves reattempts happened; the attack may end
  // before the full budget once no candidate has positive marginal gain.
  EXPECT_GT(trace.total_requests(), 120u);
  EXPECT_LE(trace.total_requests(), 200u);
}

TEST(RunAttack, NoRetryNeverReattempts) {
  const Problem p = test_problem(6);
  const sim::World w(p, 3);
  PmArest strategy(PmArestOptions{.batch_size = 5, .allow_retries = false});
  const auto trace = run_attack(p, w, strategy, 200.0);
  std::map<NodeId, int> attempts;
  for (const auto& b : trace.batches) {
    for (NodeId u : b.requests) ++attempts[u];
  }
  for (const auto& [u, a] : attempts) EXPECT_EQ(a, 1) << "node " << u;
  // Attack ends when all 120 candidates are exhausted.
  EXPECT_LE(trace.total_requests(), 120u);
}

TEST(RunAttack, VaryingBatchSizesInRange) {
  const Problem p = test_problem(7);
  const sim::World w(p, 13);
  PmArest strategy(PmArestOptions{
      .batch_size = 5, .vary_k_min = 3, .vary_k_max = 9, .seed = 77});
  const auto trace = run_attack(p, w, strategy, 60.0);
  std::set<std::size_t> sizes;
  for (std::size_t i = 0; i + 1 < trace.batches.size(); ++i) {
    const auto sz = trace.batches[i].requests.size();
    EXPECT_GE(sz, 3u);
    EXPECT_LE(sz, 9u);
    sizes.insert(sz);
  }
  EXPECT_GT(sizes.size(), 1u);  // actually varies
}

TEST(Strategies, OptionValidation) {
  EXPECT_THROW(PmArest(PmArestOptions{.batch_size = 0}), std::invalid_argument);
  EXPECT_THROW(PmArest(PmArestOptions{.vary_k_min = 5, .vary_k_max = 3}),
               std::invalid_argument);
  EXPECT_THROW(RandomStrategy(0, 1), std::invalid_argument);
  EXPECT_THROW(HighDegreeStrategy(-1), std::invalid_argument);
}

TEST(Strategies, NamesAreDescriptive) {
  EXPECT_EQ(PmArest(PmArestOptions{.batch_size = 5}).name(), "PM-AReST(k=5)");
  EXPECT_EQ(PmArest(PmArestOptions{.batch_size = 5, .allow_retries = true}).name(),
            "PM-AReST(k=5,retry)");
  EXPECT_EQ(MArest().name(), "M-AReST");
  EXPECT_EQ(PmArest(PmArestOptions{.vary_k_min = 5, .vary_k_max = 15}).name(),
            "PM-AReST(k=5..15)");
}

TEST(MonteCarlo, MeansAndParallelEquivalence) {
  const Problem p = test_problem(8);
  const StrategyFactory factory = [](int) {
    return std::make_unique<PmArest>(PmArestOptions{.batch_size = 5});
  };
  const auto seq = run_monte_carlo(p, factory, 6, 30.0, 123, nullptr);
  util::ThreadPool pool(3);
  const auto par = run_monte_carlo(p, factory, 6, 30.0, 123, &pool);
  ASSERT_EQ(seq.traces.size(), 6u);
  EXPECT_DOUBLE_EQ(seq.mean_benefit(), par.mean_benefit());
  EXPECT_DOUBLE_EQ(seq.mean_requests(), par.mean_requests());
  EXPECT_GT(seq.mean_benefit(), 0.0);
}

TEST(Comparison, PmArestBeatsRandomAndTargetFirst) {
  const Problem p = test_problem(9, 150);
  auto mean_for = [&](const StrategyFactory& f) {
    return run_monte_carlo(p, f, 8, 45.0, 31).mean_benefit();
  };
  const double pm = mean_for(
      [](int) { return std::make_unique<PmArest>(PmArestOptions{.batch_size = 5}); });
  const double rnd = mean_for(
      [](int r) { return std::make_unique<RandomStrategy>(5, 1000 + r); });
  const double tf = mean_for(
      [](int) { return std::make_unique<TargetFirstStrategy>(5); });
  EXPECT_GT(pm, rnd * 1.3);
  EXPECT_GT(pm, tf);
}

TEST(Comparison, SequentialBeatsOrMatchesBatch) {
  // The paper's central gap (Fig. 4): M-AReST >= PM-AReST in benefit, and the
  // gap narrows for smaller k.
  const Problem p = test_problem(10, 150);
  auto mean_for = [&](const StrategyFactory& f) {
    return run_monte_carlo(p, f, 10, 45.0, 77).mean_benefit();
  };
  const double m = mean_for([](int) { return std::make_unique<MArest>(); });
  const double pm5 = mean_for(
      [](int) { return std::make_unique<PmArest>(PmArestOptions{.batch_size = 5}); });
  const double pm15 = mean_for(
      [](int) { return std::make_unique<PmArest>(PmArestOptions{.batch_size = 15}); });
  EXPECT_GE(m, pm5 * 0.98);   // allow MC noise
  EXPECT_GE(pm5, pm15 * 0.95);
  EXPECT_GT(pm15, 0.0);
}

TEST(Comparison, RetriesHelpWhenBudgetExceedsCandidates) {
  const Problem p = test_problem(11, 100);
  auto mean_for = [&](bool retries) {
    return run_monte_carlo(
               p,
               [retries](int) {
                 return std::make_unique<PmArest>(
                     PmArestOptions{.batch_size = 5, .allow_retries = retries});
               },
               10, 150.0, 55)
        .mean_benefit();
  };
  EXPECT_GT(mean_for(true), mean_for(false) * 1.02);
}

/// The literal 2^k branch-tree selector behind the Strategy interface, under
/// PM-AReST's no-retry attempt cap of one request per node.
class BranchTreeStrategy : public Strategy {
 public:
  explicit BranchTreeStrategy(int k) : k_(k) {}
  std::string name() const override { return "branch-tree"; }
  std::vector<NodeId> next_batch(const sim::Observation& obs,
                                 double remaining_budget) override {
    (void)remaining_budget;  // unit costs: the runner truncates the last batch
    BranchTreeOptions bt;
    bt.batch_size = k_;
    bt.max_attempts_per_node = 1;
    return branch_tree_select(obs, bt);
  }

 private:
  int k_;
};

TEST(Comparison, BranchTreeStrategyMatchesCollapsed) {
  const Problem p = test_problem(12, 60);
  const sim::World w(p, 21);
  PmArest fast(PmArestOptions{.batch_size = 5});
  BranchTreeStrategy slow(5);
  const auto tf = run_attack(p, w, fast, 20.0);
  const auto ts = run_attack(p, w, slow, 20.0);
  ASSERT_EQ(tf.batches.size(), ts.batches.size());
  for (std::size_t i = 0; i < tf.batches.size(); ++i) {
    EXPECT_EQ(tf.batches[i].requests, ts.batches[i].requests);
  }
}

}  // namespace
}  // namespace recon::core
