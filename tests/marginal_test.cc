// Validates the closed-form expected marginal gain Δf(u | ω) (Lemma 1)
// against brute-force Monte-Carlo estimates, and its interaction with
// partial observations.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/batch_state.h"
#include "core/cached_selector.h"
#include "core/marginal.h"
#include "graph/builder.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "sim/observation.h"
#include "sim/problem.h"
#include "sim/world.h"
#include "solver/saa.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace recon::core {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using sim::Observation;
using sim::Problem;

Problem random_problem(int seed, graph::NodeId n = 40, graph::EdgeId m = 90) {
  sim::ProblemOptions opts;
  opts.num_targets = 12;
  opts.base_acceptance = 0.4;
  opts.seed = static_cast<std::uint64_t>(seed);
  return sim::make_problem(
      graph::assign_edge_probs(graph::erdos_renyi_gnm(n, m, seed),
                               graph::EdgeProbModel::uniform(0.15, 0.95), seed + 1),
      opts);
}

TEST(Marginal, HandComputedStar) {
  // Center 0, leaves 1..3; p(0,v) = 0.5, q = 0.4, all targets.
  GraphBuilder b(4);
  for (NodeId v = 1; v < 4; ++v) b.add_edge(0, v, 0.5);
  Problem p;
  p.graph = b.build();
  p.targets = {0, 1, 2, 3};
  p.is_target.assign(4, 1);
  p.benefit = sim::make_paper_benefit(p.graph, p.is_target);
  p.acceptance = sim::make_constant_acceptance(0.4);
  p.validate();

  Observation obs(p);
  // M = 1.5; Bi per edge = 4 / 1.5. Δf(0) = 0.4 * (1 + 3*0.5*0.5 +
  // 3*0.5*(4/1.5)).
  const double expected = 0.4 * (1.0 + 0.75 + 3 * 0.5 * (4.0 / 1.5));
  EXPECT_NEAR(marginal_gain(obs, 0, MarginalPolicy::kWeighted), expected, 1e-12);
  // Leaf: Δf(1) = 0.4 * (1 + 0.5*0.5 + 0.5*(4/1.5)).
  const double leaf = 0.4 * (1.0 + 0.25 + 0.5 * (4.0 / 1.5));
  EXPECT_NEAR(marginal_gain(obs, 1, MarginalPolicy::kWeighted), leaf, 1e-12);
}

TEST(Marginal, PaperLiteralDropsEdgeWeights) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 0.5);
  Problem p;
  p.graph = b.build();
  p.targets = {0, 1};
  p.is_target.assign(2, 1);
  p.benefit = sim::make_paper_benefit(p.graph, p.is_target);
  p.acceptance = sim::make_constant_acceptance(1.0);
  Observation obs(p);
  // M = 0.5, Bi = 4/0.5 = 8.
  const double weighted = marginal_gain(obs, 0, MarginalPolicy::kWeighted);
  const double literal = marginal_gain(obs, 0, MarginalPolicy::kPaperLiteral);
  EXPECT_NEAR(weighted, 1.0 + 0.5 * 0.5 + 0.5 * 8.0, 1e-12);
  EXPECT_NEAR(literal, 1.0 + 0.5 * 0.5 + 8.0, 1e-12);
  EXPECT_GT(literal, weighted);
}

// The weighted closed form must equal the Monte-Carlo expectation of the
// actual benefit delta of requesting u (the defining property of Δf). The
// SAA scenario evaluator provides an independent implementation of that
// benefit delta.
class MarginalVsMonteCarlo : public ::testing::TestWithParam<int> {};

TEST_P(MarginalVsMonteCarlo, ClosedFormMatchesSampling) {
  const int seed = GetParam();
  const Problem p = random_problem(seed);
  Observation obs(p);

  // Advance to a nontrivial partial realization.
  const sim::World w(p, static_cast<std::uint64_t>(seed) + 1000);
  util::Rng rng(static_cast<std::uint64_t>(seed));
  for (int step = 0; step < 8; ++step) {
    const auto u = static_cast<NodeId>(rng.below(p.graph.num_nodes()));
    if (obs.is_friend(u)) continue;
    if (w.attempt_accept(u, obs.attempts(u), obs.acceptance_prob(u))) {
      obs.record_accept(u, w.true_neighbors(u));
    } else {
      obs.record_reject(u);
    }
  }

  const auto scenarios =
      solver::sample_scenarios(obs, 60000, static_cast<std::uint64_t>(seed) * 17 + 3);
  for (NodeId u = 0; u < p.graph.num_nodes(); u += 7) {
    if (obs.is_friend(u)) continue;
    const double closed = marginal_gain(obs, u, MarginalPolicy::kWeighted);
    const double sampled = solver::saa_objective(obs, scenarios, {u});
    // Benefit magnitudes here are O(10); 60k samples give stderr well under
    // the 2.5% relative tolerance used.
    EXPECT_NEAR(sampled, closed, std::max(0.05, closed * 0.025))
        << "node " << u << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarginalVsMonteCarlo, ::testing::Values(1, 2, 3));

TEST(Marginal, ZeroWhenNothingToGain) {
  // Non-target node with no neighbors gains nothing.
  GraphBuilder b(3);
  b.add_edge(0, 1, 1.0);
  Problem p;
  p.graph = b.build();
  p.targets = {0};
  p.is_target = {1, 0, 0};
  p.benefit = sim::make_paper_benefit(p.graph, p.is_target);
  p.acceptance = sim::make_constant_acceptance(0.5);
  Observation obs(p);
  // Node 2 is isolated and not a target: zero gain... except Bi for
  // its (nonexistent) edges — none. Bf(2) = 0.
  EXPECT_DOUBLE_EQ(marginal_gain(obs, 2, MarginalPolicy::kWeighted), 0.0);
}

TEST(Marginal, FofUpgradeReducesGain) {
  const Problem p = random_problem(5);
  Observation obs(p);
  // Find a target with a target neighbor; friending the neighbor makes the
  // target a FoF, which must reduce (not increase) its remaining marginal.
  const sim::World w(p, 99);
  NodeId target = graph::kInvalidNode;
  NodeId anchor = graph::kInvalidNode;
  for (NodeId t : p.targets) {
    for (NodeId v : w.true_neighbors(t)) {
      target = t;
      anchor = v;
      break;
    }
    if (target != graph::kInvalidNode) break;
  }
  ASSERT_NE(target, graph::kInvalidNode);
  const double before = marginal_gain(obs, target, MarginalPolicy::kWeighted);
  obs.record_accept(anchor, w.true_neighbors(anchor));
  ASSERT_TRUE(obs.is_fof(target));
  const double after = marginal_gain(obs, target, MarginalPolicy::kWeighted);
  EXPECT_LT(after, before);
}

TEST(Marginal, AdaptiveSubmodularityProperty) {
  // Δf(u | ω) >= Δf(u | ω') whenever ω ⊆ ω' (Definition 3), checked along a
  // random observation chain for nodes staying unrequested. With constant
  // acceptance (no mutual boost), extending the observation never increases
  // a third party's marginal gain.
  for (int seed = 1; seed <= 6; ++seed) {
    const Problem p = random_problem(seed);
    const sim::World w(p, static_cast<std::uint64_t>(seed) * 7 + 5);
    Observation obs(p);
    std::vector<double> last(p.graph.num_nodes(), 0.0);
    for (NodeId u = 0; u < p.graph.num_nodes(); ++u) {
      last[u] = marginal_gain(obs, u, MarginalPolicy::kWeighted);
    }
    util::Rng rng(static_cast<std::uint64_t>(seed));
    for (int step = 0; step < 12; ++step) {
      const auto r = static_cast<NodeId>(rng.below(p.graph.num_nodes()));
      if (obs.is_friend(r)) continue;
      if (w.attempt_accept(r, obs.attempts(r), obs.acceptance_prob(r))) {
        obs.record_accept(r, w.true_neighbors(r));
      } else {
        obs.record_reject(r);
      }
      for (NodeId u = 0; u < p.graph.num_nodes(); ++u) {
        if (obs.is_friend(u) || obs.node_state(u) != sim::NodeState::kUnknown) continue;
        const double now = marginal_gain(obs, u, MarginalPolicy::kWeighted);
        ASSERT_LE(now, last[u] + 1e-9) << "seed " << seed << " node " << u;
        last[u] = now;
      }
    }
  }
}

TEST(Marginal, MutualBoostCanRaiseMarginals) {
  // With the mutual-friend boost, observing an accept can *increase* a
  // neighbor's marginal gain (q rises) — the dynamic that makes retrying
  // rejected nodes worthwhile (Sec. IV-C) and the reason the cross-batch
  // cache must dirty the accepted node's neighborhood.
  sim::ProblemOptions opts;
  opts.num_targets = 10;
  opts.base_acceptance = 0.3;
  opts.mutual_boost = 0.4;
  opts.seed = 4;
  const Problem p = sim::make_problem(
      graph::assign_edge_probs(graph::barabasi_albert(50, 3, 4),
                               graph::EdgeProbModel::uniform(0.5, 0.9), 5),
      opts);
  const sim::World w(p, 9);
  Observation obs(p);
  // Find an accepted node with an unrequested true neighbor.
  bool found_increase = false;
  for (NodeId u = 0; u < p.graph.num_nodes() && !found_increase; ++u) {
    const auto nbrs = w.true_neighbors(u);
    if (nbrs.empty()) continue;
    Observation trial(p);
    std::vector<double> before(p.graph.num_nodes());
    for (NodeId v : nbrs) before[v] = marginal_gain(trial, v, MarginalPolicy::kWeighted);
    trial.record_accept(u, nbrs);
    for (NodeId v : nbrs) {
      if (trial.is_friend(v)) continue;
      const double after = marginal_gain(trial, v, MarginalPolicy::kWeighted);
      if (after > before[v] + 1e-9) found_increase = true;
    }
  }
  EXPECT_TRUE(found_increase);
}

// The state-free Γ₀ pass must reproduce marginal_gain on a fresh
// observation bit for bit (memcmp, not a tolerance), and with it the empty
// batch's Γ(u | ∅), for every node, policy and cost mode.
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_empty_gains_bit_identical(const Problem& p, const std::string& label) {
  const NodeId n = p.graph.num_nodes();
  std::vector<NodeId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  const Observation obs(p);
  ASSERT_TRUE(obs.pristine());
  BatchState state(n);
  state.reset();
  for (const MarginalPolicy policy :
       {MarginalPolicy::kWeighted, MarginalPolicy::kPaperLiteral}) {
    std::vector<double> gamma0(n, -1.0);
    empty_marginal_gains(p, policy, nodes, gamma0);
    const auto memo = compute_empty_scores(p, policy, /*cost_sensitive=*/!p.cost.empty());
    ASSERT_EQ(memo->scores.size(), n);
    std::size_t positive = 0;
    for (NodeId u = 0; u < n; ++u) {
      const double ref = marginal_gain(obs, u, policy);
      ASSERT_TRUE(same_bits(gamma0[u], ref))
          << label << " node " << u << ": " << gamma0[u] << " vs " << ref;
      ASSERT_TRUE(same_bits(gamma0[u], state.gamma(obs, u, policy)))
          << label << " node " << u << " vs BatchState::gamma";
      const double scored = p.cost.empty() ? ref : ref / p.cost_of(u);
      ASSERT_TRUE(same_bits(memo->scores[u], scored)) << label << " memo node " << u;
      positive += ref > 0.0 ? 1 : 0;
    }
    EXPECT_GT(positive, 0u) << label;
  }
}

Problem problem_over(graph::Graph g, std::uint64_t seed, bool paper_benefit,
                     double boost) {
  sim::ProblemOptions opts;
  opts.num_targets = 25;
  opts.base_acceptance = 0.35;
  opts.mutual_boost = boost;
  opts.paper_benefit = paper_benefit;
  opts.seed = seed;
  return sim::make_problem(std::move(g), opts);
}

graph::Graph ba_graph(std::uint64_t seed) {
  return graph::assign_edge_probs(graph::barabasi_albert(300, 4, seed),
                                  graph::EdgeProbModel::uniform(0.1, 0.9), seed + 1);
}

graph::Graph er_graph(std::uint64_t seed) {
  return graph::assign_edge_probs(graph::erdos_renyi_gnm(250, 700, seed),
                                  graph::EdgeProbModel::uniform(0.1, 0.9), seed + 1);
}

TEST(EmptyMarginalGains, BitIdenticalOnBarabasiAlbertAndErdosRenyi) {
  for (const bool paper : {true, false}) {
    for (const double boost : {0.0, 0.2}) {
      const std::string tag = std::string(paper ? " paper" : " uniform") +
                              " boost=" + std::to_string(boost);
      expect_empty_gains_bit_identical(problem_over(ba_graph(3), 3, paper, boost),
                                       "ba" + tag);
      expect_empty_gains_bit_identical(problem_over(er_graph(4), 4, paper, boost),
                                       "er" + tag);
    }
  }
}

TEST(EmptyMarginalGains, BitIdenticalOnRelabeledGraph) {
  const graph::Graph g = ba_graph(5);
  expect_empty_gains_bit_identical(
      problem_over(graph::remap_graph(g, graph::degree_sort_permutation(g)), 5, true, 0.1),
      "relabeled");
}

TEST(EmptyMarginalGains, SkipsZeroProbabilityEdges) {
  graph::Graph g = ba_graph(6);
  std::vector<double> probs(g.edge_probs().begin(), g.edge_probs().end());
  for (std::size_t e = 0; e < probs.size(); e += 3) probs[e] = 0.0;
  g.set_edge_probs(std::move(probs));
  for (const bool paper : {true, false}) {
    expect_empty_gains_bit_identical(problem_over(g, 6, paper, 0.0),
                                     paper ? "p=0 paper" : "p=0 uniform");
  }
}

TEST(EmptyMarginalGains, BitIdenticalWithCosts) {
  Problem p = problem_over(ba_graph(7), 7, true, 0.15);
  util::Rng rng(7);
  p.cost.resize(p.graph.num_nodes());
  for (double& c : p.cost) c = rng.uniform(0.5, 3.0);
  p.validate();
  expect_empty_gains_bit_identical(p, "costs");
}

TEST(EmptyMarginalGains, BitIdenticalUnderAttributeAcceptance) {
  Problem p = problem_over(graph::assign_attributes(ba_graph(8), 3, 4, 0.5, 9), 8, true, 0.0);
  p.acceptance = sim::make_attribute_acceptance(p.graph, 0.2, 0.5, 0.25, 10);
  p.validate();
  expect_empty_gains_bit_identical(p, "attributes");
}

TEST(EmptyMarginalGains, PristineSurvivesRejectsButNotAnAccept) {
  const Problem p = problem_over(ba_graph(11), 11, true, 0.2);
  const sim::World w(p, 12);
  Observation obs(p);
  EXPECT_TRUE(obs.pristine());
  obs.record_reject(0);
  obs.record_no_response(1);
  EXPECT_TRUE(obs.pristine());
  // The rejected and timed-out nodes still score as on a fresh observation.
  std::vector<double> gamma0(p.graph.num_nodes());
  const std::vector<NodeId> probe = {0, 1, 2};
  empty_marginal_gains(p, MarginalPolicy::kWeighted, probe, gamma0);
  for (const NodeId u : probe) {
    EXPECT_TRUE(same_bits(gamma0[u], marginal_gain(obs, u, MarginalPolicy::kWeighted)));
  }
  obs.record_accept(2, w.true_neighbors(2));
  EXPECT_FALSE(obs.pristine());

  // restore() recomputes the flag: a rejects-only state is pristine, one
  // with a friend is not.
  const NodeId n = p.graph.num_nodes();
  std::vector<sim::NodeState> states(n, sim::NodeState::kUnknown);
  std::vector<std::uint32_t> attempts(n, 0);
  states[0] = sim::NodeState::kRejected;
  attempts[0] = 1;
  Observation copy(p);
  copy.restore(states, std::vector<sim::EdgeState>(p.graph.num_edges()), attempts, {});
  EXPECT_TRUE(copy.pristine());
  for (NodeId u = 0; u < n; ++u) {
    states[u] = obs.node_state(u);
    attempts[u] = obs.attempts(u);
  }
  copy.restore(states, obs.edge_states(), attempts, obs.friends());
  EXPECT_FALSE(copy.pristine());
}

// The whole-graph edge-major pass must give every node marginal_gain's
// bits on a fresh observation, with no pool and with 2, 3 and 5
// participants, and the memo built through it must too.
void expect_whole_pass_bit_identical(const Problem& p, const std::string& label) {
  const NodeId n = p.graph.num_nodes();
  const Observation obs(p);
  ASSERT_TRUE(obs.pristine());
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const unsigned workers : {1u, 2u, 4u}) {
    pools.push_back(std::make_unique<util::ThreadPool>(workers));
  }
  for (const MarginalPolicy policy :
       {MarginalPolicy::kWeighted, MarginalPolicy::kPaperLiteral}) {
    std::vector<double> ref(n);
    for (NodeId u = 0; u < n; ++u) ref[u] = marginal_gain(obs, u, policy);
    for (const auto& pool : pools) {
      const std::string tag =
          label + " workers=" + std::to_string(pool ? pool->size() : 0) +
          (policy == MarginalPolicy::kWeighted ? " weighted" : " literal");
      std::vector<double> gamma0(n, -1.0);
      empty_marginal_gains_all(p, policy, gamma0, pool.get());
      const auto memo =
          compute_empty_scores(p, policy, /*cost_sensitive=*/!p.cost.empty(), pool.get());
      ASSERT_EQ(memo->scores.size(), n) << tag;
      for (NodeId u = 0; u < n; ++u) {
        ASSERT_TRUE(same_bits(gamma0[u], ref[u]))
            << tag << " node " << u << ": " << gamma0[u] << " vs " << ref[u];
        const double scored = p.cost.empty() ? ref[u] : ref[u] / p.cost_of(u);
        ASSERT_TRUE(same_bits(memo->scores[u], scored)) << tag << " memo node " << u;
      }
    }
  }
}

TEST(EmptyMarginalGainsAll, BitIdenticalOnBarabasiAlbertAndErdosRenyi) {
  for (const bool paper : {true, false}) {
    const std::string tag = paper ? " paper" : " uniform";
    expect_whole_pass_bit_identical(problem_over(ba_graph(13), 13, paper, 0.2), "ba" + tag);
    expect_whole_pass_bit_identical(problem_over(er_graph(14), 14, paper, 0.0), "er" + tag);
  }
}

TEST(EmptyMarginalGainsAll, BitIdenticalOnRelabeledGraph) {
  const graph::Graph g = ba_graph(15);
  expect_whole_pass_bit_identical(
      problem_over(graph::remap_graph(g, graph::degree_sort_permutation(g)), 15, true, 0.1),
      "relabeled");
}

TEST(EmptyMarginalGainsAll, BitIdenticalWithCostsAndZeroProbabilityEdges) {
  graph::Graph g = er_graph(16);
  std::vector<double> probs(g.edge_probs().begin(), g.edge_probs().end());
  for (std::size_t e = 0; e < probs.size(); e += 3) probs[e] = 0.0;
  g.set_edge_probs(std::move(probs));
  Problem p = problem_over(std::move(g), 16, true, 0.15);
  expect_whole_pass_bit_identical(p, "p=0");
  util::Rng rng(16);
  p.cost.resize(p.graph.num_nodes());
  for (double& c : p.cost) c = rng.uniform(0.5, 3.0);
  p.validate();
  expect_whole_pass_bit_identical(p, "p=0 costs");
}

TEST(EmptyMarginalGainsAll, IsolatedNodesAndMoreParticipantsThanNodes) {
  // Three nodes under five participants leave ranges empty; node 1 and
  // the last nodes of the wider graph have no edge at all.
  for (const NodeId n : {NodeId{3}, NodeId{40}}) {
    GraphBuilder b(n);
    b.add_edge(0, 2, 0.7);
    for (NodeId u = 3; u + 8 < n; ++u) b.add_edge(u, u + 1 + u % 5, 0.1 + 0.02 * u);
    Problem p;
    p.graph = b.build();
    for (NodeId u = 0; u < n; u += 2) p.targets.push_back(u);
    p.is_target.assign(n, 0);
    for (const NodeId t : p.targets) p.is_target[t] = 1;
    p.benefit = sim::make_paper_benefit(p.graph, p.is_target);
    p.acceptance = sim::make_constant_acceptance(0.3);
    p.validate();
    expect_whole_pass_bit_identical(p, "n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace recon::core
