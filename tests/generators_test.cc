// Tests for the random-graph generators: size/degree contracts, determinism,
// distribution sanity, parameterized sweeps over generator settings, and
// bit-for-bit differential checks against the reference implementations in
// generator_oracle.h.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "generator_oracle.h"
#include "graph/builder.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "test_scratch.h"
#include "util/rng.h"

namespace recon::graph {
namespace {

TEST(ErdosRenyiGnm, ExactEdgeCount) {
  const Graph g = erdos_renyi_gnm(50, 200, 7);
  EXPECT_EQ(g.num_nodes(), 50u);
  EXPECT_EQ(g.num_edges(), 200u);
}

TEST(ErdosRenyiGnm, Deterministic) {
  const Graph a = erdos_renyi_gnm(30, 60, 5);
  const Graph b = erdos_renyi_gnm(30, 60, 5);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge_u(e), b.edge_u(e));
    EXPECT_EQ(a.edge_v(e), b.edge_v(e));
  }
}

TEST(ErdosRenyiGnm, RejectsOverfullAndTiny) {
  EXPECT_THROW(erdos_renyi_gnm(3, 4, 1), std::invalid_argument);
  EXPECT_THROW(erdos_renyi_gnm(1, 1, 1), std::invalid_argument);
  const Graph g = erdos_renyi_gnm(4, 6, 1);  // complete K4
  EXPECT_EQ(g.num_edges(), 6u);
}

TEST(ErdosRenyiGnp, EdgeCountNearExpectation) {
  const NodeId n = 200;
  const double p = 0.05;
  const Graph g = erdos_renyi_gnp(n, p, 11);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 4.0 * std::sqrt(expected));
}

TEST(ErdosRenyiGnp, ExtremeProbabilities) {
  EXPECT_EQ(erdos_renyi_gnp(10, 0.0, 1).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi_gnp(10, 1.0, 1).num_edges(), 45u);
  EXPECT_THROW(erdos_renyi_gnp(10, 1.5, 1), std::invalid_argument);
}

TEST(BarabasiAlbert, SizeAndMeanDegree) {
  const Graph g = barabasi_albert(500, 5, 3);
  EXPECT_EQ(g.num_nodes(), 500u);
  // Edges ~ m*(n - m - 1) + clique: mean degree ~ 2m.
  const auto s = degree_stats(g);
  EXPECT_NEAR(s.mean, 10.0, 1.0);
  EXPECT_GE(s.min, 5u);  // every late node attaches to m distinct nodes
}

TEST(BarabasiAlbert, HeavyTail) {
  const Graph g = barabasi_albert(2000, 3, 9);
  const auto s = degree_stats(g);
  // Preferential attachment should produce hubs far above the mean.
  EXPECT_GT(static_cast<double>(s.max), 6.0 * s.mean);
}

TEST(BarabasiAlbert, Validation) {
  EXPECT_THROW(barabasi_albert(5, 0, 1), std::invalid_argument);
  EXPECT_THROW(barabasi_albert(3, 3, 1), std::invalid_argument);
}

TEST(WattsStrogatz, LatticeAtBetaZero) {
  const Graph g = watts_strogatz(50, 3, 0.0, 1);
  EXPECT_EQ(g.num_edges(), 150u);
  for (NodeId u = 0; u < g.num_nodes(); ++u) EXPECT_EQ(g.degree(u), 6u);
}

TEST(WattsStrogatz, HighClusteringLowBeta) {
  const Graph g = watts_strogatz(400, 5, 0.05, 2);
  EXPECT_GT(clustering_coefficient(g, 2000, 3), 0.4);
}

TEST(WattsStrogatz, RewiringReducesClustering) {
  const double low = clustering_coefficient(watts_strogatz(400, 5, 0.0, 2), 2000, 3);
  const double high = clustering_coefficient(watts_strogatz(400, 5, 0.9, 2), 2000, 3);
  EXPECT_LT(high, low * 0.5);
}

TEST(WattsStrogatz, Validation) {
  EXPECT_THROW(watts_strogatz(10, 0, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(watts_strogatz(10, 5, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(watts_strogatz(10, 2, 1.5, 1), std::invalid_argument);
}

TEST(StochasticBlockModel, CommunityStructure) {
  const Graph g = stochastic_block_model(150, 3, 0.3, 0.01, 5);
  // Count within vs across edges (block = id % 3).
  std::size_t within = 0, across = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    (g.edge_u(e) % 3 == g.edge_v(e) % 3 ? within : across) += 1;
  }
  EXPECT_GT(within, across * 3);
}

TEST(StochasticBlockModel, EdgeCountNearExpectation) {
  const Graph g = stochastic_block_model(105, 3, 0.20, 0.023, 42);
  // Matched to US Pol. Books: expect roughly 440 edges.
  EXPECT_NEAR(static_cast<double>(g.num_edges()), 441.0, 90.0);
}

TEST(ForestFire, GrowsConnectedHeavyTailedGraph) {
  const Graph g = forest_fire(1500, 0.35, 7);
  EXPECT_EQ(g.num_nodes(), 1500u);
  EXPECT_EQ(connected_components(g), 1u);  // every arrival links to someone
  const auto s = degree_stats(g);
  EXPECT_GE(s.min, 1u);
  EXPECT_GT(static_cast<double>(s.max), 5.0 * s.mean);  // hubs
}

TEST(ForestFire, BurningProbabilityControlsDensity) {
  const auto low = degree_stats(forest_fire(800, 0.1, 3)).mean;
  const auto high = degree_stats(forest_fire(800, 0.45, 3)).mean;
  EXPECT_GT(high, low * 1.5);
}

TEST(ForestFire, Validation) {
  EXPECT_THROW(forest_fire(10, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(forest_fire(10, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(forest_fire(1, 0.3, 1), std::invalid_argument);
}

TEST(PowerlawConfiguration, DegreeBoundsRespected) {
  const Graph g = powerlaw_configuration(500, 2.0, 3, 50, 17);
  EXPECT_EQ(g.num_nodes(), 500u);
  const auto s = degree_stats(g);
  // Collisions may reduce degrees slightly, never increase them.
  EXPECT_LE(s.max, 50u);
  EXPECT_GT(s.mean, 3.0);
}

TEST(PowerlawConfiguration, Validation) {
  EXPECT_THROW(powerlaw_configuration(10, 2.0, 0, 5, 1), std::invalid_argument);
  EXPECT_THROW(powerlaw_configuration(10, 2.0, 6, 5, 1), std::invalid_argument);
  EXPECT_THROW(powerlaw_configuration(10, 2.0, 2, 10, 1), std::invalid_argument);
}

TEST(EdgeProbModels, ConstantUniformBeta) {
  const Graph base = erdos_renyi_gnm(60, 150, 3);
  const Graph c = assign_edge_probs(base, EdgeProbModel::constant(0.4), 1);
  for (EdgeId e = 0; e < c.num_edges(); ++e) EXPECT_DOUBLE_EQ(c.edge_prob(e), 0.4);

  const Graph u = assign_edge_probs(base, EdgeProbModel::uniform(0.2, 0.8), 1);
  double mean = 0.0;
  for (EdgeId e = 0; e < u.num_edges(); ++e) {
    EXPECT_GE(u.edge_prob(e), 0.2);
    EXPECT_LE(u.edge_prob(e), 0.8);
    mean += u.edge_prob(e);
  }
  EXPECT_NEAR(mean / u.num_edges(), 0.5, 0.06);

  const Graph bt = assign_edge_probs(base, EdgeProbModel::beta(4.0, 2.0), 1);
  mean = 0.0;
  for (EdgeId e = 0; e < bt.num_edges(); ++e) mean += bt.edge_prob(e);
  EXPECT_NEAR(mean / bt.num_edges(), 4.0 / 6.0, 0.06);
}

TEST(EdgeProbModels, StructuralFavorsEmbeddedEdges) {
  // A triangle edge has positive Jaccard; a pendant edge has zero.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(2, 3);
  const Graph g = assign_edge_probs(b.build(), EdgeProbModel::structural(0.4, 0.5), 1);
  EXPECT_GT(g.edge_prob(g.find_edge(0, 1)), g.edge_prob(g.find_edge(2, 3)));
  EXPECT_DOUBLE_EQ(g.edge_prob(g.find_edge(2, 3)), 0.4);
}

TEST(EdgeProbModels, PreservesTopology) {
  const Graph base = barabasi_albert(100, 4, 5);
  const Graph g = assign_edge_probs(base, EdgeProbModel::uniform(0.1, 0.9), 2);
  ASSERT_EQ(g.num_edges(), base.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g.edge_u(e), base.edge_u(e));
    EXPECT_EQ(g.edge_v(e), base.edge_v(e));
  }
}

TEST(Attributes, HomophilyIncreasesNeighborAgreement) {
  const Graph base = watts_strogatz(300, 4, 0.05, 7);
  const Graph lo = assign_attributes(base, 1, 8, 0.0, 9);
  const Graph hi = assign_attributes(base, 1, 8, 0.95, 9);
  auto agreement = [](const Graph& g) {
    std::size_t agree = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      agree += g.node_attributes(g.edge_u(e))[0] == g.node_attributes(g.edge_v(e))[0];
    }
    return static_cast<double>(agree) / g.num_edges();
  };
  EXPECT_GT(agreement(hi), agreement(lo) + 0.15);
}

TEST(Attributes, Validation) {
  const Graph base = erdos_renyi_gnm(10, 15, 1);
  EXPECT_THROW(assign_attributes(base, 0, 4, 0.5, 1), std::invalid_argument);
  EXPECT_THROW(assign_attributes(base, 2, 0, 0.5, 1), std::invalid_argument);
}

TEST(BetaSampling, MomentsMatch) {
  util::Rng rng(19);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = sample_beta(2.0, 5.0, rng);
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 1.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0 / 7.0, 0.01);
  EXPECT_NEAR(var, 2.0 * 5.0 / (49.0 * 8.0), 0.005);
}

TEST(GammaSampling, MeanMatchesShape) {
  util::Rng rng(23);
  for (double shape : {0.5, 1.0, 3.5}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += sample_gamma(shape, rng);
    EXPECT_NEAR(sum / n, shape, shape * 0.06) << "shape=" << shape;
  }
}

// Parameterized sweep: every generator must produce a simple graph (no
// self-loops, no duplicate edges — duplicates would have been merged, so we
// check the invariant structurally) and be deterministic in its seed.
struct GenCase {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

Graph gen_gnm(std::uint64_t s) { return erdos_renyi_gnm(80, 160, s); }
Graph gen_gnp(std::uint64_t s) { return erdos_renyi_gnp(80, 0.05, s); }
Graph gen_ba(std::uint64_t s) { return barabasi_albert(80, 3, s); }
Graph gen_ws(std::uint64_t s) { return watts_strogatz(80, 3, 0.2, s); }
Graph gen_sbm(std::uint64_t s) { return stochastic_block_model(80, 4, 0.25, 0.02, s); }
Graph gen_pl(std::uint64_t s) { return powerlaw_configuration(80, 2.2, 2, 20, s); }
Graph gen_ff(std::uint64_t s) { return forest_fire(80, 0.3, s); }

class GeneratorInvariants : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorInvariants, SimpleGraph) {
  const Graph g = GetParam().make(31);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_NE(g.edge_u(e), g.edge_v(e));
    EXPECT_LT(g.edge_u(e), g.edge_v(e));
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    for (std::size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LT(nbrs[i - 1], nbrs[i]);  // sorted & distinct
    }
  }
}

TEST_P(GeneratorInvariants, SeedDeterminism) {
  const Graph a = GetParam().make(77);
  const Graph b = GetParam().make(77);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge_u(e), b.edge_u(e));
    EXPECT_EQ(a.edge_v(e), b.edge_v(e));
  }
}

TEST_P(GeneratorInvariants, SeedSensitivity) {
  const Graph a = GetParam().make(1);
  const Graph b = GetParam().make(2);
  // Different seeds should not produce identical edge sets (WS at beta=0
  // would, but all sweep cases have randomness).
  bool differs = a.num_edges() != b.num_edges();
  for (EdgeId e = 0; !differs && e < a.num_edges(); ++e) {
    differs = a.edge_u(e) != b.edge_u(e) || a.edge_v(e) != b.edge_v(e);
  }
  EXPECT_TRUE(differs);
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, GeneratorInvariants,
                         ::testing::Values(GenCase{"gnm", gen_gnm},
                                           GenCase{"gnp", gen_gnp},
                                           GenCase{"ba", gen_ba},
                                           GenCase{"ws", gen_ws},
                                           GenCase{"sbm", gen_sbm},
                                           GenCase{"pl", gen_pl},
                                           GenCase{"ff", gen_ff}),
                         [](const auto& pinfo) { return pinfo.param.name; });


// ---------------------------------------------------------------------------
// Differential tests: the production builder, Barabási–Albert sampler and
// in-place edge-probability assignment against generator_oracle.h.
// ---------------------------------------------------------------------------

TEST(GeneratorOracle, BarabasiAlbertMatchesBitForBit) {
  for (const NodeId m : {1u, 2u, 5u, 22u}) {
    for (const NodeId n : {m + 1, m + 2, 60u, 400u}) {
      for (const std::uint64_t seed : {1ull, 7ull, 42ull, 20170605ull}) {
        EXPECT_EQ(oracle::first_difference(barabasi_albert(n, m, seed),
                                           oracle::barabasi_albert(n, m, seed)),
                  "")
            << "n=" << n << " m=" << m << " seed=" << seed;
      }
    }
  }
}

TEST(GeneratorOracle, BuildMergesDuplicatesLikeTheComparisonSort) {
  for (const std::uint64_t seed : {3ull, 5ull, 8ull}) {
    util::Rng rng(seed);
    const NodeId n = 40;  // 120 draws over 40 nodes: duplicates and isolated nodes
    GraphBuilder builder(n);
    oracle::PendingEdges pending{n, {}, {}, {}, {}, 0};
    for (int i = 0; i < 120; ++i) {
      const auto u = static_cast<NodeId>(rng.below(n / 2));
      const auto v = static_cast<NodeId>(rng.below(n / 2));
      if (u == v) continue;
      // Quarter-step probabilities make max-merge ties common.
      const double p = static_cast<double>(rng.below(5)) / 4.0;
      builder.add_edge(u, v, p);
      pending.add_edge(u, v, p);
    }
    std::vector<std::uint16_t> attrs(2 * n);
    for (auto& a : attrs) a = static_cast<std::uint16_t>(rng.below(9));
    builder.set_attributes(attrs, 2);
    pending.attributes = attrs;
    pending.attribute_dim = 2;
    EXPECT_EQ(oracle::first_difference(builder.build(), oracle::build(pending)), "")
        << "seed=" << seed;
  }
  EXPECT_EQ(oracle::first_difference(GraphBuilder(5).build(),
                                     oracle::build({5, {}, {}, {}, {}, 0})),
            "");
}

TEST(GeneratorOracle, FromUniqueEdgesMatchesBuild) {
  // A shuffled, mixed-orientation unique edge list assembles to the same
  // graph as the builder's sort.
  const Graph base = erdos_renyi_gnm(90, 300, 4);
  std::vector<EdgeId> order(base.num_edges());
  for (EdgeId e = 0; e < base.num_edges(); ++e) order[e] = e;
  util::Rng rng(6);
  util::shuffle(order, rng);
  std::vector<NodeId> us, vs;
  std::vector<double> ps;
  oracle::PendingEdges pending{90, {}, {}, {}, {}, 0};
  for (const EdgeId e : order) {
    const bool flip = rng.below(2) == 1;
    us.push_back(flip ? base.edge_v(e) : base.edge_u(e));
    vs.push_back(flip ? base.edge_u(e) : base.edge_v(e));
    ps.push_back(rng.uniform());
    pending.add_edge(us.back(), vs.back(), ps.back());
  }
  EXPECT_EQ(oracle::first_difference(GraphBuilder::from_unique_edges(90, us, vs, ps),
                                     oracle::build(pending)),
            "");
  us.push_back(vs.front());  // the first edge again, reversed
  vs.push_back(us.front());
  ps.push_back(0.5);
  EXPECT_THROW(GraphBuilder::from_unique_edges(90, us, vs, ps), std::invalid_argument);
}

struct ProbInput {
  std::string name;
  Graph graph;
};

std::vector<ProbInput> prob_inputs() {
  std::vector<ProbInput> in;
  in.push_back({"ba", barabasi_albert(200, 3, 5)});
  in.push_back({"ba_min", barabasi_albert(6, 5, 9)});  // one clique: equal degrees
  in.push_back({"er_isolated", erdos_renyi_gnm(120, 50, 3)});
  in.push_back({"ws_regular", watts_strogatz(60, 3, 0.0, 1)});  // all degrees equal
  in.push_back({"ws", watts_strogatz(120, 4, 0.2, 2)});
  in.push_back({"sbm", stochastic_block_model(90, 3, 0.2, 0.02, 4)});
  in.push_back({"powerlaw", powerlaw_configuration(200, 2.0, 2, 30, 8)});
  in.push_back(
      {"attributes", assign_attributes(erdos_renyi_gnm(80, 200, 6), 2, 5, 0.5, 7)});
  const Graph ba = barabasi_albert(100, 2, 3);
  in.push_back({"relabeled", remap_graph(ba, degree_sort_permutation(ba))});
  in.push_back({"empty", GraphBuilder(7).build()});
  return in;
}

std::vector<EdgeProbModel> prob_models() {
  return {EdgeProbModel::constant(0.7),        EdgeProbModel::constant(1.5),
          EdgeProbModel::constant(-0.25),      EdgeProbModel::uniform(0.2, 0.9),
          EdgeProbModel::beta(2.0, 5.0),       EdgeProbModel::structural(0.4, 0.5),
          EdgeProbModel::structural(-0.3, 2.0)};  // clamps at both ends
}

TEST(GeneratorOracle, AssignEdgeProbsMatchesBitForBit) {
  for (const ProbInput& in : prob_inputs()) {
    const auto models = prob_models();
    for (std::size_t k = 0; k < models.size(); ++k) {
      for (const std::uint64_t seed : {3ull, 11ull}) {
        const oracle::CsrGraph want =
            oracle::assign_edge_probs(oracle::from_graph(in.graph), models[k], seed);
        const Graph got = assign_edge_probs(in.graph, models[k], seed);
        EXPECT_EQ(oracle::first_difference(got, want), "")
            << in.name << " model " << k << " seed " << seed;
        EXPECT_EQ(got.is_relabeled(), in.graph.is_relabeled()) << in.name;
      }
    }
  }
}

TEST(GeneratorOracle, AssignEdgeProbsOnMappedGraph) {
  // Arena-backed topology with an owned probability array: the result, and
  // copies of it, read exactly like the oracle's rebuild.
  const Graph base =
      assign_edge_probs(barabasi_albert(150, 4, 12), EdgeProbModel::uniform(0.1, 0.6), 2);
  const std::string path = test::scratch_path("generators_test_mapped.bin");
  GraphBinaryWriteOptions wo;
  wo.layout = GraphLayout::kKeep;
  write_graph_binary_file(path, base, wo);
  Graph mapped = map_graph_binary_file(path);
  ASSERT_TRUE(mapped.is_mapped());
  for (const EdgeProbModel& model : prob_models()) {
    const oracle::CsrGraph want =
        oracle::assign_edge_probs(oracle::from_graph(mapped), model, 17);
    const Graph got = assign_edge_probs(mapped, model, 17);
    EXPECT_TRUE(got.is_mapped());
    EXPECT_EQ(oracle::first_difference(got, want), "");
    const Graph copy = got;  // NOLINT(performance-unnecessary-copy-initialization)
    EXPECT_EQ(oracle::first_difference(copy, want), "");
  }
  // Moving the mapped graph in leaves nothing behind to copy.
  const oracle::CsrGraph want = oracle::assign_edge_probs(
      oracle::from_graph(mapped), EdgeProbModel::structural(0.4, 0.5), 1);
  const Graph moved =
      assign_edge_probs(std::move(mapped), EdgeProbModel::structural(0.4, 0.5), 1);
  EXPECT_EQ(oracle::first_difference(moved, want), "");
  std::remove(path.c_str());
}

TEST(GeneratorOracle, NanProbabilitiesStillThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Graph base = barabasi_albert(30, 2, 1);
  const oracle::CsrGraph ob = oracle::from_graph(base);
  for (const EdgeProbModel& model :
       {EdgeProbModel::constant(nan), EdgeProbModel::uniform(nan, 0.5),
        EdgeProbModel::structural(nan, 0.5), EdgeProbModel::structural(0.4, nan)}) {
    EXPECT_THROW(oracle::assign_edge_probs(ob, model, 1), std::invalid_argument);
    EXPECT_THROW(assign_edge_probs(base, model, 1), std::invalid_argument);
  }
  // Without edges there is nothing to validate, before and after.
  EXPECT_EQ(assign_edge_probs(GraphBuilder(4).build(), EdgeProbModel::constant(nan), 1)
                .num_edges(),
            0u);
}

TEST(GeneratorOracle, SetEdgeProbsValidates) {
  Graph g = barabasi_albert(10, 2, 1);
  EXPECT_THROW(g.set_edge_probs(std::vector<double>(g.num_edges() + 1, 0.5)),
               std::invalid_argument);
  std::vector<double> probs(g.num_edges(), 0.5);
  probs.back() = 1.5;
  EXPECT_THROW(g.set_edge_probs(probs), std::invalid_argument);
  probs.back() = 0.25;
  g.set_edge_probs(probs);
  EXPECT_EQ(g.edge_prob(g.num_edges() - 1), 0.25);
}

}  // namespace
}  // namespace recon::graph
