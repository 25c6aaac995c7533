#include "graph/datasets.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace recon::graph {

std::vector<DatasetId> all_dataset_ids() {
  return {DatasetId::kUsPolBooks, DatasetId::kFacebook, DatasetId::kEnronEmail,
          DatasetId::kSlashdot, DatasetId::kTwitter};
}

std::vector<DatasetId> snap_dataset_ids() {
  return {DatasetId::kEnronEmail, DatasetId::kFacebook, DatasetId::kSlashdot,
          DatasetId::kTwitter};
}

std::string dataset_name(DatasetId id) {
  switch (id) {
    case DatasetId::kUsPolBooks: return "US Pol. Books";
    case DatasetId::kFacebook: return "Facebook";
    case DatasetId::kEnronEmail: return "Enron Email";
    case DatasetId::kSlashdot: return "Slashdot";
    case DatasetId::kTwitter: return "Twitter";
  }
  throw std::invalid_argument("dataset_name: unknown id");
}

namespace {

NodeId scaled(NodeId paper_n, double scale, NodeId min_n) {
  const double n = static_cast<double>(paper_n) * scale / 10.0;
  return std::max<NodeId>(min_n, static_cast<NodeId>(std::llround(n)));
}

}  // namespace

Dataset make_dataset(DatasetId id, double scale, std::uint64_t seed,
                     bool uniform_probs) {
  if (scale <= 0.0) throw std::invalid_argument("make_dataset: scale must be > 0");
  Dataset ds;
  ds.id = id;
  ds.name = dataset_name(id);
  const std::uint64_t topo_seed = util::derive_seed(seed, 0xD5);
  switch (id) {
    case DatasetId::kUsPolBooks: {
      // 105 nodes, ~441 edges, 3 communities (liberal / conservative /
      // neutral in the original). Never scaled.
      ds.graph = stochastic_block_model(105, 3, 0.20, 0.023, topo_seed);
      ds.paper_nodes = 105;
      ds.paper_edges = 441;
      ds.generator = "SBM(3, 0.20, 0.023)";
      break;
    }
    case DatasetId::kFacebook: {
      // 4k nodes, 88k edges (mean degree ~44), very high clustering.
      const NodeId n = scaled(4000, scale, 120);
      ds.graph = watts_strogatz(n, 22, 0.15, topo_seed);
      ds.paper_nodes = 4000;
      ds.paper_edges = 88000;
      ds.generator = "WattsStrogatz(k=22, beta=0.15)";
      break;
    }
    case DatasetId::kEnronEmail: {
      // 37k nodes, 184k edges (mean degree ~10), heavy-tailed.
      const NodeId n = scaled(37000, scale, 300);
      const NodeId max_deg = std::max<NodeId>(20, n / 10);
      ds.graph = powerlaw_configuration(n, 2.0, 3, max_deg, topo_seed);
      ds.paper_nodes = 37000;
      ds.paper_edges = 184000;
      ds.generator = "PowerLawConfig(2.0, 3..n/10)";
      break;
    }
    case DatasetId::kSlashdot: {
      // 77k nodes, 905k edges (mean degree ~23.5).
      const NodeId n = scaled(77000, scale, 300);
      ds.graph = barabasi_albert(n, 12, topo_seed);
      ds.paper_nodes = 77000;
      ds.paper_edges = 905000;
      ds.generator = "BarabasiAlbert(m=12)";
      break;
    }
    case DatasetId::kTwitter: {
      // 81k nodes, 1.77M edges (mean degree ~43.7).
      const NodeId n = scaled(81000, scale, 300);
      ds.graph = barabasi_albert(n, 22, topo_seed);
      ds.paper_nodes = 81000;
      ds.paper_edges = 1770000;
      ds.generator = "BarabasiAlbert(m=22)";
      break;
    }
  }
  if (!uniform_probs) {
    ds.graph = assign_edge_probs(std::move(ds.graph),
                                 EdgeProbModel::structural(0.4, 0.5),
                                 util::derive_seed(seed, 0xE0));
  }
  return ds;
}

namespace {

/// Per-edge probability draw for the streaming generators. Structural probs
/// need the finished topology (jaccard over final neighborhoods), which a
/// streaming pass does not have.
double stream_prob(const EdgeProbModel& model, util::Rng& rng) {
  switch (model.kind) {
    case EdgeProbModel::Kind::kConstant:
      return std::clamp(model.a, 0.0, 1.0);
    case EdgeProbModel::Kind::kUniform:
      return std::clamp(model.a + (model.b - model.a) * rng.uniform(), 0.0, 1.0);
    case EdgeProbModel::Kind::kBeta:
      return std::clamp(sample_beta(model.a, model.b, rng), 0.0, 1.0);
    case EdgeProbModel::Kind::kStructural:
      throw std::invalid_argument(
          "streaming generators: structural edge probabilities need the full "
          "graph; use a constant/uniform/beta model");
  }
  throw std::invalid_argument("streaming generators: unknown prob model");
}

}  // namespace

GraphBinaryInfo stream_barabasi_albert_binary(
    const std::string& path, NodeId n, NodeId m_per_node,
    const EdgeProbModel& probs, std::uint64_t seed,
    const GraphBinaryWriteOptions& options) {
  if (m_per_node == 0) {
    throw std::invalid_argument("stream_barabasi_albert_binary: m == 0");
  }
  if (n < m_per_node + 1) {
    throw std::invalid_argument("stream_barabasi_albert_binary: n too small");
  }
  util::Rng rng(seed);
  const std::size_t total = barabasi_albert_num_edges(n, m_per_node);
  std::vector<NodeId> us, vs;
  std::vector<double> ps;
  us.reserve(total);
  vs.reserve(total);
  ps.reserve(total);
  barabasi_albert_edges(n, m_per_node, rng, [&](NodeId a, NodeId b) {
    us.push_back(a);
    vs.push_back(b);
    ps.push_back(stream_prob(probs, rng));
  });

  const Graph g = GraphBuilder::from_unique_edges(n, std::move(us),
                                                  std::move(vs), std::move(ps));
  return write_graph_binary_file(path, g, options);
}

GraphBinaryInfo stream_erdos_renyi_binary(const std::string& path, NodeId n,
                                          EdgeId m, const EdgeProbModel& probs,
                                          std::uint64_t seed,
                                          const GraphBinaryWriteOptions& options) {
  if (n < 2 && m > 0) {
    throw std::invalid_argument("stream_erdos_renyi_binary: n too small");
  }
  const std::uint64_t max_edges = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  if (m > max_edges) {
    throw std::invalid_argument("stream_erdos_renyi_binary: m too large");
  }
  util::Rng rng(seed);
  std::vector<NodeId> us, vs;
  std::vector<double> ps;
  us.reserve(m);
  vs.reserve(m);
  ps.reserve(m);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(m) * 2);
  while (seen.size() < m) {
    auto u = static_cast<NodeId>(rng.below(n));
    auto v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert((static_cast<std::uint64_t>(u) << 32) | v).second) continue;
    us.push_back(u);
    vs.push_back(v);
    ps.push_back(stream_prob(probs, rng));
  }
  seen.clear();

  const Graph g = GraphBuilder::from_unique_edges(n, std::move(us),
                                                  std::move(vs), std::move(ps));
  return write_graph_binary_file(path, g, options);
}

}  // namespace recon::graph
