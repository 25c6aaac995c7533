#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "graph/builder.h"

namespace recon::graph {

namespace {

/// Packs an unordered pair into a 64-bit key for dedup sets.
std::uint64_t pair_key(NodeId u, NodeId v) noexcept {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

}  // namespace

Graph erdos_renyi_gnm(NodeId n, EdgeId m, std::uint64_t seed) {
  if (n < 2 && m > 0) throw std::invalid_argument("erdos_renyi_gnm: n too small");
  const std::uint64_t max_edges =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  if (m > max_edges) throw std::invalid_argument("erdos_renyi_gnm: m too large");
  util::Rng rng(seed);
  GraphBuilder builder(n);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(m * 2);
  while (seen.size() < m) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    if (seen.insert(pair_key(u, v)).second) builder.add_edge(u, v);
  }
  return builder.build();
}

Graph erdos_renyi_gnp(NodeId n, double p, std::uint64_t seed) {
  if (!(p >= 0.0 && p <= 1.0)) throw std::invalid_argument("erdos_renyi_gnp: bad p");
  util::Rng rng(seed);
  GraphBuilder builder(n);
  if (p <= 0.0 || n < 2) return builder.build();
  if (p >= 1.0) {
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v) builder.add_edge(u, v);
    return builder.build();
  }
  // Geometric skipping over the linearized upper triangle.
  const double log1mp = std::log1p(-p);
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t idx = 0;
  for (;;) {
    const double r = std::max(rng.uniform(), 1e-300);
    const auto skip = static_cast<std::uint64_t>(std::floor(std::log(r) / log1mp));
    if (skip >= total - idx) break;
    idx += skip;
    // Decode idx -> (u, v) in the linearized upper triangle: row u holds the
    // n-1-u pairs (u, u+1..n-1) and starts at u*(n-1) - u*(u-1)/2.
    auto row_start = [&](std::uint64_t row) {
      return row * (n - 1) - row * (row - 1) / 2;
    };
    const double nd = static_cast<double>(n) - 0.5;
    const double disc = std::max(0.0, nd * nd - 2.0 * static_cast<double>(idx));
    auto u64 = static_cast<std::uint64_t>(std::max(0.0, nd - std::sqrt(disc)));
    // Guard against FP rounding: adjust u so idx lies in row u's range.
    while (u64 > 0 && row_start(u64) > idx) --u64;
    while (u64 + 2 < n && row_start(u64 + 1) <= idx) ++u64;
    const auto u = static_cast<NodeId>(u64);
    const NodeId v = static_cast<NodeId>(u64 + 1 + (idx - row_start(u64)));
    builder.add_edge(u, v);
    ++idx;
    if (idx >= total) break;
  }
  return builder.build();
}

Graph barabasi_albert(NodeId n, NodeId m_per_node, std::uint64_t seed) {
  if (m_per_node == 0) throw std::invalid_argument("barabasi_albert: m == 0");
  if (n < m_per_node + 1) throw std::invalid_argument("barabasi_albert: n too small");
  util::Rng rng(seed);
  const std::size_t m = barabasi_albert_num_edges(n, m_per_node);
  std::vector<NodeId> us, vs;
  us.reserve(m);
  vs.reserve(m);
  barabasi_albert_edges(n, m_per_node, rng, [&](NodeId a, NodeId b) {
    us.push_back(a);
    vs.push_back(b);
  });
  // Each arriving node picks distinct targets, so the edges are unique.
  return GraphBuilder::from_unique_edges(n, std::move(us), std::move(vs),
                                         std::vector<double>(m, 1.0));
}

Graph watts_strogatz(NodeId n, NodeId k_ring, double beta, std::uint64_t seed) {
  if (k_ring == 0 || 2 * k_ring >= n) {
    throw std::invalid_argument("watts_strogatz: need 0 < k_ring < n/2");
  }
  if (!(beta >= 0.0 && beta <= 1.0)) throw std::invalid_argument("watts_strogatz: bad beta");
  util::Rng rng(seed);
  std::unordered_set<std::uint64_t> edges;
  edges.reserve(static_cast<std::size_t>(n) * k_ring * 2);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId j = 1; j <= k_ring; ++j) {
      const NodeId v = static_cast<NodeId>((u + j) % n);
      edges.insert(pair_key(u, v));
    }
  }
  // Rewire each lattice edge's far endpoint with probability beta.
  std::vector<std::uint64_t> keys(edges.begin(), edges.end());
  std::sort(keys.begin(), keys.end());  // determinism across set iteration orders
  for (std::uint64_t key : keys) {
    if (!rng.bernoulli(beta)) continue;
    const auto u = static_cast<NodeId>(key >> 32);
    const auto v = static_cast<NodeId>(key & 0xffffffffULL);
    // Pick a new endpoint w != u, avoiding existing edges.
    for (int tries = 0; tries < 32; ++tries) {
      const auto w = static_cast<NodeId>(rng.below(n));
      if (w == u || w == v) continue;
      const std::uint64_t nk = pair_key(u, w);
      if (edges.count(nk)) continue;
      edges.erase(key);
      edges.insert(nk);
      break;
    }
  }
  GraphBuilder builder(n);
  keys.assign(edges.begin(), edges.end());
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t key : keys) {
    builder.add_edge(static_cast<NodeId>(key >> 32),
                     static_cast<NodeId>(key & 0xffffffffULL));
  }
  return builder.build();
}

Graph stochastic_block_model(NodeId n, unsigned blocks, double p_in, double p_out,
                             std::uint64_t seed) {
  if (blocks == 0 || blocks > n) throw std::invalid_argument("sbm: bad block count");
  util::Rng rng(seed);
  std::vector<unsigned> block_of(n);
  for (NodeId u = 0; u < n; ++u) block_of[u] = u % blocks;
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const double p = block_of[u] == block_of[v] ? p_in : p_out;
      if (rng.bernoulli(p)) builder.add_edge(u, v);
    }
  }
  return builder.build();
}

Graph forest_fire(NodeId n, double p_forward, std::uint64_t seed) {
  if (!(p_forward >= 0.0 && p_forward < 1.0)) {
    throw std::invalid_argument("forest_fire: p_forward must be in [0,1)");
  }
  if (n < 2) throw std::invalid_argument("forest_fire: need at least 2 nodes");
  util::Rng rng(seed);
  // Adjacency grown incrementally (needed for burning through neighbors).
  std::vector<std::vector<NodeId>> adj(n);
  GraphBuilder builder(n);
  auto link = [&](NodeId u, NodeId v) {
    builder.add_edge(u, v);
    adj[u].push_back(v);
    adj[v].push_back(u);
  };
  link(0, 1);
  std::vector<std::uint8_t> burned(n, 0);
  std::vector<NodeId> burn_list;
  for (NodeId u = 2; u < n; ++u) {
    const auto ambassador = static_cast<NodeId>(rng.below(u));
    burn_list.clear();
    burned[ambassador] = 1;
    burn_list.push_back(ambassador);
    // Breadth-first burning: from each burning node, burn a geometric
    // number of its unburned neighbors (mean p/(1-p)).
    std::size_t cursor = 0;
    while (cursor < burn_list.size() && burn_list.size() < 256) {
      const NodeId w = burn_list[cursor++];
      std::size_t burns = 0;
      while (rng.bernoulli(p_forward)) ++burns;  // geometric draw
      for (NodeId x : adj[w]) {
        if (burns == 0) break;
        if (burned[x]) continue;
        burned[x] = 1;
        burn_list.push_back(x);
        --burns;
      }
    }
    for (NodeId w : burn_list) {
      link(u, w);
      burned[w] = 0;  // reset for the next arrival
    }
  }
  return builder.build();
}

Graph powerlaw_configuration(NodeId n, double exponent, NodeId min_degree,
                             NodeId max_degree, std::uint64_t seed) {
  if (min_degree == 0 || min_degree > max_degree || max_degree >= n) {
    throw std::invalid_argument("powerlaw_configuration: bad degree bounds");
  }
  util::Rng rng(seed);
  // Inverse-CDF sampling of a discrete power law on [min_degree, max_degree].
  std::vector<double> cdf;
  cdf.reserve(max_degree - min_degree + 1);
  double total = 0.0;
  for (NodeId d = min_degree; d <= max_degree; ++d) {
    total += std::pow(static_cast<double>(d), -exponent);
    cdf.push_back(total);
  }
  std::vector<NodeId> stubs;
  std::vector<NodeId> degree(n);
  for (NodeId u = 0; u < n; ++u) {
    const double r = rng.uniform() * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), r);
    degree[u] = min_degree + static_cast<NodeId>(it - cdf.begin());
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId i = 0; i < degree[u]; ++i) stubs.push_back(u);
  }
  if (stubs.size() % 2 == 1) stubs.push_back(static_cast<NodeId>(rng.below(n)));
  util::shuffle(stubs, rng);
  GraphBuilder builder(n);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(stubs.size());
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    const NodeId u = stubs[i];
    const NodeId v = stubs[i + 1];
    if (u == v) continue;
    if (!seen.insert(pair_key(u, v)).second) continue;
    builder.add_edge(u, v);
  }
  return builder.build();
}

double sample_gamma(double shape, util::Rng& rng) {
  if (shape < 1.0) {
    // Boost via Gamma(shape+1) * U^(1/shape).
    const double g = sample_gamma(shape + 1.0, rng);
    return g * std::pow(std::max(rng.uniform(), 1e-300), 1.0 / shape);
  }
  // Marsaglia–Tsang.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    // Standard normal via Box–Muller.
    const double u1 = std::max(rng.uniform(), 1e-300);
    const double u2 = rng.uniform();
    const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double v = 1.0 + c * z;
    if (v <= 0.0) continue;
    const double v3 = v * v * v;
    const double u = std::max(rng.uniform(), 1e-300);
    if (std::log(u) < 0.5 * z * z + d - d * v3 + d * std::log(v3)) return d * v3;
  }
}

double sample_beta(double a, double b, util::Rng& rng) {
  const double x = sample_gamma(a, rng);
  const double y = sample_gamma(b, rng);
  return x / (x + y);
}

namespace {

/// p_e = a + b * jaccard(u, v) for every edge. Each |N(u) ∩ N(v)| is counted
/// exactly by the edge's owner, the endpoint of larger degree (ties: the
/// smaller id): the owner stamps its neighbourhood once, then the other
/// endpoint's list is scanned against the stamps. Total cost is
/// O(n + Σ_e min(deg u, deg v)).
void structural_probs(const Graph& g, const EdgeProbModel& model,
                      std::vector<double>& probs) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> stamp(n, kInvalidNode);  // stamp[y] == w: y ∈ N(w)
  for (NodeId w = 0; w < n; ++w) {
    const auto nbrs = g.neighbors(w);
    const auto eids = g.incident_edges(w);
    const NodeId dw = g.degree(w);
    bool stamped = false;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId x = nbrs[i];
      const NodeId dx = g.degree(x);
      if (dx > dw || (dx == dw && x < w)) continue;  // x owns this edge
      if (!stamped) {
        for (const NodeId y : nbrs) stamp[y] = w;
        stamped = true;
      }
      std::size_t inter = 0;
      for (const NodeId y : g.neighbors(x)) inter += stamp[y] == w ? 1 : 0;
      const std::size_t uni = std::size_t{dw} + dx - inter;
      const double jaccard =
          uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
      probs[eids[i]] = model.a + model.b * jaccard;
    }
  }
}

}  // namespace

Graph assign_edge_probs(Graph g, const EdgeProbModel& model, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> probs(g.num_edges(), model.a);
  switch (model.kind) {
    case EdgeProbModel::Kind::kConstant:
      break;
    case EdgeProbModel::Kind::kUniform:
      for (double& p : probs) p = rng.uniform(model.a, model.b);
      break;
    case EdgeProbModel::Kind::kBeta:
      for (double& p : probs) p = sample_beta(model.a, model.b, rng);
      break;
    case EdgeProbModel::Kind::kStructural:
      structural_probs(g, model, probs);
      break;
  }
  for (double& p : probs) p = std::clamp(p, 0.0, 1.0);
  g.set_edge_probs(std::move(probs));  // rejects NaN, as add_edge did
  return g;
}

Graph assign_attributes(Graph g, unsigned dim, std::uint16_t cardinality,
                        double homophily, std::uint64_t seed) {
  if (dim == 0 || cardinality == 0) {
    throw std::invalid_argument("assign_attributes: dim/cardinality must be positive");
  }
  util::Rng rng(seed);
  const NodeId n = g.num_nodes();
  std::vector<std::uint16_t> attrs(static_cast<std::size_t>(n) * dim);
  // Initialize uniformly, then do a homophily-propagation pass in node order:
  // copy from a random (already-assigned or not) neighbor with prob homophily.
  for (auto& a : attrs) a = static_cast<std::uint16_t>(rng.below(cardinality));
  for (NodeId u = 0; u < n; ++u) {
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) continue;
    for (unsigned d = 0; d < dim; ++d) {
      if (rng.bernoulli(homophily)) {
        const NodeId v = nbrs[rng.below(nbrs.size())];
        attrs[static_cast<std::size_t>(u) * dim + d] =
            attrs[static_cast<std::size_t>(v) * dim + d];
      }
    }
  }
  g.set_attributes(std::move(attrs), dim);
  return g;
}

}  // namespace recon::graph
