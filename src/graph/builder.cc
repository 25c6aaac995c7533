#include "graph/builder.h"

#include <algorithm>
#include <stdexcept>

namespace recon::graph {

GraphBuilder::GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

void GraphBuilder::add_edge(NodeId u, NodeId v, double p) {
  if (u == v) throw std::invalid_argument("GraphBuilder: self-loop");
  if (u >= num_nodes_ || v >= num_nodes_) {
    throw std::invalid_argument("GraphBuilder: node id out of range");
  }
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("GraphBuilder: probability outside [0,1]");
  }
  if (u > v) std::swap(u, v);
  us_.push_back(u);
  vs_.push_back(v);
  ps_.push_back(p);
}

bool GraphBuilder::has_pending_edge(NodeId u, NodeId v) const noexcept {
  if (u > v) std::swap(u, v);
  for (std::size_t i = 0; i < us_.size(); ++i) {
    if (us_[i] == u && vs_[i] == v) return true;
  }
  return false;
}

void GraphBuilder::set_attributes(std::vector<std::uint16_t> values, unsigned dim) {
  if (dim == 0 || values.size() != static_cast<std::size_t>(num_nodes_) * dim) {
    throw std::invalid_argument("GraphBuilder: attribute size mismatch");
  }
  attributes_ = std::move(values);
  attribute_dim_ = dim;
}

namespace {

/// Edge indices ordered by (u, v) for canonical (u < v) endpoint arrays:
/// a counting sort by u, then a sort of each u-bucket by v, in
/// O(n + m log maxdeg) with one EdgeId index array.
std::vector<EdgeId> order_by_endpoints(NodeId num_nodes, const std::vector<NodeId>& us,
                                       const std::vector<NodeId>& vs) {
  const std::size_t m = us.size();
  std::vector<std::uint64_t> bucket(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (std::size_t i = 0; i < m; ++i) ++bucket[us[i] + 1];
  for (std::size_t i = 1; i < bucket.size(); ++i) bucket[i] += bucket[i - 1];
  std::vector<EdgeId> order(m);
  {
    std::vector<std::uint64_t> cur(bucket.begin(), bucket.end() - 1);
    for (std::size_t i = 0; i < m; ++i) order[cur[us[i]]++] = static_cast<EdgeId>(i);
  }
  for (NodeId u = 0; u < num_nodes; ++u) {
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(bucket[u]),
              order.begin() + static_cast<std::ptrdiff_t>(bucket[u + 1]),
              [&vs](EdgeId a, EdgeId b) { return vs[a] < vs[b]; });
  }
  return order;
}

}  // namespace

Graph GraphBuilder::assemble(NodeId num_nodes, const std::vector<NodeId>& us,
                             const std::vector<NodeId>& vs,
                             const std::vector<double>& ps, bool merge_duplicates) {
  if (us.size() > static_cast<std::size_t>(kInvalidEdge)) {
    throw std::invalid_argument("GraphBuilder: too many edges");
  }
  const std::vector<EdgeId> order = order_by_endpoints(num_nodes, us, vs);
  Graph g;
  g.num_nodes_ = num_nodes;
  g.edge_u_.reserve(order.size());
  g.edge_v_.reserve(order.size());
  g.edge_prob_.reserve(order.size());
  for (const EdgeId i : order) {
    if (!g.edge_u_.empty() && g.edge_u_.back() == us[i] && g.edge_v_.back() == vs[i]) {
      if (!merge_duplicates) {
        throw std::invalid_argument("from_unique_edges: duplicate edge");
      }
      g.edge_prob_.back() = std::max(g.edge_prob_.back(), ps[i]);
      continue;
    }
    g.edge_u_.push_back(us[i]);
    g.edge_v_.push_back(vs[i]);
    g.edge_prob_.push_back(ps[i]);
  }
  g.num_edges_ = static_cast<EdgeId>(g.edge_u_.size());
  return g;
}

void GraphBuilder::fill_csr(Graph& g) {
  g.offsets_.assign(static_cast<std::size_t>(g.num_nodes_) + 1, 0);
  for (EdgeId e = 0; e < g.num_edges_; ++e) {
    ++g.offsets_[g.edge_u_[e] + 1];
    ++g.offsets_[g.edge_v_[e] + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) g.offsets_[i] += g.offsets_[i - 1];
  g.adjacency_.resize(2 * static_cast<std::size_t>(g.num_edges_));
  g.edge_ids_.resize(2 * static_cast<std::size_t>(g.num_edges_));
  // Edges arrive sorted by (u, v), so every row fills sorted: row x first
  // receives its smaller neighbours (edges (u, x) lie in earlier u-buckets,
  // in increasing u), then its larger ones (x's own bucket, increasing v).
  std::vector<std::uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (EdgeId e = 0; e < g.num_edges_; ++e) {
    const NodeId u = g.edge_u_[e];
    const NodeId v = g.edge_v_[e];
    g.adjacency_[cursor[u]] = v;
    g.edge_ids_[cursor[u]] = e;
    ++cursor[u];
    g.adjacency_[cursor[v]] = u;
    g.edge_ids_[cursor[v]] = e;
    ++cursor[v];
  }
  g.rebind_owned();  // the accessor pointers bind to the freshly filled vectors
}

Graph GraphBuilder::build() const {
  Graph g = assemble(num_nodes_, us_, vs_, ps_, /*merge_duplicates=*/true);
  g.attributes_ = attributes_;
  g.attribute_dim_ = attribute_dim_;
  fill_csr(g);
  return g;
}

Graph GraphBuilder::from_unique_edges(NodeId num_nodes, std::vector<NodeId> us,
                                      std::vector<NodeId> vs,
                                      std::vector<double> ps) {
  const std::size_t m = us.size();
  if (vs.size() != m || ps.size() != m) {
    throw std::invalid_argument("from_unique_edges: array length mismatch");
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (us[i] > vs[i]) std::swap(us[i], vs[i]);
    if (us[i] == vs[i]) throw std::invalid_argument("from_unique_edges: self-loop");
    if (vs[i] >= num_nodes) {
      throw std::invalid_argument("from_unique_edges: node id out of range");
    }
    if (!(ps[i] >= 0.0 && ps[i] <= 1.0)) {
      throw std::invalid_argument("from_unique_edges: probability outside [0,1]");
    }
  }
  Graph g = assemble(num_nodes, us, vs, ps, /*merge_duplicates=*/false);
  // Release the consumed inputs before the CSR arrays are allocated.
  std::vector<NodeId>().swap(us);
  std::vector<NodeId>().swap(vs);
  std::vector<double>().swap(ps);
  fill_csr(g);
  return g;
}

}  // namespace recon::graph
