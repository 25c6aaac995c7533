#include "graph/graph.h"

#include <algorithm>
#include <stdexcept>

#include "util/mmap_file.h"

namespace recon::graph {

void Graph::rebind_owned() noexcept {
  off_p_ = offsets_.data();
  adj_p_ = adjacency_.data();
  eid_p_ = edge_ids_.data();
  prob_p_ = edge_prob_.data();
  eu_p_ = edge_u_.data();
  ev_p_ = edge_v_.data();
  attr_p_ = attributes_.data();
  orig_p_ = orig_ids_.empty() ? nullptr : orig_ids_.data();
}

void Graph::fix_pointers(const Graph& o) noexcept {
  // A pointer that referenced the source's own vector rebinds to this
  // object's copy of that vector; an arena-backed pointer (or nullptr) is
  // shared verbatim — the shared_ptr arena keeps it valid.
  off_p_ = o.off_p_ == o.offsets_.data() ? offsets_.data() : o.off_p_;
  adj_p_ = o.adj_p_ == o.adjacency_.data() ? adjacency_.data() : o.adj_p_;
  eid_p_ = o.eid_p_ == o.edge_ids_.data() ? edge_ids_.data() : o.eid_p_;
  prob_p_ = o.prob_p_ == o.edge_prob_.data() ? edge_prob_.data() : o.prob_p_;
  eu_p_ = o.eu_p_ == o.edge_u_.data() ? edge_u_.data() : o.eu_p_;
  ev_p_ = o.ev_p_ == o.edge_v_.data() ? edge_v_.data() : o.ev_p_;
  attr_p_ = o.attr_p_ == o.attributes_.data() ? attributes_.data() : o.attr_p_;
  orig_p_ = (o.orig_p_ != nullptr && o.orig_p_ == o.orig_ids_.data())
                ? orig_ids_.data()
                : o.orig_p_;
}

Graph::Graph(const Graph& o)
    : num_nodes_(o.num_nodes_),
      num_edges_(o.num_edges_),
      offsets_(o.offsets_),
      adjacency_(o.adjacency_),
      edge_ids_(o.edge_ids_),
      edge_prob_(o.edge_prob_),
      edge_u_(o.edge_u_),
      edge_v_(o.edge_v_),
      attributes_(o.attributes_),
      orig_ids_(o.orig_ids_),
      attribute_dim_(o.attribute_dim_),
      arena_(o.arena_) {
  fix_pointers(o);
}

Graph::Graph(Graph&& o) noexcept
    : num_nodes_(o.num_nodes_),
      num_edges_(o.num_edges_),
      offsets_(std::move(o.offsets_)),
      adjacency_(std::move(o.adjacency_)),
      edge_ids_(std::move(o.edge_ids_)),
      edge_prob_(std::move(o.edge_prob_)),
      edge_u_(std::move(o.edge_u_)),
      edge_v_(std::move(o.edge_v_)),
      attributes_(std::move(o.attributes_)),
      orig_ids_(std::move(o.orig_ids_)),
      attribute_dim_(o.attribute_dim_),
      arena_(std::move(o.arena_)),
      // Moving a vector transfers its buffer, so the source's pointers stay
      // valid for this object — arena or vector backed alike.
      off_p_(o.off_p_),
      adj_p_(o.adj_p_),
      eid_p_(o.eid_p_),
      prob_p_(o.prob_p_),
      eu_p_(o.eu_p_),
      ev_p_(o.ev_p_),
      attr_p_(o.attr_p_),
      orig_p_(o.orig_p_) {
  o.num_nodes_ = 0;
  o.num_edges_ = 0;
  o.attribute_dim_ = 0;
  o.rebind_owned();  // leave the moved-from source self-consistent and empty
}

Graph& Graph::operator=(const Graph& o) {
  if (this == &o) return *this;
  Graph tmp(o);
  *this = std::move(tmp);
  return *this;
}

Graph& Graph::operator=(Graph&& o) noexcept {
  if (this == &o) return *this;
  num_nodes_ = o.num_nodes_;
  num_edges_ = o.num_edges_;
  offsets_ = std::move(o.offsets_);
  adjacency_ = std::move(o.adjacency_);
  edge_ids_ = std::move(o.edge_ids_);
  edge_prob_ = std::move(o.edge_prob_);
  edge_u_ = std::move(o.edge_u_);
  edge_v_ = std::move(o.edge_v_);
  attributes_ = std::move(o.attributes_);
  orig_ids_ = std::move(o.orig_ids_);
  attribute_dim_ = o.attribute_dim_;
  arena_ = std::move(o.arena_);
  off_p_ = o.off_p_;
  adj_p_ = o.adj_p_;
  eid_p_ = o.eid_p_;
  prob_p_ = o.prob_p_;
  eu_p_ = o.eu_p_;
  ev_p_ = o.ev_p_;
  attr_p_ = o.attr_p_;
  orig_p_ = o.orig_p_;
  o.num_nodes_ = 0;
  o.num_edges_ = 0;
  o.attribute_dim_ = 0;
  o.rebind_owned();
  return *this;
}

void Graph::set_orig_ids(std::vector<NodeId> new_to_old) {
  if (!new_to_old.empty() && new_to_old.size() != num_nodes_) {
    throw std::invalid_argument(
        "Graph::set_orig_ids: map size " + std::to_string(new_to_old.size()) +
        " != num_nodes " + std::to_string(num_nodes_));
  }
  orig_ids_ = std::move(new_to_old);
  orig_p_ = orig_ids_.empty() ? nullptr : orig_ids_.data();
}

void Graph::set_edge_probs(std::vector<double> probs) {
  if (probs.size() != num_edges_) {
    throw std::invalid_argument(
        "Graph::set_edge_probs: " + std::to_string(probs.size()) +
        " probabilities for " + std::to_string(num_edges_) + " edges");
  }
  for (const double p : probs) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument("Graph::set_edge_probs: probability outside [0,1]");
    }
  }
  edge_prob_ = std::move(probs);
  prob_p_ = edge_prob_.data();
}

EdgeId Graph::find_edge(NodeId u, NodeId v) const noexcept {
  if (u >= num_nodes_ || v >= num_nodes_) return kInvalidEdge;
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kInvalidEdge;
  return eid_p_[off_p_[u] + static_cast<std::size_t>(it - nbrs.begin())];
}

double Graph::expected_degree(NodeId u) const noexcept {
  double sum = 0.0;
  for (EdgeId e : incident_edges(u)) sum += prob_p_[e];
  return sum;
}

double Graph::max_expected_degree() const noexcept {
  double best = 0.0;
  for (NodeId u = 0; u < num_nodes_; ++u) {
    best = std::max(best, expected_degree(u));
  }
  return best;
}

}  // namespace recon::graph
