#include "sim/problem.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>
#include <stdexcept>

#include "util/rng.h"

namespace recon::sim {

using graph::Graph;
using graph::NodeId;

double Problem::benefit_upper_bound() const {
  // Every node yields at most Bf (Bf >= Bfof), every edge at most Bi.
  double total = 0.0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) total += benefit.bf[u];
  for (graph::EdgeId e = 0; e < graph.num_edges(); ++e) total += benefit.bi[e];
  return total;
}

void Problem::validate() const {
  benefit.validate(graph);
  acceptance.validate(graph);
  if (is_target.size() != graph.num_nodes()) {
    throw std::invalid_argument("Problem: target bitmap size mismatch");
  }
  if (!std::is_sorted(targets.begin(), targets.end())) {
    throw std::invalid_argument("Problem: targets not sorted");
  }
  for (NodeId t : targets) {
    if (t >= graph.num_nodes() || !is_target[t]) {
      throw std::invalid_argument("Problem: target list/bitmap inconsistency");
    }
  }
  if (!cost.empty()) {
    if (cost.size() != graph.num_nodes()) {
      throw std::invalid_argument("Problem: cost vector size mismatch");
    }
    for (double c : cost) {
      if (!std::isfinite(c)) throw std::invalid_argument("Problem: non-finite cost");
      if (c <= 0.0) throw std::invalid_argument("Problem: nonpositive cost");
    }
  }
}

std::vector<NodeId> select_targets(const Graph& g, std::size_t count, TargetMode mode,
                                   std::uint64_t seed) {
  const NodeId n = g.num_nodes();
  count = std::min<std::size_t>(count, n);
  util::Rng rng(seed);
  std::vector<NodeId> targets;
  switch (mode) {
    case TargetMode::kRandom: {
      targets = util::sample_without_replacement(n, static_cast<std::uint32_t>(count), rng);
      break;
    }
    case TargetMode::kBfsBall: {
      // Grow a BFS ball from a random seed until `count` nodes collected;
      // restart from fresh seeds if a component is exhausted.
      std::vector<std::uint8_t> visited(n, 0);
      std::deque<NodeId> queue;
      while (targets.size() < count) {
        if (queue.empty()) {
          NodeId s;
          do {
            s = static_cast<NodeId>(rng.below(n));
          } while (visited[s]);
          visited[s] = 1;
          queue.push_back(s);
          targets.push_back(s);
          if (targets.size() >= count) break;
        }
        const NodeId u = queue.front();
        queue.pop_front();
        for (NodeId v : g.neighbors(u)) {
          if (visited[v]) continue;
          visited[v] = 1;
          queue.push_back(v);
          targets.push_back(v);
          if (targets.size() >= count) break;
        }
      }
      break;
    }
    case TargetMode::kHighDegree: {
      std::vector<NodeId> order(n);
      std::iota(order.begin(), order.end(), NodeId{0});
      std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
        return a < b;
      });
      targets.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(count));
      break;
    }
  }
  std::sort(targets.begin(), targets.end());
  return targets;
}

Problem make_problem(Graph g, const ProblemOptions& options) {
  Problem p;
  p.targets = select_targets(g, options.num_targets, options.target_mode,
                             util::derive_seed(options.seed, 0x7A));
  p.is_target.assign(g.num_nodes(), 0);
  for (NodeId t : p.targets) p.is_target[t] = 1;
  p.benefit = options.paper_benefit ? make_paper_benefit(g, p.is_target)
                                    : make_uniform_benefit(g);
  p.acceptance = make_constant_acceptance(options.base_acceptance);
  p.acceptance.mutual_boost = options.mutual_boost;
  p.graph = std::move(g);
  p.validate();
  return p;
}

}  // namespace recon::sim
