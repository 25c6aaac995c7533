#include "sim/benefit.h"

#include <cmath>
#include <stdexcept>

namespace recon::sim {

void BenefitModel::validate(const graph::Graph& g) const {
  if (bf.size() != g.num_nodes() || bfof.size() != g.num_nodes() ||
      bi.size() != g.num_edges()) {
    throw std::invalid_argument("BenefitModel: size mismatch with graph");
  }
  // NaN passes every comparison below, so finiteness is checked first.
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!std::isfinite(bf[u]) || !std::isfinite(bfof[u])) {
      throw std::invalid_argument("BenefitModel: non-finite node benefit");
    }
    if (bf[u] < 0.0 || bfof[u] < 0.0) {
      throw std::invalid_argument("BenefitModel: negative node benefit");
    }
    if (bfof[u] > bf[u]) {
      throw std::invalid_argument("BenefitModel: Bfof(u) > Bf(u)");
    }
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!std::isfinite(bi[e])) {
      throw std::invalid_argument("BenefitModel: non-finite edge benefit");
    }
    if (bi[e] < 0.0) throw std::invalid_argument("BenefitModel: negative edge benefit");
  }
}

BenefitModel make_paper_benefit(const graph::Graph& g,
                                const std::vector<std::uint8_t>& is_target) {
  if (is_target.size() != g.num_nodes()) {
    throw std::invalid_argument("make_paper_benefit: target bitmap size mismatch");
  }
  BenefitModel model;
  model.bf.resize(g.num_nodes());
  model.bfof.resize(g.num_nodes());
  model.bi.resize(g.num_edges());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    model.bf[u] = is_target[u] ? 1.0 : 0.0;
    model.bfof[u] = is_target[u] ? 0.5 : 0.0;
  }
  const double m = g.max_expected_degree();
  const double denom = m > 0.0 ? m : 1.0;
  // Bi takes one of three values; each is computed once, by the per-edge
  // formula, so every entry keeps the bits that formula gives it.
  double by_targets[3];
  for (int in_t = 0; in_t < 3; ++in_t) by_targets[in_t] = std::pow(2.0, in_t) / denom;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const int in_t =
        (is_target[g.edge_u(e)] ? 1 : 0) + (is_target[g.edge_v(e)] ? 1 : 0);
    model.bi[e] = by_targets[in_t];
  }
  return model;
}

BenefitModel make_uniform_benefit(const graph::Graph& g, double fof_value,
                                  double edge_value) {
  BenefitModel model;
  model.bf.assign(g.num_nodes(), 1.0);
  model.bfof.assign(g.num_nodes(), fof_value);
  model.bi.assign(g.num_edges(), edge_value);
  return model;
}

}  // namespace recon::sim
