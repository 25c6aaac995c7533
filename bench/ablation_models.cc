// Ablations of the modeling choices called out in DESIGN.md:
//  §2.1 — probability-weighted vs paper-literal marginal gain;
//  cost-sensitive selection under heterogeneous request costs (Sec. IV-C);
//  acceptance models: constant vs mutual-friend boost vs attribute
//  similarity (Sec. II-A's q'(u) > q(u) dynamics).
#include <memory>

#include "bench/bench_common.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace {

using namespace recon;

void policy_ablation(const bench::BenchConfig& cfg) {
  const graph::Dataset ds =
      graph::make_dataset(graph::DatasetId::kEnronEmail, cfg.scale, cfg.seed);
  const sim::Problem problem = bench::make_bench_problem(ds, cfg.seed);
  const double budget = bench::fig4_budget(ds);

  util::Table table({"Marginal policy", "k", "E[benefit]"});
  for (auto policy :
       {core::MarginalPolicy::kWeighted, core::MarginalPolicy::kPaperLiteral}) {
    for (int k : {5, 15}) {
      const auto mc = core::run_monte_carlo(
          problem,
          [&](int) {
            core::PmArestOptions o;
            o.batch_size = k;
            o.policy = policy;
            return std::make_unique<core::PmArest>(o);
          },
          cfg.runs, budget, cfg.seed);
      table.add_row({policy == core::MarginalPolicy::kWeighted ? "weighted (ours)"
                                                               : "paper-literal",
                     std::to_string(k), util::format_fixed(mc.mean_benefit(), 2)});
    }
  }
  bench::emit(table, cfg, "Ablation A: Bi weighting policy (DESIGN.md §2.1)");
}

void cost_ablation(const bench::BenchConfig& cfg) {
  const graph::Dataset ds =
      graph::make_dataset(graph::DatasetId::kFacebook, cfg.scale, cfg.seed);
  sim::Problem problem = bench::make_bench_problem(ds, cfg.seed);
  // Heterogeneous costs: requesting a high-degree user is expensive (the
  // bot must craft a convincing profile); cost = 1 + degree / mean_degree.
  double mean_deg = 0.0;
  for (graph::NodeId u = 0; u < problem.graph.num_nodes(); ++u) {
    mean_deg += problem.graph.degree(u);
  }
  mean_deg /= static_cast<double>(problem.graph.num_nodes());
  problem.cost.resize(problem.graph.num_nodes());
  for (graph::NodeId u = 0; u < problem.graph.num_nodes(); ++u) {
    problem.cost[u] = 1.0 + static_cast<double>(problem.graph.degree(u)) / mean_deg;
  }
  problem.validate();
  const double budget = 2.5 * bench::fig4_budget(ds);

  util::Table table({"Selection rule", "E[benefit]", "E[requests]"});
  for (bool cost_sensitive : {false, true}) {
    const auto mc = core::run_monte_carlo(
        problem,
        [&](int) {
          core::PmArestOptions o;
          o.batch_size = 10;
          o.cost_sensitive = cost_sensitive;
          return std::make_unique<core::PmArest>(o);
        },
        cfg.runs, budget, cfg.seed);
    table.add_row({cost_sensitive ? "Δf/c (cost-sensitive)" : "Δf (cost-blind)",
                   util::format_fixed(mc.mean_benefit(), 2),
                   util::format_fixed(mc.mean_requests(), 1)});
  }
  bench::emit(table, cfg, "Ablation B: generalized cost function (Sec. IV-C)");
}

void acceptance_ablation(const bench::BenchConfig& cfg) {
  graph::Dataset ds =
      graph::make_dataset(graph::DatasetId::kFacebook, cfg.scale, cfg.seed);
  ds.graph = graph::assign_attributes(std::move(ds.graph), 3, 10, 0.7,
                                      util::derive_seed(cfg.seed, 0xA7));
  const double budget = bench::fig4_budget(ds);

  util::Table table({"Acceptance model", "E[benefit]", "E[accept rate]"});
  struct Case {
    const char* label;
    sim::AcceptanceModel model;
  };
  std::vector<Case> cases;
  cases.push_back({"constant q=0.3", sim::make_constant_acceptance(0.3)});
  {
    auto boosted = sim::make_constant_acceptance(0.3);
    boosted.mutual_boost = 0.15;
    cases.push_back({"mutual boost 0.15", boosted});
  }
  cases.push_back(
      {"attributes w=0.3",
       sim::make_attribute_acceptance(ds.graph, 0.2, 0.3, 0.15,
                                      util::derive_seed(cfg.seed, 0xA8))});

  for (auto& c : cases) {
    sim::Problem problem = bench::make_bench_problem(ds, cfg.seed);
    problem.acceptance = c.model;
    problem.validate();
    const auto mc = core::run_monte_carlo(
        problem, bench::pm_arest_factory(10, /*retries=*/true), cfg.runs, budget,
        cfg.seed);
    double accepts = 0.0, requests = 0.0;
    for (const auto& t : mc.traces) {
      accepts += static_cast<double>(t.total_accepts());
      requests += static_cast<double>(t.total_requests());
    }
    table.add_row({c.label, util::format_fixed(mc.mean_benefit(), 2),
                   util::format_fixed(accepts / std::max(1.0, requests), 3)});
  }
  bench::emit(table, cfg, "Ablation C: acceptance dynamics (Sec. II-A)");
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = recon::bench::BenchConfig::from_args(recon::util::Args(argc, argv));
  policy_ablation(cfg);
  cost_ablation(cfg);
  acceptance_ablation(cfg);
  return 0;
}
