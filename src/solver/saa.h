// Sample Average Approximation for the Finding-Optimal-Batch problem
// (paper Sec. IV-B-2).
//
// A scenario φ ~ ω fixes (a) an acceptance outcome for every requestable
// node at its *current* q(u | ω), and (b) an existence outcome for every
// unobserved edge at its belief p_e. The SAA objective is the scenario
// average of the exact batch benefit B(x, y, φ), which per scenario is a
// coverage-type monotone submodular function of the selected set.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/observation.h"
#include "util/thread_pool.h"

namespace recon::sim {
class Observation;
}

namespace recon::solver {

struct Scenario {
  std::vector<std::uint8_t> accept;       ///< size n (only meaningful for candidates)
  std::vector<std::uint8_t> edge_exists;  ///< size m; observed edges use their known state
};

/// Samples `count` scenarios consistent with the observation.
std::vector<Scenario> sample_scenarios(const sim::Observation& obs, std::size_t count,
                                       std::uint64_t seed);

/// Antithetic scenario sampling: scenarios come in pairs drawn from
/// complementary uniforms (U, 1-U), so their benefit estimates are
/// negatively correlated and the SAA mean has lower variance at equal
/// sample count (classic Monte-Carlo variance reduction for two-stage
/// stochastic programs). `count` is rounded up to even.
std::vector<Scenario> sample_scenarios_antithetic(const sim::Observation& obs,
                                                  std::size_t count,
                                                  std::uint64_t seed);

/// Exact benefit of requesting `batch` under one scenario: friend benefit
/// for accepted members (with FoF-upgrade correction), Bi for each newly
/// revealed existing edge (counted once), and Bfof for each new
/// friend-of-friend (batch members that rejected remain FoF-eligible,
/// matching MIP constraint (14) which binds only accepted nodes).
/// Allocation-free after warm-up: "counted once" is tracked with epoch
/// stamps in per-thread scratch sized to the graph, not with hash sets.
/// Throws std::invalid_argument when `batch` contains a friend.
double scenario_benefit(const sim::Observation& obs, const Scenario& scenario,
                        const std::vector<graph::NodeId>& batch);

namespace detail {
/// Sets the calling thread's scenario_benefit stamp epoch, so a test can
/// drive the scratch across the 2^32 wrap that clears its stamps.
void set_benefit_epoch(std::uint32_t epoch);
}  // namespace detail

/// How saa_objective / scenario_benefits evaluate the scenario set.
struct SaaEvalOptions {
  /// Fan scenario_benefit across the pool (nullptr = sequential). The mean
  /// is bit-identical at every thread count AND under any permutation of
  /// the scenario order (of whole pairs, in antithetic mode): per-unit
  /// benefits are merged order-insensitively by summing them in ascending
  /// value order — see docs/API.md, "Solver parallelism".
  util::ThreadPool* pool = nullptr;
  /// The scenarios came from sample_scenarios_antithetic: (2i, 2i+1) is a
  /// complementary (U, 1-U) pair. Each pair is reduced as ONE unit —
  /// benefit(2i) + benefit(2i+1), evaluated inside a single chunk — so no
  /// chunk boundary can ever separate a pair and the variance reduction
  /// survives parallel evaluation. Requires an even scenario count
  /// (std::invalid_argument otherwise — the guard that keeps an odd split
  /// from silently de-pairing the sample).
  bool antithetic_pairs = false;
};

/// Per-scenario benefits, out[s] = scenario_benefit(obs, scenarios[s],
/// batch); evaluated across `pool` when given. Each entry is bit-identical
/// to the sequential call (scenarios are evaluated independently).
std::vector<double> scenario_benefits(const sim::Observation& obs,
                                      const std::vector<Scenario>& scenarios,
                                      const std::vector<graph::NodeId>& batch,
                                      util::ThreadPool* pool = nullptr);

/// SAA objective: mean scenario_benefit over `scenarios`.
double saa_objective(const sim::Observation& obs, const std::vector<Scenario>& scenarios,
                     const std::vector<graph::NodeId>& batch);

/// SAA objective with explicit evaluation options (parallel scenario
/// fan-out, antithetic pair-aware reduction). The 3-argument overload is
/// equivalent to passing default options.
double saa_objective(const sim::Observation& obs, const std::vector<Scenario>& scenarios,
                     const std::vector<graph::NodeId>& batch,
                     const SaaEvalOptions& options);

/// Kleywegt et al. sample-size bound (paper Eq. 16): the number of samples T
/// guaranteeing the SAA optimum is ε-optimal with probability ≥ 1 − α,
/// T >= (δ²_max / ε²)(k ln n − ln α).
double kleywegt_sample_bound(std::size_t n, std::size_t k, double epsilon, double alpha,
                             double delta_max);

}  // namespace recon::solver
