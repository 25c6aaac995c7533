// Finding-Optimal-Batch (FOB) solvers over the SAA objective.
//
// FOB (paper Sec. IV-A): given a fixed partial realization ω, find the batch
// F' of size k maximizing g(F', ω). We solve the SAA form
// max_x (1/T) Σ_φ B(x, y, φ):
//
//  * fob_greedy — lazy greedy, the same (1 − 1/e) guarantee as Lemma 2;
//  * fob_exact  — branch and bound with a submodularity-derived bound
//    (value(S) + sum of the top k−|S| remaining marginals w.r.t. S), exact;
//    this is the "Exact MIP" series of Fig. 6, CPLEX replaced per
//    DESIGN.md §2.4.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/observation.h"
#include "solver/saa.h"

namespace recon::solver {

struct FobResult {
  std::vector<graph::NodeId> batch;
  double objective = 0.0;           ///< SAA objective of `batch`
  std::uint64_t nodes_explored = 0; ///< B&B nodes (0 for greedy)
  /// SAA objective evaluations performed (singleton scoring, lazy-greedy
  /// rescores, B&B oracle calls). Deterministic at every thread count for a
  /// deadline-free solve; the benchmark harness reports it as solver work.
  std::uint64_t saa_evals = 0;
  bool exact = false;               ///< true when B&B completed
  bool timed_out = false;           ///< a wall-clock deadline cut the solve short
};

/// Candidate set for FOB: requestable nodes (optionally with retries).
std::vector<graph::NodeId> fob_candidates(const sim::Observation& obs,
                                          bool allow_retries);

/// Lazy-greedy FOB over the SAA objective. With `deadline_seconds` > 0 the
/// solve stops at the deadline and returns the partial batch built so far
/// (timed_out reports whether that happened). A pool fans the singleton
/// pass out over candidates (in blocks of 64, polling the deadline between
/// blocks, when a deadline is set) and every later evaluation out over
/// scenarios; objective values are bit-identical either way, so the
/// selected batch is identical too. Set `antithetic` when `scenarios` came
/// from sample_scenarios_antithetic so every (U, 1-U) pair is reduced as one
/// unit (see SaaEvalOptions::antithetic_pairs).
FobResult fob_greedy(const sim::Observation& obs, const std::vector<Scenario>& scenarios,
                     std::size_t k, const std::vector<graph::NodeId>& candidates,
                     double deadline_seconds = 0.0, util::ThreadPool* pool = nullptr,
                     bool antithetic = false);

/// Candidates in decreasing singleton-objective order, ties by ascending
/// node id.
struct RankedCandidates {
  std::vector<graph::NodeId> nodes;
  std::vector<double> singleton;  ///< SAA objective of {nodes[i]}
};

/// Scores every candidate's singleton SAA objective (one fan-out over
/// candidates when `eval.pool` is set) and ranks them as fob_exact does,
/// keeping the first `cap` (0 = all).
RankedCandidates rank_candidates(const sim::Observation& obs,
                                 const std::vector<Scenario>& scenarios,
                                 const std::vector<graph::NodeId>& candidates,
                                 std::size_t cap, const SaaEvalOptions& eval);

struct FobExactOptions {
  std::uint64_t max_nodes = 2'000'000;  ///< B&B node cap
  /// Keep only the `candidate_cap` candidates with the best singleton gains
  /// (0 = no cap). A cap makes the search tractable on larger graphs but
  /// may exclude the true optimum; FobResult::exact still reports whether
  /// the search over the (possibly capped) candidate set completed.
  std::size_t candidate_cap = 0;
  /// Wall-clock budget for the B&B phase, seconds (0 = unlimited). On
  /// timeout the greedy incumbent is returned with exact=false,
  /// timed_out=true.
  double deadline_seconds = 0.0;
  /// Parallelize the SAA objective across scenarios (nullptr = sequential).
  /// Objective values — and therefore the search tree and the returned
  /// batch — are bit-identical at any thread count.
  util::ThreadPool* pool = nullptr;
  /// The scenarios are antithetic (U, 1-U) pairs; evaluate each pair as one
  /// reduction unit (SaaEvalOptions::antithetic_pairs).
  bool antithetic = false;
};

/// Exact FOB via branch and bound (falls back to the greedy incumbent if the
/// node cap is hit; `exact` reports completion).
FobResult fob_exact(const sim::Observation& obs, const std::vector<Scenario>& scenarios,
                    std::size_t k, const std::vector<graph::NodeId>& candidates,
                    const FobExactOptions& options = {});

}  // namespace recon::solver
