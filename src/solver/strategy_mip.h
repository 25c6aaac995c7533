// Attack strategy that solves FOB exactly each round (paper Thm. 3):
// replacing BATCHSELECT with the (SAA-discretized) optimal batch tightens
// PM-AReST's guarantee to (1 − 1/e). This is the "Exact MIP" strategy of
// Fig. 6: fresh scenarios are sampled before every batch so that only
// realizations consistent with the current partial realization are used.
#pragma once

#include <cstdint>
#include <string>

#include "core/strategy.h"
#include "solver/fob.h"

namespace recon::solver {

struct MipStrategyOptions {
  int batch_size = 3;
  std::size_t scenarios_per_batch = 1000;
  bool allow_retries = false;
  /// Exact search controls (see FobExactOptions).
  std::uint64_t max_bnb_nodes = 2'000'000;
  std::size_t candidate_cap = 0;
  /// Use greedy SAA instead of exact B&B (ablation).
  bool greedy_only = false;
  /// Solve each batch with the L-shaped (Benders) decomposition instead of
  /// the submodular B&B (same optimum, different machinery — Sec. IV-B's
  /// two-stage program solved the textbook way).
  bool use_benders = false;
  std::uint64_t seed = 0x5AA;
  /// Parallelize the per-batch SAA solves across scenarios (nullptr =
  /// sequential). Selected batches are bit-identical at any thread count.
  util::ThreadPool* pool = nullptr;
};

class MipBatchStrategy : public core::Strategy {
 public:
  explicit MipBatchStrategy(MipStrategyOptions options);

  const MipStrategyOptions& options() const noexcept { return options_; }

  std::string name() const override;
  void begin(const sim::Problem& problem, double budget) override;
  std::vector<graph::NodeId> next_batch(const sim::Observation& obs,
                                        double remaining_budget) override;
  std::string save_state() const override;
  void restore_state(const std::string& blob) override;

  /// Whether every batch so far was solved to proven optimality.
  bool all_exact() const noexcept { return all_exact_; }

 private:
  // lint:ckpt-coverage-ok(construction-time config; the harness rebuilds the
  // strategy with identical options before calling restore_state)
  MipStrategyOptions options_;
  int round_ = 0;
  bool all_exact_ = true;
};

}  // namespace recon::solver
