// Deadline-aware solver degradation: exact FOB -> SAA greedy -> lazy greedy.
//
// Per-batch selection under a wall-clock deadline. Each round the strategy
// tries the tiers in order of solution quality:
//
//   1. exact   — SAA-discretized FOB solved by branch & bound (Thm. 3
//                quality, (1 − 1/e) adaptivity factor) within
//                exact_deadline_seconds;
//   2. saa     — lazy-greedy over the same SAA objective (Lemma 2's
//                (1 − 1/e) per-batch factor) within saa_deadline_seconds;
//   3. greedy  — the plain BATCHSELECT lazy greedy over the collapsed
//                expectation tree: no scenario sampling, effectively
//                instant, and still carrying PM-AReST's
//                (1 − e^{−(1−1/e)}) guarantee (Thm. 2).
//
// A tier is accepted only if it finished inside its deadline and produced a
// non-empty batch; otherwise the next tier runs. The floor tier always
// succeeds, so a run under any deadline completes — it just degrades
// gracefully instead of stalling. The chosen tier is logged per batch
// (RECON_LOG=info) and tallied in FallbackTierCounts for ablations.
#pragma once

#include <cstdint>
#include <string>

#include "core/batch_select.h"
#include "core/strategy.h"
#include "solver/fob.h"

namespace recon::solver {

struct FallbackOptions {
  int batch_size = 3;
  std::size_t scenarios_per_batch = 500;
  bool allow_retries = false;
  /// Tier-1 (exact B&B) wall-clock budget per batch, seconds. 0 skips the
  /// exact tier entirely.
  double exact_deadline_seconds = 0.05;
  /// Tier-2 (SAA greedy) budget, seconds. 0 skips straight to the floor.
  double saa_deadline_seconds = 0.05;
  std::uint64_t max_bnb_nodes = 2'000'000;
  std::size_t candidate_cap = 0;
  core::MarginalPolicy floor_policy = core::MarginalPolicy::kWeighted;
  std::uint64_t seed = 0x5AA;
  /// Shared pool for every tier: SAA scenario fan-out in the exact and
  /// greedy tiers, parallel lazy greedy in the floor tier (nullptr =
  /// sequential everywhere). Batches are bit-identical with and without a
  /// pool; only which tier wins a wall-clock deadline can differ.
  util::ThreadPool* pool = nullptr;
};

/// How many batches each tier ended up solving.
struct FallbackTierCounts {
  std::uint64_t exact = 0;
  std::uint64_t saa_greedy = 0;
  std::uint64_t lazy_greedy = 0;
};

class FallbackStrategy : public core::Strategy {
 public:
  explicit FallbackStrategy(FallbackOptions options);

  std::string name() const override;
  void begin(const sim::Problem& problem, double budget) override;
  std::vector<graph::NodeId> next_batch(const sim::Observation& obs,
                                        double remaining_budget) override;
  std::string save_state() const override;
  void restore_state(const std::string& blob) override;

  const FallbackTierCounts& tier_counts() const noexcept { return counts_; }
  const FallbackOptions& options() const noexcept { return options_; }

 private:
  std::vector<graph::NodeId> floor_batch(const sim::Observation& obs,
                                         double remaining_budget, std::size_t k);

  // lint:ckpt-coverage-ok(construction-time config; the harness rebuilds the
  // strategy with identical options before calling restore_state)
  FallbackOptions options_;
  int round_ = 0;
  FallbackTierCounts counts_;
};

}  // namespace recon::solver
