// Checkpoint/resume for synchronous and rolling-window attack runs.
//
// A checkpoint captures everything needed to resume an interrupted attack
// bit-identically: the observation's primary state, budget accounting, the
// attack clock and retry cooldowns, the fault-model state, the strategy's
// serialized mutable state (RNG streams, round counters — derived caches are
// rebuilt), and the trace so far. World randomness is counter-based, so the
// world itself is reconstructed from its seed by the caller.
//
// Versioned text format (v1 = synchronous runner; v2 adds the rolling-window
// event-loop state — readers accept both, writers emit v1 unless async state
// is present so synchronous checkpoints stay byte-identical):
//
//   #recon-checkpoint v1            (or v2)
//   meta world-seed=<u64> budget=<d> spent=<d> round=<u64> clock=<d>
//   nodes <n> <digit string, one state per node>
//   edges <m> <digit string, one state per edge>
//   attempts <count> u:a,...            (sparse; only nonzero counters)
//   friends <count> f1 f2 ...           (acceptance order)
//   cooldowns <count> u:t,...           (sparse; only future deadlines)
//   benefit friends=<d> fofs=<d> edges=<d>   (exact accumulator; optional in
//                                             old files — see AttackCheckpoint)
//   fault sends=<u64> tick=<u64> until=<u64> window=t:c,... counters=...
//   async window=<W> now=<d> sent=<u64> accepts=<u64>      (v2 only)
//   rng <w0> <w1> <w2> <w3>                                (v2 only)
//   inflight <count> u:a:o:q:t ...                         (v2 only)
//   strategy <name>
//   strategy-state <opaque single-line blob>
//   end
//   <embedded trace: full #recon-trace v1 document, own terminator>
//
// In a v2 record `round` counts resolved events, the `async` line carries the
// event clock and result tallies, `rng` is the delay stream's xoshiro256**
// state (util::Rng::save_state), and `inflight` lists the outstanding
// requests in send order (node, frozen attempt index, resolved outcome,
// acceptance probability at send, absolute completion time).
//
// Readers reject truncated or inconsistent files with std::runtime_error.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "sim/fault.h"
#include "sim/observation.h"
#include "sim/trace.h"

namespace recon::core {

/// Strategy-name sentinel recorded in rolling-window (v2) checkpoints; the
/// async runner has no Strategy object, and the sentinel makes cross-runner
/// resume attempts fail with the usual mismatch diagnostic.
inline constexpr const char kAsyncCheckpointStrategy[] = "rolling-window";

/// One outstanding request of the rolling-window event loop, frozen at
/// snapshot time. Everything needed to replay its resolution is here: the
/// fault outcome and completion time were decided at send.
struct InFlightRequest {
  graph::NodeId node = 0;
  std::uint32_t attempt = 0;      ///< attempt index frozen at send
  std::uint8_t outcome = 0;       ///< sim::RequestOutcome at resolution
  double q_at_send = 0.0;         ///< acceptance probability frozen at send
  double completion_time = 0.0;   ///< absolute event time of the response

  bool operator==(const InFlightRequest&) const = default;

  /// Appends the single token `u:a:o:q:t` (doubles at 17 significant digits).
  void serialize(std::string& out) const;
  /// Parses a token produced by serialize(); throws std::runtime_error.
  static InFlightRequest deserialize(const std::string& token);
};

/// Event-loop state of the rolling-window runner beyond what the synchronous
/// record carries; present iff AttackCheckpoint::has_async.
struct AsyncCheckpointState {
  int window = 0;                  ///< the run's W, validated on resume
  double now = 0.0;                ///< event clock (== makespan so far)
  std::uint64_t requests_sent = 0;
  std::uint64_t accepts = 0;
  std::string rng_state;           ///< delay-RNG blob (util::Rng::save_state)
  /// Outstanding requests in send order — the order their collapsed
  /// batch-state corrections were applied, which resume must replay.
  std::vector<InFlightRequest> in_flight;
};

struct AttackCheckpoint {
  std::uint64_t world_seed = 0;
  double budget = 0.0;
  double spent = 0.0;
  std::uint64_t round = 0;  ///< completed batch rounds
  double clock = 0.0;       ///< observation clock at checkpoint time

  // Observation primary state (derived state is recomputed on resume).
  std::vector<sim::NodeState> node_states;
  std::vector<sim::EdgeState> edge_states;
  std::vector<std::uint32_t> attempts;
  std::vector<graph::NodeId> friends;   ///< acceptance order
  std::vector<double> retry_after;      ///< empty when no cooldown was ever set

  /// Exact accumulated benefit at snapshot time. Restoring this verbatim —
  /// rather than recomputing from node/edge states, which sums in a different
  /// order — is what makes resumed traces byte-identical. Absent in files
  /// written before the section existed; restore falls back to the recompute.
  bool has_benefit = false;
  sim::BenefitBreakdown benefit;

  bool has_fault = false;
  sim::FaultModel::State fault;

  std::string strategy_name;   ///< for mismatch diagnostics only
  std::string strategy_state;  ///< opaque Strategy::save_state() blob

  bool has_async = false;      ///< v2 record with rolling-window state
  AsyncCheckpointState async;

  sim::AttackTrace trace;
};

/// Snapshots a running attack. `fault` may be null.
AttackCheckpoint make_checkpoint(const sim::Observation& obs,
                                 const Strategy& strategy,
                                 const sim::AttackTrace& trace, double budget,
                                 double spent, std::uint64_t round,
                                 std::uint64_t world_seed,
                                 const sim::FaultModel* fault);

/// Snapshots a rolling-window run (a v2 record): `events` counts resolved
/// events and lands in the `round` field, the strategy sections carry the
/// kAsyncCheckpointStrategy sentinel. `fault` may be null.
AttackCheckpoint make_async_checkpoint(const sim::Observation& obs,
                                       const AsyncCheckpointState& async,
                                       const sim::AttackTrace& trace,
                                       double budget, double spent,
                                       std::uint64_t events,
                                       std::uint64_t world_seed,
                                       const sim::FaultModel* fault);

/// Applies a checkpoint to a freshly-constructed observation / begun strategy
/// / freshly-constructed fault model. `strategy.begin()` must have been
/// called first. Throws std::runtime_error on strategy-name mismatch and
/// std::invalid_argument on inconsistent state. Rejects rolling-window (v2)
/// checkpoints — those resume through run_async_attack.
void apply_checkpoint(const AttackCheckpoint& cp, sim::Observation& obs,
                      Strategy& strategy, sim::FaultModel* fault);

/// Rolling-window variant: restores the observation and fault model from a
/// v2 checkpoint (the event-loop state in `cp.async` is consumed by
/// run_async_attack itself). Rejects synchronous checkpoints and fault-model
/// configuration mismatches with std::runtime_error.
void apply_async_checkpoint(const AttackCheckpoint& cp, sim::Observation& obs,
                            sim::FaultModel* fault);

/// The checkpoint document as one string, encoded in a single pass into one
/// buffer reserved up front (with spare room for the generation footer,
/// core/checkpoint_chain.h).
std::string encode_checkpoint(const AttackCheckpoint& cp);
/// Writes encode_checkpoint(cp) to `out` and sets its precision to 17.
void write_checkpoint(std::ostream& out, const AttackCheckpoint& cp);
/// Atomic write: writes to `path`.tmp then renames, so an interrupted writer
/// never leaves a half-written checkpoint at `path`.
void write_checkpoint_file(const std::string& path, const AttackCheckpoint& cp);

AttackCheckpoint read_checkpoint(std::istream& in);
AttackCheckpoint read_checkpoint_file(const std::string& path);

}  // namespace recon::core
