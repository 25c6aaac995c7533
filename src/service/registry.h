// Campaign registry — the heart of the `recon serve` daemon.
//
// A registry keeps the expensive process state resident — loaded problems
// (whose graphs may be mmap-backed), one shared util::ThreadPool, and the
// planner-calibrated strategies — and runs many concurrent campaigns
// against that shared immutable state. Each campaign is one supervised
// attack (core::run_attack) on its own driver thread:
//
//   * batches stream to `<state_dir>/<id>.trace` one line per completed
//     round (readable mid-campaign via sim::read_traces_file_recover; the
//     final document is republished atomically via sim::write_traces_file);
//   * checkpoint-v2 autosnapshots publish through a per-campaign
//     core::CheckpointChain at `<state_dir>/<id>.ckpt.gen-N`;
//   * pause/resume round-trips through the newest good generation, so a
//     resumed campaign is bit-identical to an uninterrupted one (modulo
//     the wall-clock sel= field);
//   * cancel stops cooperatively at the next round boundary.
//
// Campaign ids are deterministic functions of the submission order and the
// canonical spec (`c<seq>-<fnv1a64 hex>`), so a replayed submission script
// produces the same ids and on-disk layout.
//
// Thread safety: every public method may be called from any thread (the
// protocol loop, tests, and driver threads themselves never race). The
// registry mutex guards the campaign map; per-campaign state has its own
// mutex so a long status() never blocks submit().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/problem.h"
#include "util/thread_pool.h"

namespace recon::core {
struct EmptyScores;
}  // namespace recon::core

namespace recon::service {

/// One campaign submission. Everything that shapes the attack is in here
/// (plus the registered problem it names), so the spec alone determines the
/// campaign byte-for-byte — the contract the serve tests pin against
/// sequential `recon attack` runs.
struct CampaignSpec {
  std::string problem;          ///< registered problem name
  std::string strategy = "pm";  ///< pm | mip | fallback
  int batch_size = 10;
  double budget = 50.0;
  std::uint64_t seed = 1;       ///< world seed base (derive_seed(seed, 0))
  bool allow_retries = false;
  std::size_t scenarios = 300;  ///< SAA scenarios (mip/fallback)
  std::string planner = "off";  ///< off | auto | fixed:<s> (mip, fallback)
  std::uint64_t checkpoint_every_rounds = 1;  ///< autosnapshot cadence

  /// Canonical one-line rendering — the id hash input and the protocol echo.
  std::string canonical() const;
};

enum class CampaignState {
  kPending,    ///< submitted, driver thread not yet past startup
  kRunning,
  kPaused,     ///< stopped at a round boundary with a forced snapshot
  kCompleted,
  kCancelled,
  kFailed,
};

const char* to_string(CampaignState state);

/// True for states a campaign can never leave (pause is not terminal).
bool is_terminal(CampaignState state);

struct CampaignStatus {
  CampaignState state = CampaignState::kPending;
  std::uint64_t rounds = 0;   ///< completed batch rounds
  double spent = 0.0;
  double benefit = 0.0;
  std::string error;          ///< non-empty iff state == kFailed
  std::string trace_path;
  std::string checkpoint_base;
};

class CampaignRegistry {
 public:
  struct Options {
    /// Directory for per-campaign traces and checkpoint chains. Must exist.
    std::string state_dir = ".";
    /// Worker threads in the shared pool (0 = hardware concurrency).
    std::size_t threads = 0;
  };

  explicit CampaignRegistry(Options options);
  /// Cancels every live campaign and joins all driver threads.
  ~CampaignRegistry();

  CampaignRegistry(const CampaignRegistry&) = delete;
  CampaignRegistry& operator=(const CampaignRegistry&) = delete;

  /// Registers (or replaces) a named problem. Campaigns hold pointers into
  /// this map, so replacing a problem while campaigns run on it throws.
  /// Also scores the problem's empty-observation frontier (Γ₀) once, for
  /// the policy and cost mode of served pm campaigns, and keeps it beside
  /// the problem: every pm campaign on it seeds its first batch from that
  /// memo instead of scoring the frontier again.
  void register_problem(const std::string& name, sim::Problem problem);
  std::vector<std::string> problem_names() const;

  /// Starts a campaign; returns its deterministic id. Throws
  /// std::invalid_argument on an unknown problem/strategy/planner spec.
  std::string submit(const CampaignSpec& spec);

  /// Throws std::invalid_argument for unknown ids.
  CampaignStatus status(const std::string& id) const;
  std::vector<std::pair<std::string, CampaignStatus>> list() const;

  /// Requests a cooperative stop + forced snapshot, joins the driver, and
  /// leaves the campaign kPaused. False when the campaign is not running.
  bool pause(const std::string& id);
  /// Restarts a kPaused campaign from its newest good checkpoint
  /// generation. False when the campaign is not paused.
  bool resume(const std::string& id);
  /// Stops a running campaign (or retires a paused one) terminally.
  /// False when the campaign is already terminal.
  bool cancel(const std::string& id);
  /// Blocks until the campaign reaches a terminal state or kPaused.
  CampaignStatus wait(const std::string& id);

  util::ThreadPool& pool() { return pool_; }
  const Options& options() const { return options_; }

 private:
  struct Campaign {
    CampaignSpec spec;
    const sim::Problem* problem = nullptr;  ///< into problems_ (stable)
    /// The problem's Γ₀ memo at submission (immutable, shared).
    std::shared_ptr<const core::EmptyScores> empty_scores;
    // lint:guard-ok(mu pairs with cv — std::condition_variable needs the
    // native std::mutex, which util::Mutex cannot hand to a wait(). It
    // guards `status` and `resume_from_checkpoint`; every access site in
    // registry.cc takes a lock_guard/unique_lock on it)
    mutable std::mutex mu;
    std::condition_variable cv;        ///< signalled on every state change
    CampaignStatus status;             ///< guarded by mu
    std::atomic<bool> stop_requested{false};    ///< cancel
    std::atomic<bool> pause_requested{false};
    bool resume_from_checkpoint = false;  ///< next start loads the chain
    /// Serializes pause/resume/cancel (each joins + may restart `driver`;
    /// std::thread::join from two threads at once is UB).
    // lint:guard-ok(control_mu guards no data member — it is a pure
    // operation lock serializing join/restart of `driver`)
    std::mutex control_mu;
    std::thread driver;                ///< joined before restart/destruction
  };

  void start_driver(const std::string& id, Campaign& c);
  void drive(const std::string& id, Campaign& c);
  Campaign& find(const std::string& id) const;

  Options options_;
  util::ThreadPool pool_;
  // lint:guard-ok(mu_ guards the map *shape* of problems_/campaigns_ only;
  // mapped values are node-stable and carry their own synchronization
  // (Campaign::mu), so driver threads hold references without it. Every
  // map access in registry.cc takes a lock_guard on mu_)
  mutable std::mutex mu_;
  struct Resident {
    sim::Problem problem;
    std::shared_ptr<const core::EmptyScores> empty_scores;  ///< Γ₀ memo
  };
  std::map<std::string, Resident> problems_;
  std::map<std::string, std::unique_ptr<Campaign>> campaigns_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace recon::service
