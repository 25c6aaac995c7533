#include "service/registry.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/attack.h"
#include "core/cached_selector.h"
#include "core/checkpoint_chain.h"
#include "core/planner.h"
#include "core/pm_arest.h"
#include "sim/trace_io.h"
#include "sim/world.h"
#include "solver/fallback.h"
#include "solver/strategy_mip.h"
#include "util/fs.h"
#include "util/log.h"
#include "util/rng.h"

namespace recon::service {

namespace {

/// Builds the campaign's strategy exactly as the CLI factory would
/// (cli/commands.cc make_factory), sharing the registry's resident pool.
/// Batches are bit-identical at every pool size, so sharing one pool across
/// concurrent campaigns cannot perturb any campaign's trace.
std::unique_ptr<core::Strategy> make_strategy(
    const CampaignSpec& spec, util::ThreadPool* pool,
    std::shared_ptr<const core::EmptyScores> empty_scores = nullptr) {
  if (spec.batch_size <= 0) {
    throw std::invalid_argument("campaign batch_size must be positive");
  }
  if (spec.budget <= 0.0) {
    throw std::invalid_argument("campaign budget must be positive");
  }
  const core::PlannerOptions planner =
      core::parse_planner_spec(spec.planner, spec.strategy);
  if (spec.strategy == "pm") {
    core::PmArestOptions o;
    o.batch_size = spec.batch_size;
    o.allow_retries = spec.allow_retries;
    o.pool = pool;
    return std::make_unique<core::PmArest>(o, std::move(empty_scores));
  }
  if (spec.strategy == "mip") {
    solver::MipStrategyOptions o;
    o.batch_size = spec.batch_size;
    o.allow_retries = spec.allow_retries;
    o.scenarios_per_batch = spec.scenarios;
    o.candidate_cap = 30;
    o.planner = planner;
    o.pool = pool;
    return std::make_unique<solver::MipBatchStrategy>(o);
  }
  if (spec.strategy == "fallback") {
    solver::FallbackOptions o;
    o.batch_size = spec.batch_size;
    o.allow_retries = spec.allow_retries;
    o.scenarios_per_batch = spec.scenarios;
    o.candidate_cap = 30;
    o.planner = planner;
    o.pool = pool;
    return std::make_unique<solver::FallbackStrategy>(o);
  }
  throw std::invalid_argument("unknown campaign strategy '" + spec.strategy +
                              "' (pm|mip|fallback)");
}

constexpr const char* kTraceHeader = "#recon-trace v1";

}  // namespace

std::string CampaignSpec::canonical() const {
  std::ostringstream os;
  os.precision(17);
  os << "problem=" << problem << " strategy=" << strategy
     << " k=" << batch_size << " budget=" << budget << " seed=" << seed
     << " retries=" << (allow_retries ? 1 : 0) << " scenarios=" << scenarios
     << " planner=" << planner << " ckpt-every=" << checkpoint_every_rounds;
  return os.str();
}

const char* to_string(CampaignState state) {
  switch (state) {
    case CampaignState::kPending: return "pending";
    case CampaignState::kRunning: return "running";
    case CampaignState::kPaused: return "paused";
    case CampaignState::kCompleted: return "completed";
    case CampaignState::kCancelled: return "cancelled";
    case CampaignState::kFailed: return "failed";
  }
  return "unknown";
}

bool is_terminal(CampaignState state) {
  return state == CampaignState::kCompleted ||
         state == CampaignState::kCancelled || state == CampaignState::kFailed;
}

CampaignRegistry::CampaignRegistry(Options options)
    : options_(std::move(options)),
      pool_(options_.threads != 0
                ? static_cast<unsigned>(options_.threads)
                : std::max(1u, std::thread::hardware_concurrency())) {
  if (!util::directory_exists(options_.state_dir)) {
    throw std::invalid_argument("CampaignRegistry: state_dir does not exist: " +
                                options_.state_dir);
  }
}

CampaignRegistry::~CampaignRegistry() {
  // Snapshot the campaign set, then stop outside the registry lock (driver
  // threads take it when they finish).
  std::vector<Campaign*> live;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [id, c] : campaigns_) live.push_back(c.get());
  }
  for (Campaign* c : live) c->stop_requested.store(true);
  for (Campaign* c : live) {
    if (c->driver.joinable()) c->driver.join();
  }
}

void CampaignRegistry::register_problem(const std::string& name,
                                        sim::Problem problem) {
  // Γ₀ under the policy and cost mode make_strategy leaves pm campaigns
  // at, scored outside the lock. The scores do not depend on where the
  // problem lives, so the memo is re-pointed at its resident copy below.
  const core::PmArestOptions served;
  std::shared_ptr<core::EmptyScores> memo =
      core::compute_empty_scores(problem, served.policy, served.cost_sensitive, &pool_);
  std::lock_guard<std::mutex> lk(mu_);
  if (problems_.count(name) != 0) {
    for (const auto& [id, c] : campaigns_) {
      std::lock_guard<std::mutex> clk(c->mu);
      if (c->spec.problem == name && !is_terminal(c->status.state)) {
        throw std::invalid_argument("cannot replace problem '" + name +
                                    "': campaign " + id + " is live on it");
      }
    }
  }
  Resident& r = problems_[name];
  r.problem = std::move(problem);
  memo->problem = &r.problem;
  r.empty_scores = std::move(memo);
}

std::vector<std::string> CampaignRegistry::problem_names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> names;
  names.reserve(problems_.size());
  for (const auto& [name, p] : problems_) names.push_back(name);
  return names;
}

std::string CampaignRegistry::submit(const CampaignSpec& spec) {
  // Surface bad specs synchronously: a throwaway strategy build runs every
  // validation the driver would hit later.
  (void)make_strategy(spec, nullptr);

  std::lock_guard<std::mutex> lk(mu_);
  const auto it = problems_.find(spec.problem);
  if (it == problems_.end()) {
    throw std::invalid_argument("unknown problem '" + spec.problem + "'");
  }
  const std::string canon = spec.canonical();
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    util::fnv1a64(canon.data(), canon.size())));
  // reserve + append rather than operator+ chains: GCC 12 at -O3 reports a
  // false -Wrestrict on `"c" + std::to_string(...)`.
  const std::string seq = std::to_string(next_seq_++);
  std::string id;
  id.reserve(2 + seq.size() + 16);
  id.append("c").append(seq).append("-").append(hex);

  auto c = std::make_unique<Campaign>();
  c->spec = spec;
  c->problem = &it->second.problem;
  c->empty_scores = it->second.empty_scores;
  c->status.trace_path = options_.state_dir + "/" + id + ".trace";
  c->status.checkpoint_base = options_.state_dir + "/" + id + ".ckpt";
  Campaign& ref = *c;
  campaigns_.emplace(id, std::move(c));
  start_driver(id, ref);
  return id;
}

void CampaignRegistry::start_driver(const std::string& id, Campaign& c) {
  c.driver = std::thread([this, id, &c] { drive(id, c); });
}

void CampaignRegistry::drive(const std::string& id, Campaign& c) {
  try {
    bool resuming = false;
    {
      std::lock_guard<std::mutex> lk(c.mu);
      resuming = c.resume_from_checkpoint;
      c.status.state = CampaignState::kRunning;
    }
    c.cv.notify_all();

    auto strategy = make_strategy(c.spec, &pool_, c.empty_scores);
    core::CheckpointChain chain(c.status.checkpoint_base);
    std::optional<core::LoadedGeneration> loaded;
    if (resuming) {
      loaded = chain.load_last_good();
      if (!loaded) {
        RECON_LOG(kWarn) << "campaign " << id
                         << ": no good checkpoint generation; restarting fresh";
      }
    }
    const std::uint64_t world_seed = loaded
                                         ? loaded->checkpoint.world_seed
                                         : util::derive_seed(c.spec.seed, 0);
    const sim::World world(*c.problem, world_seed);

    // Streaming trace: header + one batch line per completed round, flushed
    // so the file is readable mid-campaign (read_traces_file_recover
    // tolerates the missing `end` marker). On resume the already-completed
    // prefix is rewritten from the checkpoint, keeping the file identical to
    // an uninterrupted run's stream.
    std::ofstream tf(c.status.trace_path, std::ios::binary | std::ios::trunc);
    if (!tf) {
      throw std::runtime_error("cannot open trace file " +
                               c.status.trace_path);
    }
    tf.precision(17);
    tf << kTraceHeader << '\n' << "trace 0" << '\n';
    double prev_cost = 0.0;
    if (loaded) {
      for (const auto& b : loaded->checkpoint.trace.batches) {
        sim::write_batch_line(tf, b, prev_cost);
        prev_cost = b.cumulative_cost;
      }
    }
    tf.flush();

    core::AttackRunOptions ro;
    ro.checkpoint_chain = &chain;
    ro.checkpoint_every_rounds = c.spec.checkpoint_every_rounds;
    ro.should_stop = [&c] {
      return c.stop_requested.load(std::memory_order_relaxed) ||
             c.pause_requested.load(std::memory_order_relaxed);
    };
    if (loaded) ro.resume = &loaded->checkpoint;
    ro.on_round = [&](const sim::AttackTrace& trace, std::uint64_t) {
      const sim::BatchRecord& b = trace.batches.back();
      sim::write_batch_line(tf, b, prev_cost);
      prev_cost = b.cumulative_cost;
      tf.flush();
      std::lock_guard<std::mutex> lk(c.mu);
      c.status.rounds = trace.batches.size();
      c.status.spent = b.cumulative_cost;
      c.status.benefit = b.cumulative.total();
    };

    const sim::AttackTrace trace =
        core::run_attack(*c.problem, world, *strategy, c.spec.budget, ro);
    tf.close();
    // Republish the canonical complete document (with the `end` marker)
    // atomically over the streamed file.
    sim::write_traces_file(c.status.trace_path, {trace});

    std::lock_guard<std::mutex> lk(c.mu);
    c.status.rounds = trace.batches.size();
    c.status.spent = trace.total_cost();
    c.status.benefit = trace.total_benefit();
    c.resume_from_checkpoint = false;
    if (c.stop_requested.load()) {
      c.status.state = CampaignState::kCancelled;
    } else if (c.pause_requested.load()) {
      c.status.state = CampaignState::kPaused;
    } else {
      c.status.state = CampaignState::kCompleted;
    }
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lk(c.mu);
    c.status.state = CampaignState::kFailed;
    c.status.error = e.what();
    RECON_LOG(kWarn) << "campaign " << id << " failed: " << e.what();
  }
  c.cv.notify_all();
}

CampaignRegistry::Campaign& CampaignRegistry::find(const std::string& id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = campaigns_.find(id);
  if (it == campaigns_.end()) {
    throw std::invalid_argument("unknown campaign '" + id + "'");
  }
  return *it->second;
}

CampaignStatus CampaignRegistry::status(const std::string& id) const {
  Campaign& c = find(id);
  std::lock_guard<std::mutex> lk(c.mu);
  return c.status;
}

std::vector<std::pair<std::string, CampaignStatus>> CampaignRegistry::list()
    const {
  std::vector<std::pair<std::string, CampaignStatus>> out;
  std::lock_guard<std::mutex> lk(mu_);
  out.reserve(campaigns_.size());
  for (const auto& [id, c] : campaigns_) {
    std::lock_guard<std::mutex> clk(c->mu);
    out.emplace_back(id, c->status);
  }
  return out;
}

bool CampaignRegistry::pause(const std::string& id) {
  Campaign& c = find(id);
  std::lock_guard<std::mutex> control(c.control_mu);
  {
    std::lock_guard<std::mutex> lk(c.mu);
    if (c.status.state != CampaignState::kRunning &&
        c.status.state != CampaignState::kPending) {
      return false;
    }
    c.pause_requested.store(true);
  }
  if (c.driver.joinable()) c.driver.join();
  std::lock_guard<std::mutex> lk(c.mu);
  return c.status.state == CampaignState::kPaused;
}

bool CampaignRegistry::resume(const std::string& id) {
  Campaign& c = find(id);
  std::lock_guard<std::mutex> control(c.control_mu);
  {
    std::lock_guard<std::mutex> lk(c.mu);
    if (c.status.state != CampaignState::kPaused) return false;
    c.pause_requested.store(false);
    c.resume_from_checkpoint = true;
    c.status.state = CampaignState::kPending;
  }
  if (c.driver.joinable()) c.driver.join();  // paused drivers have returned
  start_driver(id, c);
  return true;
}

bool CampaignRegistry::cancel(const std::string& id) {
  Campaign& c = find(id);
  std::lock_guard<std::mutex> control(c.control_mu);
  {
    std::lock_guard<std::mutex> lk(c.mu);
    if (is_terminal(c.status.state)) return false;
    if (c.status.state == CampaignState::kPaused) {
      c.status.state = CampaignState::kCancelled;
      c.cv.notify_all();
      return true;
    }
    c.stop_requested.store(true);
  }
  if (c.driver.joinable()) c.driver.join();
  return true;
}

CampaignStatus CampaignRegistry::wait(const std::string& id) {
  Campaign& c = find(id);
  std::unique_lock<std::mutex> lk(c.mu);
  c.cv.wait(lk, [&c] {
    return is_terminal(c.status.state) ||
           c.status.state == CampaignState::kPaused;
  });
  return c.status;
}

}  // namespace recon::service
