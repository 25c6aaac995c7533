#include "core/pm_arest.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/branch_tree.h"
#include "util/timer.h"

namespace recon::core {

using graph::NodeId;

namespace {

/// This host runs the greedy-floor selector variants only (the SAA tiers
/// live in the fallback/MIP strategies).
PlannerOptions host_planner_options(PlannerOptions po) {
  po.admissible[static_cast<int>(PlanStrategy::kSaaGreedy)] = false;
  po.admissible[static_cast<int>(PlanStrategy::kSaaExact)] = false;
  return po;
}

}  // namespace

PmArest::PmArest(PmArestOptions options)
    : options_(options), rng_(options.seed),
      planner_(host_planner_options(options.planner)) {
  if (options_.batch_size <= 0) {
    throw std::invalid_argument("PmArest: batch_size must be positive");
  }
  if (options_.vary_k_max > 0 &&
      (options_.vary_k_min <= 0 || options_.vary_k_min > options_.vary_k_max)) {
    throw std::invalid_argument("PmArest: bad varying-k range");
  }
  if (planner_.options().mode == PlannerMode::kFixed &&
      !planner_.options()
           .admissible[static_cast<int>(planner_.options().fixed_strategy)]) {
    throw std::invalid_argument(
        "PmArest: fixed planner strategy must be cached, uncached, or tree");
  }
}

std::string PmArest::name() const {
  std::string n = "PM-AReST(k=";
  if (options_.vary_k_max > 0) {
    n += std::to_string(options_.vary_k_min) + ".." + std::to_string(options_.vary_k_max);
  } else {
    n += std::to_string(options_.batch_size);
  }
  if (options_.allow_retries) n += ",retry";
  if (options_.use_branch_tree) n += ",tree";
  n += ")";
  return n;
}

void PmArest::begin(const sim::Problem& problem, double budget) {
  (void)problem;
  rng_ = util::Rng(options_.seed);
  cache_.reset();
  cache_obs_ = nullptr;
  last_attempts_.clear();
  restored_attempts_.clear();
  restored_acct_dirty_.clear();
  has_restored_cache_ = false;
  planner_.reset();
  if (options_.max_attempts_per_node != 0) {
    attempt_cap_ = options_.max_attempts_per_node;
  } else if (options_.allow_retries) {
    // The paper's auxiliary-graph analysis allows m = K/k requests per node.
    const double k = options_.vary_k_max > 0
                         ? static_cast<double>(options_.vary_k_min)
                         : static_cast<double>(options_.batch_size);
    attempt_cap_ = static_cast<std::uint32_t>(
        std::max(1.0, std::ceil(budget / std::max(1.0, k))));
  } else {
    attempt_cap_ = 1;
  }
}

std::string PmArest::save_state() const {
  const auto w = rng_.state_words();
  std::ostringstream ss;
  ss << "pmarest " << w[0] << ' ' << w[1] << ' ' << w[2] << ' ' << w[3];
  // Cache-accounting section: only written when the planner consumes the
  // accounted work counts (legacy planner-off blobs stay byte-identical). A
  // strategy that was restored but never ran a cached batch re-emits the
  // section it was restored with, so checkpoint→checkpoint round-trips are
  // lossless.
  if (planner_.enabled() && (cache_ != nullptr || has_restored_cache_)) {
    ss << " cache ";
    if (cache_ != nullptr) {
      std::size_t pairs = 0;
      for (const std::uint32_t a : last_attempts_) {
        if (a != 0) ++pairs;
      }
      ss << pairs;
      for (NodeId u = 0; u < static_cast<NodeId>(last_attempts_.size()); ++u) {
        if (last_attempts_[u] != 0) ss << ' ' << u << ':' << last_attempts_[u];
      }
      const std::vector<NodeId> dirty = cache_->accounting_dirty_nodes();
      ss << ' ' << dirty.size();
      for (const NodeId u : dirty) ss << ' ' << u;
    } else {
      ss << restored_attempts_.size();
      for (const auto& [u, a] : restored_attempts_) ss << ' ' << u << ':' << a;
      ss << ' ' << restored_acct_dirty_.size();
      for (const NodeId u : restored_acct_dirty_) ss << ' ' << u;
    }
  }
  if (planner_.enabled()) ss << ' ' << planner_.save_state();
  return ss.str();
}

void PmArest::restore_state(const std::string& blob) {
  std::istringstream ss(blob);
  std::string tag;
  std::array<std::uint64_t, 4> w{};
  if (!(ss >> tag >> w[0] >> w[1] >> w[2] >> w[3]) || tag != "pmarest") {
    throw std::invalid_argument("PmArest::restore_state: bad state blob");
  }
  std::vector<std::pair<NodeId, std::uint32_t>> attempts;
  std::vector<NodeId> acct_dirty;
  bool have_cache = false;
  std::string token;
  if (ss >> token && token == "cache") {
    std::size_t pairs = 0;
    if (!(ss >> pairs)) {
      throw std::invalid_argument(
          "PmArest::restore_state: truncated cache section");
    }
    attempts.reserve(pairs);
    for (std::size_t i = 0; i < pairs; ++i) {
      std::string entry;
      std::uint64_t u = 0;
      std::uint64_t a = 0;
      char colon = 0;
      if (!(ss >> entry)) {
        throw std::invalid_argument(
            "PmArest::restore_state: truncated cache section");
      }
      std::istringstream es(entry);
      if (!(es >> u >> colon >> a) || colon != ':' || a == 0 ||
          u > static_cast<std::uint64_t>(graph::kInvalidNode)) {
        throw std::invalid_argument(
            "PmArest::restore_state: bad cache attempt entry");
      }
      attempts.emplace_back(static_cast<NodeId>(u),
                            static_cast<std::uint32_t>(a));
    }
    std::size_t dirty = 0;
    if (!(ss >> dirty)) {
      throw std::invalid_argument(
          "PmArest::restore_state: truncated cache section");
    }
    acct_dirty.reserve(dirty);
    for (std::size_t i = 0; i < dirty; ++i) {
      std::uint64_t u = 0;
      if (!(ss >> u) || u > static_cast<std::uint64_t>(graph::kInvalidNode)) {
        throw std::invalid_argument(
            "PmArest::restore_state: bad cache dirty entry");
      }
      acct_dirty.push_back(static_cast<NodeId>(u));
    }
    have_cache = true;
    if (!(ss >> token)) token.clear();
  }
  if (planner_.enabled()) {
    if (token != "planner") {
      throw std::invalid_argument(
          "PmArest::restore_state: planner enabled but state blob carries no "
          "planner line");
    }
    std::string rest;
    std::getline(ss, rest);
    planner_.restore_state(token + rest);
  }
  rng_.set_state_words(w);
  restored_attempts_ = std::move(attempts);
  restored_acct_dirty_ = std::move(acct_dirty);
  has_restored_cache_ = have_cache;
  cache_.reset();
  cache_obs_ = nullptr;
}

int PmArest::draw_batch_size() {
  if (options_.vary_k_max <= 0) return options_.batch_size;
  return static_cast<int>(
      rng_.range(options_.vary_k_min, options_.vary_k_max));
}

void PmArest::sync_cache(const sim::Observation& obs) {
  const bool fresh = cache_ == nullptr || cache_obs_ != &obs;
  if (fresh) {
    cache_ = std::make_unique<CachedSelector>(obs, options_.policy,
                                              options_.cost_sensitive,
                                              options_.pool);
    cache_obs_ = &obs;
    last_attempts_.assign(obs.problem().graph.num_nodes(), 0);
    // A fresh cache starts all-dirty, so pre-existing observation state is
    // picked up on first scoring; only record current attempt counters.
    if (has_restored_cache_) {
      // Resume: re-seed the attempt counters and the accounting overlay from
      // the checkpoint. The real dirty bitmap stays all-dirty (the rebuilt
      // cache must rescore everything once for correctness), but the
      // accounting side replays as if the cache had never been torn down, so
      // the diff below and the per-batch accounted deltas exactly match the
      // uninterrupted run's notifications and work counts.
      for (const auto& [u, a] : restored_attempts_) {
        if (static_cast<std::size_t>(u) < last_attempts_.size()) {
          last_attempts_[u] = a;
        }
      }
      cache_->restore_accounting(restored_acct_dirty_);
      restored_attempts_.clear();
      restored_acct_dirty_.clear();
      has_restored_cache_ = false;
    }
  }
  const auto diff = [&](NodeId u) {
    const std::uint32_t a = obs.attempts(u);
    if (a == last_attempts_[u]) return;
    last_attempts_[u] = a;
    if (obs.is_friend(u)) {
      cache_->notify_accept(u);
    } else {
      cache_->notify_reject(u);
    }
  };
  const auto touched = obs.touched_nodes();
  if (fresh || journal_generation_ != obs.journal_generation() ||
      journal_pos_ > touched.size()) {
    // New cache or a restored observation: one scan over every counter.
    const NodeId n = obs.problem().graph.num_nodes();
    for (NodeId u = 0; u < n; ++u) diff(u);
  } else {
    // Only nodes the observation journaled since the last sync can have
    // moved; repeated entries diff to no-ops.
    for (std::size_t i = journal_pos_; i < touched.size(); ++i) diff(touched[i]);
  }
  journal_pos_ = touched.size();
  journal_generation_ = obs.journal_generation();
}

std::vector<NodeId> PmArest::planned_batch(const sim::Observation& obs,
                                           double remaining_budget, int k) {
  const auto& g = obs.problem().graph;
  const std::vector<NodeId> candidates = batch_candidates(
      obs, options_.allow_retries, attempt_cap_, remaining_budget);
  if (candidates.empty()) return {};

  PlanFeatures f;
  f.batch_size = k;
  f.frontier_size = candidates.size();
  for (const NodeId u : candidates) {
    const auto deg = static_cast<double>(g.degree(u));
    f.mean_degree += deg;
    f.max_degree = std::max(f.max_degree, deg);
  }
  f.mean_degree /= static_cast<double>(candidates.size());

  const PlanDecision decision = planner_.plan(f);
  const double row = 1.0 + f.mean_degree;
  const util::WallTimer timer;
  std::vector<NodeId> batch;
  double actual_work = 0.0;
  switch (decision.strategy) {
    case PlanStrategy::kCollapsedCached: {
      sync_cache(obs);
      const std::uint64_t before = cache_->accounted_rescore_count();
      batch = cache_->select_batch(k, options_.allow_retries, attempt_cap_,
                                   remaining_budget);
      // Observed work = candidates accounted as rescored this batch (the
      // dirty region), in the same row-walk units as the estimate — the
      // ratio EWMA converges to the cache's dirty fraction. The *accounted*
      // count is checkpointable: unlike the raw rescore counter it excludes
      // the one-off cold rebuild a resume incurs, so resumed planner state
      // is bit-identical to the uninterrupted run's.
      actual_work =
          static_cast<double>(cache_->accounted_rescore_count() - before) *
          row;
      break;
    }
    case PlanStrategy::kCollapsedUncached: {
      BatchSelectOptions bs;
      bs.batch_size = k;
      bs.policy = options_.policy;
      bs.cost_sensitive = options_.cost_sensitive;
      bs.allow_retries = options_.allow_retries;
      bs.max_attempts_per_node = attempt_cap_;
      bs.remaining_budget = remaining_budget;
      bs.pool = options_.pool;
      bs.calibration = &planner_.shard_calibration();
      batch = batch_select(obs, bs);
      actual_work = static_cast<double>(f.frontier_size) * row;
      break;
    }
    case PlanStrategy::kBranchTree: {
      BranchTreeOptions bt;
      bt.batch_size = k;
      bt.policy = options_.policy;
      bt.allow_retries = options_.allow_retries;
      bt.max_attempts_per_node = attempt_cap_;
      bt.pool = options_.pool;
      batch = branch_tree_select(obs, bt);
      actual_work = decision.estimated_work;  // closed-form 2^k enumeration
      break;
    }
    default:
      throw std::logic_error("PmArest: planner chose an inadmissible strategy");
  }
  planner_.observe(decision, actual_work, timer.nanos(),
                   /*overran_deadline=*/false);
  return batch;
}

std::vector<NodeId> PmArest::next_batch(const sim::Observation& obs,
                                        double remaining_budget) {
  const int k = draw_batch_size();
  if (planner_.enabled() && !options_.parallel_eager) {
    return planned_batch(obs, remaining_budget, k);
  }
  if (options_.use_branch_tree) {
    BranchTreeOptions bt;
    bt.batch_size = k;
    bt.policy = options_.policy;
    bt.allow_retries = options_.allow_retries;
    bt.max_attempts_per_node = attempt_cap_;
    bt.pool = options_.pool;
    return branch_tree_select(obs, bt);
  }
  // The cache composes with the pool: parallel rescore of dirty candidates,
  // then the deterministic sequential pick loop. Parallel-eager mode bypasses
  // the cache (it rescores everything each round anyway).
  if (options_.use_cache && !options_.parallel_eager) {
    sync_cache(obs);
    return cache_->select_batch(k, options_.allow_retries, attempt_cap_,
                                remaining_budget);
  }
  BatchSelectOptions bs;
  bs.batch_size = k;
  bs.policy = options_.policy;
  bs.cost_sensitive = options_.cost_sensitive;
  bs.allow_retries = options_.allow_retries;
  bs.max_attempts_per_node = attempt_cap_;
  bs.remaining_budget = remaining_budget;
  bs.pool = options_.pool;
  bs.parallel_eager = options_.parallel_eager;
  return batch_select(obs, bs);
}

}  // namespace recon::core
