#include "core/pm_arest.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace recon::core {

using graph::NodeId;

PmArest::PmArest(PmArestOptions options, std::shared_ptr<const EmptyScores> empty_scores)
    : options_(options), empty_scores_(std::move(empty_scores)), rng_(options.seed) {
  if (options_.batch_size <= 0) {
    throw std::invalid_argument("PmArest: batch_size must be positive");
  }
  if (options_.vary_k_max > 0 &&
      (options_.vary_k_min <= 0 || options_.vary_k_min > options_.vary_k_max)) {
    throw std::invalid_argument("PmArest: bad varying-k range");
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
  n += ")";
  return n;
}

void PmArest::begin(const sim::Problem& problem, double budget) {
  (void)problem;
  rng_ = util::Rng(options_.seed);
  cache_.reset();
  cache_obs_ = nullptr;
  last_attempts_.clear();
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
  return ss.str();
}

void PmArest::restore_state(const std::string& blob) {
  std::istringstream ss(blob);
  std::string tag;
  std::array<std::uint64_t, 4> w{};
  if (!(ss >> tag >> w[0] >> w[1] >> w[2] >> w[3]) || tag != "pmarest") {
    throw std::invalid_argument("PmArest::restore_state: bad state blob");
  }
  if (std::string extra; ss >> extra) {
    throw std::invalid_argument(
        "PmArest::restore_state: unexpected '" + extra +
        "' section; PM-AReST no longer hosts a planner, so checkpoints "
        "written by a --planner run cannot be resumed");
  }
  rng_.set_state_words(w);
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
                                              options_.pool, empty_scores_);
    cache_obs_ = &obs;
    last_attempts_.assign(obs.problem().graph.num_nodes(), 0);
    // A fresh cache starts all-dirty, so pre-existing observation state is
    // picked up on first scoring; only record current attempt counters.
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

std::vector<NodeId> PmArest::next_batch(const sim::Observation& obs,
                                        double remaining_budget) {
  const int k = draw_batch_size();
  // The cache composes with the pool: parallel rescore of dirty candidates,
  // then the deterministic sequential pick loop. Parallel-eager mode bypasses
  // the cache (it rescores everything each round anyway).
  if (!options_.parallel_eager) {
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
  bs.parallel_eager = true;
  return batch_select(obs, bs);
}

}  // namespace recon::core
