#include "cli/commands.h"

#include <csignal>
#include <exception>
#include <iostream>
#include <memory>
#include <ostream>

#include "core/async_attack.h"
#include "core/attack.h"
#include "core/baselines.h"
#include "core/checkpoint.h"
#include "core/checkpoint_chain.h"
#include "core/supervisor.h"
#include "core/m_arest.h"
#include "core/pm_arest.h"
#include "core/retry_policy.h"
#include "graph/datasets.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "metrics/rrs.h"
#include "service/protocol.h"
#include "service/registry.h"
#include "sim/fault.h"
#include "sim/problem.h"
#include "sim/problem_io.h"
#include "sim/trace_io.h"
#include "solver/fallback.h"
#include "solver/strategy_mip.h"
#include "util/crashpoint.h"
#include "util/fs.h"
#include "util/table.h"

namespace recon::cli {

namespace {

graph::Graph generate_graph(const util::Args& args) {
  const std::string model = args.get("model", "ba");
  const auto n = static_cast<graph::NodeId>(args.get_int("nodes", 1000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  graph::Graph g;
  if (model == "ba") {
    g = graph::barabasi_albert(n, static_cast<graph::NodeId>(args.get_int("m", 5)),
                               seed);
  } else if (model == "ws") {
    g = graph::watts_strogatz(n, static_cast<graph::NodeId>(args.get_int("k", 5)),
                              args.get_double("beta", 0.1), seed);
  } else if (model == "er") {
    g = graph::erdos_renyi_gnm(
        n, static_cast<graph::EdgeId>(args.get_int("edges", 5 * n)), seed);
  } else if (model == "sbm") {
    g = graph::stochastic_block_model(
        n, static_cast<unsigned>(args.get_int("blocks", 3)),
        args.get_double("pin", 0.2), args.get_double("pout", 0.02), seed);
  } else if (model == "powerlaw") {
    g = graph::powerlaw_configuration(
        n, args.get_double("exponent", 2.0),
        static_cast<graph::NodeId>(args.get_int("min-degree", 3)),
        static_cast<graph::NodeId>(args.get_int("max-degree", n / 10 + 10)), seed);
  } else {
    throw std::invalid_argument("unknown --model '" + model +
                                "' (ba|ws|er|sbm|powerlaw)");
  }
  const std::string probs = args.get("probs", "structural");
  if (probs == "structural") {
    g = graph::assign_edge_probs(std::move(g),
                                 graph::EdgeProbModel::structural(0.4, 0.5),
                                 util::derive_seed(seed, 0xB0));
  } else if (probs == "uniform") {
    g = graph::assign_edge_probs(
        std::move(g),
        graph::EdgeProbModel::uniform(args.get_double("plo", 0.2),
                                      args.get_double("phi", 0.9)),
        util::derive_seed(seed, 0xB0));
  } else if (probs == "const") {
    g = graph::assign_edge_probs(std::move(g),
                                 graph::EdgeProbModel::constant(args.get_double("p", 1.0)),
                                 util::derive_seed(seed, 0xB0));
  } else {
    throw std::invalid_argument("unknown --probs '" + probs +
                                "' (structural|uniform|const)");
  }
  return g;
}

sim::Problem load_problem(const util::Args& args) {
  // A saved problem file reproduces the full instance (targets + models);
  // otherwise the instance is derived from an edge list plus flags.
  const std::string problem_path = args.get("problem", "");
  if (!problem_path.empty()) return sim::read_problem_file(problem_path);
  const std::string path = args.get("graph", "");
  if (path.empty()) {
    throw std::invalid_argument("--graph FILE or --problem FILE is required");
  }
  // Binary `#recon-graph v1` files are sniffed by magic and mapped zero-copy;
  // anything else parses as a text edge list.
  graph::Graph g = graph::is_graph_binary_file(path)
                       ? graph::map_graph_binary_file(path)
                       : graph::read_edge_list_file(path);
  sim::ProblemOptions opts;
  opts.num_targets = static_cast<std::size_t>(args.get_int("targets", 50));
  const std::string mode = args.get("target-mode", "ball");
  if (mode == "random") opts.target_mode = sim::TargetMode::kRandom;
  else if (mode == "ball") opts.target_mode = sim::TargetMode::kBfsBall;
  else if (mode == "degree") opts.target_mode = sim::TargetMode::kHighDegree;
  else throw std::invalid_argument("unknown --target-mode (random|ball|degree)");
  opts.base_acceptance = args.get_double("q", 0.3);
  opts.mutual_boost = args.get_double("boost", 0.1);
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  return sim::make_problem(std::move(g), opts);
}

core::StrategyFactory make_factory(const util::Args& args) {
  const std::string name = args.get("strategy", "pm");
  const int k = static_cast<int>(args.get_int("k", 10));
  const bool retries = args.has("retries");
  const auto max_attempts =
      static_cast<std::uint32_t>(args.get_int("max-attempts", 0));
  if (name == "pm") {
    return [k, retries, max_attempts](int) {
      core::PmArestOptions o;
      o.batch_size = k;
      o.allow_retries = retries;
      o.max_attempts_per_node = max_attempts;
      return std::make_unique<core::PmArest>(o);
    };
  }
  if (name == "m") {
    return [retries](int) {
      core::MArestOptions o;
      o.allow_retries = retries;
      return std::make_unique<core::MArest>(o);
    };
  }
  if (name == "random") {
    return [k](int r) {
      return std::make_unique<core::RandomStrategy>(
          k, 1000 + static_cast<std::uint64_t>(r));
    };
  }
  if (name == "degree") {
    return [k](int) { return std::make_unique<core::HighDegreeStrategy>(k); };
  }
  if (name == "mip" || name == "lshaped") {
    const auto samples = static_cast<std::size_t>(args.get_int("samples", 300));
    const bool benders = name == "lshaped";
    return [k, retries, samples, benders](int) {
      solver::MipStrategyOptions o;
      o.batch_size = k;
      o.allow_retries = retries;
      o.scenarios_per_batch = samples;
      o.candidate_cap = 30;
      o.use_benders = benders;
      return std::make_unique<solver::MipBatchStrategy>(o);
    };
  }
  if (name == "fallback") {
    const auto samples = static_cast<std::size_t>(args.get_int("samples", 300));
    const double fob_ms = args.get_double("fob-deadline-ms", 50.0);
    const double saa_ms = args.get_double("saa-deadline-ms", 50.0);
    return [k, retries, samples, fob_ms, saa_ms](int) {
      solver::FallbackOptions o;
      o.batch_size = k;
      o.allow_retries = retries;
      o.scenarios_per_batch = samples;
      o.exact_deadline_seconds = fob_ms / 1000.0;
      o.saa_deadline_seconds = saa_ms / 1000.0;
      o.candidate_cap = 30;
      return std::make_unique<solver::FallbackStrategy>(o);
    };
  }
  throw std::invalid_argument("unknown --strategy '" + name +
                              "' (pm|m|random|degree|mip|lshaped|fallback)");
}

/// Parses and validates the fault-injection flags. Throws invalid_argument
/// with an actionable message on bad rates.
sim::FaultOptions parse_fault_options(const util::Args& args) {
  sim::FaultOptions fault;
  fault.timeout_rate = args.get_double("fault-timeout", 0.0);
  fault.drop_rate = args.get_double("fault-drop", 0.0);
  fault.throttle_rate = args.get_double("fault-throttle", 0.0);
  fault.suspension.max_requests =
      static_cast<std::size_t>(args.get_int("suspend-after", 0));
  fault.suspension.window_ticks =
      static_cast<std::uint64_t>(args.get_int("suspend-window", 1));
  fault.suspension.lockout_ticks =
      static_cast<std::uint64_t>(args.get_int("suspend-lockout", 5));
  fault.seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 0xFA17));
  fault.validate();
  return fault;
}

/// Parses and validates the retry-backoff flags, cross-checking them against
/// the rest of the invocation.
core::RetryPolicy parse_retry_policy(const util::Args& args, double budget) {
  core::RetryPolicy retry;
  retry.backoff = core::parse_retry_backoff(args.get("retry-policy", "none"));
  retry.base_delay = args.get_double("retry-base", 1.0);
  retry.multiplier = args.get_double("retry-mult", 2.0);
  retry.max_delay = args.get_double("retry-max", 64.0);
  retry.jitter = args.get_double("retry-jitter", 0.0);
  retry.validate();
  if (retry.active() && !args.has("retries")) {
    throw std::invalid_argument(
        "--retry-policy without --retries never re-sends a failed request; "
        "add --retries or drop --retry-policy");
  }
  const auto max_attempts = args.get_int("max-attempts", 0);
  if (args.has("retries") && max_attempts > 0 &&
      static_cast<double>(max_attempts) > budget) {
    throw std::invalid_argument(
        "--max-attempts " + std::to_string(max_attempts) + " exceeds --budget " +
        std::to_string(static_cast<long long>(budget)) +
        ": one node could consume the whole budget; lower --max-attempts or "
        "raise --budget");
  }
  return retry;
}

/// --checkpoint (and the supervised chain base) must point into an existing
/// directory; catching that up front beats failing at the first snapshot
/// mid-campaign.
void validate_checkpoint_dir(const std::string& path) {
  if (path.empty()) return;
  const std::string dir = util::parent_dir(path);
  if (!util::directory_exists(dir)) {
    throw std::invalid_argument(
        "--checkpoint '" + path + "': directory '" + dir +
        "' does not exist — create it first (snapshots are published "
        "atomically into that directory from the first checkpoint on)");
  }
}

/// Graceful-stop flag set by SIGINT/SIGTERM in supervised workers and polled
/// through the runners' should_stop hook.
volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

void install_stop_handlers() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

/// Prints the synchronous-attack summary block and writes --traces.
void print_sync_summary(const util::Args& args, const std::string& strategy_name,
                        int runs, double budget,
                        const std::vector<sim::AttackTrace>& traces,
                        std::ostream& out) {
  out << "strategy " << strategy_name << ", " << runs << " runs, budget "
      << budget << "\n";
  double benefit = 0.0;
  double requests = 0.0;
  sim::BenefitBreakdown total;
  for (const auto& t : traces) {
    benefit += t.total_benefit();
    requests += static_cast<double>(t.total_requests());
    total += t.final_breakdown();
  }
  const double n = static_cast<double>(traces.size());
  out << "mean benefit   : " << util::format_fixed(benefit / n, 3) << "\n";
  out << "mean requests  : " << util::format_fixed(requests / n, 1) << "\n";
  out << "mean breakdown : friends " << util::format_fixed(total.friends / n, 2)
      << ", fofs " << util::format_fixed(total.fofs / n, 2) << ", edges "
      << util::format_fixed(total.edges / n, 2) << "\n";
  const std::string traces_path = args.get("traces", "");
  if (!traces_path.empty()) {
    sim::write_traces_file(traces_path, traces);
    out << "traces written : " << traces_path << "\n";
  }
}

/// The --async flavor of cmd_attack: drives the rolling-window runner. Shares
/// the fault/retry/checkpoint flags with the synchronous path; --stop-after
/// and --checkpoint-every count resolved events instead of batch rounds.
/// Throws on bad flags; the caller's try block turns that into exit code 1.
int run_attack_async(const util::Args& args, const sim::Problem& problem,
                     std::ostream& out) {
  const int runs = static_cast<int>(args.get_int("runs", 10));
  const double budget = args.get_double("budget", 100.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const sim::FaultOptions fault = parse_fault_options(args);
  const core::RetryPolicy retry = parse_retry_policy(args, budget);

  core::AsyncAttackOptions ao;
  ao.window = static_cast<int>(args.get_int("window", 5));
  ao.mean_delay = args.get_double("mean-delay", 300.0);
  const std::string dm = args.get("delay-model", "exp");
  if (dm == "exp") {
    ao.delay_model = core::ResponseDelayModel::kExponential;
  } else if (dm == "fixed") {
    ao.delay_model = core::ResponseDelayModel::kFixed;
  } else {
    throw std::invalid_argument("unknown --delay-model '" + dm + "' (exp|fixed)");
  }
  ao.allow_retries = args.has("retries");
  ao.max_attempts_per_node =
      static_cast<std::uint32_t>(args.get_int("max-attempts", 0));
  ao.timeout_seconds = args.get_double("timeout", 0.0);
  if (retry.active()) ao.retry = &retry;

  const std::string ckpt_path = args.get("checkpoint", "");
  const std::string resume_path = args.get("resume", "");
  const auto stop_after = static_cast<std::uint64_t>(args.get_int("stop-after", 0));
  const auto ckpt_every =
      static_cast<std::uint64_t>(args.get_int("checkpoint-every", 0));
  const bool single_run =
      !ckpt_path.empty() || !resume_path.empty() || stop_after > 0;
  if (ckpt_every > 0 && ckpt_path.empty()) {
    throw std::invalid_argument(
        "--checkpoint-every needs --checkpoint FILE to write to");
  }
  if (single_run && runs != 1) {
    throw std::invalid_argument(
        "--checkpoint/--resume/--stop-after drive a single attack; pass "
        "--runs 1");
  }
  validate_checkpoint_dir(ckpt_path);
  ao.checkpoint_path = ckpt_path;
  ao.checkpoint_every_events = ckpt_every;
  ao.stop_after_events = stop_after;
  core::AttackCheckpoint cp;
  if (!resume_path.empty()) {
    cp = core::read_checkpoint_file(resume_path);
    ao.resume = &cp;
  }

  std::vector<sim::AttackTrace> traces;
  double makespan = 0.0;
  double accepts = 0.0;
  for (int r = 0; r < runs; ++r) {
    // Match Monte-Carlo world seeding so --async --runs 1 reproduces run 0;
    // the delay stream gets its own derived sub-seed per run (on resume the
    // checkpoint's RNG state overrides it).
    const std::uint64_t world_seed =
        ao.resume != nullptr ? cp.world_seed
                             : util::derive_seed(seed, static_cast<std::uint64_t>(r));
    const sim::World world(problem, world_seed);
    core::AsyncAttackOptions o = ao;
    o.seed = util::derive_seed(seed, 0xA57C + static_cast<std::uint64_t>(r));
    std::unique_ptr<sim::FaultModel> fm;
    if (fault.any_faults()) {
      sim::FaultOptions fo = fault;
      fo.seed = util::derive_seed(fault.seed, static_cast<std::uint64_t>(r));
      fm = std::make_unique<sim::FaultModel>(fo);
      o.fault = fm.get();
    }
    auto res = core::run_async_attack(problem, world, o, budget);
    makespan += res.makespan_seconds;
    accepts += static_cast<double>(res.accepts);
    traces.push_back(std::move(res.trace));
    if (fm != nullptr && runs == 1) {
      const auto& c = fm->counters();
      out << "fault outcomes : delivered " << c.delivered << ", timeouts "
          << c.timeouts << ", drops " << c.drops << ", throttles "
          << c.throttles << ", bounced " << c.bounced << ", lockouts "
          << c.lockouts << "\n";
    }
  }
  if (!ckpt_path.empty()) out << "checkpoint     : " << ckpt_path << "\n";

  out << "strategy rolling-window(W=" << ao.window << "), " << runs
      << " runs, budget " << budget << "\n";
  double benefit = 0.0;
  double requests = 0.0;
  sim::BenefitBreakdown total;
  for (const auto& t : traces) {
    benefit += t.total_benefit();
    requests += static_cast<double>(t.total_requests());
    total += t.final_breakdown();
  }
  const double n = static_cast<double>(traces.size());
  out << "mean benefit   : " << util::format_fixed(benefit / n, 3) << "\n";
  out << "mean requests  : " << util::format_fixed(requests / n, 1) << "\n";
  out << "mean accepts   : " << util::format_fixed(accepts / n, 1) << "\n";
  out << "mean makespan  : " << util::format_fixed(makespan / n, 1) << " s\n";
  out << "mean breakdown : friends " << util::format_fixed(total.friends / n, 2)
      << ", fofs " << util::format_fixed(total.fofs / n, 2) << ", edges "
      << util::format_fixed(total.edges / n, 2) << "\n";
  const std::string traces_path = args.get("traces", "");
  if (!traces_path.empty()) {
    sim::write_traces_file(traces_path, traces);
    out << "traces written : " << traces_path << "\n";
  }
  return 0;
}

/// Supervised synchronous worker: one forked attempt of the campaign,
/// checkpointing into the generation chain. Returns the child's exit code.
int supervised_sync_worker(const util::Args& args, const sim::Problem& problem,
                           core::CheckpointChain& chain,
                           const core::AttackCheckpoint* resume,
                           std::ostream& out) {
  const double budget = args.get_double("budget", 100.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const sim::FaultOptions fault = parse_fault_options(args);
  const core::RetryPolicy retry = parse_retry_policy(args, budget);
  const auto factory = make_factory(args);

  core::AttackRunOptions ro;
  ro.checkpoint_chain = &chain;
  ro.checkpoint_every_rounds =
      static_cast<std::uint64_t>(args.get_int("checkpoint-every", 1));
  ro.resume = resume;
  ro.should_stop = [] { return g_stop_requested != 0; };
  std::unique_ptr<sim::FaultModel> fm;
  if (fault.any_faults()) {
    sim::FaultOptions fo = fault;
    fo.seed = util::derive_seed(fault.seed, 0);
    fm = std::make_unique<sim::FaultModel>(fo);
    ro.fault = fm.get();
  }
  if (retry.active()) ro.retry = &retry;

  const std::uint64_t world_seed =
      resume != nullptr ? resume->world_seed : util::derive_seed(seed, 0);
  const sim::World world(problem, world_seed);
  auto strategy = factory(0);
  sim::AttackTrace trace =
      core::run_attack(problem, world, *strategy, budget, ro);
  if (g_stop_requested != 0) {
    out << "supervised attack: stop requested; final snapshot in chain "
        << chain.base_path() << "\n";
    out.flush();
    return core::kWorkerStopExit;
  }
  std::vector<sim::AttackTrace> traces;
  traces.push_back(std::move(trace));
  print_sync_summary(args, strategy->name(), 1, budget, traces, out);
  out.flush();
  return 0;
}

/// Supervised rolling-window worker — the --async counterpart.
int supervised_async_worker(const util::Args& args, const sim::Problem& problem,
                            core::CheckpointChain& chain,
                            const core::AttackCheckpoint* resume,
                            std::ostream& out) {
  const double budget = args.get_double("budget", 100.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const sim::FaultOptions fault = parse_fault_options(args);
  const core::RetryPolicy retry = parse_retry_policy(args, budget);

  core::AsyncAttackOptions ao;
  ao.window = static_cast<int>(args.get_int("window", 5));
  ao.mean_delay = args.get_double("mean-delay", 300.0);
  const std::string dm = args.get("delay-model", "exp");
  if (dm == "exp") {
    ao.delay_model = core::ResponseDelayModel::kExponential;
  } else if (dm == "fixed") {
    ao.delay_model = core::ResponseDelayModel::kFixed;
  } else {
    throw std::invalid_argument("unknown --delay-model '" + dm + "' (exp|fixed)");
  }
  ao.allow_retries = args.has("retries");
  ao.max_attempts_per_node =
      static_cast<std::uint32_t>(args.get_int("max-attempts", 0));
  ao.timeout_seconds = args.get_double("timeout", 0.0);
  if (retry.active()) ao.retry = &retry;
  ao.checkpoint_chain = &chain;
  ao.checkpoint_every_events =
      static_cast<std::uint64_t>(args.get_int("checkpoint-every", 1));
  ao.resume = resume;
  ao.should_stop = [] { return g_stop_requested != 0; };
  ao.seed = util::derive_seed(seed, 0xA57C);
  std::unique_ptr<sim::FaultModel> fm;
  if (fault.any_faults()) {
    sim::FaultOptions fo = fault;
    fo.seed = util::derive_seed(fault.seed, 0);
    fm = std::make_unique<sim::FaultModel>(fo);
    ao.fault = fm.get();
  }

  const std::uint64_t world_seed =
      resume != nullptr ? resume->world_seed : util::derive_seed(seed, 0);
  const sim::World world(problem, world_seed);
  auto res = core::run_async_attack(problem, world, ao, budget);
  if (g_stop_requested != 0) {
    out << "supervised attack: stop requested; final snapshot in chain "
        << chain.base_path() << "\n";
    out.flush();
    return core::kWorkerStopExit;
  }
  out << "strategy rolling-window(W=" << ao.window << "), 1 runs, budget "
      << budget << "\n";
  out << "mean benefit   : "
      << util::format_fixed(res.trace.total_benefit(), 3) << "\n";
  out << "mean requests  : "
      << util::format_fixed(static_cast<double>(res.trace.total_requests()), 1)
      << "\n";
  out << "mean accepts   : "
      << util::format_fixed(static_cast<double>(res.accepts), 1) << "\n";
  out << "mean makespan  : " << util::format_fixed(res.makespan_seconds, 1)
      << " s\n";
  const sim::BenefitBreakdown total = res.trace.final_breakdown();
  out << "mean breakdown : friends " << util::format_fixed(total.friends, 2)
      << ", fofs " << util::format_fixed(total.fofs, 2) << ", edges "
      << util::format_fixed(total.edges, 2) << "\n";
  const std::string traces_path = args.get("traces", "");
  if (!traces_path.empty()) {
    sim::write_traces_file(traces_path, {res.trace});
    out << "traces written : " << traces_path << "\n";
  }
  out.flush();
  return 0;
}

/// `recon attack --supervise`: runs the campaign under core::run_supervised,
/// forking a worker per attempt and resuming from the last good generation
/// after every crash. The worker installs SIGINT/SIGTERM handlers that make
/// the runner write a final forced snapshot and exit kWorkerStopExit.
int run_attack_supervised(const util::Args& args, const sim::Problem& problem,
                          std::ostream& out, std::ostream& err) {
  const std::string ckpt_path = args.get("checkpoint", "");
  if (ckpt_path.empty()) {
    throw std::invalid_argument(
        "--supervise needs --checkpoint FILE (the generation-chain base "
        "path; generations land beside it as FILE.gen-N)");
  }
  validate_checkpoint_dir(ckpt_path);
  if (args.get_int("runs", 1) != 1) {
    throw std::invalid_argument(
        "--supervise drives a single campaign; pass --runs 1");
  }
  if (args.has("resume") || args.has("stop-after")) {
    throw std::invalid_argument(
        "--supervise resumes from its own generation chain; drop "
        "--resume/--stop-after");
  }

  core::CheckpointChainOptions co;
  co.max_generations =
      static_cast<std::size_t>(args.get_int("checkpoint-gens", 3));
  core::CheckpointChain chain(ckpt_path, co);

  core::SuperviseOptions so;
  so.max_restarts = static_cast<int>(args.get_int("max-restarts", 8));
  so.backoff_base_seconds = args.get_double("backoff-base", 0.5);
  so.backoff_multiplier = args.get_double("backoff-mult", 2.0);
  so.backoff_max_seconds = args.get_double("backoff-max", 30.0);
  so.crash_loop_threshold =
      static_cast<int>(args.get_int("crash-loop-threshold", 3));

  const bool async = args.has("async");
  const auto result = core::run_supervised(
      chain, so,
      [&](const core::AttackCheckpoint* resume, int attempt) -> int {
        g_stop_requested = 0;
        install_stop_handlers();
        try {
          return async
                     ? supervised_async_worker(args, problem, chain, resume, out)
                     : supervised_sync_worker(args, problem, chain, resume, out);
        } catch (const std::exception& e) {
          err << "attack (supervised worker, attempt " << attempt
              << "): " << e.what() << "\n";
          return 1;
        }
      });
  if (result.exit_code == 0) {
    out << "supervisor     : completed after " << result.restarts
        << " restart(s)\n";
  } else if (result.exit_code == core::kWorkerStopExit) {
    out << "supervisor     : stopped on request after " << result.restarts
        << " restart(s); rerun --supervise to continue\n";
  } else if (result.crash_loop) {
    err << "supervisor     : crash loop (no checkpoint progress); giving up\n";
  } else if (result.restart_budget_exhausted) {
    err << "supervisor     : restart budget exhausted after " << result.restarts
        << " restart(s)\n";
  }
  return result.exit_code;
}

}  // namespace

int cmd_generate(const util::Args& args, std::ostream& out, std::ostream& err) {
  try {
    const graph::Graph g = generate_graph(args);
    const std::string out_path = args.get("out", "");
    if (out_path.empty()) throw std::invalid_argument("--out FILE is required");
    graph::write_edge_list_file(out_path, g);
    const auto deg = graph::degree_stats(g);
    out << "wrote " << out_path << ": " << g.num_nodes() << " nodes, "
        << g.num_edges() << " edges, mean degree " << util::format_fixed(deg.mean, 1)
        << "\n";
    return 0;
  } catch (const std::exception& e) {
    err << "generate: " << e.what() << "\n";
    return 1;
  }
}

int cmd_attack(const util::Args& args, std::ostream& out, std::ostream& err) {
  try {
    // util::Args accepts any flag, so a removed one would otherwise be
    // ignored without a word.
    if (args.has("planner")) {
      throw std::invalid_argument(
          "--planner was removed: every strategy runs its one dispatch path "
          "(what --planner off ran); drop the flag");
    }
    const sim::Problem problem = load_problem(args);
    const std::string save_path = args.get("save-problem", "");
    if (!save_path.empty()) {
      sim::write_problem_file(save_path, problem);
      out << "problem saved    : " << save_path << "\n";
    }
    if (args.has("supervise")) {
      return run_attack_supervised(args, problem, out, err);
    }
    if (args.has("async")) return run_attack_async(args, problem, out);
    const auto factory = make_factory(args);
    const int runs = static_cast<int>(args.get_int("runs", 10));
    const double budget = args.get_double("budget", 100.0);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const sim::FaultOptions fault = parse_fault_options(args);
    const core::RetryPolicy retry = parse_retry_policy(args, budget);

    const std::string ckpt_path = args.get("checkpoint", "");
    const std::string resume_path = args.get("resume", "");
    const auto stop_after = static_cast<std::uint64_t>(args.get_int("stop-after", 0));
    const auto ckpt_every =
        static_cast<std::uint64_t>(args.get_int("checkpoint-every", 0));
    const bool single_run =
        !ckpt_path.empty() || !resume_path.empty() || stop_after > 0;
    if (ckpt_every > 0 && ckpt_path.empty()) {
      throw std::invalid_argument(
          "--checkpoint-every needs --checkpoint FILE to write to");
    }
    if (single_run && runs != 1) {
      throw std::invalid_argument(
          "--checkpoint/--resume/--stop-after drive a single attack; pass "
          "--runs 1");
    }
    validate_checkpoint_dir(ckpt_path);

    std::vector<sim::AttackTrace> traces;
    if (single_run) {
      core::AttackRunOptions ro;
      ro.stop_after_rounds = stop_after;
      ro.checkpoint_every_rounds = ckpt_every;
      ro.checkpoint_path = ckpt_path;
      core::AttackCheckpoint cp;
      if (!resume_path.empty()) {
        cp = core::read_checkpoint_file(resume_path);
        ro.resume = &cp;
      }
      // Match Monte-Carlo run 0 so a single run reproduces `--runs 1`.
      const std::uint64_t world_seed =
          ro.resume != nullptr ? cp.world_seed : util::derive_seed(seed, 0);
      const sim::World world(problem, world_seed);
      auto strategy = factory(0);
      std::unique_ptr<sim::FaultModel> fm;
      if (fault.any_faults()) {
        sim::FaultOptions fo = fault;
        fo.seed = util::derive_seed(fault.seed, 0);
        fm = std::make_unique<sim::FaultModel>(fo);
        ro.fault = fm.get();
      }
      if (retry.active()) ro.retry = &retry;
      traces.push_back(core::run_attack(problem, world, *strategy, budget, ro));
      if (fm != nullptr) {
        const auto& c = fm->counters();
        out << "fault outcomes : delivered " << c.delivered << ", timeouts "
            << c.timeouts << ", drops " << c.drops << ", throttles "
            << c.throttles << ", bounced " << c.bounced << ", lockouts "
            << c.lockouts << "\n";
      }
      if (!ckpt_path.empty()) out << "checkpoint     : " << ckpt_path << "\n";
    } else {
      auto mc = core::run_monte_carlo(
          problem, factory, runs, budget, seed, nullptr,
          fault.any_faults() ? &fault : nullptr, retry.active() ? &retry : nullptr);
      traces = std::move(mc.traces);
    }

    print_sync_summary(args, factory(0)->name(), runs, budget, traces, out);
    return 0;
  } catch (const std::exception& e) {
    err << "attack: " << e.what() << "\n";
    return 1;
  }
}

int cmd_metrics(const util::Args& args, std::ostream& out, std::ostream& err) {
  try {
    const std::string path = args.get("traces", "");
    if (path.empty()) throw std::invalid_argument("--traces FILE is required");
    // --recover tolerates a torn trailing record / missing end marker (the
    // state a crash mid-append leaves) instead of failing the whole read.
    const auto traces = args.has("recover") ? sim::read_traces_file_recover(path)
                                            : sim::read_traces_file(path);
    if (traces.empty()) throw std::invalid_argument("no traces in file");
    const double threshold = args.get_double("threshold", 20.0);
    const double delay = args.get_double("delay", 300.0);
    double benefit = 0.0;
    for (const auto& t : traces) benefit += t.total_benefit();
    out << "traces         : " << traces.size() << "\n";
    out << "mean benefit   : "
        << util::format_fixed(benefit / static_cast<double>(traces.size()), 3) << "\n";
    const auto r = metrics::rrs(traces, threshold);
    out << "RRS(Q=" << threshold << ")     : "
        << util::format_fixed(r.expected_requests, 1) << " requests ("
        << util::format_fixed(100.0 * r.reach_fraction, 0) << "% reached)\n";
    out << "RT-RRS(d=" << delay
        << "s): " << util::format_sci(metrics::rt_rrs(traces, delay))
        << " seconds per unit benefit\n";
    return 0;
  } catch (const std::exception& e) {
    err << "metrics: " << e.what() << "\n";
    return 1;
  }
}

int cmd_audit(const util::Args& args, std::ostream& out, std::ostream& err) {
  try {
    const sim::Problem problem = load_problem(args);
    const int runs = static_cast<int>(args.get_int("runs", 10));
    const double budget = args.get_double("budget", 100.0);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const auto monitors_n = static_cast<std::size_t>(args.get_int("monitors", 10));

    const auto mc = core::run_monte_carlo(
        problem,
        [](int) {
          core::PmArestOptions o;
          o.batch_size = 10;
          o.allow_retries = true;
          return std::make_unique<core::PmArest>(o);
        },
        runs, budget, seed);
    out << "simulated " << runs << " PM-AReST(k=10,retry) attacks, budget " << budget
        << "\n";
    out << "mean benefit harvested: " << util::format_fixed(mc.mean_benefit(), 2)
        << "\n\n";
    out << "recommended monitor placements (most-exploited users):\n";
    util::Table table({"node", "attack freq", "degree", "target?"});
    for (const auto& [node, freq] : metrics::vulnerable_users(mc.traces, monitors_n)) {
      table.add_row({std::to_string(node),
                     util::format_fixed(100.0 * freq, 0) + "%",
                     std::to_string(problem.graph.degree(node)),
                     problem.is_target[node] ? "yes" : "no"});
    }
    out << table.to_text();
    return 0;
  } catch (const std::exception& e) {
    err << "audit: " << e.what() << "\n";
    return 1;
  }
}

namespace {

graph::GraphBinaryWriteOptions parse_layout(const util::Args& args) {
  graph::GraphBinaryWriteOptions wo;
  const std::string layout = args.get("layout", "degree");
  if (layout == "degree") wo.layout = graph::GraphLayout::kDegreeSorted;
  else if (layout == "keep") wo.layout = graph::GraphLayout::kKeep;
  else throw std::invalid_argument("unknown --layout '" + layout + "' (degree|keep)");
  return wo;
}

/// Loads --in as either a binary `#recon-graph v1` file (mmap) or a text
/// edge list, sniffed by magic. --no-verify skips the binary checksum +
/// structure validation (trusted reopens of files this tool just wrote);
/// a trusted file is assumed to hold every structural property validation
/// checks, the (u, v)-sorted edge list (graph/graph.h) included.
graph::Graph load_graph_arg(const util::Args& args) {
  const std::string path = args.get("in", "");
  if (path.empty()) throw std::invalid_argument("--in FILE is required");
  if (graph::is_graph_binary_file(path)) {
    graph::GraphBinaryReadOptions ro;
    if (args.has("no-verify")) {
      ro.verify_checksum = false;
      ro.validate_structure = false;
    }
    return graph::map_graph_binary_file(path, ro);
  }
  return graph::read_edge_list_file(path);
}

graph::EdgeProbModel parse_stream_probs(const util::Args& args) {
  const std::string probs = args.get("probs", "const");
  if (probs == "const") {
    return graph::EdgeProbModel::constant(args.get_double("p", 1.0));
  }
  if (probs == "uniform") {
    return graph::EdgeProbModel::uniform(args.get_double("plo", 0.2),
                                         args.get_double("phi", 0.9));
  }
  if (probs == "beta") {
    return graph::EdgeProbModel::beta(args.get_double("alpha", 2.0),
                                      args.get_double("beta", 5.0));
  }
  throw std::invalid_argument("unknown --probs '" + probs +
                              "' (const|uniform|beta; structural needs the "
                              "non-streaming `generate` command)");
}

void print_binary_info(const graph::GraphBinaryInfo& info, const std::string& path,
                       std::ostream& out) {
  out << path << ": " << info.num_nodes << " nodes, " << info.num_edges
      << " edges, layout " << (info.relabeled ? "degree-sorted" : "as-built")
      << ", attributes " << info.attribute_dim << ", " << info.file_bytes
      << " bytes\n";
}

}  // namespace

int cmd_graph(const util::Args& args, std::ostream& out, std::ostream& err) {
  try {
    // Args strips the leading "graph" token, so the subcommand is the first
    // positional.
    const auto& pos = args.positional();
    const std::string sub = pos.empty() ? "" : pos[0];
    if (sub == "convert") {
      const std::string out_path = args.get("out", "");
      if (out_path.empty()) throw std::invalid_argument("--out FILE is required");
      const graph::Graph g = load_graph_arg(args);
      const auto info = graph::write_graph_binary_file(out_path, g, parse_layout(args));
      print_binary_info(info, out_path, out);
      return 0;
    }
    if (sub == "info") {
      const std::string path = args.get("in", "");
      if (path.empty()) throw std::invalid_argument("--in FILE is required");
      if (graph::is_graph_binary_file(path)) {
        // Header-only probe: does not fault in the payload.
        print_binary_info(graph::probe_graph_binary_file(path), path, out);
      } else {
        const graph::Graph g = graph::read_edge_list_file(path);
        out << path << ": text edge list, " << g.num_nodes() << " nodes, "
            << g.num_edges() << " edges\n";
      }
      return 0;
    }
    if (sub == "export") {
      const std::string out_path = args.get("out", "");
      if (out_path.empty()) throw std::invalid_argument("--out FILE is required");
      graph::Graph g = load_graph_arg(args);
      if (g.is_relabeled() && !args.has("keep-labels")) {
        // Undo the on-disk degree-sorted relabeling so the exported edge
        // list matches the graph as originally ingested.
        std::vector<graph::NodeId> to_orig(g.num_nodes());
        for (graph::NodeId u = 0; u < g.num_nodes(); ++u) to_orig[u] = g.orig_id(u);
        g = graph::remap_graph(g, to_orig);
      }
      graph::write_edge_list_file(out_path, g);
      out << "wrote " << out_path << ": " << g.num_nodes() << " nodes, "
          << g.num_edges() << " edges\n";
      return 0;
    }
    if (sub == "gen") {
      const std::string out_path = args.get("out", "");
      if (out_path.empty()) throw std::invalid_argument("--out FILE is required");
      const std::string model = args.get("model", "ba");
      const auto n = static_cast<graph::NodeId>(args.get_int("nodes", 1000000));
      const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
      const auto probs = parse_stream_probs(args);
      graph::GraphBinaryInfo info;
      if (model == "ba") {
        info = graph::stream_barabasi_albert_binary(
            out_path, n, static_cast<graph::NodeId>(args.get_int("m", 5)), probs,
            seed, parse_layout(args));
      } else if (model == "er") {
        info = graph::stream_erdos_renyi_binary(
            out_path, n, static_cast<graph::EdgeId>(args.get_int("edges", 5 * n)),
            probs, seed, parse_layout(args));
      } else {
        throw std::invalid_argument("unknown --model '" + model +
                                    "' (ba|er stream straight to binary; other "
                                    "models go through `generate` + convert)");
      }
      print_binary_info(info, out_path, out);
      return 0;
    }
    throw std::invalid_argument("unknown graph subcommand '" + sub +
                                "' (convert|info|export|gen)");
  } catch (const std::exception& e) {
    err << "graph: " << e.what() << "\n";
    return 1;
  }
}

int cmd_serve(const util::Args& args, std::istream& in, std::ostream& out,
              std::ostream& err) {
  try {
    service::CampaignRegistry::Options o;
    o.state_dir = args.get("state-dir", ".");
    o.threads = static_cast<std::size_t>(args.get_int("threads", 0));
    service::CampaignRegistry registry(std::move(o));
    // The daemon's whole point is resident problem state: load the (possibly
    // mmap-backed) instance once, then every campaign shares it immutably.
    const std::string name = args.get("name", "default");
    registry.register_problem(name, load_problem(args));
    out << "serve: problem '" << name << "' resident; state dir "
        << registry.options().state_dir << "; pool threads "
        << registry.pool().size() << "\n";
    const std::string socket = args.get("socket", "");
    if (!socket.empty()) {
      service::serve_unix_socket(socket, registry);
    } else {
      service::run_protocol(in, out, registry);
    }
    return 0;
  } catch (const std::exception& e) {
    err << "serve: " << e.what() << "\n";
    return 1;
  }
}

int cmd_crashpoints(std::ostream& out) {
  // One site per line: tools/chaos_sweep.sh iterates this list, arming each
  // site via RECON_CRASH_AT=<site>:<n>.
  for (const auto& site : util::crashpoint::all_sites()) {
    out << site << "\n";
  }
  return 0;
}

void print_usage(std::ostream& out) {
  out << "recon — adaptive reconnaissance-attack toolkit (ICDCS'17 reproduction)\n"
         "usage: recon <command> [--flags]\n\n"
         "commands:\n"
         "  generate  synthesize a probabilistic social graph -> edge list\n"
         "            --model ba|ws|er|sbm|powerlaw --nodes N --out FILE\n"
         "            [--probs structural|uniform|const] [--seed S] [model params]\n"
         "  attack    run Monte-Carlo attacks against a graph\n"
         "            --graph FILE | --problem FILE\n"
         "            [--strategy pm|m|random|degree|mip|lshaped|fallback] [--k K]\n"
         "            [--budget B] [--runs R] [--retries] [--max-attempts M]\n"
         "            [--targets N] [--target-mode random|ball|degree]\n"
         "            [--traces OUT] [--save-problem OUT]\n"
         "            fault injection:\n"
         "            [--fault-timeout R] [--fault-drop R] [--fault-throttle R]\n"
         "            [--suspend-after N --suspend-window W --suspend-lockout L]\n"
         "            [--fault-seed S]\n"
         "            retry backoff (needs --retries):\n"
         "            [--retry-policy none|fixed|exponential] [--retry-base D]\n"
         "            [--retry-mult M] [--retry-max D] [--retry-jitter J]\n"
         "            checkpoint/resume (needs --runs 1):\n"
         "            [--checkpoint FILE [--checkpoint-every N]] [--resume FILE]\n"
         "            [--stop-after ROUNDS]\n"
         "            supervised self-healing runner (forks a worker per\n"
         "            attempt, resumes from the last good generation):\n"
         "            [--supervise --checkpoint BASE [--checkpoint-gens G]\n"
         "             [--max-restarts N] [--crash-loop-threshold C]\n"
         "             [--backoff-base S --backoff-mult M --backoff-max S]]\n"
         "            rolling-window (event-driven) runner:\n"
         "            [--async [--window W] [--mean-delay S] [--timeout S]\n"
         "             [--delay-model exp|fixed]]  (checkpoint/resume applies;\n"
         "             --stop-after/--checkpoint-every count resolved events)\n"
         "            fallback solver: [--fob-deadline-ms MS] [--saa-deadline-ms MS]\n"
         "  graph     `#recon-graph v1` binary substrate tooling\n"
         "            convert --in GRAPH --out BIN [--layout degree|keep]\n"
         "            info    --in FILE            (header-only probe on binary)\n"
         "            export  --in BIN --out TXT [--keep-labels]\n"
         "            gen     --model ba|er --nodes N --out BIN [--m M|--edges E]\n"
         "                    [--probs const|uniform|beta ...] [--seed S]\n"
         "            (--graph everywhere auto-detects text vs binary;\n"
         "             binary opens add --no-verify to skip checksum+validation;\n"
         "             the file must then be well formed, edges sorted by (u, v))\n"
         "  serve     campaign service daemon: problem + thread pool stay\n"
         "            resident; many concurrent campaigns run over a line\n"
         "            protocol (SUBMIT/STATUS/LIST/PAUSE/RESUME/CANCEL/WAIT/\n"
         "            SHUTDOWN — see docs/API.md)\n"
         "            --graph FILE | --problem FILE [--name NAME]\n"
         "            [--state-dir DIR] [--threads N] [--socket PATH]\n"
         "            (default: stdin/stdout; --socket serves AF_UNIX)\n"
         "  metrics   compute RRS / RT-RRS from a saved trace file\n"
         "            --traces FILE [--threshold Q] [--delay SECONDS]\n"
         "            [--recover]  (truncate a torn trailing record instead\n"
         "             of failing on a crash-interrupted file)\n"
         "  audit     recommend defender monitor placements\n"
         "            --graph FILE [--monitors M] [--budget B] [--runs R]\n"
         "  crashpoints  list the registered crash-injection sites\n"
         "            (arm one with RECON_CRASH_AT=<site>:<n>; the n-th\n"
         "             execution kills the process — see docs/API.md)\n";
}

int dispatch(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  if (argc < 2) {
    print_usage(err);
    return 2;
  }
  const std::string cmd = argv[1];
  const util::Args args(argc - 1, argv + 1);
  if (cmd == "generate") return cmd_generate(args, out, err);
  if (cmd == "attack") return cmd_attack(args, out, err);
  if (cmd == "metrics") return cmd_metrics(args, out, err);
  if (cmd == "audit") return cmd_audit(args, out, err);
  if (cmd == "graph") return cmd_graph(args, out, err);
  if (cmd == "serve") return cmd_serve(args, std::cin, out, err);
  if (cmd == "crashpoints") return cmd_crashpoints(out);
  if (cmd == "help" || cmd == "--help") {
    print_usage(out);
    return 0;
  }
  err << "unknown command '" << cmd << "'\n";
  print_usage(err);
  return 2;
}

}  // namespace recon::cli
