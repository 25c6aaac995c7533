// campaign_bench: runs one benchmark workload at one thread count in one
// process and prints one JSON object describing what it measured.
//
//   campaign_bench --workload ba1m-campaign|table3-serve|fig6-saa
//                  --threads T --seconds S --seed N --data DIR --state DIR
//                  [--scale full|tiny] [--trace 0|1]
//   campaign_bench --generate DIR [--scale full|tiny]
//
// `--generate` writes the 1M-node `#recon-graph v1` input once; run.py calls
// it before any timing starts. A workload process then
//
//   1. times its set-up (one discarded repetition, then several timed ones,
//      with the page cache warm) and keeps the last repetition's state;
//   2. runs one discarded warm-up campaign (shard calibration and lazy
//      allocations settle here);
//   3. runs campaigns until `--seconds` of measured campaign time has
//      passed, digesting each campaign's requested node ids and exact
//      benefit so run.py can compare them with the committed reference;
//   4. with `--trace 1`, records spans around the calls into each module
//      (kept in memory, written to the state directory at exit) and probes
//      the checkpoint, trace and solver layers on the workload's own state.
//
// The thread count is the number of workers in the util::ThreadPool handed
// to the library; 0 runs without a pool.
#include <fcntl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/attack.h"
#include "core/checkpoint.h"
#include "core/checkpoint_chain.h"
#include "core/pm_arest.h"
#include "core/strategy.h"
#include "graph/datasets.h"
#include "graph/format.h"
#include "service/registry.h"
#include "sim/observation.h"
#include "sim/problem.h"
#include "sim/trace_io.h"
#include "sim/world.h"
#include "solver/benders.h"
#include "solver/fob.h"
#include "solver/saa.h"
#include "solver/strategy_mip.h"
#include "util/env.h"
#include "util/fs.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// Durable writes behave as on tmpfs. The table3-serve workload keeps its
// state directory on tmpfs, where fsync returns at once, but this benchmark
// may write only inside its own checkout, which can sit on a shared disk.
// There the per-round checkpoint flushes of table3-serve made one run's
// median campaign time differ from the next by more than 25 %. These
// definitions take precedence over the C library's at link time: data
// still goes through write() into the page cache, only the flush is
// skipped, as tmpfs would. Invalid descriptors still fail with EBADF.
extern "C" int fsync(int fd) { return ::fcntl(fd, F_GETFD) == -1 ? -1 : 0; }
extern "C" int fdatasync(int fd) { return ::fcntl(fd, F_GETFD) == -1 ? -1 : 0; }

namespace {

using namespace recon;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Workload parameters. Every world, graph and problem seed is fixed; the
// run's --seed only changes the order in which the fixed campaign list is
// played (see rotate() and serve_plans()), so every run does the same work.

constexpr std::uint64_t kGraphSeed = 20170605;

struct Params {
  // ba1m-campaign
  graph::NodeId ba_nodes = 1'000'000;
  std::size_t ba_targets = 300;
  int ba_k = 10;
  double ba_budget = 150.0;
  // table3-serve
  double tw_scale = 10.0;  // 81k nodes
  double tw_budget = 40.0;
  std::vector<int> tw_ks{5, 10, 15};
  std::vector<std::uint64_t> tw_seeds{1, 2};
  int tw_clients = 2;
  // fig6-saa
  std::size_t saa_scenarios = 1000;
  int saa_k = 4;
  double saa_budget = 24.0;
  std::vector<std::uint64_t> saa_seeds{1, 2, 3, 4, 5, 6, 7, 8};
  int saa_setup_block = 64;  // set-ups per timed set-up block
  // Timed set-up repetitions (after one discarded repetition, except on
  // table3-serve whose set-up reads no file and takes seconds).
  int setup_reps = 8;
  int serve_setup_reps = 3;
  int warmups = 2;  // discarded campaigns per process
};

Params params_for(const std::string& scale) {
  Params p;
  if (scale == "tiny") {
    p.ba_nodes = 20'000;
    p.ba_targets = 60;
    p.ba_budget = 40.0;
    p.tw_scale = 0.5;
    p.tw_budget = 20.0;
    p.saa_scenarios = 100;
    p.saa_budget = 8.0;
    p.saa_seeds = {1, 2};
    p.saa_setup_block = 2;
    p.setup_reps = 2;
    p.serve_setup_reps = 2;
    p.warmups = 1;
  } else if (scale != "full") {
    throw std::invalid_argument("unknown --scale '" + scale + "' (full|tiny)");
  }
  return p;
}

std::string ba_graph_path(const std::string& data_dir, const std::string& scale) {
  return data_dir + "/ba1m-" + scale + ".bin";
}

// ---------------------------------------------------------------------------
// Digest of one campaign's output: FNV-1a over every batch's requested node
// ids (a separator after each batch) followed by the exact total benefit's
// bit pattern. Selections are bit-identical at any thread count, so the
// digest must equal the serial reference's.

std::string digest(const sim::AttackTrace& trace) {
  std::vector<std::uint32_t> words;
  for (const sim::BatchRecord& b : trace.batches) {
    for (graph::NodeId u : b.requests) words.push_back(static_cast<std::uint32_t>(u));
    words.push_back(0xFFFFFFFFu);
  }
  const double benefit = trace.total_benefit();
  std::uint64_t bits = 0;
  std::memcpy(&bits, &benefit, sizeof bits);
  words.push_back(static_cast<std::uint32_t>(bits));
  words.push_back(static_cast<std::uint32_t>(bits >> 32));
  const std::uint64_t h =
      util::fnv1a64(words.data(), words.size() * sizeof(std::uint32_t));
  char buf[96];
  std::snprintf(buf, sizeof buf, "%016llx:%llu:%.17g",
                static_cast<unsigned long long>(h),
                static_cast<unsigned long long>(trace.total_requests()), benefit);
  return buf;
}

// ---------------------------------------------------------------------------
// Tracing: spans at the boundaries between the benchmark and each module.
// Spans of one campaign share its id; a span's parent is the span that
// caused it. Everything stays in memory until the process ends.

struct Span {
  std::string layer;
  std::string name;
  std::uint32_t campaign = 0;
  int parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

/// Layers whose self time a traced run reports as `self_s.<layer>`.
const std::vector<std::string> kSelfTimeLayers = {"core", "solver", "sim", "trace", "ckpt"};
/// Layers of the set-up spans (reported through their own metrics).
const std::vector<std::string> kSetupLayers = {"bench", "graph", "service"};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  int open(std::string layer, std::string name, std::uint32_t campaign, int parent) {
    check_layer(layer);
    const std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({std::move(layer), std::move(name), campaign, parent,
                      Clock::now(), Clock::time_point{}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].end = now;
  }
  int record(std::string layer, std::string name, std::uint32_t campaign, int parent,
             Clock::time_point start, Clock::time_point end) {
    check_layer(layer);
    const std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({std::move(layer), std::move(name), campaign, parent, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Self time summed per layer of kSelfTimeLayers over spans of the given
  /// campaigns: each span's duration minus the part its direct children
  /// cover. A layer with no span there did no work and reads 0.
  std::map<std::string, double> self_seconds(
      const std::vector<std::uint32_t>& campaigns) const {
    const std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent < 0) continue;
      child[static_cast<std::size_t>(s.parent)] += seconds_between(s.start, s.end);
    }
    std::map<std::string, double> out;
    for (const std::string& layer : kSelfTimeLayers) out[layer] = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (std::find(campaigns.begin(), campaigns.end(), s.campaign) == campaigns.end()) {
        continue;
      }
      out.at(s.layer) += seconds_between(s.start, s.end) - child[i];
    }
    return out;
  }

  void write_jsonl(const std::string& path) const {
    const std::lock_guard<std::mutex> lk(mu_);
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      using std::chrono::duration_cast;
      using std::chrono::nanoseconds;
      out << "{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"campaign\":" << s.campaign << ",\"layer\":\"" << s.layer
          << "\",\"name\":\"" << s.name << "\",\"start_ns\":"
          << duration_cast<nanoseconds>(s.start - epoch_).count()
          << ",\"end_ns\":" << duration_cast<nanoseconds>(s.end - epoch_).count()
          << "}\n";
    }
  }

 private:
  /// Rejects a span whose layer no metric reports, so a misspelt layer
  /// fails the run instead of reading as an idle one.
  static void check_layer(const std::string& layer) {
    for (const auto* known : {&kSelfTimeLayers, &kSetupLayers}) {
      if (std::find(known->begin(), known->end(), layer) != known->end()) return;
    }
    throw std::logic_error("span in unknown layer '" + layer + "'");
  }

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-campaign breakdown gathered by the forwarding wrapper and the runner
/// hooks (only when tracing).
struct CampaignSplit {
  std::vector<double> select;  // one entry per next_batch call
  double observe = 0.0;
  double hook = 0.0;
  double ckpt = 0.0;
  double world = 0.0;
};

/// Forwards every Strategy call and times next_batch. Optionally hands each
/// observation to `capture` before selecting (the solver probe replays them).
class TimedStrategy final : public core::Strategy {
 public:
  TimedStrategy(core::Strategy& inner, Tracer& tracer, std::uint32_t campaign, int parent,
                const std::string& layer, CampaignSplit& split,
                std::function<void(const sim::Observation&)> capture)
      : inner_(inner),
        tracer_(tracer),
        campaign_(campaign),
        parent_(parent),
        layer_(layer),
        split_(split),
        capture_(std::move(capture)) {}

  std::string name() const override { return inner_.name(); }
  void begin(const sim::Problem& problem, double budget) override {
    inner_.begin(problem, budget);
  }
  std::vector<graph::NodeId> next_batch(const sim::Observation& obs,
                                        double remaining_budget) override {
    if (capture_) capture_(obs);
    const auto t0 = Clock::now();
    std::vector<graph::NodeId> batch = inner_.next_batch(obs, remaining_budget);
    const auto t1 = Clock::now();
    tracer_.record(layer_, "next_batch", campaign_, parent_, t0, t1);
    split_.select.push_back(seconds_between(t0, t1));
    last_select_end = t1;
    return batch;
  }
  std::string save_state() const override { return inner_.save_state(); }
  void restore_state(const std::string& blob) override { inner_.restore_state(blob); }

  Clock::time_point last_select_end{};

 private:
  core::Strategy& inner_;
  Tracer& tracer_;
  std::uint32_t campaign_;
  int parent_;
  std::string layer_;
  CampaignSplit& split_;
  std::function<void(const sim::Observation&)> capture_;
};

// ---------------------------------------------------------------------------
// Direct campaigns (ba1m-campaign, fig6-saa, and the traced replica of the
// registry's campaign driver).

struct CampaignPlan {
  std::string key;          // reference key, e.g. "k10-w1"
  std::string strategy;     // pm | mip
  int k = 10;
  double budget = 0.0;
  std::uint64_t seed = 1;   // world seed base: world = derive_seed(seed, 0)
  std::size_t scenarios = 0;
};

/// Reference key of a campaign: batch size and world seed, e.g. "k10-w1".
std::string plan_key(int k, const char* seed_tag, std::uint64_t seed) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "k%d-%s%llu", k, seed_tag,
                static_cast<unsigned long long>(seed));
  return buf;
}

std::unique_ptr<core::Strategy> make_strategy(const CampaignPlan& plan,
                                              util::ThreadPool* pool) {
  if (plan.strategy == "pm") {
    core::PmArestOptions o;
    o.batch_size = plan.k;
    o.pool = pool;
    return std::make_unique<core::PmArest>(o);
  }
  solver::MipStrategyOptions o;
  o.batch_size = plan.k;
  o.scenarios_per_batch = plan.scenarios;
  o.candidate_cap = 30;
  o.pool = pool;
  return std::make_unique<solver::MipBatchStrategy>(o);
}

/// How a direct campaign publishes its state: nothing (ba1m, fig6) or, for
/// the serve replica, exactly what CampaignRegistry's driver does — a
/// streamed trace file plus a checkpoint generation every round.
struct Durability {
  std::string trace_path;       // empty = no streamed trace
  std::string checkpoint_base;  // empty = no checkpoint chain
  std::uint64_t every_rounds = 1;
  std::uint64_t stop_after_rounds = 0;
};

struct CampaignResult {
  double seconds = 0.0;
  std::string digest;
  sim::AttackTrace trace;
  CampaignSplit split;
};

CampaignResult run_direct(const sim::Problem& problem, const CampaignPlan& plan,
                          util::ThreadPool* pool, const Durability& dur, Tracer* tracer,
                          std::uint32_t campaign_id,
                          std::function<void(const sim::Observation&)> capture = {}) {
  CampaignResult res;
  const auto t0 = Clock::now();
  const int root = tracer ? tracer->open("core", "campaign", campaign_id, -1) : -1;

  auto strategy = make_strategy(plan, pool);
  const auto tw0 = Clock::now();
  const sim::World world(problem, util::derive_seed(plan.seed, 0));
  const auto tw1 = Clock::now();
  res.split.world = seconds_between(tw0, tw1);
  if (tracer) tracer->record("sim", "world", campaign_id, root, tw0, tw1);

  std::optional<core::CheckpointChain> chain;
  if (!dur.checkpoint_base.empty()) chain.emplace(dur.checkpoint_base);
  std::ofstream tf;
  double prev_cost = 0.0;
  if (!dur.trace_path.empty()) {
    tf.open(dur.trace_path, std::ios::binary | std::ios::trunc);
    if (!tf) throw std::runtime_error("cannot open trace file " + dur.trace_path);
    tf.precision(17);
    tf << "#recon-trace v1\n" << "trace 0\n";
    tf.flush();
  }

  core::AttackRunOptions ro;
  if (chain) {
    ro.checkpoint_chain = &*chain;
    ro.checkpoint_every_rounds = dur.every_rounds;
    ro.stop_after_rounds = dur.stop_after_rounds;
  }
  std::unique_ptr<TimedStrategy> timed;
  Clock::time_point hook_end{};
  if (tracer) {
    const std::string layer = plan.strategy == "pm" ? "core" : "solver";
    timed = std::make_unique<TimedStrategy>(*strategy, *tracer, campaign_id, root, layer,
                                            res.split, std::move(capture));
    // Runner order per round: next_batch -> observe -> on_round ->
    // checkpoint -> (loop top) should_stop. The gaps between these calls
    // are the observe and checkpoint spans.
    if (chain) {
      ro.should_stop = [&] {
        if (hook_end != Clock::time_point{}) {
          const auto now = Clock::now();
          tracer->record("ckpt", "publish", campaign_id, root, hook_end, now);
          res.split.ckpt += seconds_between(hook_end, now);
          hook_end = {};
        }
        return false;
      };
    }
  }
  if (tracer || tf.is_open()) {
    ro.on_round = [&](const sim::AttackTrace& trace, std::uint64_t) {
      const auto h0 = Clock::now();
      if (tracer) {
        tracer->record("core", "observe", campaign_id, root, timed->last_select_end, h0);
        res.split.observe += seconds_between(timed->last_select_end, h0);
      }
      if (tf.is_open()) {
        const sim::BatchRecord& b = trace.batches.back();
        sim::write_batch_line(tf, b, prev_cost);
        prev_cost = b.cumulative_cost;
        tf.flush();
      }
      if (tracer) {
        hook_end = Clock::now();
        if (tf.is_open()) {
          tracer->record("trace", "stream", campaign_id, root, h0, hook_end);
          res.split.hook += seconds_between(h0, hook_end);
        }
      }
    };
  }
  core::Strategy& s = timed ? static_cast<core::Strategy&>(*timed) : *strategy;
  res.trace = core::run_attack(problem, world, s, plan.budget, ro);
  if (tracer && chain && hook_end != Clock::time_point{}) {
    const auto now = Clock::now();
    tracer->record("ckpt", "publish", campaign_id, root, hook_end, now);
    res.split.ckpt += seconds_between(hook_end, now);
  }
  if (tf.is_open()) {
    tf.close();
    const auto p0 = Clock::now();
    sim::write_traces_file(dur.trace_path, {res.trace});
    if (tracer) {
      const auto p1 = Clock::now();
      tracer->record("trace", "publish", campaign_id, root, p0, p1);
      res.split.hook += seconds_between(p0, p1);
    }
  }
  if (tracer) tracer->close(root);
  res.seconds = seconds_between(t0, Clock::now());
  res.digest = digest(res.trace);
  return res;
}

// ---------------------------------------------------------------------------
// JSON output.

class Json {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(k) << buf;
  }
  void str(const std::string& k, const std::string& v) { field(k) << quote(v); }
  void nums(const std::string& k, const std::vector<double>& v) {
    std::ostringstream& o = field(k);
    o << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v[i]);
      o << (i ? "," : "") << buf;
    }
    o << ']';
  }
  void raw(const std::string& k, const std::string& json) { field(k) << json; }
  std::string done() const { return out_.str() + "}"; }

  static std::string quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        q += ' ';
        continue;
      }
      q += c;
    }
    return q + "\"";
  }

 private:
  std::ostringstream& field(const std::string& k) {
    out_ << (first_ ? "{" : ",") << quote(k) << ':';
    first_ = false;
    return out_;
  }
  std::ostringstream out_;
  bool first_ = true;
};

/// What one workload process measured.
struct Report {
  std::vector<double> setup_s;
  std::vector<double> campaign_s;  // per measured campaign (serve: makespan / campaigns)
  std::vector<std::pair<std::string, std::string>> digests;  // key, digest
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> layers;  // per-layer metrics (trace runs)
  /// Peak RSS after set-up, warm-up and the first measured pass over the
  /// campaign list. Later passes repeat the same work, so stopping here
  /// keeps the reading independent of how many passes a run fits.
  double peak_rss_mb = 0.0;
};

/// Peak resident set size of this process so far (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Runs `fn` and records a failed attempt (with its message) if it throws.
template <typename F>
void attempt(Report& rep, const std::string& what, F&& fn) {
  ++rep.attempted;
  try {
    fn();
  } catch (const std::exception& e) {
    ++rep.failed;
    rep.errors.push_back(what + ": " + e.what());
  }
}

struct Config {
  std::string workload;
  std::string scale = "full";
  std::string data_dir;
  std::string state_dir;
  unsigned threads = 1;
  double seconds = 5.0;
  std::uint64_t seed = 1;
  bool trace = false;
};

std::vector<CampaignPlan> rotate(std::vector<CampaignPlan> plans, std::uint64_t seed) {
  if (!plans.empty()) {
    std::rotate(plans.begin(), plans.begin() + static_cast<long>(seed % plans.size()),
                plans.end());
  }
  return plans;
}

/// Checkpoint-layer probe on one real generation: its size, and the time to
/// serialize it into memory, publish it as a new generation and reload the
/// newest good generation (median of `reps`).
void probe_checkpoint(core::CheckpointChain& chain, std::map<std::string, double>& layers,
                      int reps) {
  std::vector<double> ser, pub, load;
  std::size_t bytes = 0;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    const std::optional<core::LoadedGeneration> gen = chain.load_last_good();
    load.push_back(seconds_between(t0, Clock::now()));
    if (!gen) throw std::runtime_error("checkpoint probe: no good generation");
    bytes = static_cast<std::size_t>(fs::file_size(gen->path));
    std::ostringstream mem;
    t0 = Clock::now();
    core::write_checkpoint(mem, gen->checkpoint);
    ser.push_back(seconds_between(t0, Clock::now()));
    t0 = Clock::now();
    chain.write(gen->checkpoint);
    pub.push_back(seconds_between(t0, Clock::now()));
  }
  layers["ckpt.bytes"] = static_cast<double>(bytes);
  layers["ckpt.serialize_s"] = median(ser);
  layers["ckpt.publish_s"] = median(pub);
  layers["ckpt.load_last_good_s"] = median(load);
}

/// Writes `trace` as a whole trace document `reps` times; returns the median
/// time and the document's size.
std::pair<double, double> probe_trace_write(const sim::AttackTrace& trace,
                                            const std::string& path, int reps) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    sim::write_traces_file(path, {trace});
    t.push_back(seconds_between(t0, Clock::now()));
  }
  const double bytes = static_cast<double>(fs::file_size(path));
  fs::remove(path);
  return {median(t), bytes};
}

/// Fills the per-layer metrics that come from the campaigns' splits.
void summarize_splits(const std::vector<CampaignResult>& traced, Report& rep) {
  std::vector<double> sel, first, rest, obs, world, batches, requests, ckpt;
  for (const CampaignResult& c : traced) {
    double total = 0.0, firsts = 0.0;
    for (std::size_t i = 0; i < c.split.select.size(); ++i) {
      total += c.split.select[i];
      if (i < 2) firsts += c.split.select[i];
    }
    sel.push_back(total);
    first.push_back(firsts);
    rest.push_back(total - firsts);
    obs.push_back(c.seconds - total - c.split.hook - c.split.ckpt - c.split.world);
    world.push_back(c.split.world);
    batches.push_back(static_cast<double>(c.trace.batches.size()));
    requests.push_back(static_cast<double>(c.trace.total_requests()));
    ckpt.push_back(c.split.ckpt);
  }
  rep.layers["core.select_s"] = median(sel);
  rep.layers["core.select_first_s"] = median(first);
  rep.layers["core.select_rest_s"] = median(rest);
  rep.layers["core.observe_s"] = median(obs);
  rep.layers["core.batches"] = median(batches);
  rep.layers["core.requests"] = median(requests);
  rep.layers["sim.world_s"] = median(world);
  rep.layers["ckpt.campaign_s"] = median(ckpt);
}

/// Tracing overhead: median traced minus median untraced campaign time.
void record_overhead(const std::vector<CampaignResult>& traced,
                     const std::vector<double>& untraced, Report& rep) {
  std::vector<double> t;
  for (const CampaignResult& c : traced) t.push_back(c.seconds);
  rep.layers["campaign_untraced_s"] = median(untraced);
  rep.layers["trace.overhead_s"] = median(t) - median(untraced);
}

/// Runs measured direct campaigns for `cfg.seconds` of campaign time.
/// Traced processes alternate traced and untraced campaigns so the tracing
/// overhead comes from one warm process.
void measure_direct(const Config& cfg, int warmups, const sim::Problem& problem,
                    const std::vector<CampaignPlan>& plans, util::ThreadPool* pool,
                    Tracer* tracer, Report& rep, std::vector<CampaignResult>& traced,
                    std::vector<std::uint32_t>& traced_ids) {
  // Discarded warm-up campaigns: the shard calibration and the allocator
  // settle during these.
  for (int w = 0; w < warmups; ++w) {
    const CampaignPlan& plan = plans[static_cast<std::size_t>(w) % plans.size()];
    attempt(rep, "warm-up " + plan.key, [&] {
      const CampaignResult r = run_direct(problem, plan, pool, {}, nullptr, 0);
      std::fprintf(stderr, "warm-up %s: %.3f s\n", plan.key.c_str(), r.seconds);
      rep.digests.emplace_back(plan.key, r.digest);
    });
  }
  if (pool) pool->reset_busy_nanos();
  const auto start = Clock::now();
  std::vector<double> untraced;
  double measured = 0.0;
  std::uint32_t next_id = 1;
  const auto run_one = [&](const CampaignPlan& plan, bool trace_this) {
    attempt(rep, "campaign " + plan.key, [&] {
      const std::uint32_t id = next_id++;
      CampaignResult r =
          run_direct(problem, plan, pool, {}, trace_this ? tracer : nullptr, id);
      measured += r.seconds;
      std::fprintf(stderr, "campaign %s: %.3f s%s\n", plan.key.c_str(), r.seconds,
                   trace_this ? " (traced)" : "");
      rep.digests.emplace_back(plan.key, r.digest);
      if (trace_this) {
        traced_ids.push_back(id);
        traced.push_back(std::move(r));
      } else {
        untraced.push_back(r.seconds);
      }
    });
  };
  // Whole passes over the campaign list, so every run measures the same
  // campaign mix. A traced process runs every campaign twice, traced and
  // untraced in alternating order, so the tracing overhead compares equal
  // work in one warm process.
  for (std::size_t i = 0; i == 0 || measured < cfg.seconds || i % plans.size() != 0;
       ++i) {
    const CampaignPlan& plan = plans[i % plans.size()];
    if (tracer) {
      run_one(plan, i % 2 == 0);
      run_one(plan, i % 2 != 0);
    } else {
      run_one(plan, false);
    }
    if (i + 1 == plans.size()) rep.peak_rss_mb = peak_rss_mb();
    if (rep.failed > 0 && rep.failed == rep.attempted) break;
  }
  const double elapsed = seconds_between(start, Clock::now());
  rep.campaign_s = untraced;
  if (tracer) record_overhead(traced, untraced, rep);
  if (pool) {
    rep.layers["util.pool_busy_frac"] =
        static_cast<double>(pool->busy_nanos()) * 1e-9 / (pool->size() * elapsed);
  }
}

/// Per-campaign self time of every layer over the traced campaigns.
void add_self_times(const Tracer& tracer, const std::vector<std::uint32_t>& ids,
                    Report& rep) {
  for (const auto& [layer, s] : tracer.self_seconds(ids)) {
    rep.layers["self_s." + layer] = s / static_cast<double>(ids.size());
  }
}

/// Layers that do no work on some workload; each workload's traced run
/// reports them as an explicit 0 through mark_idle.
const std::vector<std::string> kMapLayers = {"graph.map_s", "graph.map_mbps"};
// The service, and the checkpoint generations only its campaigns publish.
const std::vector<std::string> kServiceLayers = {
    "service.submit_s", "service.latency_p50_s", "service.latency_max_s",
    "ckpt.generations"};
const std::vector<std::string> kSolverLayers = {
    "solver.sample_s", "solver.fob_exact_s", "solver.benders_s", "solver.fob_greedy_s",
    "solver.bnb_nodes", "solver.saa_evals", "solver.exact_frac"};

/// Reports every layer in `names` as idle (0) on this workload.
void mark_idle(Report& rep, const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (!rep.layers.emplace(name, 0.0).second) {
      throw std::logic_error("layer " + name + " is both measured and idle");
    }
  }
}

/// Trace and checkpoint probes on the state of a workload that publishes
/// neither (ba1m-campaign, fig6-saa): the first traced campaign's trace is
/// written as a whole document, and a campaign stopped after two rounds
/// publishes the one generation the checkpoint probe works on.
void probe_unpublished_layers(const Config& cfg, const sim::Problem& problem,
                              const CampaignPlan& plan, util::ThreadPool* pool,
                              const sim::AttackTrace& trace, int reps, Report& rep) {
  const auto [seconds, bytes] =
      probe_trace_write(trace, cfg.state_dir + "/probe.trace", reps);
  rep.layers["trace.write_s"] = seconds;
  rep.layers["trace.bytes"] = bytes;
  attempt(rep, "checkpoint probe", [&] {
    core::CheckpointChain chain(cfg.state_dir + "/probe.ckpt");
    Durability d;
    d.checkpoint_base = chain.base_path();
    d.every_rounds = 0;
    d.stop_after_rounds = 2;
    (void)run_direct(problem, plan, pool, d, nullptr, 0);
    probe_checkpoint(chain, rep.layers, reps);
  });
}

// ---------------------------------------------------------------------------
// ba1m-campaign

sim::ProblemOptions ba_problem_options(const Params& p) {
  sim::ProblemOptions o;
  o.num_targets = p.ba_targets;
  o.base_acceptance = 0.35;
  o.seed = 11;
  return o;
}

void run_ba1m(const Config& cfg, const Params& P, util::ThreadPool* pool, Tracer* tracer,
              Report& rep) {
  const std::string path = ba_graph_path(cfg.data_dir, cfg.scale);
  std::optional<sim::Problem> problem;
  std::vector<double> map_s, problem_s;
  attempt(rep, "set-up", [&] {
    for (int r = 0; r <= P.setup_reps; ++r) {
      problem.reset();
      const auto t0 = Clock::now();
      graph::Graph g = graph::map_graph_binary_file(path);
      const auto t1 = Clock::now();
      problem.emplace(sim::make_problem(std::move(g), ba_problem_options(P)));
      const auto t2 = Clock::now();
      std::fprintf(stderr, "set-up %d: map %.3f s, problem %.3f s\n", r,
                   seconds_between(t0, t1), seconds_between(t1, t2));
      if (r == 0) continue;  // first repetition warms the page cache
      rep.setup_s.push_back(seconds_between(t0, t2));
      map_s.push_back(seconds_between(t0, t1));
      problem_s.push_back(seconds_between(t1, t2));
      if (tracer) {
        const int root = tracer->record("bench", "setup", 0, -1, t0, t2);
        tracer->record("graph", "map", 0, root, t0, t1);
        tracer->record("sim", "make_problem", 0, root, t1, t2);
      }
    }
  });
  if (!problem) return;

  CampaignPlan plan;
  plan.key = plan_key(P.ba_k, "w", 1);
  plan.strategy = "pm";
  plan.k = P.ba_k;
  plan.budget = P.ba_budget;
  plan.seed = 1;
  std::vector<CampaignResult> traced;
  std::vector<std::uint32_t> ids;
  measure_direct(cfg, P.warmups, *problem, {plan}, pool, tracer, rep, traced, ids);
  if (!tracer) return;

  const double file_bytes = static_cast<double>(fs::file_size(path));
  rep.layers["graph.map_s"] = median(map_s);
  rep.layers["graph.map_mbps"] = file_bytes / 1e6 / median(map_s);
  rep.layers["sim.make_problem_s"] = median(problem_s);
  mark_idle(rep, {"graph.generate_s"});
  mark_idle(rep, kServiceLayers);
  mark_idle(rep, kSolverLayers);
  summarize_splits(traced, rep);
  add_self_times(*tracer, ids, rep);
  // Layer probes run once, in the 1-worker process.
  if (pool && pool->size() == 1 && !traced.empty()) {
    probe_unpublished_layers(cfg, *problem, plan, pool, traced.front().trace, 3, rep);
  }
}

// ---------------------------------------------------------------------------
// fig6-saa

sim::Problem polbooks_problem(const graph::Dataset& ds) {
  sim::ProblemOptions opts;
  opts.num_targets = std::max<std::size_t>(20, ds.graph.num_nodes() / 25);
  opts.target_mode = sim::TargetMode::kBfsBall;
  opts.base_acceptance = 0.4;
  opts.mutual_boost = 0.0;
  opts.seed = kGraphSeed;
  return sim::make_problem(ds.graph, opts);
}

/// Solver-layer probe: every solver tier on the same captured observations
/// and the same scenario sets.
void probe_solver(const std::vector<sim::Observation>& captured, const Params& P,
                  util::ThreadPool* pool, std::map<std::string, double>& layers) {
  std::vector<double> sample, exact, benders, greedy, nodes, evals;
  double exact_done = 0.0;
  std::uint64_t round = 0;
  for (const sim::Observation& obs : captured) {
    const std::vector<graph::NodeId> cands = solver::fob_candidates(obs, false);
    if (cands.empty()) continue;
    const std::size_t k =
        std::min<std::size_t>(static_cast<std::size_t>(P.saa_k), cands.size());
    auto t0 = Clock::now();
    const auto scenarios = solver::sample_scenarios_antithetic(
        obs, P.saa_scenarios, util::derive_seed(0x5AA, ++round));
    sample.push_back(seconds_between(t0, Clock::now()));

    solver::FobExactOptions eo;
    eo.candidate_cap = 30;
    eo.pool = pool;
    eo.antithetic = true;
    t0 = Clock::now();
    const solver::FobResult ex = solver::fob_exact(obs, scenarios, k, cands, eo);
    exact.push_back(seconds_between(t0, Clock::now()));
    nodes.push_back(static_cast<double>(ex.nodes_explored));
    evals.push_back(static_cast<double>(ex.saa_evals));
    exact_done += ex.exact ? 1.0 : 0.0;

    // Benders on the same 30-candidate pool MipBatchStrategy builds for it.
    t0 = Clock::now();
    std::vector<std::pair<double, graph::NodeId>> ranked;
    for (graph::NodeId u : cands) {
      ranked.emplace_back(solver::saa_objective(obs, scenarios, {u}, {pool, true}), u);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    std::vector<graph::NodeId> capped;
    for (std::size_t i = 0; i < std::max<std::size_t>(30, k) && i < ranked.size(); ++i) {
      capped.push_back(ranked[i].second);
    }
    solver::BendersOptions bo;
    bo.pool = pool;
    bo.antithetic = true;
    (void)solver::solve_fob_benders(obs, scenarios, k, capped, bo);
    benders.push_back(seconds_between(t0, Clock::now()));

    t0 = Clock::now();
    (void)solver::fob_greedy(obs, scenarios, k, cands, 0.0, pool, true);
    greedy.push_back(seconds_between(t0, Clock::now()));
  }
  layers["solver.sample_s"] = mean(sample);
  layers["solver.fob_exact_s"] = mean(exact);
  layers["solver.benders_s"] = mean(benders);
  layers["solver.fob_greedy_s"] = mean(greedy);
  layers["solver.bnb_nodes"] = mean(nodes);
  layers["solver.saa_evals"] = mean(evals);
  layers["solver.exact_frac"] =
      captured.empty() ? 0.0 : exact_done / static_cast<double>(exact.size());
}

void run_fig6(const Config& cfg, const Params& P, util::ThreadPool* pool, Tracer* tracer,
              Report& rep) {
  // Set-up: everything the first campaign needs before it can select —
  // the stand-in graph, the problem, and the first batch's scenario set.
  // One set-up is milliseconds, so one timed unit is a block of
  // P.saa_setup_block back-to-back set-ups (the reported value is per block).
  std::optional<sim::Problem> problem;
  std::vector<double> gen_s, problem_s;
  attempt(rep, "set-up", [&] {
    for (int r = 0; r <= P.setup_reps; ++r) {
      double gen = 0.0, prob = 0.0;
      const auto b0 = Clock::now();
      for (int j = 0; j < P.saa_setup_block; ++j) {
        problem.reset();
        const auto t0 = Clock::now();
        const graph::Dataset ds =
            graph::make_dataset(graph::DatasetId::kUsPolBooks, 1.0, kGraphSeed);
        const auto t1 = Clock::now();
        problem.emplace(polbooks_problem(ds));
        const auto t2 = Clock::now();
        const sim::Observation obs(*problem);
        const auto sc = solver::sample_scenarios_antithetic(obs, P.saa_scenarios,
                                                            util::derive_seed(0x5AA, 1));
        if (sc.size() != P.saa_scenarios) {
          throw std::runtime_error("short scenario sample");
        }
        gen += seconds_between(t0, t1);
        prob += seconds_between(t1, t2);
      }
      const auto b1 = Clock::now();
      std::fprintf(stderr, "set-up %d: %d set-ups in %.3f s\n", r, P.saa_setup_block,
                   seconds_between(b0, b1));
      if (r == 0) continue;
      rep.setup_s.push_back(seconds_between(b0, b1));
      gen_s.push_back(gen / P.saa_setup_block);
      problem_s.push_back(prob / P.saa_setup_block);
      if (tracer) tracer->record("bench", "setup", 0, -1, b0, b1);
    }
  });
  if (!problem) return;

  std::vector<CampaignPlan> plans;
  for (std::uint64_t s : P.saa_seeds) {
    CampaignPlan p;
    p.key = plan_key(P.saa_k, "w", s);
    p.strategy = "mip";
    p.k = P.saa_k;
    p.budget = P.saa_budget;
    p.seed = s;
    p.scenarios = P.saa_scenarios;
    plans.push_back(p);
  }
  plans = rotate(plans, cfg.seed);
  std::vector<CampaignResult> traced;
  std::vector<std::uint32_t> ids;
  measure_direct(cfg, P.warmups, *problem, plans, pool, tracer, rep, traced, ids);
  if (!tracer) return;

  rep.layers["graph.generate_s"] = median(gen_s);
  rep.layers["sim.make_problem_s"] = median(problem_s);
  mark_idle(rep, kMapLayers);
  mark_idle(rep, kServiceLayers);
  summarize_splits(traced, rep);
  add_self_times(*tracer, ids, rep);
  if (pool && pool->size() == 1 && !traced.empty()) {
    probe_unpublished_layers(cfg, *problem, plans.front(), pool, traced.front().trace, 5,
                             rep);
    attempt(rep, "solver probe", [&] {
      std::vector<sim::Observation> captured;
      const CampaignResult r = run_direct(
          *problem, plans.front(), pool, {}, tracer, 0,
          [&](const sim::Observation& o) { captured.push_back(o); });
      rep.digests.emplace_back(plans.front().key, r.digest);
      probe_solver(captured, P, pool, rep.layers);
    });
  }
}

// ---------------------------------------------------------------------------
// table3-serve

sim::Problem twitter_problem(const graph::Dataset& ds) {
  sim::ProblemOptions opts;
  opts.num_targets = std::max<std::size_t>(20, ds.graph.num_nodes() / 25);
  opts.target_mode = sim::TargetMode::kBfsBall;
  opts.base_acceptance = 0.3;
  opts.mutual_boost = 0.1;
  opts.seed = kGraphSeed;
  return sim::make_problem(ds.graph, opts);
}

/// The Table III row mix in a fixed batch-size order (the two clients then
/// always pair campaigns of equal k, so the makespan does not depend on the
/// run's seed); the seed only picks which world seed of each pair goes
/// first.
std::vector<CampaignPlan> serve_plans(const Params& P, std::uint64_t seed) {
  std::vector<CampaignPlan> plans;
  for (std::size_t j = 0; j < P.tw_ks.size(); ++j) {
    const int k = P.tw_ks[j];
    std::vector<std::uint64_t> seeds = P.tw_seeds;
    if ((seed >> j) & 1) std::reverse(seeds.begin(), seeds.end());
    for (std::uint64_t s : seeds) {
      CampaignPlan p;
      p.key = plan_key(k, "s", s);
      p.strategy = "pm";
      p.k = k;
      p.budget = P.tw_budget;
      p.seed = s;
      plans.push_back(p);
    }
  }
  return plans;
}

service::CampaignSpec spec_of(const CampaignPlan& p) {
  service::CampaignSpec spec;
  spec.problem = "twitter";
  spec.strategy = "pm";
  spec.batch_size = p.k;
  spec.budget = p.budget;
  spec.seed = p.seed;
  return spec;  // default per-round autosnapshots
}

/// Removes the campaign files (traces, checkpoint generations, manifests)
/// whose names start with `prefix` from the state directory.
void remove_campaign_files(const std::string& dir, const std::string& prefix) {
  std::vector<fs::path> doomed;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().rfind(prefix, 0) == 0) doomed.push_back(e.path());
  }
  for (const fs::path& p : doomed) fs::remove(p);
}

/// One closed-loop batch: `clients` threads each submit the next campaign
/// of `plans` as soon as their previous one completed. Returns the makespan.
double serve_batch(service::CampaignRegistry& reg, const std::vector<CampaignPlan>& plans,
                   int clients, Report& rep, std::vector<double>* submit_s,
                   std::vector<double>* latency_s, std::uint64_t* generations) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::string>> done;  // plan index, id
  std::vector<std::string> errors;
  std::vector<double> submits, latencies;
  const auto t0 = Clock::now();
  auto client = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= plans.size()) return;
      try {
        const auto s0 = Clock::now();
        const std::string id = reg.submit(spec_of(plans[i]));
        const auto s1 = Clock::now();
        const service::CampaignStatus st = reg.wait(id);
        const auto s2 = Clock::now();
        const std::lock_guard<std::mutex> lk(mu);
        submits.push_back(seconds_between(s0, s1));
        latencies.push_back(seconds_between(s0, s2));
        if (st.state != service::CampaignState::kCompleted) {
          errors.push_back(plans[i].key + ": campaign ended " +
                           service::to_string(st.state) + " " + st.error);
        } else {
          done.emplace_back(i, id);
        }
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lk(mu);
        errors.push_back(plans[i].key + ": " + e.what());
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  const double makespan = seconds_between(t0, Clock::now());

  for (const auto& [i, id] : done) {
    try {
      const service::CampaignStatus st = reg.status(id);
      const auto traces = sim::read_traces_file(st.trace_path);
      if (traces.size() != 1) {
        throw std::runtime_error("trace file holds no single trace");
      }
      rep.digests.emplace_back(plans[i].key, digest(traces.front()));
      if (generations) {
        core::CheckpointChain chain(st.checkpoint_base);
        const auto gens = chain.list_generations();
        *generations += gens.empty() ? 0 : gens.back() + 1;
      }
    } catch (const std::exception& e) {
      errors.push_back(plans[i].key + ": " + e.what());
    }
  }
  rep.attempted += plans.size();
  rep.failed += errors.size();
  for (const std::string& e : errors) rep.errors.push_back(e);
  if (submit_s) submit_s->insert(submit_s->end(), submits.begin(), submits.end());
  if (latency_s) latency_s->insert(latency_s->end(), latencies.begin(), latencies.end());
  return makespan;
}

void run_serve(const Config& cfg, const Params& P, unsigned threads, Tracer* tracer,
               Report& rep) {
  std::unique_ptr<service::CampaignRegistry> reg;
  std::optional<sim::Problem> problem;  // a copy for the traced replica
  std::vector<double> gen_s, problem_s;
  attempt(rep, "set-up", [&] {
    for (int r = 0; r < P.serve_setup_reps; ++r) {
      reg.reset();
      problem.reset();
      const auto t0 = Clock::now();
      const graph::Dataset ds =
          graph::make_dataset(graph::DatasetId::kTwitter, P.tw_scale, kGraphSeed);
      const auto t1 = Clock::now();
      sim::Problem p = twitter_problem(ds);
      const auto t2 = Clock::now();
      if (tracer) problem.emplace(p);  // the replica's copy, outside the set-up time
      const auto t2b = Clock::now();
      service::CampaignRegistry::Options o;
      o.state_dir = cfg.state_dir;
      o.threads = threads;
      reg = std::make_unique<service::CampaignRegistry>(o);
      reg->register_problem("twitter", std::move(p));
      const auto t3 = Clock::now();
      const double gen = seconds_between(t0, t1), prob = seconds_between(t1, t2),
                   reg_start = seconds_between(t2b, t3);
      std::fprintf(stderr, "set-up %d: generate %.3f s, problem %.3f s, start %.3f s\n",
                   r, gen, prob, reg_start);
      rep.setup_s.push_back(gen + prob + reg_start);
      gen_s.push_back(gen);
      problem_s.push_back(prob);
      if (tracer) {
        const int root = tracer->record("bench", "setup", 0, -1, t0, t3);
        tracer->record("graph", "generate", 0, root, t0, t1);
        tracer->record("sim", "make_problem", 0, root, t1, t2);
        tracer->record("service", "start", 0, root, t2b, t3);
      }
    }
  });
  if (!reg) return;

  const std::vector<CampaignPlan> plans = serve_plans(P, cfg.seed);
  // Discarded warm-up campaigns, submitted by one client.
  const std::vector<CampaignPlan> warm(plans.begin(), plans.begin() + P.warmups);
  serve_batch(*reg, warm, 1, rep, nullptr, nullptr, nullptr);
  remove_campaign_files(cfg.state_dir, "c");

  reg->pool().reset_busy_nanos();
  const auto start = Clock::now();
  double measured = 0.0;
  std::vector<double> submit_s, latency_s;
  std::uint64_t generations = 0;
  std::size_t batches = 0;
  while (measured < cfg.seconds || batches == 0) {
    const std::uint64_t failed = rep.failed;
    const double makespan = serve_batch(*reg, plans, P.tw_clients, rep, &submit_s,
                                        &latency_s, &generations);
    remove_campaign_files(cfg.state_dir, "c");
    measured += makespan;
    ++batches;
    if (batches == 1) rep.peak_rss_mb = peak_rss_mb();
    rep.campaign_s.push_back(makespan / static_cast<double>(plans.size()));
    std::fprintf(stderr, "batch %zu: %.3f s per campaign\n", batches,
                 rep.campaign_s.back());
    if (rep.failed - failed == plans.size()) break;
  }
  const double elapsed = seconds_between(start, Clock::now());
  if (!tracer) return;

  rep.layers["util.pool_busy_frac"] =
      static_cast<double>(reg->pool().busy_nanos()) * 1e-9 /
                                      (reg->pool().size() * elapsed);
  rep.layers["graph.generate_s"] = median(gen_s);
  rep.layers["sim.make_problem_s"] = median(problem_s);
  rep.layers["service.submit_s"] = median(submit_s);
  rep.layers["service.latency_p50_s"] = median(latency_s);
  rep.layers["service.latency_max_s"] =
      latency_s.empty() ? 0.0 : *std::max_element(latency_s.begin(), latency_s.end());
  rep.layers["ckpt.generations"] =
      static_cast<double>(generations) / static_cast<double>(batches * plans.size());
  mark_idle(rep, kMapLayers);
  mark_idle(rep, kSolverLayers);

  // The registry builds its strategies internally, so the per-layer split
  // replays the same campaigns through a replica of its driver (streamed
  // trace + a checkpoint generation per round) with the forwarding wrapper.
  util::ThreadPool& pool = reg->pool();
  std::vector<CampaignResult> traced;
  std::vector<std::uint32_t> ids;
  std::vector<double> untraced, trace_bytes;
  std::uint32_t next_id = 1;
  std::string newest_chain;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    for (const bool trace_this : {i % 2 == 0, i % 2 != 0}) {
      attempt(rep, "replica " + plans[i].key, [&] {
        const std::uint32_t id = next_id++;
        Durability d;
        d.trace_path = cfg.state_dir + "/r" + std::to_string(id) + ".trace";
        d.checkpoint_base = cfg.state_dir + "/r" + std::to_string(id) + ".ckpt";
        CampaignResult r =
            run_direct(*problem, plans[i], &pool, d, trace_this ? tracer : nullptr, id);
        rep.digests.emplace_back(plans[i].key, r.digest);
        trace_bytes.push_back(static_cast<double>(fs::file_size(d.trace_path)));
        newest_chain = d.checkpoint_base;
        if (trace_this) {
          ids.push_back(id);
          traced.push_back(std::move(r));
        } else {
          untraced.push_back(r.seconds);
        }
      });
    }
    if (i + 1 == plans.size() && threads == 1) {
      // Checkpoint probe on the newest generation the workload published.
      attempt(rep, "checkpoint probe", [&] {
        core::CheckpointChain chain(newest_chain);
        probe_checkpoint(chain, rep.layers, 3);
      });
    }
    remove_campaign_files(cfg.state_dir, "r");
  }
  rep.layers["trace.bytes"] = median(trace_bytes);
  record_overhead(traced, untraced, rep);
  summarize_splits(traced, rep);
  std::vector<double> hook;
  for (const CampaignResult& c : traced) hook.push_back(c.split.hook);
  rep.layers["trace.write_s"] = median(hook);
  add_self_times(*tracer, ids, rep);
  remove_campaign_files(cfg.state_dir, "c");
}

// ---------------------------------------------------------------------------

int generate(const std::string& data_dir, const std::string& scale) {
  const Params P = params_for(scale);
  fs::create_directories(data_dir);
  const std::string path = ba_graph_path(data_dir, scale);
  const auto t0 = Clock::now();
  const graph::GraphBinaryInfo info = graph::stream_barabasi_albert_binary(
      path, P.ba_nodes, 8, graph::EdgeProbModel::uniform(0.3, 0.95), kGraphSeed);
  std::fprintf(stderr, "generated %s: %llu nodes, %llu edges in %.1f s\n", path.c_str(),
               static_cast<unsigned long long>(info.num_nodes),
               static_cast<unsigned long long>(info.num_edges),
               seconds_between(t0, Clock::now()));
  return 0;
}

int run(const Config& cfg) {
  const Params P = params_for(cfg.scale);
  const auto epoch = Clock::now();
  std::unique_ptr<Tracer> tracer;
  if (cfg.trace) tracer = std::make_unique<Tracer>(epoch);
  Report rep;
  if (cfg.workload == "table3-serve") {
    run_serve(cfg, P, cfg.threads, tracer.get(), rep);
  } else {
    std::unique_ptr<util::ThreadPool> pool;
    if (cfg.threads > 0) pool = std::make_unique<util::ThreadPool>(cfg.threads);
    if (cfg.workload == "ba1m-campaign") {
      run_ba1m(cfg, P, pool.get(), tracer.get(), rep);
    } else if (cfg.workload == "fig6-saa") {
      run_fig6(cfg, P, pool.get(), tracer.get(), rep);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
      return 2;
    }
  }
  if (tracer) {
    tracer->write_jsonl(cfg.state_dir + "/spans-t" + std::to_string(cfg.threads) +
                        ".jsonl");
  }

  Json j;
  j.str("workload", cfg.workload);
  j.num("threads", cfg.threads);
  j.nums("setup_s", rep.setup_s);
  j.nums("campaign_s", rep.campaign_s);
  j.num("peak_rss_mb", rep.peak_rss_mb > 0.0 ? rep.peak_rss_mb : peak_rss_mb());
  j.num("attempted", static_cast<double>(rep.attempted));
  j.num("failed", static_cast<double>(rep.failed));
  std::string d = "[";
  for (std::size_t i = 0; i < rep.digests.size(); ++i) {
    if (i > 0) d += ',';
    d += '[';
    d += Json::quote(rep.digests[i].first);
    d += ',';
    d += Json::quote(rep.digests[i].second);
    d += ']';
  }
  j.raw("digests", d + "]");
  std::string e = "[";
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    if (i > 0) e += ',';
    e += Json::quote(rep.errors[i]);
  }
  j.raw("errors", e + "]");
  Json layers;
  for (const auto& [k, v] : rep.layers) layers.num(k, v);
  j.raw("layers", rep.layers.empty() ? "{}" : layers.done());
  std::printf("%s\n", j.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    if (args.has("generate")) {
      return generate(args.get("generate", ""), args.get("scale", "full"));
    }
    Config cfg;
    cfg.workload = args.get("workload", "");
    cfg.scale = args.get("scale", "full");
    cfg.data_dir = args.get("data", "");
    cfg.state_dir = args.get("state", "");
    cfg.threads = static_cast<unsigned>(args.get_int("threads", 1));
    cfg.seconds = args.get_double("seconds", 5.0);
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    cfg.trace = args.get_int("trace", 0) != 0;
    if (cfg.state_dir.empty() || !fs::is_directory(cfg.state_dir)) {
      std::fprintf(stderr, "--state must name an existing directory\n");
      return 2;
    }
    return run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
