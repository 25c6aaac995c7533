#include "core/checkpoint.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/trace_io.h"
#include "util/crashpoint.h"
#include "util/fs.h"

namespace recon::core {

using graph::NodeId;

namespace {

constexpr const char* kHeader = "#recon-checkpoint v1";
constexpr const char* kHeaderV2 = "#recon-checkpoint v2";

// Widest decimal forms: a 64-bit integer, and a double at 17 significant
// digits ("-1.2345678901234567e-308").
constexpr std::size_t kU64Chars = 20;
constexpr std::size_t kDoubleChars = 24;
// Allowance for the fixed-size lines (meta, benefit, fault, async), with
// room left for the generation footer core/checkpoint_chain appends.
constexpr std::size_t kFixedChars = 1024;

template <typename Int>
void put_int(std::string& out, Int v) {
  char buf[kU64Chars + 1];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

/// The `%.17g` form an ostream with precision(17) prints (to_chars with an
/// explicit precision is specified as printf in the "C" locale).
void put_double(std::string& out, double v) {
  char buf[kDoubleChars + 8];
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

/// One decimal digit per state (node and edge states are 0..2), stored
/// directly into the buffer.
template <typename State>
void put_digits(std::string& out, const std::vector<State>& states) {
  const std::size_t at = out.size();
  out.resize(at + states.size());
  char* p = out.data() + at;
  for (std::size_t i = 0; i < states.size(); ++i) {
    p[i] = static_cast<char>('0' + static_cast<std::uint8_t>(states[i]));
  }
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("read_checkpoint: " + what);
}

/// Parses a "key=value" token, checking the key.
std::string expect_kv(std::istream& in, const char* key) {
  std::string token;
  if (!(in >> token)) fail(std::string("missing ") + key + "=");
  const std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0) fail("expected " + prefix + ", got " + token);
  return token.substr(prefix.size());
}

std::uint64_t to_u64(const std::string& s, const char* what) {
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(s, &used);
    if (used != s.size() || s.empty() || s[0] == '-') fail(std::string("bad ") + what);
    return v;
  } catch (const std::runtime_error&) {
    throw;
  } catch (const std::exception&) {
    fail(std::string("bad ") + what);
  }
}

double to_double(const std::string& s, const char* what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) fail(std::string("bad ") + what);
    return v;
  } catch (const std::runtime_error&) {
    throw;
  } catch (const std::exception&) {
    fail(std::string("bad ") + what);
  }
}

/// Captures the observation / budget / fault sections shared by both runner
/// flavors into `cp`.
void capture_common(AttackCheckpoint& cp, const sim::Observation& obs,
                    double budget, double spent, std::uint64_t round,
                    std::uint64_t world_seed, const sim::FaultModel* fault) {
  cp.world_seed = world_seed;
  cp.budget = budget;
  cp.spent = spent;
  cp.round = round;
  cp.clock = obs.clock();
  const auto& g = obs.problem().graph;
  cp.node_states.resize(g.num_nodes());
  cp.attempts.resize(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    cp.node_states[u] = obs.node_state(u);
    cp.attempts[u] = obs.attempts(u);
  }
  cp.edge_states.assign(obs.edge_states().begin(), obs.edge_states().end());
  cp.friends.assign(obs.friends().begin(), obs.friends().end());
  cp.retry_after.assign(obs.retry_after().begin(), obs.retry_after().end());
  cp.has_benefit = true;
  cp.benefit = obs.benefit();
  if (fault != nullptr) {
    cp.has_fault = true;
    cp.fault = fault->state();
  }
}

/// Restores the observation / cooldown / fault state shared by both runner
/// flavors; the fault-configuration check is common too.
void restore_common(const AttackCheckpoint& cp, sim::Observation& obs,
                    sim::FaultModel* fault, const char* who) {
  if (cp.has_fault != (fault != nullptr)) {
    throw std::runtime_error(
        std::string(who) +
        ": fault-model configuration differs from the checkpointed run "
        "(fault injection must be enabled on resume iff it was enabled "
        "originally)");
  }
  obs.restore(cp.node_states, cp.edge_states, cp.attempts, cp.friends);
  if (cp.has_benefit) obs.restore_benefit(cp.benefit);
  obs.set_clock(cp.clock);
  for (NodeId u = 0; u < static_cast<NodeId>(cp.retry_after.size()); ++u) {
    if (cp.retry_after[u] != 0.0) obs.set_retry_after(u, cp.retry_after[u]);
  }
  if (fault != nullptr) fault->restore(cp.fault);
}

}  // namespace

void InFlightRequest::serialize(std::string& out) const {
  put_int(out, node);
  out += ':';
  put_int(out, attempt);
  out += ':';
  put_int(out, outcome);
  out += ':';
  put_double(out, q_at_send);
  out += ':';
  put_double(out, completion_time);
}

InFlightRequest InFlightRequest::deserialize(const std::string& token) {
  std::size_t pos = 0;
  std::string parts[5];
  for (int i = 0; i < 5; ++i) {
    const std::size_t colon = token.find(':', pos);
    if ((colon == std::string::npos) != (i == 4)) fail("bad inflight entry");
    parts[i] = token.substr(pos, colon - pos);
    pos = colon + 1;
  }
  InFlightRequest r;
  r.node = static_cast<NodeId>(to_u64(parts[0], "inflight node"));
  r.attempt = static_cast<std::uint32_t>(to_u64(parts[1], "inflight attempt"));
  const std::uint64_t outcome = to_u64(parts[2], "inflight outcome");
  if (outcome > 4) fail("inflight outcome out of range");
  r.outcome = static_cast<std::uint8_t>(outcome);
  r.q_at_send = to_double(parts[3], "inflight q");
  r.completion_time = to_double(parts[4], "inflight completion time");
  return r;
}

AttackCheckpoint make_checkpoint(const sim::Observation& obs,
                                 const Strategy& strategy,
                                 const sim::AttackTrace& trace, double budget,
                                 double spent, std::uint64_t round,
                                 std::uint64_t world_seed,
                                 const sim::FaultModel* fault) {
  AttackCheckpoint cp;
  capture_common(cp, obs, budget, spent, round, world_seed, fault);
  cp.strategy_name = strategy.name();
  cp.strategy_state = strategy.save_state();
  if (cp.strategy_state.find('\n') != std::string::npos) {
    throw std::logic_error("make_checkpoint: strategy state must be one line");
  }
  cp.trace = trace;
  return cp;
}

AttackCheckpoint make_async_checkpoint(const sim::Observation& obs,
                                       const AsyncCheckpointState& async,
                                       const sim::AttackTrace& trace,
                                       double budget, double spent,
                                       std::uint64_t events,
                                       std::uint64_t world_seed,
                                       const sim::FaultModel* fault) {
  AttackCheckpoint cp;
  capture_common(cp, obs, budget, spent, events, world_seed, fault);
  cp.strategy_name = kAsyncCheckpointStrategy;
  cp.has_async = true;
  cp.async = async;
  cp.trace = trace;
  return cp;
}

void apply_checkpoint(const AttackCheckpoint& cp, sim::Observation& obs,
                      Strategy& strategy, sim::FaultModel* fault) {
  if (cp.has_async) {
    throw std::runtime_error(
        "apply_checkpoint: checkpoint was taken by the rolling-window runner; "
        "resume it through run_async_attack");
  }
  if (cp.strategy_name != strategy.name()) {
    throw std::runtime_error("apply_checkpoint: checkpoint was taken with strategy '" +
                             cp.strategy_name + "' but resuming with '" +
                             strategy.name() + "'");
  }
  restore_common(cp, obs, fault, "apply_checkpoint");
  if (!cp.strategy_state.empty()) strategy.restore_state(cp.strategy_state);
}

void apply_async_checkpoint(const AttackCheckpoint& cp, sim::Observation& obs,
                            sim::FaultModel* fault) {
  if (!cp.has_async || cp.strategy_name != kAsyncCheckpointStrategy) {
    throw std::runtime_error(
        "apply_async_checkpoint: checkpoint was taken by the synchronous "
        "runner (strategy '" + cp.strategy_name +
        "'); resume it through run_attack");
  }
  restore_common(cp, obs, fault, "apply_async_checkpoint");
}

std::string encode_checkpoint(const AttackCheckpoint& cp) {
  std::size_t nonzero = 0;
  for (auto a : cp.attempts) nonzero += a != 0;
  std::size_t cooling = 0;
  for (auto t : cp.retry_after) cooling += t != 0.0;

  // The embedded trace keeps the one trace grammar (sim/trace_io); it is
  // small (one line per batch), so it is rendered first and copied in.
  std::ostringstream trace;
  sim::write_traces(trace, {cp.trace});

  // One reservation covers the whole document: every number is bounded by
  // kU64Chars / kDoubleChars.
  std::string out;
  out.reserve(kFixedChars + cp.node_states.size() + cp.edge_states.size() +
              nonzero * (2 * kU64Chars + 2) + cp.friends.size() * (kU64Chars + 1) +
              cooling * (kU64Chars + kDoubleChars + 2) +
              cp.fault.window.size() * (2 * kU64Chars + 2) +
              cp.async.rng_state.size() +
              cp.async.in_flight.size() * (3 * kU64Chars + 2 * kDoubleChars + 5) +
              cp.strategy_name.size() + cp.strategy_state.size() +
              trace.view().size());

  out += cp.has_async ? kHeaderV2 : kHeader;
  out += "\nmeta world-seed=";
  put_int(out, cp.world_seed);
  out += " budget=";
  put_double(out, cp.budget);
  out += " spent=";
  put_double(out, cp.spent);
  out += " round=";
  put_int(out, cp.round);
  out += " clock=";
  put_double(out, cp.clock);
  out += "\nnodes ";
  put_int(out, cp.node_states.size());
  out += ' ';
  put_digits(out, cp.node_states);
  out += "\nedges ";
  put_int(out, cp.edge_states.size());
  out += ' ';
  put_digits(out, cp.edge_states);
  out += "\nattempts ";
  put_int(out, nonzero);
  for (std::size_t u = 0; u < cp.attempts.size(); ++u) {
    if (cp.attempts[u] == 0) continue;
    out += ' ';
    put_int(out, u);
    out += ':';
    put_int(out, cp.attempts[u]);
  }
  out += "\nfriends ";
  put_int(out, cp.friends.size());
  for (NodeId f : cp.friends) {
    out += ' ';
    put_int(out, f);
  }
  out += "\ncooldowns ";
  put_int(out, cooling);
  for (std::size_t u = 0; u < cp.retry_after.size(); ++u) {
    if (cp.retry_after[u] == 0.0) continue;
    out += ' ';
    put_int(out, u);
    out += ':';
    put_double(out, cp.retry_after[u]);
  }
  out += '\n';
  if (cp.has_benefit) {
    out += "benefit friends=";
    put_double(out, cp.benefit.friends);
    out += " fofs=";
    put_double(out, cp.benefit.fofs);
    out += " edges=";
    put_double(out, cp.benefit.edges);
    out += '\n';
  }
  if (cp.has_fault) {
    const auto& f = cp.fault;
    out += "fault sends=";
    put_int(out, f.sends);
    out += " tick=";
    put_int(out, f.tick);
    out += " until=";
    put_int(out, f.suspended_until);
    out += " window=";
    if (f.window.empty()) out += '-';
    for (std::size_t i = 0; i < f.window.size(); ++i) {
      if (i > 0) out += ',';
      put_int(out, f.window[i].first);
      out += ':';
      put_int(out, f.window[i].second);
    }
    out += " counters=";
    const auto& c = f.counters;
    for (const std::uint64_t v :
         {c.delivered, c.timeouts, c.drops, c.throttles, c.bounced}) {
      put_int(out, v);
      out += ',';
    }
    put_int(out, c.lockouts);
    out += '\n';
  }
  if (cp.has_async) {
    const auto& a = cp.async;
    out += "async window=";
    put_int(out, a.window);
    out += " now=";
    put_double(out, a.now);
    out += " sent=";
    put_int(out, a.requests_sent);
    out += " accepts=";
    put_int(out, a.accepts);
    out += "\nrng ";
    out += a.rng_state;
    out += "\ninflight ";
    put_int(out, a.in_flight.size());
    for (const auto& r : a.in_flight) {
      out += ' ';
      r.serialize(out);
    }
    out += '\n';
  }
  out += "strategy ";
  out += cp.strategy_name;
  out += "\nstrategy-state ";
  out += cp.strategy_state;
  out += "\nend\n";
  out += trace.view();
  return out;
}

void write_checkpoint(std::ostream& out, const AttackCheckpoint& cp) {
  out.precision(17);
  const std::string doc = encode_checkpoint(cp);
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
}

void write_checkpoint_file(const std::string& path, const AttackCheckpoint& cp) {
  // Serialize first so the torn-write crash point leaves a deterministic
  // prefix (header line only) on disk.
  const std::string body = encode_checkpoint(cp);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary);
    if (!f) throw std::runtime_error("write_checkpoint_file: cannot open " + tmp);
    RECON_CRASH_POINT("ckpt.tmp-open");
    const std::size_t first_line = body.find('\n') + 1;
    f.write(body.data(), static_cast<std::streamsize>(first_line));
    f.flush();
    RECON_CRASH_POINT("ckpt.tmp-torn");
    f.write(body.data() + first_line,
            static_cast<std::streamsize>(body.size() - first_line));
    f.flush();
    if (!f) throw std::runtime_error("write_checkpoint_file: write failed: " + tmp);
  }
  RECON_CRASH_POINT("ckpt.tmp-written");
  util::durable_rename(tmp, path);
}

AttackCheckpoint read_checkpoint(std::istream& in) {
  std::string line;
  int version = 0;
  if (std::getline(in, line)) {
    if (line == kHeader) version = 1;
    if (line == kHeaderV2) version = 2;
  }
  if (version == 0) {
    fail("missing/unsupported header (expected '" + std::string(kHeader) +
         "' or '" + std::string(kHeaderV2) + "')");
  }
  AttackCheckpoint cp;
  bool saw_end = false;
  bool saw_meta = false, saw_nodes = false, saw_edges = false;
  bool saw_attempts = false, saw_friends = false, saw_cooldowns = false;
  bool saw_strategy = false, saw_state = false;
  bool saw_async = false, saw_rng = false, saw_inflight = false;
  while (!saw_end && std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string kw;
    ls >> kw;
    if (kw == "end") {
      saw_end = true;
    } else if (kw == "meta") {
      cp.world_seed = to_u64(expect_kv(ls, "world-seed"), "world-seed");
      cp.budget = to_double(expect_kv(ls, "budget"), "budget");
      cp.spent = to_double(expect_kv(ls, "spent"), "spent");
      cp.round = to_u64(expect_kv(ls, "round"), "round");
      cp.clock = to_double(expect_kv(ls, "clock"), "clock");
      saw_meta = true;
    } else if (kw == "nodes" || kw == "edges") {
      std::size_t count = 0;
      if (!(ls >> count)) fail("bad " + kw + " line");
      std::string digits;
      ls >> digits;
      if (digits.size() != count) {
        fail(kw + " digit string has wrong length (truncated?)");
      }
      if (kw == "nodes") {
        cp.node_states.resize(count);
        for (std::size_t i = 0; i < count; ++i) {
          if (digits[i] < '0' || digits[i] > '2') fail("bad node state digit");
          cp.node_states[i] = static_cast<sim::NodeState>(digits[i] - '0');
        }
        saw_nodes = true;
      } else {
        cp.edge_states.resize(count);
        for (std::size_t i = 0; i < count; ++i) {
          if (digits[i] < '0' || digits[i] > '2') fail("bad edge state digit");
          cp.edge_states[i] = static_cast<sim::EdgeState>(digits[i] - '0');
        }
        saw_edges = true;
      }
    } else if (kw == "attempts") {
      if (!saw_nodes) fail("attempts before nodes");
      std::size_t count = 0;
      if (!(ls >> count)) fail("bad attempts count");
      cp.attempts.assign(cp.node_states.size(), 0);
      for (std::size_t i = 0; i < count; ++i) {
        std::string pair;
        if (!(ls >> pair)) fail("truncated attempts line");
        const std::size_t colon = pair.find(':');
        if (colon == std::string::npos) fail("bad attempts entry");
        const std::uint64_t u = to_u64(pair.substr(0, colon), "attempts node");
        if (u >= cp.attempts.size()) fail("attempts node out of range");
        cp.attempts[u] = static_cast<std::uint32_t>(
            to_u64(pair.substr(colon + 1), "attempts value"));
      }
      saw_attempts = true;
    } else if (kw == "friends") {
      std::size_t count = 0;
      if (!(ls >> count)) fail("bad friends count");
      if (count > cp.node_states.size()) fail("friends count exceeds n");
      cp.friends.resize(count);
      for (auto& f : cp.friends) {
        std::string tok;
        if (!(ls >> tok)) fail("truncated friends line");
        f = static_cast<NodeId>(to_u64(tok, "friend id"));
      }
      saw_friends = true;
    } else if (kw == "cooldowns") {
      if (!saw_nodes) fail("cooldowns before nodes");
      std::size_t count = 0;
      if (!(ls >> count)) fail("bad cooldowns count");
      if (count > 0) cp.retry_after.assign(cp.node_states.size(), 0.0);
      for (std::size_t i = 0; i < count; ++i) {
        std::string pair;
        if (!(ls >> pair)) fail("truncated cooldowns line");
        const std::size_t colon = pair.find(':');
        if (colon == std::string::npos) fail("bad cooldown entry");
        const std::uint64_t u = to_u64(pair.substr(0, colon), "cooldown node");
        if (u >= cp.retry_after.size()) fail("cooldown node out of range");
        cp.retry_after[u] = to_double(pair.substr(colon + 1), "cooldown time");
      }
      saw_cooldowns = true;
    } else if (kw == "benefit") {
      cp.benefit.friends = to_double(expect_kv(ls, "friends"), "benefit friends");
      cp.benefit.fofs = to_double(expect_kv(ls, "fofs"), "benefit fofs");
      cp.benefit.edges = to_double(expect_kv(ls, "edges"), "benefit edges");
      cp.has_benefit = true;
    } else if (kw == "fault") {
      cp.has_fault = true;
      cp.fault.sends = to_u64(expect_kv(ls, "sends"), "fault sends");
      cp.fault.tick = to_u64(expect_kv(ls, "tick"), "fault tick");
      cp.fault.suspended_until = to_u64(expect_kv(ls, "until"), "fault until");
      const std::string window = expect_kv(ls, "window");
      cp.fault.window.clear();
      if (window != "-") {
        std::size_t pos = 0;
        while (pos < window.size()) {
          const std::size_t comma = window.find(',', pos);
          const std::string entry = window.substr(pos, comma - pos);
          const std::size_t colon = entry.find(':');
          if (colon == std::string::npos) fail("bad fault window entry");
          cp.fault.window.emplace_back(
              to_u64(entry.substr(0, colon), "window tick"),
              to_u64(entry.substr(colon + 1), "window count"));
          if (comma == std::string::npos) break;
          pos = comma + 1;
        }
      }
      const std::string counters = expect_kv(ls, "counters");
      std::uint64_t vals[6] = {};
      std::size_t pos = 0;
      for (int i = 0; i < 6; ++i) {
        const std::size_t comma = counters.find(',', pos);
        if (i < 5 && comma == std::string::npos) fail("bad fault counters");
        vals[i] = to_u64(counters.substr(pos, comma - pos), "fault counter");
        pos = comma + 1;
      }
      cp.fault.counters.delivered = vals[0];
      cp.fault.counters.timeouts = vals[1];
      cp.fault.counters.drops = vals[2];
      cp.fault.counters.throttles = vals[3];
      cp.fault.counters.bounced = vals[4];
      cp.fault.counters.lockouts = vals[5];
    } else if (version >= 2 && kw == "async") {
      const std::uint64_t window = to_u64(expect_kv(ls, "window"), "async window");
      if (window == 0 || window > 1u << 20) fail("async window out of range");
      cp.async.window = static_cast<int>(window);
      cp.async.now = to_double(expect_kv(ls, "now"), "async now");
      cp.async.requests_sent = to_u64(expect_kv(ls, "sent"), "async sent");
      cp.async.accepts = to_u64(expect_kv(ls, "accepts"), "async accepts");
      saw_async = true;
    } else if (version >= 2 && kw == "rng") {
      // Validate the blob as four full decimal words and store it in the
      // canonical single-space form util::Rng::restore_state accepts.
      std::string words[4];
      for (auto& w : words) {
        if (!(ls >> w)) fail("truncated rng line");
        (void)to_u64(w, "rng word");
      }
      std::string junk;
      if (ls >> junk) fail("trailing junk on rng line");
      cp.async.rng_state =
          words[0] + ' ' + words[1] + ' ' + words[2] + ' ' + words[3];
      saw_rng = true;
    } else if (version >= 2 && kw == "inflight") {
      if (!saw_async) fail("inflight before async");
      std::size_t count = 0;
      if (!(ls >> count)) fail("bad inflight count");
      if (count > static_cast<std::size_t>(cp.async.window)) {
        fail("inflight count exceeds window");
      }
      cp.async.in_flight.clear();
      cp.async.in_flight.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        std::string token;
        if (!(ls >> token)) fail("truncated inflight line");
        cp.async.in_flight.push_back(InFlightRequest::deserialize(token));
      }
      saw_inflight = true;
    } else if (kw == "strategy") {
      // The name may contain spaces/parentheses: take the rest of the line.
      const std::size_t sp = line.find(' ');
      cp.strategy_name = sp == std::string::npos ? "" : line.substr(sp + 1);
      saw_strategy = true;
    } else if (kw == "strategy-state") {
      const std::size_t sp = line.find(' ');
      cp.strategy_state = sp == std::string::npos ? "" : line.substr(sp + 1);
      saw_state = true;
    } else {
      fail("unknown section '" + kw + "'");
    }
  }
  if (!saw_end) fail("missing 'end' marker — file is truncated");
  if (!saw_meta || !saw_nodes || !saw_edges || !saw_attempts || !saw_friends ||
      !saw_cooldowns || !saw_strategy || !saw_state) {
    fail("incomplete checkpoint (missing section)");
  }
  if (version >= 2) {
    if (!saw_async || !saw_rng || !saw_inflight) {
      fail("incomplete v2 checkpoint (missing async/rng/inflight section)");
    }
    cp.has_async = true;
  }
  // The embedded trace follows, as a complete trace document with its own
  // header and terminator (read_traces rejects truncation itself).
  auto traces = sim::read_traces(in);
  if (traces.size() != 1) fail("expected exactly one embedded trace");
  cp.trace = std::move(traces[0]);
  return cp;
}

AttackCheckpoint read_checkpoint_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("read_checkpoint_file: cannot open " + path);
  return read_checkpoint(f);
}

}  // namespace recon::core
