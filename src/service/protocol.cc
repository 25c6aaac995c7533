#include "service/protocol.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "service/registry.h"
#include "util/log.h"

namespace recon::service {

namespace {

/// Single-line-safe copy: protocol responses must never embed newlines.
std::string one_line(std::string s) {
  for (char& ch : s) {
    if (ch == '\n' || ch == '\r') ch = ' ';
  }
  return s;
}

std::string render_status(const std::string& id, const CampaignStatus& st) {
  std::ostringstream os;
  os.precision(17);
  os << id << " state=" << to_string(st.state) << " rounds=" << st.rounds
     << " spent=" << st.spent << " benefit=" << st.benefit
     << " trace=" << st.trace_path;
  if (!st.error.empty()) os << " error=\"" << one_line(st.error) << '"';
  return os.str();
}

std::uint64_t parse_u64(const std::string& v, const std::string& key) {
  try {
    std::size_t used = 0;
    const unsigned long long x = std::stoull(v, &used);
    if (used != v.size()) throw std::invalid_argument("junk");
    return x;
  } catch (const std::exception&) {
    throw std::invalid_argument("bad value for " + key + ": '" + v + "'");
  }
}

double parse_f64(const std::string& v, const std::string& key) {
  try {
    std::size_t used = 0;
    const double x = std::stod(v, &used);
    if (used != v.size()) throw std::invalid_argument("junk");
    return x;
  } catch (const std::exception&) {
    throw std::invalid_argument("bad value for " + key + ": '" + v + "'");
  }
}

CampaignSpec parse_submit(std::istringstream& ls) {
  CampaignSpec spec;
  std::string tok;
  while (ls >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("SUBMIT arguments are key=value, got '" +
                                  tok + "'");
    }
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    if (key == "problem") {
      spec.problem = val;
    } else if (key == "strategy") {
      spec.strategy = val;
    } else if (key == "k") {
      spec.batch_size = static_cast<int>(parse_u64(val, key));
    } else if (key == "budget") {
      spec.budget = parse_f64(val, key);
    } else if (key == "seed") {
      spec.seed = parse_u64(val, key);
    } else if (key == "retries") {
      spec.allow_retries = parse_u64(val, key) != 0;
    } else if (key == "scenarios") {
      spec.scenarios = static_cast<std::size_t>(parse_u64(val, key));
    } else if (key == "ckpt-every") {
      spec.checkpoint_every_rounds = parse_u64(val, key);
    } else {
      throw std::invalid_argument("unknown SUBMIT key '" + key + "'");
    }
  }
  if (spec.problem.empty()) {
    throw std::invalid_argument("SUBMIT requires problem=<name>");
  }
  return spec;
}

std::string require_id(std::istringstream& ls, const char* cmd) {
  std::string id;
  if (!(ls >> id)) {
    throw std::invalid_argument(std::string(cmd) + " requires a campaign id");
  }
  return id;
}

}  // namespace

std::string handle_protocol_line(const std::string& line,
                                 CampaignRegistry& registry, bool* shutdown) {
  if (line.empty() || line[0] == '#') return "";
  std::istringstream ls(line);
  std::string cmd;
  ls >> cmd;
  if (cmd.empty()) return "";
  try {
    if (cmd == "SUBMIT") {
      const CampaignSpec spec = parse_submit(ls);
      return "OK " + registry.submit(spec);
    }
    if (cmd == "STATUS") {
      const std::string id = require_id(ls, "STATUS");
      return "OK " + render_status(id, registry.status(id));
    }
    if (cmd == "LIST") {
      std::ostringstream os;
      const auto all = registry.list();
      os << "OK " << all.size();
      for (const auto& [id, st] : all) {
        os << ' ' << id << ':' << to_string(st.state);
      }
      return os.str();
    }
    if (cmd == "PROBLEMS") {
      std::ostringstream os;
      const auto names = registry.problem_names();
      os << "OK " << names.size();
      for (const auto& name : names) os << ' ' << name;
      return os.str();
    }
    if (cmd == "PAUSE") {
      const std::string id = require_id(ls, "PAUSE");
      return registry.pause(id) ? "OK paused " + id
                                : "ERR campaign " + id + " is not pausable";
    }
    if (cmd == "RESUME") {
      const std::string id = require_id(ls, "RESUME");
      return registry.resume(id) ? "OK resumed " + id
                                 : "ERR campaign " + id + " is not paused";
    }
    if (cmd == "CANCEL") {
      const std::string id = require_id(ls, "CANCEL");
      return registry.cancel(id)
                 ? "OK cancelled " + id
                 : "ERR campaign " + id + " is already terminal";
    }
    if (cmd == "WAIT") {
      const std::string id = require_id(ls, "WAIT");
      return "OK " + render_status(id, registry.wait(id));
    }
    if (cmd == "SHUTDOWN") {
      if (shutdown != nullptr) *shutdown = true;
      return "OK bye";
    }
    return "ERR unknown command '" + cmd + "'";
  } catch (const std::exception& e) {
    return "ERR " + one_line(e.what());
  }
}

void run_protocol(std::istream& in, std::ostream& out,
                  CampaignRegistry& registry) {
  std::string line;
  bool shutdown = false;
  while (!shutdown && std::getline(in, line)) {
    const std::string response = handle_protocol_line(line, registry, &shutdown);
    if (response.empty()) continue;
    out << response << '\n';
    out.flush();
  }
}

void serve_unix_socket(const std::string& path, CampaignRegistry& registry) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    throw std::runtime_error("serve_unix_socket: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(listener);
    throw std::runtime_error("serve_unix_socket: path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 8) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listener);
    throw std::runtime_error("serve_unix_socket: bind/listen failed on " +
                             path + ": " + why);
  }
  RECON_LOG(kInfo) << "campaign service listening on " << path;

  bool shutdown = false;
  while (!shutdown) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // One session at a time: read newline-delimited commands, answer each
    // with one line. A control socket sees humans and scripts, not load.
    std::string pending;
    char buf[4096];
    for (;;) {
      const ssize_t got = ::read(conn, buf, sizeof buf);
      if (got <= 0) break;
      pending.append(buf, static_cast<std::size_t>(got));
      std::size_t nl = 0;
      while ((nl = pending.find('\n')) != std::string::npos) {
        std::string line = pending.substr(0, nl);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        pending.erase(0, nl + 1);
        const std::string response =
            handle_protocol_line(line, registry, &shutdown);
        if (!response.empty()) {
          const std::string wire = response + "\n";
          std::size_t off = 0;
          while (off < wire.size()) {
            const ssize_t put = ::write(conn, wire.data() + off,
                                        wire.size() - off);
            if (put <= 0) break;
            off += static_cast<std::size_t>(put);
          }
        }
        if (shutdown) break;
      }
      if (shutdown) break;
    }
    ::close(conn);
  }
  ::close(listener);
  ::unlink(path.c_str());
}

}  // namespace recon::service
