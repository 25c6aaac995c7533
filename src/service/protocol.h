// Line-oriented control protocol for the campaign service.
//
// One command per line, one response line per command (responses never
// contain embedded newlines). Grammar:
//
//   SUBMIT problem=<name> [strategy=pm|mip|fallback] [k=<int>]
//          [budget=<double>] [seed=<u64>] [retries=0|1]
//          [scenarios=<n>] [ckpt-every=<n>]
//                                  -> OK <campaign-id>
//   STATUS <id>                    -> OK <id> state=... rounds=... spent=...
//                                       benefit=... trace=... [error="..."]
//   LIST                           -> OK <n> [<id>:<state> ...]
//   PROBLEMS                       -> OK <n> [<name> ...]
//   PAUSE <id>                     -> OK paused <id>   | ERR not pausable
//   RESUME <id>                    -> OK resumed <id>  | ERR not paused
//   CANCEL <id>                    -> OK cancelled <id>| ERR already terminal
//   WAIT <id>                      -> OK <id> state=... (blocks the loop
//                                     until the campaign settles)
//   SHUTDOWN                       -> OK bye (ends the session)
//
// Empty lines and lines starting with '#' are ignored. Any registry error
// (unknown id, bad spec) comes back as a single `ERR <reason>` line — the
// session survives bad commands.
#pragma once

#include <iosfwd>
#include <string>

namespace recon::service {

class CampaignRegistry;

/// Handles one protocol line; returns the single response line (without a
/// trailing newline), or an empty string for ignorable input. Sets
/// `*shutdown` when the line was SHUTDOWN.
std::string handle_protocol_line(const std::string& line,
                                 CampaignRegistry& registry, bool* shutdown);

/// Reads commands from `in` until EOF or SHUTDOWN, writing one response
/// line per command to `out` (flushed per line). This is `recon serve`'s
/// stdin mode and the unit-testable core of the socket mode.
void run_protocol(std::istream& in, std::ostream& out,
                  CampaignRegistry& registry);

/// Binds a local (AF_UNIX) stream socket at `path` (unlinking any stale
/// file first) and serves connections one at a time until a session issues
/// SHUTDOWN. The socket file is unlinked on return. Throws
/// std::runtime_error on socket errors.
void serve_unix_socket(const std::string& path, CampaignRegistry& registry);

}  // namespace recon::service
