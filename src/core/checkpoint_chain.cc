#include "core/checkpoint_chain.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/crashpoint.h"
#include "util/fs.h"
#include "util/log.h"

namespace recon::core {

namespace {

constexpr const char kFooterPrefix[] = "#recon-ckpt-footer fnv=";
constexpr std::size_t kFooterHexDigits = 16;
constexpr const char kManifestHeader[] = "#recon-ckpt-manifest v1";
constexpr const char kQuarantineSuffix[] = ".quarantine";

std::string to_hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return s;
}

/// Footer line length: prefix + 16 hex digits + '\n'.
constexpr std::size_t kFooterLen = sizeof(kFooterPrefix) - 1 + kFooterHexDigits + 1;

/// Parses the trailing decimal generation index of `name` after
/// `prefix` ("<basename>.gen-"); npos-style nullopt when it is not a live
/// generation file.
std::optional<std::uint64_t> parse_generation(const std::string& name,
                                              const std::string& prefix) {
  if (name.size() <= prefix.size() || name.rfind(prefix, 0) != 0) {
    return std::nullopt;
  }
  std::uint64_t gen = 0;
  for (std::size_t i = prefix.size(); i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    gen = gen * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return gen;
}

/// True when `name` is a quarantined (or tmp) relative of the chain —
/// anything with the generation prefix that is not a live generation.
bool is_chain_relative(const std::string& name, const std::string& prefix) {
  return name.rfind(prefix, 0) == 0;
}

}  // namespace

std::uint64_t frame_generation(std::string& doc) {
  // FNV-1a is a running hash: the body's hash is continued over the footer
  // rather than hashing the body a second time.
  const std::size_t body = doc.size();
  const std::uint64_t h = util::fnv1a64(doc.data(), body);
  doc += kFooterPrefix;
  doc += to_hex16(h);
  doc += '\n';
  return util::fnv1a64(doc.data() + body, kFooterLen, h);
}

std::string unframe_generation(const std::string& bytes) {
  if (bytes.size() < kFooterLen || bytes.back() != '\n') {
    throw std::runtime_error("generation footer missing (file torn?)");
  }
  const std::size_t footer_start = bytes.size() - kFooterLen;
  if (footer_start != 0 && bytes[footer_start - 1] != '\n') {
    throw std::runtime_error("generation footer not on its own line");
  }
  if (bytes.compare(footer_start, sizeof(kFooterPrefix) - 1, kFooterPrefix) !=
      0) {
    throw std::runtime_error("generation footer missing (file torn?)");
  }
  std::uint64_t want = 0;
  for (std::size_t i = 0; i < kFooterHexDigits; ++i) {
    const char c = bytes[footer_start + sizeof(kFooterPrefix) - 1 + i];
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') nibble = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') nibble = static_cast<std::uint64_t>(c - 'a') + 10;
    else throw std::runtime_error("generation footer checksum is not hex");
    want = (want << 4) | nibble;
  }
  const std::uint64_t got = util::fnv1a64(bytes.data(), footer_start);
  if (got != want) {
    throw std::runtime_error("generation checksum mismatch (want " +
                             to_hex16(want) + ", got " + to_hex16(got) + ")");
  }
  return bytes.substr(0, footer_start);
}

CheckpointChain::CheckpointChain(std::string base_path,
                                 CheckpointChainOptions options)
    : base_(std::move(base_path)), options_(options) {
  if (base_.empty()) {
    throw std::invalid_argument("CheckpointChain: base path is empty");
  }
  if (options_.max_generations == 0) {
    throw std::invalid_argument("CheckpointChain: max_generations must be >= 1");
  }
  const std::string dir = util::parent_dir(base_);
  if (!util::directory_exists(dir)) {
    throw std::invalid_argument("CheckpointChain: directory '" + dir +
                                "' does not exist; create it first");
  }
}

std::string CheckpointChain::generation_path(std::uint64_t gen) const {
  return base_ + ".gen-" + std::to_string(gen);
}

std::vector<std::uint64_t> CheckpointChain::list_generations() const {
  const std::string dir = util::parent_dir(base_);
  const std::string prefix =
      std::filesystem::path(base_).filename().string() + ".gen-";
  std::vector<std::uint64_t> gens;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const auto gen = parse_generation(entry.path().filename().string(), prefix);
    if (gen.has_value()) gens.push_back(*gen);
  }
  // directory_iterator order is filesystem-dependent; sorting keeps every
  // chain walk deterministic.
  std::sort(gens.begin(), gens.end());
  return gens;
}

std::uint64_t CheckpointChain::write(const AttackCheckpoint& cp) {
  // Recompute the next index from disk: a restarted (forked) worker may hold
  // a stale in-memory copy of the chain, and quarantined generations must
  // never be overwritten. Quarantine/tmp relatives share the prefix, so
  // their embedded index is skipped too. The same single scan collects the
  // live generations; the one published below is appended after its rename.
  // A generation another writer publishes meanwhile is missed by this
  // write's manifest and prune, and picked up by the next write: the
  // manifest is informational, and recovery trusts a fresh scan.
  const std::string dir = util::parent_dir(base_);
  const std::string prefix =
      std::filesystem::path(base_).filename().string() + ".gen-";
  std::uint64_t next = 0;
  std::vector<std::uint64_t> gens;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!is_chain_relative(name, prefix)) continue;
    std::uint64_t gen = 0;
    bool any_digit = false;
    for (std::size_t i = prefix.size(); i < name.size(); ++i) {
      const char c = name[i];
      if (c < '0' || c > '9') break;
      gen = gen * 10 + static_cast<std::uint64_t>(c - '0');
      any_digit = true;
    }
    if (any_digit && gen + 1 > next) next = gen + 1;
    if (const auto live = parse_generation(name, prefix)) gens.push_back(*live);
  }
  // directory_iterator order is filesystem-dependent; sorting keeps the
  // manifest and the prune order deterministic.
  std::sort(gens.begin(), gens.end());

  // Indices only grow while any chain file remains, so a remembered
  // generation at or past `next` had its files removed: forget it.
  published_.erase(published_.lower_bound(next), published_.end());

  std::string framed = encode_checkpoint(cp);
  const std::uint64_t framed_fnv = frame_generation(framed);

  const std::string path = generation_path(next);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary);
    if (!f) {
      throw std::runtime_error("CheckpointChain: cannot open " + tmp);
    }
    RECON_CRASH_POINT("chain.tmp-open");
    // Flush after the first line so a kill at the torn point leaves a
    // deterministic prefix on disk (header only, no footer).
    const std::size_t first_line = framed.find('\n') + 1;
    f.write(framed.data(), static_cast<std::streamsize>(first_line));
    f.flush();
    RECON_CRASH_POINT("chain.tmp-torn");
    f.write(framed.data() + first_line,
            static_cast<std::streamsize>(framed.size() - first_line));
    f.flush();
    if (!f) {
      throw std::runtime_error("CheckpointChain: write failed: " + tmp);
    }
  }
  RECON_CRASH_POINT("chain.tmp-written");
  util::durable_rename(tmp, path);
  published_[next] = {framed_fnv, framed.size()};
  RECON_CRASH_POINT("chain.gen-published");

  // The kept set after this write: the newest max_generations live files.
  gens.push_back(next);  // above every index the scan saw
  std::vector<std::uint64_t> kept = gens;
  if (kept.size() > options_.max_generations) {
    kept.erase(kept.begin(),
               kept.end() - static_cast<std::ptrdiff_t>(options_.max_generations));
  }

  // Manifest lists the kept generations (written before pruning so a crash
  // between the two leaves only extra files, never a manifest pointing at
  // missing ones). It is informational — recovery trusts the scan. Hashes
  // of generations this object published come from the bytes it wrote;
  // generations another writer published, and remembered ones whose file
  // size no longer matches (the chain was wiped and refilled), are read
  // back from disk.
  if (!kept.empty()) {
    published_.erase(published_.begin(), published_.lower_bound(kept.front()));
  }
  std::string text = kManifestHeader;
  text += '\n';
  for (const std::uint64_t g : kept) {
    const std::string gpath = generation_path(g);
    const auto it = published_.find(g);
    std::error_code ec;
    GenerationDigest digest;
    if (it != published_.end() &&
        std::filesystem::file_size(gpath, ec) == it->second.bytes && !ec) {
      digest = it->second;
    } else {
      const std::string bytes = util::read_file_bytes(gpath);
      readback_bytes_ += bytes.size();
      digest = {util::fnv1a64(bytes.data(), bytes.size()), bytes.size()};
    }
    text += "gen " + std::to_string(g) + " fnv=" + to_hex16(digest.fnv) +
            " bytes=" + std::to_string(digest.bytes) + '\n';
  }
  text += "end " + std::to_string(kept.size()) + '\n';
  const std::string mtmp = manifest_path() + ".tmp";
  {
    std::ofstream f(mtmp, std::ios::binary);
    if (!f) {
      throw std::runtime_error("CheckpointChain: cannot open " + mtmp);
    }
    f.write(text.data(), static_cast<std::streamsize>(text.size()));
    f.flush();
    if (!f) {
      throw std::runtime_error("CheckpointChain: write failed: " + mtmp);
    }
  }
  util::durable_rename(mtmp, manifest_path());
  RECON_CRASH_POINT("chain.manifest-written");

  for (std::size_t i = 0; i + options_.max_generations < gens.size(); ++i) {
    const std::string old = generation_path(gens[i]);
    if (std::remove(old.c_str()) != 0) {
      RECON_LOG(kWarn) << "CheckpointChain: could not prune " << old;
    }
  }
  if (gens.size() > options_.max_generations) {
    // Make the deletions themselves durable.
    util::fsync_parent_dir(base_);
  }
  RECON_CRASH_POINT("chain.pruned");
  return next;
}

std::optional<LoadedGeneration> CheckpointChain::load_last_good() {
  std::vector<std::uint64_t> gens = list_generations();
  std::size_t quarantined = 0;
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    const std::string path = generation_path(*it);
    try {
      const std::string body = unframe_generation(util::read_file_bytes(path));
      std::istringstream in(body);
      LoadedGeneration loaded;
      loaded.checkpoint = read_checkpoint(in);
      loaded.generation = *it;
      loaded.path = path;
      loaded.quarantined = quarantined;
      RECON_LOG(kInfo) << "CheckpointChain: resuming from " << path
                       << " (round " << loaded.checkpoint.round << ")";
      return loaded;
    } catch (const std::exception& e) {
      // Quarantine, never delete: the operator can inspect the corpse. The
      // rename is durable so the bad file cannot reappear as a live
      // generation after a crash.
      const std::string dest = path + kQuarantineSuffix;
      RECON_LOG(kWarn) << "CheckpointChain: quarantining " << path << " -> "
                       << dest << ": " << e.what();
      util::durable_rename(path, dest);
      ++quarantined;
    }
  }
  return std::nullopt;
}

}  // namespace recon::core
