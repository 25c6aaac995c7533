// Checkpoint generation chains — rotated, checksummed snapshots with
// last-good recovery.
//
// A single checkpoint file answers "where was I?" but not "can I trust
// this?": a crash mid-publish, a torn disk write, or bit rot leaves the
// resume path with exactly one snapshot and no fallback. A chain keeps the
// last N generations:
//
//   <base>.gen-0        oldest retained generation
//   <base>.gen-1
//   <base>.gen-2        newest generation
//   <base>.manifest     index of live generations (informational)
//
// Each generation is a complete `#recon-checkpoint` document followed by a
// trailing whole-file checksum footer (byte-wise FNV-1a over everything
// before the footer line, the same prime/offset scheme as the graph binary
// format):
//
//   #recon-ckpt-footer fnv=<16 hex digits>
//
// Generations are published atomically (tmp + util::durable_rename), so a
// crash at any instrumented point leaves either no new generation or a
// complete one. load_last_good() walks generations newest to oldest,
// verifying footer and parse; a generation that fails verification is
// renamed to `<file>.quarantine` — never silently deleted — and skipped.
// Quarantined files are ignored by all subsequent scans, so recovery is
// deterministic: the same directory state always resumes from the same
// snapshot.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.h"

namespace recon::core {

struct CheckpointChainOptions {
  /// Live generations retained after each write (older ones are pruned,
  /// quarantined files are never touched). Must be >= 1.
  std::size_t max_generations = 3;
};

/// A generation that passed footer + parse verification.
struct LoadedGeneration {
  AttackCheckpoint checkpoint;
  std::uint64_t generation = 0;  ///< index parsed from the file name
  std::string path;
  /// Files quarantined while walking the chain during this load.
  std::size_t quarantined = 0;
};

/// Appends the chain footer line to the serialized checkpoint document
/// `doc` in place and returns the FNV-1a of the whole framed bytes (the
/// hash a manifest row lists).
std::uint64_t frame_generation(std::string& doc);

/// Verifies the footer frame and returns the enclosed document. Throws
/// std::runtime_error naming the defect (missing footer, checksum
/// mismatch) — the caller decides whether that means quarantine.
std::string unframe_generation(const std::string& bytes);

class CheckpointChain {
 public:
  /// `base_path` names the chain; generation files live beside it as
  /// `<base_path>.gen-N`. Throws std::invalid_argument when the directory
  /// does not exist or max_generations is 0.
  explicit CheckpointChain(std::string base_path,
                           CheckpointChainOptions options = {});

  const std::string& base_path() const { return base_; }
  std::string generation_path(std::uint64_t gen) const;
  std::string manifest_path() const { return base_ + ".manifest"; }

  /// Publishes `cp` as the next generation (atomic + durable), rewrites the
  /// manifest, and prunes generations beyond max_generations. Generation
  /// indices are recomputed from the directory on every call, so forked
  /// workers sharing one chain never collide. Returns the new index.
  std::uint64_t write(const AttackCheckpoint& cp);

  /// Newest generation that verifies (footer checksum + full parse).
  /// Corrupt or torn generations are quarantined with a logged reason and
  /// skipped; returns nullopt when no generation survives.
  std::optional<LoadedGeneration> load_last_good();

  /// Live (non-quarantined) generation indices, ascending. Purely a
  /// directory scan — the manifest is informational.
  std::vector<std::uint64_t> list_generations() const;

  /// Bytes the manifest rewrites have read back from disk: only generations
  /// this object did not publish itself are read and re-hashed. Stays 0 for
  /// a chain with a single writer.
  std::uint64_t manifest_readback_bytes() const noexcept { return readback_bytes_; }

 private:
  /// Whole-file hash and size of a published generation (a manifest row).
  struct GenerationDigest {
    std::uint64_t fnv = 0;
    std::size_t bytes = 0;
  };

  std::string base_;
  CheckpointChainOptions options_;
  /// Digests of the kept generations this object published, by index.
  /// Generation files are never rewritten in place and indices only grow
  /// while any chain file remains, so a digest describes its file for as
  /// long as the file is live. A wiped and refilled chain can reuse an
  /// index; the manifest then re-reads any remembered generation whose size
  /// on disk differs. A same-size replacement is not detected — harmless,
  /// since the manifest is informational and recovery trusts the scan.
  std::map<std::uint64_t, GenerationDigest> published_;
  std::uint64_t readback_bytes_ = 0;
};

}  // namespace recon::core
