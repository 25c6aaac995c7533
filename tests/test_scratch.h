// Per-process scratch directory for tests that write files.
//
// ctest runs every gtest case as its own process, and `ctest -j` runs those
// processes concurrently, so a fixed path such as a checkpoint file under
// the system temp directory is shared by racing cases: one case truncates
// or deletes the file another is reading. scratch_path() instead places
// every file in a directory private to this process, made with mkdtemp
// under $TMPDIR (std::filesystem::temp_directory_path) on first use and
// removed when the process exits. tools/lint_invariants.py rejects
// hard-coded temp-directory literals under tests/ so new tests use this.
#pragma once

#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

namespace recon::test {

class ScratchDir {
 public:
  ScratchDir() : owner_(::getpid()) {
    const std::string tmpl =
        (std::filesystem::temp_directory_path() / "recon_test_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      throw std::runtime_error("ScratchDir: mkdtemp failed under " + tmpl);
    }
    path_ = buf.data();
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    // A forked child that exits normally must not delete its parent's files.
    if (::getpid() != owner_) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  const std::string& path() const noexcept { return path_; }

 private:
  pid_t owner_;
  std::string path_;
};

/// This process's scratch directory (created on first use).
inline const std::string& scratch_dir() {
  static const ScratchDir dir;
  return dir.path();
}

/// `name` inside this process's scratch directory.
inline std::string scratch_path(const std::string& name) {
  return scratch_dir() + "/" + name;
}

}  // namespace recon::test
