#include "util/mmap_file.h"

#include <cstdio>
#include <stdexcept>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define RECON_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace recon::util {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("MappedFile: " + what + ": " + path);
}

#if !RECON_HAVE_MMAP
/// Non-POSIX path: the whole file in a heap buffer. The buffer is leaked
/// into the MappedFile's data pointer and reclaimed in the destructor via
/// delete[].
const std::byte* read_whole_file(const std::string& path, std::size_t& size) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) fail(path, "cannot open");
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  if (end < 0) {
    std::fclose(f);
    fail(path, "cannot stat");
  }
  size = static_cast<std::size_t>(end);
  std::fseek(f, 0, SEEK_SET);
  auto* buf = new std::byte[size == 0 ? 1 : size];
  const std::size_t got = std::fread(buf, 1, size, f);
  std::fclose(f);
  if (got != size) {
    delete[] buf;
    fail(path, "short read");
  }
  return buf;
}
#endif

}  // namespace

std::shared_ptr<const MappedFile> MappedFile::open(const std::string& path) {
#if RECON_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, "cannot open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(path, "cannot stat");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  const std::byte* data = nullptr;
  if (size > 0) {
    void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      ::close(fd);
      fail(path, "mmap failed");
    }
    data = static_cast<const std::byte*>(p);
  }
  ::close(fd);  // the mapping keeps its own reference to the pages
  return std::shared_ptr<const MappedFile>(
      new MappedFile(path, data, size, /*mapped=*/true));
#else
  std::size_t size = 0;
  const std::byte* data = read_whole_file(path, size);
  return std::shared_ptr<const MappedFile>(
      new MappedFile(path, data, size, /*mapped=*/false));
#endif
}

MappedFile::~MappedFile() {
  if (data_ == nullptr) return;
#if RECON_HAVE_MMAP
  if (mapped_) {
    ::munmap(const_cast<std::byte*>(data_), size_);
    return;
  }
#endif
  delete[] data_;
}

void MappedFile::check_range(std::size_t offset, std::size_t count,
                             std::size_t elem_size, std::size_t align) const {
  // Overflow-safe: check count against the remaining bytes via division.
  if (offset > size_ || (align != 0 && offset % align != 0) ||
      (elem_size != 0 && count > (size_ - offset) / elem_size)) {
    throw std::out_of_range(
        "MappedFile: section [" + std::to_string(offset) + " + " +
        std::to_string(count) + " x " + std::to_string(elem_size) +
        "] escapes or misaligns the " + std::to_string(size_) + "-byte file " +
        path_);
  }
}

}  // namespace recon::util
