#include "util/io.h"

#include <cstdio>
#include <utility>

#include "util/fault_injection.h"

#if defined(__unix__) || defined(__APPLE__)
#define PGM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace pgm {

StatusOr<MmapFile> MmapFile::Open(const std::string& path) {
  if (internal::ShouldFailOpen(path)) {
    return Status::IoError("cannot open (injected fault): " + path);
  }
  MmapFile file;
  file.path_ = path;
#if PGM_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IoError("cannot stat regular file: " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base == MAP_FAILED) {
      ::close(fd);
      return Status::IoError("cannot mmap: " + path);
    }
    file.mapped_ = base;
    file.mapped_size_ = size;
    file.data_ = static_cast<const char*>(base);
    file.size_ = size;
  }
  ::close(fd);
#else
  StatusOr<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  file.fallback_ = *std::move(contents);
  file.data_ = file.fallback_.data();
  file.size_ = file.fallback_.size();
  return file;  // ReadFileToString already applied any read fault.
#endif
  // Same observable fault semantics as ReadFileToString: kReadError clamps
  // the visible bytes then fails loudly; kTruncate clamps silently.
  std::size_t visible = file.size_;
  const Status fault = internal::ApplyReadFaultToSize(path, &visible);
  file.size_ = visible;
  if (!fault.ok()) return fault;
  return file;
}

MmapFile::~MmapFile() { Release(); }

MmapFile::MmapFile(MmapFile&& other) noexcept { StealFrom(other); }

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    Release();
    StealFrom(other);
  }
  return *this;
}

void MmapFile::Release() {
#if PGM_HAVE_MMAP
  if (mapped_ != nullptr) {
    // Unmap cannot fail for a mapping we own; nothing actionable if it did.
    (void)::munmap(mapped_, mapped_size_);
  }
#endif
  mapped_ = nullptr;
  mapped_size_ = 0;
  data_ = "";
  size_ = 0;
  fallback_.clear();
  path_.clear();
}

void MmapFile::StealFrom(MmapFile& other) {
  path_ = std::move(other.path_);
  mapped_ = other.mapped_;
  mapped_size_ = other.mapped_size_;
  size_ = other.size_;
  fallback_ = std::move(other.fallback_);
  // The fallback string's buffer may move with it; re-anchor the view.
  data_ = mapped_ != nullptr ? static_cast<const char*>(mapped_)
          : size_ > 0       ? fallback_.data()
                            : "";
  other.mapped_ = nullptr;
  other.mapped_size_ = 0;
  other.data_ = "";
  other.size_ = 0;
  other.fallback_.clear();
  other.path_.clear();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  if (internal::ShouldFailOpen(path)) {
    return Status::IoError("cannot open (injected fault): " + path);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open: " + path);
  }
  std::string contents;
  char buffer[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IoError("error while reading: " + path);
  }
  PGM_RETURN_IF_ERROR(internal::ApplyReadFault(path, &contents));
  return contents;
}

StatusOr<std::string> ReadFileToStringWithRetry(const std::string& path,
                                                const RetryPolicy& policy) {
  return RetryTransient(policy, [&] { return ReadFileToString(path); });
}

RetryPolicy DefaultReadRetryPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_delay_ms = 1;
  policy.multiplier = 2.0;
  policy.max_delay_ms = 50;
  return policy;
}

Status WriteStringToFile(const std::string& path,
                         const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  const std::size_t written =
      contents.empty() ? 0 : std::fwrite(contents.data(), 1, contents.size(), f);
  const bool write_error = written != contents.size();
  if (std::fclose(f) != 0 || write_error) {
    return Status::IoError("error while writing: " + path);
  }
  return Status::OK();
}

}  // namespace pgm
