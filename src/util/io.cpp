#include "util/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace jarvis::util::io {

namespace {

std::string ErrnoText(int err) {
  return std::error_code(err, std::generic_category()).message();
}

[[noreturn]] void ThrowIo(const std::string& op, const std::string& path,
                          int err) {
  throw IoError(op + " failed for '" + path + "': " + ErrnoText(err));
}

constexpr std::array<std::uint32_t, 256> MakeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[n] = c;
  }
  return table;
}

// RAII fd so every error path closes.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_;
};

void WriteAll(int fd, const std::string& path, const std::string& payload) {
  std::size_t written = 0;
  while (written < payload.size()) {
    const ::ssize_t n =
        ::write(fd, payload.data() + written, payload.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowIo("write", path, errno);
    }
    written += static_cast<std::size_t>(n);
  }
}

// Best effort: directory fsync makes the rename itself durable, but some
// filesystems refuse fsync on directory fds — never fail the write on it.
void FsyncDirOf(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size) {
  static constexpr std::array<std::uint32_t, 256> kTable = MakeCrcTable();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32(const std::string& bytes) {
  return Crc32(bytes.data(), bytes.size());
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

void CreateDirectories(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    throw IoError("create_directories failed for '" + path +
                  "': " + ec.message());
  }
}

std::string ReadFile(const std::string& path) {
  Fd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) ThrowIo("open", path, errno);
  std::string out;
  std::array<char, 1 << 16> buffer;
  for (;;) {
    const ::ssize_t n = ::read(fd.get(), buffer.data(), buffer.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowIo("read", path, errno);
    }
    if (n == 0) break;
    out.append(buffer.data(), static_cast<std::size_t>(n));
  }
  return out;
}

void RemoveFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

void AtomicWriteFile(const std::string& path, const std::string& payload,
                     WriteInterceptor* interceptor) {
  const std::string tmp = path + ".tmp";
  std::string bytes = payload;
  if (interceptor != nullptr) interceptor->OnWrite(path, bytes);
  {
    Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    if (fd.get() < 0) ThrowIo("open", tmp, errno);
    try {
      WriteAll(fd.get(), tmp, bytes);
      if (::fsync(fd.get()) != 0) ThrowIo("fsync", tmp, errno);
    } catch (...) {
      RemoveFile(tmp);
      throw;
    }
  }
  if (interceptor != nullptr && !interceptor->OnRename(path)) {
    RemoveFile(tmp);
    throw IoError("rename failed for '" + path + "': injected storage fault");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    RemoveFile(tmp);
    ThrowIo("rename", path, err);
  }
  FsyncDirOf(path);
}

AppendFile::AppendFile(const std::string& path)
    : path_(path),
      fd_(::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644)),
      torn_tail_(false) {
  if (fd_ < 0) ThrowIo("open", path_, errno);
  struct stat info;
  char last = '\n';
  if (::fstat(fd_, &info) != 0 ||
      (info.st_size > 0 && ::pread(fd_, &last, 1, info.st_size - 1) != 1)) {
    const int err = errno;
    ::close(fd_);
    ThrowIo("read tail", path_, err);
  }
  torn_tail_ = last != '\n';
}

AppendFile::~AppendFile() { ::close(fd_); }

void AppendFile::Append(const std::string& lines) {
  const bool torn = torn_tail_;
  torn_tail_ = true;  // until the write below lands whole
  WriteAll(fd_, path_, torn ? "\n" + lines : lines);
  torn_tail_ = false;
}

void AppendFile::Sync() {
  if (::fsync(fd_) != 0) ThrowIo("fsync", path_, errno);
}

}  // namespace jarvis::util::io
