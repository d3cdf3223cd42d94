// Durable file I/O: the write paths of the library.
//
// Every durable write in src/ goes through this module (tools/lint.py
// rule 10 bans raw std::ofstream / fopen writes elsewhere), in one of two
// shapes. AtomicWriteFile replaces a whole file with the classic
// write-temp → fsync → rename sequence, so a crash at any point leaves
// either the old file or the new file — never a half-written hybrid.
// AppendFile grows a line log in place, so a crash can tear only the last
// line. What CAN still reach a reader is whatever the storage layer did
// to the bytes (torn write inside the temp file, a bit flip at rest, a
// truncated rename target on a broken filesystem); detecting that is the
// checksum layer's job (persist::Checkpoint), not this one's.
//
// WriteInterceptor is the deterministic fault-injection seam: the chaos
// suite's faults::StorageFaultInjector implements it to corrupt payloads
// and fail renames on a seeded schedule, so recovery paths are tested
// against the exact fault taxonomy this module's contract allows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace jarvis::util::io {

// A filesystem operation failed (open/write/fsync/rename/read); the
// message carries the path and the errno text. Distinct from CheckError:
// I/O failure is an environment condition callers are expected to handle
// (retry, degrade), not a programming-contract violation.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// CRC-32 (IEEE 802.3 reflected polynomial 0xEDB88320) over bytes — the
// per-section checksum of the checkpoint format.
std::uint32_t Crc32(const void* data, std::size_t size);
std::uint32_t Crc32(const std::string& bytes);

// Deterministic fault-injection hook for AtomicWriteFile. Production
// writes pass nullptr; chaos tests pass faults::StorageFaultInjector.
class WriteInterceptor {
 public:
  virtual ~WriteInterceptor() = default;

  // Called with the payload about to hit the temp file; may mutate it
  // (torn write, truncation, bit flip). The mutated bytes are what lands
  // on disk AND what rename commits — exactly a storage-layer corruption.
  virtual void OnWrite(const std::string& path, std::string& payload) = 0;

  // Called before the rename step; returning false simulates a crash
  // between the temp-file write and the commit (the temp file is cleaned
  // up and AtomicWriteFile throws IoError; the old target is untouched).
  virtual bool OnRename(const std::string& path) = 0;
};

bool FileExists(const std::string& path);

// mkdir -p. Throws IoError when a component exists as a non-directory or
// creation fails.
void CreateDirectories(const std::string& path);

// Whole file as bytes. Throws IoError when missing/unreadable — a missing
// checkpoint is an expected recovery case, so callers catch this.
std::string ReadFile(const std::string& path);

void RemoveFile(const std::string& path);  // ignores a missing file

// Durable atomic write: <path>.tmp is written and fsynced, then renamed
// over <path> (followed by a best-effort directory fsync so the rename
// itself is durable). Throws IoError on any failure, leaving the previous
// contents of <path> (if any) intact. Not safe for concurrent writers of
// the SAME path (they share the temp name); distinct paths are fine.
void AtomicWriteFile(const std::string& path, const std::string& payload,
                     WriteInterceptor* interceptor = nullptr);

// An append-only line log, opened (and created) with O_APPEND: each
// Append is one write at the end of the file, and no byte already there
// is moved. A crash can tear only the line being written, so
// the first Append of this object to a file whose last byte is not '\n'
// starts a new line: the torn line is lost alone and never merges with
// the next one. Appended bytes survive a crash of the process at once and
// a power loss after Sync. Not synchronized: one writer at a time.
class AppendFile {
 public:
  // Throws IoError when the file cannot be opened or its tail read.
  explicit AppendFile(const std::string& path);
  ~AppendFile();
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  // The file's last '\n'-terminated line, without the '\n' (a torn tail
  // after it is skipped); empty when the file has none. Reads backward
  // from the end only as far as that line starts. Throws IoError.
  std::string LastWholeLine() const;
  // Appends `lines` (whole '\n'-terminated lines). Throws IoError.
  void Append(const std::string& lines);
  // fsync. Throws IoError.
  void Sync();

 private:
  const std::string path_;
  const int fd_;
  // The file may end mid-line: true after open on such a file and after a
  // failed write, which may have landed part of its bytes.
  bool torn_tail_;
};

}  // namespace jarvis::util::io
