// Versioned, checksummed checkpoint container — the durable form of every
// piece of learned state in the library (DESIGN.md §14).
//
// Layout (all integers little-endian):
//
//   magic   "JVCK"                     4 bytes
//   u32     format version             kFormatVersion
//   u32     section count
//   per section:
//     u32   name length, name bytes    (e.g. "spl", "dqn", "monitor")
//     u64   payload length
//     u32   CRC-32 of the payload
//     payload bytes                    (one serialized JSON document)
//
// The container is deliberately dumb: sections are opaque byte payloads
// whose meaning belongs to their owners (spl::SafetyPolicyLearner JSON,
// rl::DqnAgent JSON, core::OnlineMonitor JSON). What the container owns is
// INTEGRITY: Parse() never trusts a byte it cannot verify, and it salvages
// per section rather than per file —
//
//   * bad magic / version skew      -> nothing recovered, issue reported;
//   * truncated file                -> sections wholly before the cut are
//                                      recovered, the rest reported;
//   * bit flip inside a payload     -> that section's CRC fails and it is
//                                      dropped, every other section kept;
//   * absurd section header         -> parsing stops there (lengths after
//                                      a corrupt header are meaningless).
//
// Parse() therefore never throws: corruption is data, not a programming
// error, and the caller decides per section how to degrade (keep the valid
// P_safe, cold-start the DQN, put the monitor in deny-unsafe mode).
//
// File I/O goes through util::io — WriteFile commits with the atomic
// write-temp → fsync → rename path and accepts the storage-fault
// interceptor so the chaos suite can corrupt checkpoints deterministically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/io.h"

namespace jarvis::persist {

inline constexpr char kMagic[4] = {'J', 'V', 'C', 'K'};
// v2: tensors inside the sections are f64le (neural/serialize.h). A v1
// file (decimal tensors) is refused whole as version skew.
inline constexpr std::uint32_t kFormatVersion = 2;

// One thing Parse() could not recover, and why. `section` is empty for
// file-level problems (bad magic, version skew, truncation of a header).
struct CheckpointIssue {
  std::string section;
  std::string detail;
  // Sections this issue lost: 0 for a diagnostic that lost no data
  // (trailing bytes after the last section, which are ignored); count - i
  // when parsing stops early at section i of the header's count.
  std::size_t sections_lost = 1;
};

std::string FormatIssues(const std::vector<CheckpointIssue>& issues);

class Checkpoint {
 public:
  // Adds (or replaces) a named section. Order of first addition is
  // preserved by Serialize.
  void AddSection(const std::string& name, std::string payload);

  bool HasSection(const std::string& name) const;
  // Null when absent. The pointer is invalidated by AddSection.
  const std::string* FindSection(const std::string& name) const;
  std::size_t section_count() const { return sections_.size(); }

  std::string Serialize() const;

  // Salvages whatever verifies from `bytes`; anything lost is explained in
  // `issues` (optional). Never throws: a checkpoint that fails every check
  // parses as an empty container plus issues.
  static Checkpoint Parse(const std::string& bytes,
                          std::vector<CheckpointIssue>* issues = nullptr);

  // Atomic durable write via util::io::AtomicWriteFile. Throws
  // util::io::IoError on filesystem failure (callers may retry the
  // write); `interceptor` is the chaos-suite fault seam.
  void WriteFile(const std::string& path,
                 util::io::WriteInterceptor* interceptor = nullptr) const;

  // ReadFile throws util::io::IoError when the file is missing/unreadable
  // (the "missing checkpoint" recovery case); otherwise parses leniently
  // like Parse.
  static Checkpoint ReadFile(const std::string& path,
                             std::vector<CheckpointIssue>* issues = nullptr);

 private:
  // Ordered (name, payload) pairs; names are unique.
  std::vector<std::pair<std::string, std::string>> sections_;
};

}  // namespace jarvis::persist
