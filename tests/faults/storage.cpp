#include "storage.h"

#include <stdexcept>

namespace jarvis::faults {

namespace {

bool Applies(const StorageFaultSpec& spec, const std::string& path) {
  return spec.path_substring.empty() ||
         path.find(spec.path_substring) != std::string::npos;
}

std::size_t KeptBytes(const StorageFaultSpec& spec, std::size_t size) {
  double fraction = spec.keep_fraction;
  if (fraction < 0.0) fraction = 0.0;
  if (fraction > 1.0) fraction = 1.0;
  return static_cast<std::size_t>(fraction * static_cast<double>(size));
}

}  // namespace

std::string StorageFaultKindName(StorageFaultKind kind) {
  switch (kind) {
    case StorageFaultKind::kTornWrite:
      return "torn-write";
    case StorageFaultKind::kTruncation:
      return "truncation";
    case StorageFaultKind::kBitFlip:
      return "bit-flip";
    case StorageFaultKind::kRenameFail:
      return "rename-fail";
  }
  throw std::logic_error("unknown storage fault kind");
}

StorageFaultCounters& StorageFaultCounters::operator+=(
    const StorageFaultCounters& other) {
  torn_writes += other.torn_writes;
  truncations += other.truncations;
  bit_flips += other.bit_flips;
  rename_failures += other.rename_failures;
  return *this;
}

StorageFaultInjector::StorageFaultInjector(
    std::vector<StorageFaultSpec> specs, std::uint64_t seed)
    : specs_(std::move(specs)), rng_(seed) {
  for (const StorageFaultSpec& spec : specs_) {
    if (spec.rate < 0.0 || spec.rate > 1.0) {
      throw std::invalid_argument(
          "StorageFaultInjector: rate outside [0, 1]");
    }
  }
}

void StorageFaultInjector::Reseed(std::uint64_t seed) {
  rng_ = util::Rng(seed);
}

void StorageFaultInjector::OnWrite(const std::string& path,
                                   std::string& payload) {
  for (const StorageFaultSpec& spec : specs_) {
    if (spec.kind == StorageFaultKind::kRenameFail) continue;
    if (!Applies(spec, path)) continue;
    // Draw even when the payload is empty so the decision stream is a
    // function of the write sequence alone.
    const bool fire = rng_.NextDouble() < spec.rate;
    if (!fire || payload.empty()) continue;
    switch (spec.kind) {
      case StorageFaultKind::kTornWrite: {
        // The tail of the write never hit the platter: length preserved,
        // bytes past the tear read back as zeros.
        const std::size_t kept = KeptBytes(spec, payload.size());
        for (std::size_t i = kept; i < payload.size(); ++i) payload[i] = 0;
        ++counters_.torn_writes;
        break;
      }
      case StorageFaultKind::kTruncation:
        payload.resize(KeptBytes(spec, payload.size()));
        ++counters_.truncations;
        break;
      case StorageFaultKind::kBitFlip: {
        const int flips = spec.bit_flips < 1 ? 1 : spec.bit_flips;
        for (int i = 0; i < flips; ++i) {
          const std::size_t byte = static_cast<std::size_t>(
              rng_.NextU64() % payload.size());
          const int bit = static_cast<int>(rng_.NextU64() % 8);
          payload[byte] = static_cast<char>(
              static_cast<unsigned char>(payload[byte]) ^ (1u << bit));
        }
        ++counters_.bit_flips;
        break;
      }
      case StorageFaultKind::kRenameFail:
        break;  // handled in OnRename
    }
  }
}

bool StorageFaultInjector::OnRename(const std::string& path) {
  for (const StorageFaultSpec& spec : specs_) {
    if (spec.kind != StorageFaultKind::kRenameFail) continue;
    if (!Applies(spec, path)) continue;
    if (rng_.NextDouble() < spec.rate) {
      ++counters_.rename_failures;
      return false;
    }
  }
  return true;
}

}  // namespace jarvis::faults
