// Declarative fault model (DESIGN.md "Fault model & degradation behavior").
// A FaultSchedule lists independent fault processes — each with a kind, a
// per-event rate, an active time window, and an optional device scope —
// plus one seed. Given the same schedule and the same input stream, the
// injector reproduces the same faults bit for bit, so every chaos run is
// replayable.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/timeofday.h"

namespace jarvis::faults {

enum class FaultKind {
  kDrop,          // event silently lost in transit
  kDuplicate,     // event delivered twice (at-least-once delivery glitch)
  kDelay,         // event arrives late: stream position slips past its
                  // timestamp, so downstream sees an out-of-order straggler
  kReorder,       // event swapped with its successor
  kCorruptField,  // one schema field mangled to garbage
  kDeviceOffline, // a device's events suppressed while the window is active
  kDeviceFlap,    // a device rapidly re-reports its previous value before
                  // the current one (connectivity flapping)
  kStuckSensor,   // sensor reports freeze at the first in-window value
};

std::string FaultKindName(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::kDrop;
  // Per-event Bernoulli probability in [0, 1]; 1.0 makes the fault
  // deterministic within the window (e.g. a hard device outage).
  double rate = 0.0;
  // Active window in absolute simulation minutes, [start, end).
  util::SimTime window_start{0};
  util::SimTime window_end{std::numeric_limits<std::int64_t>::max()};
  // Device scope for device-level faults; "" matches every device.
  std::string device_label;
  int delay_minutes = 5;    // kDelay: how late the event arrives
  std::string stuck_value;  // kStuckSensor: forced value ("" = first seen)

  bool AppliesAt(util::SimTime t) const {
    return t >= window_start && t < window_end;
  }
  bool AppliesTo(const std::string& device) const {
    return device_label.empty() || device_label == device;
  }
};

struct FaultSchedule {
  std::vector<FaultSpec> specs;
  std::uint64_t seed = 0;

  bool empty() const { return specs.empty(); }
};

// Counts of faults actually injected, by kind — the ground truth the chaos
// suite checks core::HealthReport counters against.
struct FaultCounters {
  std::size_t dropped = 0;
  std::size_t duplicated = 0;        // extra copies emitted
  std::size_t delayed = 0;
  std::size_t reordered = 0;         // swaps performed
  std::size_t corrupted = 0;
  std::size_t offline_drops = 0;
  std::size_t flap_reports = 0;      // extra contradictory reports emitted
  std::size_t stuck_reports = 0;     // reports rewritten to the stuck value

  std::size_t total() const {
    return dropped + duplicated + delayed + reordered + corrupted +
           offline_drops + flap_reports + stuck_reports;
  }
  bool operator==(const FaultCounters&) const = default;
};

}  // namespace jarvis::faults
