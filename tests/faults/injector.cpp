#include "injector.h"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "util/rng.h"

namespace jarvis::faults {

namespace {

constexpr std::uint64_t kInjectorSalt = 0xfa17ULL;

// Mangles one field chosen by the RNG. The garbage strings are valid UTF-8
// but outside every device vocabulary, so downstream stages classify them
// as unknown rather than crashing.
void CorruptField(util::Rng& rng, events::Event* event) {
  switch (rng.NextIndex(3)) {
    case 0:
      event->attribute_value = "??corrupt??";
      break;
    case 1:
      event->command = "??corrupt??";
      break;
    default:
      event->device_label += "~corrupt";
      break;
  }
}

bool IsSensorReport(const events::Event& event) {
  return event.command.empty();
}

}  // namespace

FaultInjector::FaultInjector(FaultSchedule schedule)
    : schedule_(std::move(schedule)) {}

void FaultInjector::SetMetrics(obs::Registry* registry) {
  if (registry == nullptr) {
    dropped_counter_ = nullptr;
    duplicated_counter_ = nullptr;
    delayed_counter_ = nullptr;
    reordered_counter_ = nullptr;
    corrupted_counter_ = nullptr;
    offline_counter_ = nullptr;
    flap_counter_ = nullptr;
    stuck_counter_ = nullptr;
    return;
  }
  dropped_counter_ = registry->GetCounter("faults.injector.dropped");
  duplicated_counter_ = registry->GetCounter("faults.injector.duplicated");
  delayed_counter_ = registry->GetCounter("faults.injector.delayed");
  reordered_counter_ = registry->GetCounter("faults.injector.reordered");
  corrupted_counter_ = registry->GetCounter("faults.injector.corrupted");
  offline_counter_ = registry->GetCounter("faults.injector.offline_drops");
  flap_counter_ = registry->GetCounter("faults.injector.flap_reports");
  stuck_counter_ = registry->GetCounter("faults.injector.stuck_reports");
}

std::vector<events::Event> FaultInjector::Apply(
    const std::vector<events::Event>& events) {
  const FaultCounters before = counters_;
  util::Rng rng(schedule_.seed ^ kInjectorSalt);
  std::vector<std::unordered_map<std::string, std::string>> stuck(
      schedule_.specs.size());
  std::unordered_map<std::string, std::string> last_value;
  struct Pending {
    util::SimTime due;
    events::Event event;
  };
  std::vector<Pending> pending;

  std::vector<events::Event> out;
  out.reserve(events.size());

  const auto flush_due = [&](util::SimTime now) {
    // Small list: scan for due arrivals, earliest first, keep order stable.
    std::stable_sort(pending.begin(), pending.end(),
                     [](const Pending& a, const Pending& b) {
                       return a.due < b.due;
                     });
    std::size_t emitted = 0;
    for (const auto& p : pending) {
      if (p.due > now) break;
      out.push_back(p.event);  // original timestamp: arrives as a straggler
      ++emitted;
    }
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(emitted));
  };

  for (const auto& input : events) {
    flush_due(input.date);

    events::Event event = input;
    bool drop = false;
    bool flap = false;
    bool delayed = false;
    int delay_minutes = 0;
    std::size_t copies = 0;

    // Loss faults first, whatever their schedule position: an event that
    // never arrives must not also be duplicated, corrupted, or delayed.
    for (std::size_t i = 0; i < schedule_.specs.size() && !drop; ++i) {
      const FaultSpec& spec = schedule_.specs[i];
      if (!spec.AppliesAt(input.date)) continue;
      if (spec.kind == FaultKind::kDeviceOffline) {
        if (spec.AppliesTo(input.device_label) && rng.NextBool(spec.rate)) {
          ++counters_.offline_drops;
          drop = true;
        }
      } else if (spec.kind == FaultKind::kDrop) {
        if (rng.NextBool(spec.rate)) {
          ++counters_.dropped;
          drop = true;
        }
      }
    }

    for (std::size_t i = 0; i < schedule_.specs.size() && !drop; ++i) {
      const FaultSpec& spec = schedule_.specs[i];
      if (!spec.AppliesAt(input.date)) continue;
      switch (spec.kind) {
        case FaultKind::kDeviceOffline:
        case FaultKind::kDrop:
          break;  // handled in the loss pass above
        case FaultKind::kStuckSensor:
          if (IsSensorReport(input) && spec.AppliesTo(input.device_label)) {
            std::string& stuck_value = stuck[i][input.device_label];
            if (stuck_value.empty()) {
              stuck_value = spec.stuck_value.empty() ? input.attribute_value
                                                     : spec.stuck_value;
            }
            if (rng.NextBool(spec.rate) &&
                event.attribute_value != stuck_value) {
              event.attribute_value = stuck_value;
              ++counters_.stuck_reports;
            }
          }
          break;
        case FaultKind::kCorruptField:
          if (rng.NextBool(spec.rate)) {
            CorruptField(rng, &event);
            ++counters_.corrupted;
          }
          break;
        case FaultKind::kDeviceFlap:
          if (IsSensorReport(input) && spec.AppliesTo(input.device_label) &&
              rng.NextBool(spec.rate)) {
            flap = true;
          }
          break;
        case FaultKind::kDuplicate:
          if (rng.NextBool(spec.rate)) {
            ++copies;
            ++counters_.duplicated;
          }
          break;
        case FaultKind::kDelay:
          if (rng.NextBool(spec.rate)) {
            delayed = true;
            delay_minutes = spec.delay_minutes;
            ++counters_.delayed;
          }
          break;
        case FaultKind::kReorder:  // second pass below
          break;
      }
    }

    if (!drop) {
      if (flap) {
        const auto it = last_value.find(input.device_label);
        if (it != last_value.end() && it->second != event.attribute_value) {
          events::Event stale = event;
          stale.attribute_value = it->second;
          out.push_back(stale);
          ++counters_.flap_reports;
        }
      }
      if (delayed) {
        // Duplicated copies ride along with the delayed original.
        for (std::size_t c = 0; c <= copies; ++c) {
          pending.push_back({input.date + delay_minutes, event});
        }
      } else {
        out.push_back(event);
        for (std::size_t c = 0; c < copies; ++c) out.push_back(event);
      }
    }
    // Flap memory tracks what the device last reported (pre-fault value),
    // whether or not the transmission survived.
    if (IsSensorReport(input)) last_value[input.device_label] = input.attribute_value;
  }
  flush_due(util::SimTime(std::numeric_limits<std::int64_t>::max()));

  for (const FaultSpec& spec : schedule_.specs) {
    if (spec.kind != FaultKind::kReorder) continue;
    for (std::size_t i = 0; i + 1 < out.size(); ++i) {
      if (!spec.AppliesAt(out[i].date)) continue;
      if (rng.NextBool(spec.rate)) {
        std::swap(out[i], out[i + 1]);
        ++counters_.reordered;
        ++i;  // do not immediately re-reorder the swapped pair
      }
    }
  }
  if (dropped_counter_ != nullptr) {
    // Mirror this Apply's FaultCounters deltas into the obs registry so
    // the two accountings can never drift apart.
    dropped_counter_->Increment(counters_.dropped - before.dropped);
    duplicated_counter_->Increment(counters_.duplicated - before.duplicated);
    delayed_counter_->Increment(counters_.delayed - before.delayed);
    reordered_counter_->Increment(counters_.reordered - before.reordered);
    corrupted_counter_->Increment(counters_.corrupted - before.corrupted);
    offline_counter_->Increment(counters_.offline_drops -
                                before.offline_drops);
    flap_counter_->Increment(counters_.flap_reports - before.flap_reports);
    stuck_counter_->Increment(counters_.stuck_reports - before.stuck_reports);
  }
  return out;
}

}  // namespace jarvis::faults
