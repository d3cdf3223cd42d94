#include "schedule.h"

#include <stdexcept>

namespace jarvis::faults {

std::string FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kCorruptField:
      return "corrupt-field";
    case FaultKind::kDeviceOffline:
      return "device-offline";
    case FaultKind::kDeviceFlap:
      return "device-flap";
    case FaultKind::kStuckSensor:
      return "stuck-sensor";
  }
  throw std::logic_error("unknown fault kind");
}

}  // namespace jarvis::faults
