// Composite environment state and joint actions (Definition 1).
//
// The overall state S_t = (s_0, ..., s_k) is a vector of per-device state
// indices. A joint Action A_t assigns at most one device-action ("mini-
// action", Section V-A-7) per device; kNoAction marks devices left alone.
// States encode to a single uint64 mixed-radix key for use in hash tables
// (the safe-transition table P_safe and tabular Q baselines).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fsm/device.h"

namespace jarvis::fsm {

// Per-device state vector. Width equals the device count of the owning
// environment; validation happens in Environment.
using StateVector = std::vector<StateIndex>;

// Per-device action vector; kNoAction entries mean "leave the device alone".
using ActionVector = std::vector<ActionIndex>;

// A single mini-action: one action on one device.
struct MiniAction {
  DeviceId device = -1;
  ActionIndex action = kNoAction;

  bool operator==(const MiniAction&) const = default;
};

// Mixed-radix encoder mapping StateVectors to unique uint64 keys, given the
// per-device state counts. Also enumerates the mini-action space with a
// fixed global numbering (the DQN's output layout).
class StateCodec {
 public:
  explicit StateCodec(const std::vector<Device>& devices);

  std::size_t device_count() const { return radices_.size(); }

  // Total joint-state count (may be astronomically large; capped at the
  // uint64 range — the constructor throws if the product overflows).
  std::uint64_t state_space_size() const { return state_space_size_; }

  std::uint64_t Encode(const StateVector& state) const;

  // Mini-action numbering: for device i with A_i actions, the global slots
  // [offset_i, offset_i + A_i) map to its actions, and slot
  // offset_i + A_i is the explicit per-device no-op. Total width is
  // sum_i (A_i + 1).
  std::size_t mini_action_count() const { return mini_action_count_; }
  std::size_t MiniActionSlot(const MiniAction& mini) const;
  MiniAction SlotToMiniAction(std::size_t slot) const;
  // The slot of device i's no-op.
  std::size_t NoOpSlot(DeviceId device) const;

  // Converts a joint ActionVector to/from the set of per-device slots.
  std::vector<std::size_t> ActionToSlots(const ActionVector& action) const;
  ActionVector SlotsToAction(const std::vector<std::size_t>& slots) const;

  // One-hot encoding of a state (concatenated per-device one-hots), the
  // DQN input featurization. Width = sum of per-device state counts.
  std::size_t one_hot_width() const { return one_hot_width_; }
  std::vector<double> OneHot(const StateVector& state) const;

  std::string ActionToString(const std::vector<Device>& devices,
                             const ActionVector& action) const;

 private:
  std::vector<int> radices_;            // per-device state counts
  std::vector<int> action_counts_;      // per-device action counts
  std::vector<std::uint64_t> weights_;  // mixed-radix place values
  std::vector<std::size_t> mini_offsets_;
  std::uint64_t state_space_size_ = 1;
  std::size_t mini_action_count_ = 0;
  std::size_t one_hot_width_ = 0;
};

// A (state, action) pair key for transition tables.
struct TransitionKey {
  std::uint64_t from_state;
  std::uint64_t to_state;

  bool operator==(const TransitionKey&) const = default;
};

struct TransitionKeyHash {
  std::size_t operator()(const TransitionKey& key) const {
    // Standard 64-bit mix of the two halves.
    std::uint64_t h = key.from_state * 0x9e3779b97f4a7c15ULL;
    h ^= key.to_state + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

}  // namespace jarvis::fsm
