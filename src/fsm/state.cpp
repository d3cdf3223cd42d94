#include "fsm/state.h"

#include <limits>

#include "util/check.h"

namespace jarvis::fsm {

StateCodec::StateCodec(const std::vector<Device>& devices) {
  radices_.reserve(devices.size());
  action_counts_.reserve(devices.size());
  weights_.reserve(devices.size());
  mini_offsets_.reserve(devices.size());

  for (const auto& device : devices) {
    radices_.push_back(device.state_count());
    action_counts_.push_back(device.action_count());

    weights_.push_back(state_space_size_);
    const auto radix = static_cast<std::uint64_t>(device.state_count());
    JARVIS_CHECK(
        state_space_size_ <= std::numeric_limits<std::uint64_t>::max() / radix,
        "StateCodec: joint state space > 2^64");
    state_space_size_ *= radix;

    mini_offsets_.push_back(mini_action_count_);
    mini_action_count_ += static_cast<std::size_t>(device.action_count()) + 1;
    one_hot_width_ += static_cast<std::size_t>(device.state_count());
  }
}

std::uint64_t StateCodec::Encode(const StateVector& state) const {
  JARVIS_CHECK_EQ(state.size(), radices_.size(),
                  "StateCodec::Encode: width mismatch");
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    JARVIS_CHECK(state[i] >= 0 && state[i] < radices_[i],
                 "StateCodec::Encode: state index ", state[i],
                 " out of range for device ", i);
    key += static_cast<std::uint64_t>(state[i]) * weights_[i];
  }
  return key;
}

std::size_t StateCodec::MiniActionSlot(const MiniAction& mini) const {
  const auto device = static_cast<std::size_t>(mini.device);
  JARVIS_CHECK(mini.device >= 0 && device < mini_offsets_.size(),
               "MiniActionSlot: bad device ", mini.device);
  if (mini.action == kNoAction) return NoOpSlot(mini.device);
  JARVIS_CHECK(mini.action >= 0 && mini.action < action_counts_[device],
               "MiniActionSlot: bad action ", mini.action, " on device ",
               mini.device);
  return mini_offsets_[device] + static_cast<std::size_t>(mini.action);
}

MiniAction StateCodec::SlotToMiniAction(std::size_t slot) const {
  JARVIS_CHECK_LT(slot, mini_action_count_, "SlotToMiniAction: bad slot");
  for (std::size_t i = mini_offsets_.size(); i-- > 0;) {
    if (slot >= mini_offsets_[i]) {
      const std::size_t local = slot - mini_offsets_[i];
      const auto actions = static_cast<std::size_t>(action_counts_[i]);
      return MiniAction{static_cast<DeviceId>(i),
                        local == actions ? kNoAction
                                         : static_cast<ActionIndex>(local)};
    }
  }
  JARVIS_CHECK(false, "SlotToMiniAction: unreachable");
}

std::size_t StateCodec::NoOpSlot(DeviceId device) const {
  const auto idx = static_cast<std::size_t>(device);
  JARVIS_CHECK(device >= 0 && idx < mini_offsets_.size(),
               "NoOpSlot: bad device ", device);
  return mini_offsets_[idx] + static_cast<std::size_t>(action_counts_[idx]);
}

std::vector<std::size_t> StateCodec::ActionToSlots(
    const ActionVector& action) const {
  JARVIS_CHECK_EQ(action.size(), radices_.size(),
                  "ActionToSlots: width mismatch");
  std::vector<std::size_t> slots;
  slots.reserve(action.size());
  for (std::size_t i = 0; i < action.size(); ++i) {
    slots.push_back(
        MiniActionSlot({static_cast<DeviceId>(i), action[i]}));
  }
  return slots;
}

ActionVector StateCodec::SlotsToAction(
    const std::vector<std::size_t>& slots) const {
  ActionVector action(radices_.size(), kNoAction);
  for (std::size_t slot : slots) {
    const MiniAction mini = SlotToMiniAction(slot);
    action[static_cast<std::size_t>(mini.device)] = mini.action;
  }
  return action;
}

std::vector<double> StateCodec::OneHot(const StateVector& state) const {
  JARVIS_CHECK_EQ(state.size(), radices_.size(), "OneHot: width mismatch");
  std::vector<double> features(one_hot_width_, 0.0);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    JARVIS_CHECK(state[i] >= 0 && state[i] < radices_[i],
                 "OneHot: state index ", state[i],
                 " out of range for device ", i);
    features[offset + static_cast<std::size_t>(state[i])] = 1.0;
    offset += static_cast<std::size_t>(radices_[i]);
  }
  return features;
}

std::string StateCodec::ActionToString(const std::vector<Device>& devices,
                                       const ActionVector& action) const {
  std::string out = "(";
  for (std::size_t i = 0; i < action.size(); ++i) {
    if (i) out += ", ";
    out += action[i] == kNoAction ? "O" : devices[i].action_name(action[i]);
  }
  out += ")";
  return out;
}

}  // namespace jarvis::fsm
