#include "rl/dqn_agent.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "neural/serialize.h"

namespace jarvis::rl {

namespace {

neural::Network BuildNetwork(std::size_t inputs, std::size_t outputs,
                             const DqnConfig& config) {
  std::vector<neural::LayerSpec> layers;
  for (std::size_t units : config.hidden_units) {
    layers.push_back({units, neural::Activation::kRelu});
  }
  layers.push_back({outputs, neural::Activation::kIdentity});
  return neural::Network(inputs, layers, neural::Loss::kMeanSquaredError,
                         std::make_unique<neural::Adam>(config.learning_rate),
                         util::Rng(config.seed ^ 0x5eedULL));
}

}  // namespace

DqnAgent::DqnAgent(std::size_t feature_width, const fsm::StateCodec& codec,
                   DqnConfig config)
    : codec_(codec),
      config_(config),
      network_(BuildNetwork(feature_width, codec.mini_action_count(), config)),
      buffer_(config.replay_capacity),
      rng_(config.seed),
      initial_epsilon_(config.epsilon) {}

void DqnAgent::SetMetrics(obs::Registry* registry) {
  metrics_registry_ = registry;
  network_.SetMetrics(registry);
  if (registry == nullptr) {
    actions_counter_ = nullptr;
    replays_counter_ = nullptr;
    replay_size_gauge_ = nullptr;
    epsilon_gauge_ = nullptr;
    loss_histogram_ = nullptr;
    epsilon_histogram_ = nullptr;
    forward_timer_ = nullptr;
    train_timer_ = nullptr;
    return;
  }
  actions_counter_ = registry->GetCounter("rl.agent.actions_selected");
  replays_counter_ = registry->GetCounter("rl.agent.replay_batches");
  replay_size_gauge_ = registry->GetGauge("rl.agent.replay_size");
  epsilon_gauge_ = registry->GetGauge("rl.agent.epsilon");
  // Replay-loss distribution; the top buckets catch divergence excursions.
  loss_histogram_ = registry->GetHistogram(
      "rl.agent.replay_loss",
      {0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 100.0, 10000.0});
  // Exploration trajectory: how training time distributes across the
  // epsilon anneal from 1.0 down to epsilon_min.
  epsilon_histogram_ = registry->GetHistogram(
      "rl.agent.epsilon_trajectory",
      {0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0});
  forward_timer_ = registry->GetTimerUs("rl.agent.forward_us");
  train_timer_ = registry->GetTimerUs("rl.agent.train_us");
}

bool DqnAgent::diverged() const {
  if (!std::isfinite(last_loss_) || last_loss_ > config_.divergence_loss) {
    return true;
  }
  return std::any_of(
      network_.layers().begin(), network_.layers().end(),
      [](const neural::DenseLayer& layer) { return !layer.weights_finite(); });
}

void DqnAgent::ReseedExploration(std::uint64_t seed) {
  rng_ = util::Rng(seed);
  config_.epsilon = initial_epsilon_;
  last_explore_slot_.clear();
  last_loss_ = 0.0;
}

std::vector<double> DqnAgent::QValues(
    const std::vector<double>& features) const {
  return network_.PredictOne(features);
}

std::size_t DqnAgent::BestSlotForDevice(const std::vector<double>& q,
                                        const std::vector<bool>& mask,
                                        std::size_t device) const {
  const std::size_t noop = codec_.NoOpSlot(static_cast<fsm::DeviceId>(device));
  // Ties (including an untrained network's uniform output) resolve to the
  // no-op: acting needs positive evidence.
  std::size_t best = noop;
  double best_q = q[noop];
  // A device's slots are contiguous with the no-op last; walk back from the
  // no-op while the slot still maps to this device.
  std::size_t range_begin = noop;
  while (range_begin > 0 &&
         codec_.SlotToMiniAction(range_begin - 1).device ==
             static_cast<fsm::DeviceId>(device)) {
    --range_begin;
  }
  for (std::size_t slot = range_begin; slot < noop; ++slot) {
    if (!mask[slot]) continue;
    if (q[slot] > best_q) {
      best_q = q[slot];
      best = slot;
    }
  }
  return best;
}

fsm::ActionVector DqnAgent::GreedyActionFromQ(
    const std::vector<double>& q, const std::vector<bool>& mask) const {
  if (mask.size() != codec_.mini_action_count()) {
    throw std::invalid_argument("DqnAgent::GreedyActionFromQ: mask width");
  }
  if (q.size() != codec_.mini_action_count()) {
    throw std::invalid_argument("DqnAgent::GreedyActionFromQ: q width");
  }
  std::vector<std::size_t> slots;
  slots.reserve(codec_.device_count());
  for (std::size_t device = 0; device < codec_.device_count(); ++device) {
    slots.push_back(BestSlotForDevice(q, mask, device));
  }
  return codec_.SlotsToAction(slots);
}

fsm::ActionVector DqnAgent::SelectAction(const std::vector<double>& features,
                                         const std::vector<bool>& mask,
                                         bool greedy) {
  if (mask.size() != codec_.mini_action_count()) {
    throw std::invalid_argument("DqnAgent::SelectAction: mask width");
  }
  if (actions_counter_ != nullptr) actions_counter_->Increment();
  // One allocation-free forward into agent scratch serves both the greedy
  // decode and the exploit branches below.
  network_.PredictOneInto(features, q_scratch_);
  if (greedy) return GreedyActionFromQ(q_scratch_, mask);
  std::vector<std::size_t> slots;
  // Per-device exploration: each device independently explores with
  // probability epsilon while the rest follow the greedy policy. This
  // keeps the joint reward attributable — a single deviating device at a
  // time once epsilon anneals — which the factored mini-action Q-head
  // needs for credit assignment.
  const std::vector<double>& q = q_scratch_;

  if (last_explore_slot_.size() != codec_.device_count()) {
    last_explore_slot_.assign(codec_.device_count(),
                              codec_.mini_action_count());  // sentinel
  }
  for (std::size_t device = 0; device < codec_.device_count(); ++device) {
    const bool explore = !greedy && rng_.NextBool(config_.epsilon);
    const std::size_t noop =
        codec_.NoOpSlot(static_cast<fsm::DeviceId>(device));
    if (explore) {
      // Sticky exploration: repeat the previous exploratory choice when
      // still available, else draw uniform among the available slots.
      const std::size_t previous = last_explore_slot_[device];
      if (previous < mask.size() && mask[previous] &&
          rng_.NextBool(config_.explore_repeat_prob)) {
        slots.push_back(previous);
        continue;
      }
      std::vector<std::size_t> available;
      std::size_t range_begin = noop;
      while (range_begin > 0 &&
             codec_.SlotToMiniAction(range_begin - 1).device ==
                 static_cast<fsm::DeviceId>(device)) {
        --range_begin;
      }
      for (std::size_t slot = range_begin; slot <= noop; ++slot) {
        if (mask[slot]) available.push_back(slot);
      }
      const std::size_t chosen =
          available.empty() ? noop
                            : available[rng_.NextIndex(available.size())];
      last_explore_slot_[device] = chosen;
      slots.push_back(chosen);
    } else {
      slots.push_back(BestSlotForDevice(q, mask, device));
    }
  }
  return codec_.SlotsToAction(slots);
}

void DqnAgent::DecayEpsilonOnce() {
  config_.epsilon =
      std::max(config_.epsilon_min, config_.epsilon * config_.epsilon_decay);
}

void DqnAgent::SaveSnapshot() { snapshot_ = network_.ExportParameters(); }

void DqnAgent::RestoreSnapshot() {
  if (snapshot_.empty()) {
    throw std::logic_error("DqnAgent::RestoreSnapshot: no snapshot");
  }
  network_.ImportParameters(snapshot_);
}

void DqnAgent::Remember(Experience experience) {
  buffer_.Add(std::move(experience));
}

double DqnAgent::Replay() {
  if (!buffer_.CanSample(config_.batch_size)) return 0.0;
  // Indices, not pointers: the buffer stays unmutated until TrainBatchMasked
  // returns, so every index below names the experience it was drawn for.
  buffer_.SampleInto(config_.batch_size, rng_, replay_indices_);

  const std::size_t batch = replay_indices_.size();
  const std::size_t outputs = codec_.mini_action_count();
  const std::size_t width = buffer_.At(replay_indices_[0]).features.size();
  replay_inputs_.Resize(batch, width);
  replay_next_.Resize(batch, width);
  replay_next_.Fill(0.0);
  for (std::size_t i = 0; i < batch; ++i) {
    const Experience& exp = buffer_.At(replay_indices_[i]);
    replay_inputs_.SetRow(i, exp.features);
    // Done rows keep the zero fill: their bootstrap output is computed by
    // the batched forward below but never read (future stays 0), so the
    // row content is irrelevant — zeros keep the forward finite.
    if (!exp.done) replay_next_.SetRow(i, exp.next_features);
  }
  // Current predictions seed the target tensor so non-taken slots carry no
  // gradient (mask) and taken slots move toward r + gamma * max Q(s', .).
  // One cached forward serves both the targets and the training step below
  // (TrainCachedMasked) — the pre-overhaul code ran this forward twice.
  // Copy-assign out of layer scratch (capacity reused: no steady-state
  // allocation) before the targets are edited in place.
  {
    obs::ScopedTimer timer(forward_timer_);
    replay_targets_ = network_.ForwardForTraining(replay_inputs_);
  }
  // One batched forward replaces batch-size per-row PredictOne calls for
  // the next-state bootstrap. Each row of the batched output is
  // bit-identical to the per-row prediction (the PredictBatch row-
  // independence invariant), so targets are unchanged. PredictScratch uses
  // the inference ping-pong scratch, so the layer caches the training step
  // reads are untouched by this second forward through the same network.
  const neural::Tensor& next_q_all = network_.PredictScratch(replay_next_);
  replay_mask_.Resize(batch, outputs);
  replay_mask_.Fill(0.0);

  for (std::size_t i = 0; i < batch; ++i) {
    const Experience& exp = buffer_.At(replay_indices_[i]);
    const double* next_q = next_q_all.data().data() + i * outputs;
    for (std::size_t slot : exp.taken_slots) {
      // Each device head is its own sub-MDP: the bootstrap maximizes over
      // that device's *own* next choices, not over every device's slots —
      // a global max would inflate every target by the best slot anywhere
      // and erase per-device action rankings.
      double future = 0.0;
      if (!exp.done) {
        const auto device = codec_.SlotToMiniAction(slot).device;
        const std::size_t noop = codec_.NoOpSlot(device);
        std::size_t range_begin = noop;
        while (range_begin > 0 &&
               codec_.SlotToMiniAction(range_begin - 1).device == device) {
          --range_begin;
        }
        double best = -std::numeric_limits<double>::infinity();
        for (std::size_t s = range_begin; s <= noop; ++s) {
          if (exp.next_mask[s] && next_q[s] > best) best = next_q[s];
        }
        if (best > -std::numeric_limits<double>::infinity()) future = best;
      }
      replay_targets_.At(i, slot) = exp.reward + config_.gamma * future;
      replay_mask_.At(i, slot) = 1.0;
    }
  }

  {
    obs::ScopedTimer timer(train_timer_);
    last_loss_ =
        network_.TrainCachedMasked(replay_targets_, replay_mask_);
  }

  // Algorithm 2's guard: decay exploration only once the network fits its
  // replay targets to the preferable loss.
  if (config_.epsilon > config_.epsilon_min &&
      last_loss_ <= config_.preferable_loss) {
    config_.epsilon =
        std::max(config_.epsilon_min, config_.epsilon * config_.epsilon_decay);
  }
  if (replays_counter_ != nullptr) {
    replays_counter_->Increment();
    replay_size_gauge_->Set(static_cast<double>(buffer_.size()));
    epsilon_gauge_->Set(config_.epsilon);
    loss_histogram_->Observe(last_loss_);
    epsilon_histogram_->Observe(config_.epsilon);
  }
  return last_loss_;
}

util::JsonValue DqnAgent::ToJson() const {
  util::JsonObject obj;
  obj["format_version"] = util::JsonValue(std::int64_t{1});
  obj["feature_width"] =
      util::JsonValue(static_cast<std::int64_t>(network_.input_features()));
  obj["mini_actions"] =
      util::JsonValue(static_cast<std::int64_t>(codec_.mini_action_count()));
  obj["epsilon"] = util::JsonValue(config_.epsilon);
  obj["last_loss"] = util::JsonValue(last_loss_);
  obj["network"] = neural::ToJson(
      network_, neural::SerializeOptions{.include_optimizer = true});
  return util::JsonValue(std::move(obj));
}

void DqnAgent::LoadJson(const util::JsonValue& doc) {
  if (doc.AsObject().count("format_version") != 0) {
    const std::int64_t version = doc.At("format_version").AsInt();
    if (version != 1) {
      throw util::JsonError("DqnAgent::LoadJson: unsupported format version " +
                            std::to_string(version));
    }
  }
  // Width guard: a checkpoint from a differently-shaped home must be
  // rejected before any network rebuild — the codec decode below would
  // otherwise index a Q-row of the wrong width.
  const std::int64_t feature_width = doc.At("feature_width").AsInt();
  const std::int64_t mini_actions = doc.At("mini_actions").AsInt();
  if (feature_width < 0 ||
      static_cast<std::size_t>(feature_width) != network_.input_features() ||
      mini_actions < 0 ||
      static_cast<std::size_t>(mini_actions) != codec_.mini_action_count()) {
    throw util::JsonError(
        "DqnAgent::LoadJson: checkpoint widths do not match this agent");
  }
  const double epsilon = doc.At("epsilon").AsNumber();
  if (!std::isfinite(epsilon) || epsilon < 0.0 || epsilon > 1.0) {
    throw util::JsonError("DqnAgent::LoadJson: epsilon out of [0,1]");
  }
  const double last_loss = doc.At("last_loss").AsNumber();
  if (!std::isfinite(last_loss)) {
    // A diverged agent must never have been persisted; a non-finite loss
    // here means the document is corrupt or hostile.
    throw util::JsonError("DqnAgent::LoadJson: last_loss non-finite");
  }
  // Rebuild through the same constructor path as BuildNetwork, so the
  // restored network carries the same loss/optimizer kind; FromJson
  // validates parameters (finiteness, shapes) and optimizer state before
  // returning.
  neural::Network restored = neural::FromJson(
      doc.At("network"), neural::Loss::kMeanSquaredError,
      std::make_unique<neural::Adam>(config_.learning_rate),
      util::Rng(config_.seed ^ 0x5eedULL));
  if (restored.input_features() != network_.input_features() ||
      restored.output_features() != codec_.mini_action_count()) {
    throw util::JsonError(
        "DqnAgent::LoadJson: network document shape does not match this "
        "agent");
  }
  // Commit point: everything validated.
  buffer_.Clear();
  network_ = std::move(restored);
  network_.SetMetrics(metrics_registry_);
  config_.epsilon = epsilon;
  last_loss_ = last_loss;
  // Transients reset: replay memory empty, sticky exploration restarts.
  last_explore_slot_.clear();
  snapshot_.clear();
}

}  // namespace jarvis::rl
