// The Deep-Q agent of Algorithm 2 with the mini-action factorization of
// Section V-A-7: the network maps an observation to one Q-value per
// mini-action slot (each device's actions plus its no-op), so the output
// width grows linearly in devices rather than exponentially in joint
// actions. Joint actions are assembled by choosing, per device, the best
// available slot; epsilon-greedy exploration samples per-device among the
// slots the availability mask admits (P_safe-constrained exploration when
// the environment is constrained).
//
// Epsilon decays only while the replay loss is at or below the preferable
// loss L_p, exactly as Algorithm 2's final guard prescribes.
#pragma once

#include <memory>
#include <vector>

#include "fsm/state.h"
#include "neural/network.h"
#include "obs/metrics.h"
#include "rl/replay.h"
#include "util/json.h"
#include "util/rng.h"

namespace jarvis::rl {

struct DqnConfig {
  std::vector<std::size_t> hidden_units = {64, 64};  // two hidden layers
  double learning_rate = 0.001;                      // Section V-A-6
  double gamma = 0.97;                               // discount rate
  double epsilon = 1.0;
  double epsilon_min = 0.05;
  double epsilon_decay = 0.97;
  // Temporally-extended exploration: an exploring device repeats its
  // previous exploratory choice with this probability instead of drawing
  // fresh. Sustained-control behaviors (heating a cold house for an hour)
  // are unreachable by per-step uniform dithering; sticky exploration
  // produces the multi-step streaks they need.
  double explore_repeat_prob = 0.6;
  double preferable_loss = 1.0;  // L_p (rewards are per-minute, O(1))
  // Replay loss above this (or any non-finite loss) flags the agent as
  // diverged; the trainer then restores the last good snapshot, purges the
  // poisoned replay memory, and reseeds exploration.
  double divergence_loss = 1e6;
  std::size_t batch_size = 32;    // BSize
  std::size_t replay_capacity = 20000;
  std::uint64_t seed = 99;
};

class DqnAgent {
 public:
  DqnAgent(std::size_t feature_width, const fsm::StateCodec& codec,
           DqnConfig config);

  // Chooses a joint action for the observation. `mask` flags available
  // mini-action slots. When `greedy`, exploration is disabled (policy
  // evaluation mode).
  fsm::ActionVector SelectAction(const std::vector<double>& features,
                                 const std::vector<bool>& mask, bool greedy);

  // Q-values for all slots (diagnostics and Table III reporting). Const,
  // but the forward writes the network's mutable inference scratch, so
  // calls on one agent must not overlap.
  std::vector<double> QValues(const std::vector<double>& features) const;

  // Greedy joint-action decode from a precomputed Q-value row: per device,
  // the best mask-admitted slot (ties to the no-op). This is exactly
  // SelectAction's greedy path, split out const so (a) a batched forward
  // (runtime::Fleet::SuggestMinutes) can decode each output row without a
  // second per-row Predict, and (b) concurrent fleet tenants can decode
  // without touching any agent state — unlike SelectAction, which maintains
  // the sticky-exploration memory even when called greedily.
  fsm::ActionVector GreedyActionFromQ(const std::vector<double>& q,
                                      const std::vector<bool>& mask) const;

  void Remember(Experience experience);

  // One replay mini-batch training pass (no-op until the buffer can fill a
  // batch). Returns the masked MSE loss, and applies the L_p-gated epsilon
  // decay.
  double Replay();

  // Applies one unconditional epsilon decay step (e.g. per episode), in
  // addition to Algorithm 2's loss-gated per-replay decay. Used by
  // comparisons that need both agents on a common annealing schedule.
  void DecayEpsilonOnce();

  // Best-policy checkpointing: snapshot the current parameters, restore
  // them later (used by the trainer to keep the best greedy policy seen,
  // since epsilon-greedy training is noisy).
  void SaveSnapshot();
  void RestoreSnapshot();
  bool has_snapshot() const { return !snapshot_.empty(); }

  // Divergence detection and recovery. diverged() reflects the most recent
  // replay loss and every layer's weights_finite() flag: a ReLU maps a NaN
  // pre-activation to 0, so a non-finite hidden weight can leave the loss
  // finite. ReseedExploration restarts the exploration schedule (fresh
  // RNG stream, initial epsilon, no sticky-slot memory) so a restored
  // network does not replay the trajectory that diverged it; the purge
  // drops non-finite experiences from the replay memory.
  bool diverged() const;
  void ReseedExploration(std::uint64_t seed);
  std::size_t PurgePoisonedExperiences() { return buffer_.PurgePoisoned(); }

  // Wires rl.agent.* instruments (actions selected, replay batches, loss
  // and epsilon histograms, replay-size gauge, forward/train timers) and
  // cascades to the network (neural.predict_batch.rows). Null disables.
  void SetMetrics(obs::Registry* registry);

  // Checkpoint persistence. ToJson captures the learnt state (Q-network
  // with its Adam moments, so a restored agent resumes mid-anneal) plus the
  // exploration point (epsilon, last loss); the replay memory is not
  // persisted. LoadJson restores into an agent built with the same widths
  // — feature width and mini-action count are recorded and verified, and
  // every numeric field is validated (util::JsonError on hostile
  // documents) before any state is replaced. Replay memory and
  // sticky-exploration memory reset on load; metrics wiring survives
  // (SetMetrics state is re-applied to the restored network).
  util::JsonValue ToJson() const;
  void LoadJson(const util::JsonValue& doc);

  double epsilon() const { return config_.epsilon; }
  double last_loss() const { return last_loss_; }
  const DqnConfig& config() const { return config_; }
  const neural::Network& network() const { return network_; }
  std::size_t replay_size() const { return buffer_.size(); }

 private:
  // Per-device best available slot by Q-value; `q` is the network output
  // row for the observation.
  std::size_t BestSlotForDevice(const std::vector<double>& q,
                                const std::vector<bool>& mask,
                                std::size_t device) const;

  const fsm::StateCodec& codec_;
  DqnConfig config_;
  neural::Network network_;
  ReplayBuffer buffer_;
  util::Rng rng_;
  double initial_epsilon_;
  double last_loss_ = 0.0;
  std::vector<std::pair<neural::Tensor, neural::Tensor>> snapshot_;
  // Last exploratory slot per device (sticky exploration); empty until the
  // first SelectAction.
  std::vector<std::size_t> last_explore_slot_;
  // Last registry handed to SetMetrics, so LoadJson can re-wire the
  // restored network's instruments.
  obs::Registry* metrics_registry_ = nullptr;
  // Hot-loop scratch, reused across calls so steady-state SelectAction and
  // Replay perform zero allocations (DESIGN.md §12).
  std::vector<double> q_scratch_;
  std::vector<std::size_t> replay_indices_;
  neural::Tensor replay_inputs_;   // batch x features
  neural::Tensor replay_next_;     // batch x features (zeros on done rows)
  neural::Tensor replay_targets_;  // batch x slots
  neural::Tensor replay_mask_;     // batch x slots
  obs::Counter* actions_counter_ = nullptr;
  obs::Counter* replays_counter_ = nullptr;
  obs::Gauge* replay_size_gauge_ = nullptr;
  obs::Gauge* epsilon_gauge_ = nullptr;
  obs::Histogram* loss_histogram_ = nullptr;
  obs::Histogram* epsilon_histogram_ = nullptr;
  obs::Histogram* forward_timer_ = nullptr;
  obs::Histogram* train_timer_ = nullptr;
};

}  // namespace jarvis::rl
