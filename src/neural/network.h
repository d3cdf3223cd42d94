// A feed-forward multilayer perceptron assembled from DenseLayers, with
// training by back-propagation. This single class covers both networks in
// the paper: the one-hidden-layer ANN anomaly filter (sigmoid output + BCE)
// and the two-hidden-layer DQN Q-function approximator (linear output + MSE,
// optionally masked to the taken mini-action).
#pragma once

#include <memory>
#include <vector>

#include "neural/loss.h"
#include "neural/optimizer.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace jarvis::neural {

// Describes one layer of the network to build.
struct LayerSpec {
  std::size_t units;
  Activation activation;
};

class Network {
 public:
  // `input_features` is the width of the input; `layers` lists hidden and
  // output layers in order. The optimizer is owned by the network.
  // Argument validation is enforced with JARVIS_CHECK (throws
  // util::CheckError).
  Network(std::size_t input_features, const std::vector<LayerSpec>& layers,
          Loss loss, std::unique_ptr<Optimizer> optimizer,
          jarvis::util::Rng rng);

  // Forward pass for inference into network-owned scratch, returning a
  // reference to the prediction. Invalidated by the next Predict*/forward
  // call on this network; `input` must not alias network scratch (i.e. must
  // not itself be a reference previously returned by this method).
  // Inference routes through mutable scratch, so a Network is
  // thread-compatible, not thread-safe: each fleet tenant owns its network
  // and runs on one worker (DESIGN.md §10/§12), and serving forwards on a
  // tenant's network are serialized by that tenant's suggest lock.
  const Tensor& PredictScratch(const Tensor& input) const;
  // Convenience: single-sample prediction.
  std::vector<double> PredictOne(const std::vector<double>& input) const;
  // Allocation-free single-sample variant (steady state: `out` is resized
  // once and overwritten thereafter).
  void PredictOneInto(const std::vector<double>& input,
                      std::vector<double>& out) const;

  // Batched inference over `inputs` (rows are independent samples; width
  // must equal input_features()). Row i of the result is *bit-identical*
  // to PredictOne(row i): every layer op — MatMul accumulation, bias
  // broadcast, activation — iterates each output row independently in the
  // same order regardless of how many rows share the tensor, so answering
  // many queried minutes in one forward (runtime::Fleet::SuggestMinutes)
  // cannot perturb any Q-value. neural_network_test's PredictBatch cases
  // pin this invariant.
  Tensor PredictBatch(const Tensor& inputs) const;
  // Allocation-free PredictBatch: same contract (width check, metrics
  // observation, per-row bit-identity with PredictOne), returning a
  // reference into network scratch, valid until the next Predict*/forward
  // call on this network.
  const Tensor& PredictBatchScratch(const Tensor& inputs) const;

  // One optimization step on a batch; returns the batch loss before the
  // update.
  double TrainBatch(const Tensor& input, const Tensor& target);

  // Masked variant (MSE only): elements with mask==0 receive no gradient.
  double TrainBatchMasked(const Tensor& input, const Tensor& target,
                          const Tensor& mask);

  // Replay fast path, in two halves. ForwardForTraining runs one cached
  // forward over `input` and returns the prediction (a reference into
  // layer scratch, valid until the next forward/train call on this
  // network; PredictScratch and PredictOneInto use separate inference
  // scratch and do NOT invalidate it). TrainCachedMasked then trains
  // against that cached forward without recomputing it — bit-identical to
  // TrainBatchMasked(input, target, mask), minus one redundant forward
  // pass. DqnAgent::Replay uses the pair to derive its targets from the
  // same forward it trains on.
  const Tensor& ForwardForTraining(const Tensor& input);
  double TrainCachedMasked(const Tensor& target, const Tensor& mask);

  // Repeats TrainBatch over the whole dataset in shuffled mini-batches for
  // one epoch; returns the mean batch loss.
  double TrainEpoch(const Tensor& inputs, const Tensor& targets,
                    std::size_t batch_size);

  std::size_t input_features() const { return input_features_; }
  std::size_t output_features() const { return layers_.back().out_features(); }
  std::size_t parameter_count() const;
  Loss loss() const { return loss_; }

  const std::vector<DenseLayer>& layers() const { return layers_; }
  std::vector<DenseLayer>& mutable_layers() { return layers_; }

  // The owned optimizer; checkpoint state export/import goes through
  // neural/serialize.h's include_optimizer flag.
  const Optimizer& optimizer() const { return *optimizer_; }
  Optimizer& optimizer() { return *optimizer_; }

  // Raw parameter snapshot/restore (weights, biases) per layer — cheap
  // checkpointing for best-policy tracking during RL training.
  std::vector<std::pair<Tensor, Tensor>> ExportParameters() const;
  void ImportParameters(const std::vector<std::pair<Tensor, Tensor>>& params);

  // Wires neural.predict_batch.rows (batch-size distribution of the
  // batched-inference entry point — the fleet amortization statistic).
  // Null disables. Observation only: PredictBatch output stays
  // bit-identical per row regardless of wiring.
  void SetMetrics(obs::Registry* registry);

 private:
  const Tensor& ForwardCached(const Tensor& input);
  void BackwardAndStep(const Tensor& grad_output);

  std::size_t input_features_;
  Loss loss_;
  std::vector<DenseLayer> layers_;
  std::unique_ptr<Optimizer> optimizer_;
  mutable jarvis::util::Rng rng_;
  // Inference scratch: ping-pong activation buffers plus a 1-row staging
  // tensor for PredictOne. Mutable so const inference stays
  // allocation-free; this is what makes the network thread-compatible
  // rather than thread-safe (see PredictScratch).
  mutable Tensor infer_ping_;
  mutable Tensor infer_pong_;
  mutable Tensor infer_row_;
  // Training scratch: loss gradient and mini-batch gather buffers.
  Tensor loss_grad_;
  Tensor batch_in_;
  Tensor batch_target_;
  std::vector<std::size_t> epoch_order_;
  obs::Histogram* batch_rows_histogram_ = nullptr;
};

}  // namespace jarvis::neural
