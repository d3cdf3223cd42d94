#include "neural/network.h"

#include "util/check.h"

namespace jarvis::neural {

Network::Network(std::size_t input_features,
                 const std::vector<LayerSpec>& layers, Loss loss,
                 std::unique_ptr<Optimizer> optimizer, jarvis::util::Rng rng)
    : input_features_(input_features),
      loss_(loss),
      optimizer_(std::move(optimizer)),
      rng_(rng) {
  JARVIS_CHECK(!layers.empty(), "Network: no layers");
  JARVIS_CHECK(optimizer_ != nullptr, "Network: null optimizer");
  std::size_t width = input_features;
  for (const auto& spec : layers) {
    layers_.emplace_back(width, spec.units, spec.activation, rng_);
    width = spec.units;
  }
}

const Tensor& Network::PredictScratch(const Tensor& input) const {
  const Tensor* activation = &input;
  bool into_ping = true;
  for (const auto& layer : layers_) {
    Tensor& out = into_ping ? infer_ping_ : infer_pong_;
    layer.InferInto(*activation, out);
    activation = &out;
    into_ping = !into_ping;
  }
  return *activation;
}

std::vector<double> Network::PredictOne(const std::vector<double>& input) const {
  std::vector<double> out;
  PredictOneInto(input, out);
  return out;
}

void Network::PredictOneInto(const std::vector<double>& input,
                             std::vector<double>& out) const {
  infer_row_.Resize(1, input.size());
  infer_row_.SetRow(0, input);
  const Tensor& prediction = PredictScratch(infer_row_);
  out.resize(prediction.cols());
  const auto& data = prediction.data();
  std::copy(data.begin(), data.end(), out.begin());
}

Tensor Network::PredictBatch(const Tensor& inputs) const {
  return PredictBatchScratch(inputs);
}

const Tensor& Network::PredictBatchScratch(const Tensor& inputs) const {
  JARVIS_CHECK_EQ(inputs.cols(), input_features_,
                  "Network::PredictBatch: input width mismatch");
  if (batch_rows_histogram_ != nullptr) {
    batch_rows_histogram_->Observe(static_cast<double>(inputs.rows()));
  }
  return PredictScratch(inputs);
}

void Network::SetMetrics(obs::Registry* registry) {
  if (registry == nullptr) {
    batch_rows_histogram_ = nullptr;
    return;
  }
  batch_rows_histogram_ = registry->GetHistogram(
      "neural.predict_batch.rows", obs::DefaultBatchSizeBounds());
}

const Tensor& Network::ForwardCached(const Tensor& input) {
  const Tensor* activation = &input;
  for (auto& layer : layers_) activation = &layer.Forward(*activation);
  return *activation;
}

void Network::BackwardAndStep(const Tensor& grad_output) {
  // Gradient references walk backward through layer-owned scratch: layer N's
  // dInput is layer N-1's dOutput, with no intermediate copies. The first
  // layer's dInput (the gradient with respect to the network input) has no
  // reader, so that layer only accumulates its parameter gradients.
  const Tensor* grad = &grad_output;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    grad = &layers_[i].Backward(*grad);
  }
  layers_.front().AccumulateGradients(*grad);
  optimizer_->Step(layers_);
}

double Network::TrainBatch(const Tensor& input, const Tensor& target) {
  const Tensor& prediction = ForwardCached(input);
  const double batch_loss = ComputeLoss(loss_, prediction, target);
  LossGradientInto(loss_, prediction, target, loss_grad_);
  BackwardAndStep(loss_grad_);
  return batch_loss;
}

double Network::TrainBatchMasked(const Tensor& input, const Tensor& target,
                                 const Tensor& mask) {
  JARVIS_CHECK(loss_ == Loss::kMeanSquaredError,
               "TrainBatchMasked requires MSE loss");
  const Tensor& prediction = ForwardCached(input);
  const double batch_loss = MaskedMseLoss(prediction, target, mask);
  MaskedMseGradientInto(prediction, target, mask, loss_grad_);
  BackwardAndStep(loss_grad_);
  return batch_loss;
}

const Tensor& Network::ForwardForTraining(const Tensor& input) {
  JARVIS_CHECK_EQ(input.cols(), input_features_,
                  "Network::ForwardForTraining: input width mismatch");
  return ForwardCached(input);
}

double Network::TrainCachedMasked(const Tensor& target, const Tensor& mask) {
  JARVIS_CHECK(loss_ == Loss::kMeanSquaredError,
               "TrainCachedMasked requires MSE loss");
  JARVIS_CHECK(layers_.back().has_cache(),
               "TrainCachedMasked without a preceding ForwardForTraining");
  const Tensor& prediction = layers_.back().cached_output();
  const double batch_loss = MaskedMseLoss(prediction, target, mask);
  MaskedMseGradientInto(prediction, target, mask, loss_grad_);
  BackwardAndStep(loss_grad_);
  return batch_loss;
}

double Network::TrainEpoch(const Tensor& inputs, const Tensor& targets,
                           std::size_t batch_size) {
  JARVIS_CHECK_EQ(inputs.rows(), targets.rows(),
                  "TrainEpoch: sample count mismatch");
  JARVIS_CHECK_GT(batch_size, std::size_t{0}, "TrainEpoch: batch 0");
  epoch_order_.resize(inputs.rows());
  for (std::size_t i = 0; i < epoch_order_.size(); ++i) epoch_order_[i] = i;
  rng_.Shuffle(epoch_order_);

  double total_loss = 0.0;
  std::size_t batches = 0;
  for (std::size_t start = 0; start < epoch_order_.size();
       start += batch_size) {
    const std::size_t end =
        std::min(start + batch_size, epoch_order_.size());
    // Gather rows into reusable scratch: the only per-epoch allocations are
    // the first-time growth of the two batch buffers.
    batch_in_.Resize(end - start, inputs.cols());
    batch_target_.Resize(end - start, targets.cols());
    for (std::size_t i = start; i < end; ++i) {
      batch_in_.CopyRowFrom(i - start, inputs, epoch_order_[i]);
      batch_target_.CopyRowFrom(i - start, targets, epoch_order_[i]);
    }
    total_loss += TrainBatch(batch_in_, batch_target_);
    ++batches;
  }
  return batches > 0 ? total_loss / static_cast<double>(batches) : 0.0;
}

std::size_t Network::parameter_count() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer.parameter_count();
  return total;
}

std::vector<std::pair<Tensor, Tensor>> Network::ExportParameters() const {
  std::vector<std::pair<Tensor, Tensor>> params;
  params.reserve(layers_.size());
  for (const auto& layer : layers_) {
    params.emplace_back(layer.weights(), layer.biases());
  }
  return params;
}

void Network::ImportParameters(
    const std::vector<std::pair<Tensor, Tensor>>& params) {
  JARVIS_CHECK_EQ(params.size(), layers_.size(),
                  "ImportParameters: layer count mismatch");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    JARVIS_CHECK(params[i].first.SameShape(layers_[i].weights()) &&
                     params[i].second.SameShape(layers_[i].biases()),
                 "ImportParameters: shape mismatch");
    layers_[i].SetParameters(params[i].first, params[i].second);
  }
}

}  // namespace jarvis::neural
