#include "neural/layer.h"

#include <cmath>

#include "util/check.h"

namespace jarvis::neural {

namespace {

// The forward and input-gradient kernels trust `weights_finite` instead
// of rescanning.
void DcheckWeightsFiniteFlag(const Tensor& weights, bool weights_finite) {
  JARVIS_DCHECK(weights_finite == AllFinite(weights),
                "DenseLayer: weights_finite flag is stale (a weight write "
                "skipped RefreshWeightsFinite)");
}

}  // namespace

DenseLayer::DenseLayer(std::size_t in_features, std::size_t out_features,
                       Activation activation, jarvis::util::Rng& rng)
    : activation_(activation),
      weights_(in_features, out_features),
      biases_(1, out_features),
      grad_weights_(in_features, out_features),
      grad_biases_(1, out_features) {
  JARVIS_CHECK(in_features > 0 && out_features > 0,
               "DenseLayer: zero-sized layer (", in_features, "x",
               out_features, ")");
  const double fan_in = static_cast<double>(in_features);
  const double limit = activation == Activation::kRelu
                           ? std::sqrt(6.0 / fan_in)  // He-uniform
                           : std::sqrt(6.0 / (fan_in + static_cast<double>(
                                                           out_features)));
  for (double& w : weights_.mutable_data()) {
    w = rng.NextUniform(-limit, limit);
  }
  RefreshWeightsFinite();
}

void DenseLayer::SetParameters(const Tensor& weights, const Tensor& biases) {
  weights_ = weights;
  biases_ = biases;
  RefreshWeightsFinite();
}

const Tensor& DenseLayer::Forward(const Tensor& input) {
  DcheckWeightsFiniteFlag(weights_, weights_finite_);
  cached_input_ = input;  // copy-assign reuses capacity: no steady-state alloc
  input.MatMulInto(weights_, cached_output_, weights_finite_);
  cached_output_.AddRowBroadcastInPlace(biases_);
  ApplyInPlace(activation_, cached_output_);
  has_cache_ = true;
  return cached_output_;
}

void DenseLayer::InferInto(const Tensor& input, Tensor& out) const {
  DcheckWeightsFiniteFlag(weights_, weights_finite_);
  input.MatMulInto(weights_, out, weights_finite_);
  out.AddRowBroadcastInPlace(biases_);
  ApplyInPlace(activation_, out);
}

void DenseLayer::AccumulateGradients(const Tensor& grad_output) {
  JARVIS_CHECK(has_cache_, "DenseLayer::Backward without Forward");
  // dL/dz = dL/dy * act'(z), expressed via the cached activated output.
  // (deriv * grad and grad * deriv round identically, so computing the
  // derivative in place and scaling by grad_output matches the historical
  // Hadamard order bit-for-bit.)
  DerivativeFromOutputInto(activation_, cached_output_, grad_pre_);
  grad_pre_.HadamardInPlace(grad_output);
  // Gradients are zero on entry (the optimizer zeroes them each step), so
  // accumulating products directly is bit-identical to materializing the
  // transposed products and adding.
  cached_input_.TransposedMatMulAccumulate(grad_pre_, grad_weights_);
  grad_pre_.SumRowsAccumulate(grad_biases_);
}

const Tensor& DenseLayer::Backward(const Tensor& grad_output) {
  AccumulateGradients(grad_output);
  DcheckWeightsFiniteFlag(weights_, weights_finite_);
  grad_pre_.MatMulTransposedInto(weights_, grad_input_, weights_finite_);
  return grad_input_;
}

void DenseLayer::ZeroGradients() {
  grad_weights_.Fill(0.0);
  grad_biases_.Fill(0.0);
}

}  // namespace jarvis::neural
