// Fully-connected layer with activation. Holds weights, biases, and the
// gradients produced by the most recent backward pass; the optimizer applies
// them to the parameters.
//
// Memory model (DESIGN.md §12): Forward/Backward return references into
// layer-owned scratch tensors that are reused across calls, so steady-state
// training performs zero allocations. The returned references are
// invalidated by the next Forward/Backward call on the same layer. A layer
// is therefore thread-compatible, not thread-safe — each fleet tenant owns
// its own network (DESIGN.md §10), so nothing shares layers across threads.
#pragma once

#include "neural/activation.h"
#include "neural/tensor.h"
#include "util/rng.h"

namespace jarvis::neural {

class DenseLayer {
 public:
  // Weights are initialized He-uniform for ReLU and Xavier-uniform for
  // saturating activations; biases start at zero.
  DenseLayer(std::size_t in_features, std::size_t out_features,
             Activation activation, jarvis::util::Rng& rng);

  // Forward pass over a batch (rows are samples). Caches the input and
  // output for the subsequent backward pass. Returns a reference to the
  // cached output (valid until the next Forward on this layer).
  const Tensor& Forward(const Tensor& input);

  // Forward pass without touching the backward caches, writing into a
  // caller-owned scratch tensor (resized; allocation-free once `out` has
  // seen the shape). `out` must not alias `input`.
  void InferInto(const Tensor& input, Tensor& out) const;

  // Consumes dLoss/dOutput and accumulates parameter gradients on top of
  // their current contents (zeroed by the optimizer step or by
  // ZeroGradients — callers driving it by hand must zero first). Must
  // follow a Forward call; `grad_output` must not alias this layer's
  // scratch. The first layer of a Network stops here: nothing reads its
  // dLoss/dInput.
  void AccumulateGradients(const Tensor& grad_output);

  // AccumulateGradients, then returns dLoss/dInput for the upstream layer
  // (a reference into layer scratch, valid until the next Backward on this
  // layer).
  const Tensor& Backward(const Tensor& grad_output);

  void ZeroGradients();

  std::size_t in_features() const { return weights_.rows(); }
  std::size_t out_features() const { return weights_.cols(); }
  Activation activation() const { return activation_; }

  // Most recent Forward output (post-activation), for callers that train
  // against the same forward they just ran (Network::TrainCachedMasked).
  bool has_cache() const { return has_cache_; }
  const Tensor& cached_output() const { return cached_output_; }

  // Weight writes go through SetParameters or through mutable_weights
  // followed by RefreshWeightsFinite: the forward and input-gradient
  // kernels skip zero operands only while the weights are all finite, so
  // the flag must never be stale (Forward, InferInto and Backward
  // JARVIS_DCHECK it against a fresh scan).
  void SetParameters(const Tensor& weights, const Tensor& biases);
  Tensor& mutable_weights() { return weights_; }
  void RefreshWeightsFinite() { weights_finite_ = AllFinite(weights_); }
  bool weights_finite() const { return weights_finite_; }

  Tensor& biases() { return biases_; }
  const Tensor& weights() const { return weights_; }
  const Tensor& biases() const { return biases_; }
  const Tensor& weight_gradients() const { return grad_weights_; }
  const Tensor& bias_gradients() const { return grad_biases_; }
  Tensor& mutable_weight_gradients() { return grad_weights_; }
  Tensor& mutable_bias_gradients() { return grad_biases_; }

  std::size_t parameter_count() const {
    return weights_.size() + biases_.size();
  }

 private:
  Activation activation_;
  Tensor weights_;       // in x out
  Tensor biases_;        // 1 x out
  Tensor grad_weights_;  // in x out
  Tensor grad_biases_;   // 1 x out
  Tensor cached_input_;  // batch x in
  Tensor cached_output_; // batch x out (post-activation)
  // Backward scratch, reused across calls (zero steady-state allocations).
  Tensor grad_pre_;      // batch x out (dLoss/dPreActivation)
  Tensor grad_input_;    // batch x in  (dLoss/dInput, the return value)
  bool has_cache_ = false;
  bool weights_finite_ = true;  // AllFinite(weights_), see SetParameters
};

}  // namespace jarvis::neural
