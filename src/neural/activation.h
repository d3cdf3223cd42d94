// Activation functions and their derivatives for the ANN filter and DQN.
#pragma once

#include <string>

#include "neural/tensor.h"

namespace jarvis::neural {

enum class Activation {
  kIdentity,  // linear output head (Q-values are unbounded)
  kRelu,      // hidden layers of the DQN
  kSigmoid,   // binary output of the anomaly-filter ANN
  kTanh,
};

std::string ActivationName(Activation act);
Activation ActivationFromName(const std::string& name);

// In-place, statically dispatched activation kernel: one switch per tensor,
// then a tight loop with the scalar function inlined — no std::function
// indirection per element. The hot-path entry point (DenseLayer forward).
void ApplyInPlace(Activation act, Tensor& tensor);

// Derivative with respect to the pre-activation, expressed in terms of the
// *activated* output (all four supported activations admit this form, which
// avoids recomputing the forward pass during backprop). Statically
// dispatched, writing into a caller-owned scratch tensor (resized; no
// allocation once `out` has seen the shape). `out` must not alias
// `activated`.
void DerivativeFromOutputInto(Activation act, const Tensor& activated,
                              Tensor& out);

}  // namespace jarvis::neural
