// Loss functions: MSE for the DQN regression head, binary cross-entropy for
// the anomaly-filter ANN. Both report the mean loss over the batch and the
// gradient with respect to the prediction.
#pragma once

#include "neural/tensor.h"

namespace jarvis::neural {

enum class Loss {
  kMeanSquaredError,
  kBinaryCrossEntropy,
};

// Mean loss over all elements of the batch.
double ComputeLoss(Loss loss, const Tensor& prediction, const Tensor& target);

// dLoss/dPrediction, same shape as prediction, already averaged over the
// batch element count (so optimizer steps are batch-size invariant).
// Writes into `grad` (resized; allocation-free once the shape has been
// seen). `grad` must not alias prediction or target.
void LossGradientInto(Loss loss, const Tensor& prediction,
                      const Tensor& target, Tensor& grad);

// Per-element mask variant of MSE: positions where mask == 0 contribute no
// loss and no gradient. The DQN uses this to train only the Q output for the
// mini-action actually taken (Section V-A-7) while leaving other heads
// untouched.
double MaskedMseLoss(const Tensor& prediction, const Tensor& target,
                     const Tensor& mask);
// Its gradient, written into `grad` (see LossGradientInto).
void MaskedMseGradientInto(const Tensor& prediction, const Tensor& target,
                           const Tensor& mask, Tensor& grad);

}  // namespace jarvis::neural
