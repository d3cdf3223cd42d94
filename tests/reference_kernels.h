// Naive reference implementations of the neural forward/backward/update
// math: the oracle for the kernel bit-parity pins in
// neural_kernels_test.cpp.
//
// Everything here is a plain At() loop nest over fresh tensors. It calls
// none of the production kernels — no Tensor::MatMul*Into,
// TransposedMatMulAccumulate, AddRowBroadcastInPlace, SumRowsAccumulate or
// HadamardInPlace, no ApplyInPlace or DerivativeFromOutputInto, no Sgd or
// Adam step — so a bug in one of them cannot show up on both sides of a
// comparison. The one property that pins bit-identity is shared on
// purpose: every output element receives its k-products in ascending-k
// order starting from +0.0, and every optimizer update keeps the textbook
// expression order. The production kernels restructure the loops (zero
// skip, register blocking, vectorization) but keep those orders, so
// reference and production results must match bit for bit.
#pragma once

#include <cmath>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "neural/activation.h"
#include "neural/loss.h"
#include "neural/network.h"
#include "neural/tensor.h"
#include "util/check.h"

namespace jarvis::neural::testing {

// Textbook i-j-k matrix multiply: ascending-k accumulation per element,
// with no zero-operand shortcut (0 * inf and 0 * NaN must yield NaN).
inline Tensor ReferenceMatMul(const Tensor& a, const Tensor& b) {
  JARVIS_CHECK_EQ(a.cols(), b.rows(), "ReferenceMatMul: inner dims");
  Tensor out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += a.At(i, k) * b.At(k, j);
      }
      out.At(i, j) = acc;
    }
  }
  return out;
}

inline Tensor ReferenceTranspose(const Tensor& t) {
  Tensor out(t.cols(), t.rows());
  for (std::size_t r = 0; r < t.rows(); ++r) {
    for (std::size_t c = 0; c < t.cols(); ++c) out.At(c, r) = t.At(r, c);
  }
  return out;
}

inline double ReferenceActivate(Activation act, double x) {
  switch (act) {
    case Activation::kIdentity:
      return x;
    case Activation::kRelu:
      return x > 0.0 ? x : 0.0;
    case Activation::kSigmoid:
      return 1.0 / (1.0 + std::exp(-x));
    case Activation::kTanh:
      return std::tanh(x);
  }
  JARVIS_CHECK(false, "ReferenceActivate: unknown activation");
  return 0.0;
}

// The derivative in terms of the activated output y.
inline double ReferenceDerivative(Activation act, double y) {
  switch (act) {
    case Activation::kIdentity:
      return 1.0;
    case Activation::kRelu:
      return y > 0.0 ? 1.0 : 0.0;
    case Activation::kSigmoid:
      return y * (1.0 - y);
    case Activation::kTanh:
      return 1.0 - y * y;
  }
  JARVIS_CHECK(false, "ReferenceDerivative: unknown activation");
  return 0.0;
}

// One dense layer of the reference model: parameters plus the forward
// caches the backward pass reads.
struct ReferenceLayer {
  Tensor weights;  // in x out
  Tensor biases;   // 1 x out
  Activation activation = Activation::kIdentity;
  Tensor cached_input;
  Tensor cached_output;
  Tensor grad_weights;
  Tensor grad_biases;

  // act(input * weights + biases), the bias added to the rounded product.
  Tensor Infer(const Tensor& input) const {
    Tensor out = ReferenceMatMul(input, weights);
    for (std::size_t r = 0; r < out.rows(); ++r) {
      for (std::size_t c = 0; c < out.cols(); ++c) {
        out.At(r, c) = ReferenceActivate(activation,
                                         out.At(r, c) + biases.At(0, c));
      }
    }
    return out;
  }

  Tensor Forward(const Tensor& input) {
    cached_input = input;
    cached_output = Infer(input);
    return cached_output;
  }

  // Returns dLoss/dInput; overwrites the parameter gradients (the single
  // forward/backward per step makes overwrite equal to accumulate-from-
  // zero, which is what the production accumulate-into kernels rely on).
  Tensor Backward(const Tensor& grad_output) {
    Tensor grad_pre(cached_output.rows(), cached_output.cols());
    for (std::size_t r = 0; r < grad_pre.rows(); ++r) {
      for (std::size_t c = 0; c < grad_pre.cols(); ++c) {
        grad_pre.At(r, c) =
            ReferenceDerivative(activation, cached_output.At(r, c)) *
            grad_output.At(r, c);
      }
    }
    grad_weights = ReferenceMatMul(ReferenceTranspose(cached_input), grad_pre);
    grad_biases = Tensor(1, grad_pre.cols());
    for (std::size_t c = 0; c < grad_pre.cols(); ++c) {
      double acc = 0.0;
      for (std::size_t r = 0; r < grad_pre.rows(); ++r) {
        acc += grad_pre.At(r, c);
      }
      grad_biases.At(0, c) = acc;
    }
    return ReferenceMatMul(grad_pre, ReferenceTranspose(weights));
  }
};

// Textbook Adam (Kingma & Ba, Algorithm 1) for one parameter tensor, one
// element at a time: m and v are the moment estimates, `step` the 1-based
// step count.
struct ReferenceAdam {
  double learning_rate = 0.001;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;

  void Update(Tensor& param, const Tensor& grad, Tensor& m, Tensor& v,
              long step) const {
    const double bias_correction1 =
        1.0 - std::pow(beta1, static_cast<double>(step));
    const double bias_correction2 =
        1.0 - std::pow(beta2, static_cast<double>(step));
    for (std::size_t r = 0; r < param.rows(); ++r) {
      for (std::size_t c = 0; c < param.cols(); ++c) {
        const double g = grad.At(r, c);
        m.At(r, c) = beta1 * m.At(r, c) + (1.0 - beta1) * g;
        v.At(r, c) = beta2 * v.At(r, c) + (1.0 - beta2) * g * g;
        const double m_hat = m.At(r, c) / bias_correction1;
        const double v_hat = v.At(r, c) / bias_correction2;
        param.At(r, c) -=
            learning_rate * m_hat / (std::sqrt(v_hat) + epsilon);
      }
    }
  }
};

// Reference model trained by SGD (optional momentum) or, when `adam` is
// set, by ReferenceAdam. Seed it from a production Network built with the
// matching neural::Sgd or neural::Adam and the same loss, then drive both
// with the same batches: predictions and parameter trajectories must stay
// bit-identical.
struct ReferenceModel {
  std::vector<ReferenceLayer> layers;
  Loss loss = Loss::kMeanSquaredError;
  double learning_rate = 0.0;
  double momentum = 0.0;
  // SGD velocities, or Adam's first moments.
  std::vector<Tensor> weight_velocity;
  std::vector<Tensor> bias_velocity;
  std::optional<ReferenceAdam> adam;
  long adam_step = 0;
  std::vector<Tensor> weight_second_moment;
  std::vector<Tensor> bias_second_moment;

  static ReferenceModel FromNetwork(const Network& network,
                                    double learning_rate,
                                    double momentum = 0.0) {
    ReferenceModel model;
    model.loss = network.loss();
    model.learning_rate = learning_rate;
    model.momentum = momentum;
    for (const auto& layer : network.layers()) {
      ReferenceLayer ref;
      ref.weights = layer.weights();
      ref.biases = layer.biases();
      ref.activation = layer.activation();
      model.layers.push_back(std::move(ref));
      model.weight_velocity.emplace_back(layer.weights().rows(),
                                         layer.weights().cols());
      model.bias_velocity.emplace_back(1, layer.biases().cols());
    }
    model.weight_second_moment = model.weight_velocity;
    model.bias_second_moment = model.bias_velocity;
    return model;
  }

  static ReferenceModel FromAdamNetwork(const Network& network,
                                        ReferenceAdam adam) {
    ReferenceModel model = FromNetwork(network, adam.learning_rate);
    model.adam = adam;
    return model;
  }

  Tensor Predict(const Tensor& input) const {
    Tensor activation = input;
    for (const auto& layer : layers) activation = layer.Infer(activation);
    return activation;
  }

  // Mirrors Network::TrainBatch with the Sgd optimizer: full backward
  // sweep first (gradients of every layer computed against the current
  // parameters), then the update applied layer by layer.
  double TrainBatch(const Tensor& input, const Tensor& target) {
    const Tensor prediction = ForwardAll(input);
    Tensor grad;
    LossGradientInto(loss, prediction, target, grad);
    BackwardAndStep(grad);
    return ComputeLoss(loss, prediction, target);
  }

  double TrainBatchMasked(const Tensor& input, const Tensor& target,
                          const Tensor& mask) {
    JARVIS_CHECK(loss == Loss::kMeanSquaredError,
                 "ReferenceModel::TrainBatchMasked requires MSE");
    const Tensor prediction = ForwardAll(input);
    Tensor grad;
    MaskedMseGradientInto(prediction, target, mask, grad);
    BackwardAndStep(grad);
    return MaskedMseLoss(prediction, target, mask);
  }

 private:
  Tensor ForwardAll(const Tensor& input) {
    Tensor prediction = input;
    for (auto& layer : layers) prediction = layer.Forward(prediction);
    return prediction;
  }

  void BackwardAndStep(Tensor grad) {
    for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
      grad = it->Backward(grad);
    }
    if (adam) ++adam_step;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      if (adam) {
        adam->Update(layers[i].weights, layers[i].grad_weights,
                     weight_velocity[i], weight_second_moment[i], adam_step);
        adam->Update(layers[i].biases, layers[i].grad_biases,
                     bias_velocity[i], bias_second_moment[i], adam_step);
      } else {
        Update(layers[i].weights, layers[i].grad_weights, weight_velocity[i]);
        Update(layers[i].biases, layers[i].grad_biases, bias_velocity[i]);
      }
    }
  }

  // p -= g * lr, or with momentum v = v * momentum + g * lr; p -= v. Each
  // product is rounded on its own before it is added.
  void Update(Tensor& param, const Tensor& grad, Tensor& velocity) const {
    for (std::size_t r = 0; r < param.rows(); ++r) {
      for (std::size_t c = 0; c < param.cols(); ++c) {
        const double scaled = grad.At(r, c) * learning_rate;
        if (momentum > 0.0) {
          const double decayed = velocity.At(r, c) * momentum;
          velocity.At(r, c) = decayed + scaled;
          param.At(r, c) -= velocity.At(r, c);
        } else {
          param.At(r, c) -= scaled;
        }
      }
    }
  }
};

}  // namespace jarvis::neural::testing
