#include "neural/optimizer.h"

#include <cmath>

#include "neural/serialize.h"
#include "util/check.h"

namespace jarvis::neural {

namespace {

util::JsonValue TensorsToJson(const std::vector<Tensor>& tensors) {
  util::JsonArray arr;
  arr.reserve(tensors.size());
  for (const Tensor& t : tensors) arr.push_back(TensorToJson(t));
  return util::JsonValue(std::move(arr));
}

std::vector<Tensor> TensorsFromJson(const util::JsonValue& doc) {
  std::vector<Tensor> tensors;
  const auto& arr = doc.AsArray();
  tensors.reserve(arr.size());
  for (const auto& entry : arr) tensors.push_back(TensorFromJson(entry));
  return tensors;
}

// Restored moment/velocity tensors must mirror the layer parameter shapes
// exactly; Step indexes them by the parameter sizes, so a mismatch
// admitted here would read out of bounds there.
void CheckStateShapes(const std::string& what,
                      const std::vector<DenseLayer>& layers,
                      const std::vector<Tensor>& weight_like,
                      const std::vector<Tensor>& bias_like) {
  if (weight_like.size() != layers.size() ||
      bias_like.size() != layers.size()) {
    throw util::JsonError(what + ": optimizer state layer count mismatch");
  }
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (weight_like[i].rows() != layers[i].weights().rows() ||
        weight_like[i].cols() != layers[i].weights().cols() ||
        bias_like[i].rows() != 1 ||
        bias_like[i].cols() != layers[i].biases().cols()) {
      throw util::JsonError(what + ": optimizer state shape mismatch at layer " +
                            std::to_string(i));
    }
  }
}

// In-place p[i] -= g[i] * lr. The product is rounded into a named temporary
// before the subtraction, so the result is bit-identical to the historical
// materialize-a-scaled-tensor-then-subtract formulation (and immune to FMA
// contraction).
void ApplyScaledGradient(Tensor& param, const Tensor& grad, double lr) {
  auto& p = param.mutable_data();
  const auto& g = grad.data();
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double scaled = g[i] * lr;
    p[i] -= scaled;
  }
}

// In-place v[i] = v[i]*momentum + g[i]*lr; p[i] -= v[i]. Each product is
// rounded separately, matching the historical tensor-expression sequence
// (v *= momentum; v += g*lr; p -= v) bit-for-bit.
void ApplyMomentumStep(Tensor& param, const Tensor& grad, Tensor& velocity,
                       double momentum, double lr) {
  auto& p = param.mutable_data();
  auto& v = velocity.mutable_data();
  const auto& g = grad.data();
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double decayed = v[i] * momentum;
    const double scaled = g[i] * lr;
    v[i] = decayed + scaled;
    p[i] -= v[i];
  }
}

// The constants of one Adam step.
struct AdamScalars {
  double beta1;
  double beta2;
  double bias_correction1;
  double bias_correction2;
  double learning_rate;
  double epsilon;
};

// The textbook per-element Adam update over n parameters. The pointers do
// not alias and the constants are a by-value copy, so the loop vectorizes;
// each element keeps the textbook expression order, and with
// -fno-math-errno std::sqrt is the correctly rounded sqrtpd (DESIGN.md
// §12).
void AdamUpdate(double* __restrict p, double* __restrict m,
                double* __restrict v, const double* __restrict g,
                std::size_t n, const AdamScalars s) {
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = s.beta1 * m[i] + (1.0 - s.beta1) * g[i];
    v[i] = s.beta2 * v[i] + (1.0 - s.beta2) * g[i] * g[i];
    const double m_hat = m[i] / s.bias_correction1;
    const double v_hat = v[i] / s.bias_correction2;
    p[i] -= s.learning_rate * m_hat / (std::sqrt(v_hat) + s.epsilon);
  }
}

}  // namespace

Sgd::Sgd(double learning_rate, double momentum)
    : learning_rate_(learning_rate), momentum_(momentum) {
  JARVIS_CHECK_GT(learning_rate, 0.0, "Sgd: lr <= 0");
  JARVIS_CHECK(momentum >= 0.0 && momentum < 1.0, "Sgd: momentum out of [0,1)");
}

void Sgd::Step(std::vector<DenseLayer>& layers) {
  if (weight_velocity_.size() != layers.size()) {
    weight_velocity_.clear();
    bias_velocity_.clear();
    for (const auto& layer : layers) {
      weight_velocity_.emplace_back(layer.weights().rows(),
                                    layer.weights().cols());
      bias_velocity_.emplace_back(1, layer.biases().cols());
    }
  }
  for (std::size_t i = 0; i < layers.size(); ++i) {
    auto& layer = layers[i];
    if (momentum_ > 0.0) {
      ApplyMomentumStep(layer.mutable_weights(), layer.weight_gradients(),
                        weight_velocity_[i], momentum_, learning_rate_);
      ApplyMomentumStep(layer.biases(), layer.bias_gradients(),
                        bias_velocity_[i], momentum_, learning_rate_);
    } else {
      ApplyScaledGradient(layer.mutable_weights(), layer.weight_gradients(),
                          learning_rate_);
      ApplyScaledGradient(layer.biases(), layer.bias_gradients(),
                          learning_rate_);
    }
    layer.RefreshWeightsFinite();
    layer.ZeroGradients();
  }
}

util::JsonValue Sgd::StateToJson() const {
  util::JsonObject obj;
  obj["velocity_weights"] = TensorsToJson(weight_velocity_);
  obj["velocity_biases"] = TensorsToJson(bias_velocity_);
  return util::JsonValue(std::move(obj));
}

void Sgd::StateFromJson(const util::JsonValue& doc,
                        const std::vector<DenseLayer>& layers) {
  auto weights = TensorsFromJson(doc.At("velocity_weights"));
  auto biases = TensorsFromJson(doc.At("velocity_biases"));
  // Empty state (saved before the first Step) is valid and restores the
  // lazy-init condition; anything else must match the layers exactly.
  if (!weights.empty() || !biases.empty()) {
    CheckStateShapes("Sgd::StateFromJson", layers, weights, biases);
  }
  weight_velocity_ = std::move(weights);
  bias_velocity_ = std::move(biases);
}

Adam::Adam(double learning_rate, double beta1, double beta2, double epsilon)
    : learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  JARVIS_CHECK_GT(learning_rate, 0.0, "Adam: lr <= 0");
}

util::JsonValue Adam::StateToJson() const {
  util::JsonObject obj;
  obj["step_count"] = util::JsonValue(static_cast<std::int64_t>(step_count_));
  obj["m_weights"] = TensorsToJson(m_weights_);
  obj["v_weights"] = TensorsToJson(v_weights_);
  obj["m_biases"] = TensorsToJson(m_biases_);
  obj["v_biases"] = TensorsToJson(v_biases_);
  return util::JsonValue(std::move(obj));
}

void Adam::StateFromJson(const util::JsonValue& doc,
                         const std::vector<DenseLayer>& layers) {
  const std::int64_t steps = doc.At("step_count").AsInt();
  if (steps < 0) {
    throw util::JsonError("Adam::StateFromJson: negative step count");
  }
  auto mw = TensorsFromJson(doc.At("m_weights"));
  auto vw = TensorsFromJson(doc.At("v_weights"));
  auto mb = TensorsFromJson(doc.At("m_biases"));
  auto vb = TensorsFromJson(doc.At("v_biases"));
  const bool empty = mw.empty() && vw.empty() && mb.empty() && vb.empty();
  if (!empty) {
    CheckStateShapes("Adam::StateFromJson", layers, mw, mb);
    CheckStateShapes("Adam::StateFromJson", layers, vw, vb);
  } else if (steps != 0) {
    // step_count without moments would skew the bias correction of every
    // future step; reject the inconsistent state.
    throw util::JsonError(
        "Adam::StateFromJson: step count without moment tensors");
  }
  step_count_ = static_cast<long>(steps);
  m_weights_ = std::move(mw);
  v_weights_ = std::move(vw);
  m_biases_ = std::move(mb);
  v_biases_ = std::move(vb);
}

void Adam::Step(std::vector<DenseLayer>& layers) {
  if (m_weights_.size() != layers.size()) {
    m_weights_.clear();
    v_weights_.clear();
    m_biases_.clear();
    v_biases_.clear();
    for (const auto& layer : layers) {
      m_weights_.emplace_back(layer.weights().rows(), layer.weights().cols());
      v_weights_.emplace_back(layer.weights().rows(), layer.weights().cols());
      m_biases_.emplace_back(1, layer.biases().cols());
      v_biases_.emplace_back(1, layer.biases().cols());
    }
  }
  ++step_count_;
  const double bias_correction1 =
      1.0 - std::pow(beta1_, static_cast<double>(step_count_));
  const double bias_correction2 =
      1.0 - std::pow(beta2_, static_cast<double>(step_count_));

  const AdamScalars scalars{.beta1 = beta1_,
                            .beta2 = beta2_,
                            .bias_correction1 = bias_correction1,
                            .bias_correction2 = bias_correction2,
                            .learning_rate = learning_rate_,
                            .epsilon = epsilon_};
  auto apply = [&scalars](Tensor& param, const Tensor& grad, Tensor& m,
                          Tensor& v) {
    AdamUpdate(param.mutable_data().data(), m.mutable_data().data(),
               v.mutable_data().data(), grad.data().data(), param.size(),
               scalars);
  };

  for (std::size_t i = 0; i < layers.size(); ++i) {
    auto& layer = layers[i];
    apply(layer.mutable_weights(), layer.weight_gradients(), m_weights_[i],
          v_weights_[i]);
    apply(layer.biases(), layer.bias_gradients(), m_biases_[i], v_biases_[i]);
    layer.RefreshWeightsFinite();
    layer.ZeroGradients();
  }
}

}  // namespace jarvis::neural
