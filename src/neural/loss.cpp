#include "neural/loss.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace jarvis::neural {

namespace {
constexpr double kEpsilon = 1e-12;
}

double ComputeLoss(Loss loss, const Tensor& prediction, const Tensor& target) {
  if (!prediction.SameShape(target)) {
    throw std::invalid_argument("ComputeLoss: shape mismatch");
  }
  const auto& p = prediction.data();
  const auto& t = target.data();
  double total = 0.0;
  switch (loss) {
    case Loss::kMeanSquaredError:
      for (std::size_t i = 0; i < p.size(); ++i) {
        const double d = p[i] - t[i];
        total += d * d;
      }
      break;
    case Loss::kBinaryCrossEntropy:
      for (std::size_t i = 0; i < p.size(); ++i) {
        const double clamped = std::clamp(p[i], kEpsilon, 1.0 - kEpsilon);
        total += -(t[i] * std::log(clamped) +
                   (1.0 - t[i]) * std::log(1.0 - clamped));
      }
      break;
  }
  return total / static_cast<double>(p.size());
}

void LossGradientInto(Loss loss, const Tensor& prediction,
                      const Tensor& target, Tensor& grad) {
  if (!prediction.SameShape(target)) {
    throw std::invalid_argument("LossGradient: shape mismatch");
  }
  grad.Resize(prediction.rows(), prediction.cols());
  const auto& p = prediction.data();
  const auto& t = target.data();
  auto& g = grad.mutable_data();
  const double scale = 1.0 / static_cast<double>(p.size());
  switch (loss) {
    case Loss::kMeanSquaredError:
      for (std::size_t i = 0; i < p.size(); ++i) {
        g[i] = 2.0 * (p[i] - t[i]) * scale;
      }
      break;
    case Loss::kBinaryCrossEntropy:
      for (std::size_t i = 0; i < p.size(); ++i) {
        const double clamped = std::clamp(p[i], kEpsilon, 1.0 - kEpsilon);
        g[i] = (clamped - t[i]) / (clamped * (1.0 - clamped)) * scale;
      }
      break;
  }
}

double MaskedMseLoss(const Tensor& prediction, const Tensor& target,
                     const Tensor& mask) {
  if (!prediction.SameShape(target) || !prediction.SameShape(mask)) {
    throw std::invalid_argument("MaskedMseLoss: shape mismatch");
  }
  const auto& p = prediction.data();
  const auto& t = target.data();
  const auto& m = mask.data();
  double total = 0.0;
  double active = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (m[i] == 0.0) continue;
    const double d = p[i] - t[i];
    total += d * d;
    active += 1.0;
  }
  return active > 0.0 ? total / active : 0.0;
}

void MaskedMseGradientInto(const Tensor& prediction, const Tensor& target,
                           const Tensor& mask, Tensor& grad) {
  if (!prediction.SameShape(target) || !prediction.SameShape(mask)) {
    throw std::invalid_argument("MaskedMseGradient: shape mismatch");
  }
  grad.Resize(prediction.rows(), prediction.cols());
  grad.Fill(0.0);
  const auto& p = prediction.data();
  const auto& t = target.data();
  const auto& m = mask.data();
  auto& g = grad.mutable_data();
  double active = 0.0;
  for (double v : m) active += (v != 0.0) ? 1.0 : 0.0;
  if (active == 0.0) return;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (m[i] == 0.0) continue;
    g[i] = 2.0 * (p[i] - t[i]) / active;
  }
}

}  // namespace jarvis::neural
