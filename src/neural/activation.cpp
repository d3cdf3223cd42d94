#include "neural/activation.h"

#include <cmath>
#include <stdexcept>

namespace jarvis::neural {

std::string ActivationName(Activation act) {
  switch (act) {
    case Activation::kIdentity:
      return "identity";
    case Activation::kRelu:
      return "relu";
    case Activation::kSigmoid:
      return "sigmoid";
    case Activation::kTanh:
      return "tanh";
  }
  throw std::logic_error("unknown activation");
}

Activation ActivationFromName(const std::string& name) {
  if (name == "identity") return Activation::kIdentity;
  if (name == "relu") return Activation::kRelu;
  if (name == "sigmoid") return Activation::kSigmoid;
  if (name == "tanh") return Activation::kTanh;
  throw std::invalid_argument("unknown activation name: " + name);
}

void ApplyInPlace(Activation act, Tensor& tensor) {
  auto& data = tensor.mutable_data();
  // One switch per tensor, then a tight loop per case with the scalar math
  // inlined: no per-element indirect call.
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      for (double& x : data) x = x > 0.0 ? x : 0.0;
      return;
    case Activation::kSigmoid:
      for (double& x : data) x = 1.0 / (1.0 + std::exp(-x));
      return;
    case Activation::kTanh:
      for (double& x : data) x = std::tanh(x);
      return;
  }
  throw std::logic_error("unknown activation");
}

void DerivativeFromOutputInto(Activation act, const Tensor& activated,
                              Tensor& out) {
  out.Resize(activated.rows(), activated.cols());
  const auto& in = activated.data();
  auto& dst = out.mutable_data();
  switch (act) {
    case Activation::kIdentity:
      out.Fill(1.0);
      return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < in.size(); ++i) {
        dst[i] = in[i] > 0.0 ? 1.0 : 0.0;
      }
      return;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < in.size(); ++i) {
        dst[i] = in[i] * (1.0 - in[i]);
      }
      return;
    case Activation::kTanh:
      for (std::size_t i = 0; i < in.size(); ++i) {
        dst[i] = 1.0 - in[i] * in[i];
      }
      return;
  }
  throw std::logic_error("unknown activation");
}

}  // namespace jarvis::neural
