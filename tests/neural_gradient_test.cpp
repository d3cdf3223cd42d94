// Gradient checking: analytic back-propagation gradients must match
// central finite differences for every activation and loss combination.
#include <gtest/gtest.h>

#include <cmath>

#include "neural/activation.h"
#include "neural/layer.h"
#include "neural/loss.h"
#include "neural/network.h"

namespace jarvis::neural {
namespace {

constexpr double kEps = 1e-5;
constexpr double kTol = 1e-6;

// Builds a tiny network, computes dLoss/dparam by backprop and by finite
// differences, and compares.
class GradientCheck
    : public ::testing::TestWithParam<std::tuple<Activation, Loss>> {};

double EvaluateLoss(Network& network, const Tensor& input,
                    const Tensor& target) {
  return ComputeLoss(network.loss(), network.PredictBatch(input), target);
}

TEST_P(GradientCheck, BackpropMatchesFiniteDifferences) {
  const auto [activation, loss] = GetParam();
  util::Rng rng(31);
  // Output activation: sigmoid for BCE (targets in (0,1)), identity for MSE.
  const Activation output_act = loss == Loss::kBinaryCrossEntropy
                                    ? Activation::kSigmoid
                                    : Activation::kIdentity;
  Network network(3, {{4, activation}, {2, output_act}}, loss,
                  std::make_unique<Sgd>(0.1), util::Rng(7));

  const Tensor input{{0.3, -0.7, 0.5}, {0.9, 0.1, -0.2}};
  const Tensor target = loss == Loss::kBinaryCrossEntropy
                            ? Tensor{{1.0, 0.0}, {0.0, 1.0}}
                            : Tensor{{0.5, -1.0}, {1.5, 0.25}};

  // Analytic gradients: run forward+backward without an optimizer step.
  auto& layers = network.mutable_layers();
  for (auto& layer : layers) layer.ZeroGradients();
  Tensor activation_out = input;
  for (auto& layer : layers) activation_out = layer.Forward(activation_out);
  Tensor grad;
  LossGradientInto(loss, activation_out, target, grad);
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    grad = it->Backward(grad);
  }

  // Finite differences over every parameter of every layer.
  for (std::size_t li = 0; li < layers.size(); ++li) {
    auto check_tensor = [&](Tensor& params, const Tensor& analytic) {
      for (std::size_t i = 0; i < params.mutable_data().size(); ++i) {
        double& p = params.mutable_data()[i];
        const double saved = p;
        p = saved + kEps;
        const double plus = EvaluateLoss(network, input, target);
        p = saved - kEps;
        const double minus = EvaluateLoss(network, input, target);
        p = saved;
        const double numeric = (plus - minus) / (2.0 * kEps);
        EXPECT_NEAR(analytic.data()[i], numeric, kTol)
            << "layer " << li << " param " << i;
      }
    };
    check_tensor(layers[li].mutable_weights(), layers[li].weight_gradients());
    check_tensor(layers[li].biases(), layers[li].bias_gradients());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllActivationsAndLosses, GradientCheck,
    ::testing::Combine(::testing::Values(Activation::kIdentity,
                                         Activation::kRelu,
                                         Activation::kSigmoid,
                                         Activation::kTanh),
                       ::testing::Values(Loss::kMeanSquaredError,
                                         Loss::kBinaryCrossEntropy)));

Tensor Activated(Activation act, Tensor values) {
  ApplyInPlace(act, values);
  return values;
}

TEST(ActivationFunctions, PointValues) {
  const Tensor x{{-1.0, 0.0, 2.0}};
  const Tensor relu = Activated(Activation::kRelu, x);
  EXPECT_DOUBLE_EQ(relu(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(relu(0, 2), 2.0);
  const Tensor sig = Activated(Activation::kSigmoid, x);
  EXPECT_NEAR(sig(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(sig(0, 2), 1.0 / (1.0 + std::exp(-2.0)), 1e-12);
  const Tensor th = Activated(Activation::kTanh, x);
  EXPECT_NEAR(th(0, 0), std::tanh(-1.0), 1e-12);
  const Tensor id = Activated(Activation::kIdentity, x);
  EXPECT_DOUBLE_EQ(id(0, 0), -1.0);
}

TEST(ActivationFunctions, NamesRoundTrip) {
  for (auto act : {Activation::kIdentity, Activation::kRelu,
                   Activation::kSigmoid, Activation::kTanh}) {
    EXPECT_EQ(ActivationFromName(ActivationName(act)), act);
  }
  EXPECT_THROW(ActivationFromName("swish"), std::invalid_argument);
}

TEST(Losses, MsePointValue) {
  const Tensor pred{{1.0, 2.0}};
  const Tensor target{{0.0, 4.0}};
  EXPECT_DOUBLE_EQ(ComputeLoss(Loss::kMeanSquaredError, pred, target),
                   (1.0 + 4.0) / 2.0);
}

TEST(Losses, BceClampsExtremePredictions) {
  const Tensor pred{{0.0, 1.0}};
  const Tensor target{{1.0, 0.0}};
  const double loss = ComputeLoss(Loss::kBinaryCrossEntropy, pred, target);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 10.0);  // confidently wrong is expensive but finite
}

TEST(Losses, MaskedMseIgnoresMaskedElements) {
  const Tensor pred{{1.0, 100.0}, {2.0, -50.0}};
  const Tensor target{{0.0, 0.0}, {0.0, 0.0}};
  const Tensor mask{{1.0, 0.0}, {1.0, 0.0}};
  EXPECT_DOUBLE_EQ(MaskedMseLoss(pred, target, mask), (1.0 + 4.0) / 2.0);
  Tensor grad;
  MaskedMseGradientInto(pred, target, mask, grad);
  EXPECT_DOUBLE_EQ(grad(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(grad(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(grad(0, 0), 2.0 * 1.0 / 2.0);
  // All-zero mask: zero loss and zero gradient, no division by zero.
  const Tensor zero_mask(2, 2, 0.0);
  EXPECT_DOUBLE_EQ(MaskedMseLoss(pred, target, zero_mask), 0.0);
  MaskedMseGradientInto(pred, target, zero_mask, grad);
  EXPECT_EQ(grad.data(), std::vector<double>(4, 0.0));
}

}  // namespace
}  // namespace jarvis::neural
