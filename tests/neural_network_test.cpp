#include "neural/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "neural/serialize.h"
#include "util/check.h"

namespace jarvis::neural {
namespace {

Tensor XorInputs() {
  return Tensor{{0.0, 0.0}, {0.0, 1.0}, {1.0, 0.0}, {1.0, 1.0}};
}
Tensor XorTargets() { return Tensor{{0.0}, {1.0}, {1.0}, {0.0}}; }

TEST(Network, LearnsXorWithSgd) {
  Network network(2, {{8, Activation::kTanh}, {1, Activation::kSigmoid}},
                  Loss::kBinaryCrossEntropy,
                  std::make_unique<Sgd>(0.5, 0.9), util::Rng(3));
  const Tensor inputs = XorInputs();
  const Tensor targets = XorTargets();
  double loss = 1e9;
  for (int epoch = 0; epoch < 2000; ++epoch) {
    loss = network.TrainBatch(inputs, targets);
  }
  EXPECT_LT(loss, 0.05);
  const Tensor out = network.PredictBatch(inputs);
  EXPECT_LT(out(0, 0), 0.2);
  EXPECT_GT(out(1, 0), 0.8);
  EXPECT_GT(out(2, 0), 0.8);
  EXPECT_LT(out(3, 0), 0.2);
}

TEST(Network, LearnsXorWithAdam) {
  Network network(2, {{8, Activation::kRelu}, {1, Activation::kSigmoid}},
                  Loss::kBinaryCrossEntropy, std::make_unique<Adam>(0.02),
                  util::Rng(5));
  const Tensor inputs = XorInputs();
  const Tensor targets = XorTargets();
  double loss = 1e9;
  for (int epoch = 0; epoch < 1500; ++epoch) {
    loss = network.TrainBatch(inputs, targets);
  }
  EXPECT_LT(loss, 0.05);
}

TEST(Network, FitsLinearRegression) {
  // y = 2 x0 - 3 x1 + 1, learnable exactly by one identity layer.
  Network network(2, {{1, Activation::kIdentity}}, Loss::kMeanSquaredError,
                  std::make_unique<Adam>(0.05), util::Rng(11));
  util::Rng rng(13);
  Tensor inputs(64, 2);
  Tensor targets(64, 1);
  for (std::size_t i = 0; i < 64; ++i) {
    const double x0 = rng.NextUniform(-1, 1);
    const double x1 = rng.NextUniform(-1, 1);
    inputs.SetRow(i, {x0, x1});
    targets.At(i, 0) = 2.0 * x0 - 3.0 * x1 + 1.0;
  }
  double loss = 1e9;
  for (int epoch = 0; epoch < 400; ++epoch) {
    loss = network.TrainEpoch(inputs, targets, 16);
  }
  EXPECT_LT(loss, 1e-3);
  const auto& layer = network.layers()[0];
  EXPECT_NEAR(layer.weights()(0, 0), 2.0, 0.05);
  EXPECT_NEAR(layer.weights()(1, 0), -3.0, 0.05);
  EXPECT_NEAR(layer.biases()(0, 0), 1.0, 0.05);
}

TEST(Network, MaskedTrainingLeavesOtherHeadsUntouched) {
  Network network(2, {{4, Activation::kRelu}, {3, Activation::kIdentity}},
                  Loss::kMeanSquaredError, std::make_unique<Sgd>(0.1),
                  util::Rng(17));
  const Tensor input{{0.5, -0.5}};
  const Tensor before = network.PredictBatch(input);
  // Train only output 1 toward a large value.
  Tensor target = before;
  target.At(0, 1) = 10.0;
  Tensor mask(1, 3, 0.0);
  mask.At(0, 1) = 1.0;
  for (int i = 0; i < 50; ++i) network.TrainBatchMasked(input, target, mask);
  const Tensor after = network.PredictBatch(input);
  EXPECT_GT(after(0, 1), before(0, 1) + 1.0);
  // Heads 0 and 2 share the trunk so they may drift, but far less than the
  // trained head moved.
  EXPECT_LT(std::abs(after(0, 0) - before(0, 0)),
            (after(0, 1) - before(0, 1)) / 2.0);
}

TEST(Network, MaskedTrainingRequiresMse) {
  Network network(2, {{1, Activation::kSigmoid}}, Loss::kBinaryCrossEntropy,
                  std::make_unique<Sgd>(0.1), util::Rng(19));
  const Tensor input{{0.1, 0.2}};
  EXPECT_THROW(network.TrainBatchMasked(input, Tensor(1, 1), Tensor(1, 1)),
               std::logic_error);
}

TEST(Network, ConstructionValidation) {
  // Validation is enforced via JARVIS_CHECK: util::CheckError, which is a
  // std::logic_error so pre-existing generic handlers still catch it.
  EXPECT_THROW(Network(2, {}, Loss::kMeanSquaredError,
                       std::make_unique<Sgd>(0.1), util::Rng(1)),
               util::CheckError);
  EXPECT_THROW(Network(2, {{1, Activation::kIdentity}},
                       Loss::kMeanSquaredError, nullptr, util::Rng(1)),
               util::CheckError);
  EXPECT_THROW(Sgd(-0.1), util::CheckError);
  EXPECT_THROW(Sgd(0.1, 1.5), util::CheckError);
  EXPECT_THROW(Adam(0.0), util::CheckError);
}

TEST(Network, TrainEpochValidation) {
  Network network(2, {{1, Activation::kIdentity}}, Loss::kMeanSquaredError,
                  std::make_unique<Sgd>(0.1), util::Rng(29));
  const Tensor inputs{{0.1, 0.2}, {0.3, 0.4}};
  EXPECT_THROW(network.TrainEpoch(inputs, Tensor(1, 1), 1), util::CheckError);
  EXPECT_THROW(network.TrainEpoch(inputs, Tensor(2, 1), 0), util::CheckError);
  EXPECT_THROW(network.ImportParameters({}), util::CheckError);
}

TEST(Network, ParameterCount) {
  Network network(3, {{5, Activation::kRelu}, {2, Activation::kIdentity}},
                  Loss::kMeanSquaredError, std::make_unique<Sgd>(0.1),
                  util::Rng(23));
  // (3*5 + 5) + (5*2 + 2) = 20 + 12
  EXPECT_EQ(network.parameter_count(), 32u);
  EXPECT_EQ(network.input_features(), 3u);
  EXPECT_EQ(network.output_features(), 2u);
}

TEST(Network, ExportImportRoundTrip) {
  Network a(2, {{3, Activation::kRelu}, {1, Activation::kIdentity}},
            Loss::kMeanSquaredError, std::make_unique<Adam>(0.01),
            util::Rng(37));
  const Tensor input{{1.0, -1.0}};
  const auto saved = a.ExportParameters();
  const double before = a.PredictBatch(input)(0, 0);
  // Perturb by training, then restore.
  for (int i = 0; i < 20; ++i) a.TrainBatch(input, Tensor{{5.0}});
  EXPECT_NE(a.PredictBatch(input)(0, 0), before);
  a.ImportParameters(saved);
  EXPECT_DOUBLE_EQ(a.PredictBatch(input)(0, 0), before);
}

TEST(Network, JsonSerializationRoundTrip) {
  Network original(3, {{4, Activation::kSigmoid}, {2, Activation::kIdentity}},
                   Loss::kMeanSquaredError, std::make_unique<Adam>(0.01),
                   util::Rng(41));
  const std::string json = ToJson(original).Dump();
  Network restored = FromJson(util::JsonValue::Parse(json),
                              Loss::kMeanSquaredError,
                              std::make_unique<Adam>(0.01), util::Rng(99));
  const Tensor input{{0.2, 0.4, -0.6}};
  const Tensor a = original.PredictBatch(input);
  const Tensor b = restored.PredictBatch(input);
  ASSERT_TRUE(a.SameShape(b));
  for (std::size_t c = 0; c < a.cols(); ++c) {
    EXPECT_DOUBLE_EQ(a(0, c), b(0, c));
  }
  EXPECT_EQ(restored.input_features(), 3u);
  EXPECT_EQ(restored.output_features(), 2u);
}

TEST(Network, PredictOneMatchesBatchPredict) {
  Network network(2, {{3, Activation::kTanh}, {2, Activation::kIdentity}},
                  Loss::kMeanSquaredError, std::make_unique<Sgd>(0.1),
                  util::Rng(43));
  const std::vector<double> x = {0.3, 0.7};
  const auto single = network.PredictOne(x);
  const auto batch = network.PredictBatch(Tensor{{x[0], x[1]}});
  ASSERT_EQ(single.size(), 2u);
  EXPECT_DOUBLE_EQ(single[0], batch(0, 0));
  EXPECT_DOUBLE_EQ(single[1], batch(0, 1));
}

// The batching invariant runtime::Fleet::SuggestMinutes rests on: a batched
// forward produces, per row, EXACTLY the doubles the per-row path produces
// (identical op order — see Network::PredictBatch), so answering many
// queried minutes with one forward cannot perturb any decision.
TEST(PredictBatch, RowsExactlyEqualPredictOne) {
  Network network(9,
                  {{16, Activation::kRelu},
                   {12, Activation::kTanh},
                   {7, Activation::kIdentity}},
                  Loss::kMeanSquaredError, std::make_unique<Adam>(0.01),
                  util::Rng(11));
  util::Rng rng(22);
  std::vector<std::vector<double>> rows(33, std::vector<double>(9));
  Tensor batch(rows.size(), 9);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (double& x : rows[r]) x = rng.NextGaussian();
    batch.SetRow(r, rows[r]);
  }

  const Tensor out = network.PredictBatch(batch);
  ASSERT_EQ(out.rows(), rows.size());
  ASSERT_EQ(out.cols(), 7u);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::vector<double> one = network.PredictOne(rows[r]);
    for (std::size_t c = 0; c < one.size(); ++c) {
      // Exact FP equality, not a tolerance: the batched row must be
      // bit-for-bit the single-row result.
      EXPECT_EQ(out.At(r, c), one[c]) << "row " << r << " col " << c;
    }
  }
}

TEST(PredictBatch, RejectsWidthMismatchAndHandlesEmpty) {
  Network network(5,
                  {{16, Activation::kRelu},
                   {12, Activation::kTanh},
                   {3, Activation::kIdentity}},
                  Loss::kMeanSquaredError, std::make_unique<Adam>(0.01),
                  util::Rng(1));
  EXPECT_THROW(network.PredictBatch(Tensor(2, 4)), util::CheckError);
  const Tensor empty = network.PredictBatch(Tensor(0, 5));
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_EQ(empty.cols(), 3u);
}

}  // namespace
}  // namespace jarvis::neural
