// Round-trip coverage for neural::serialize — the save-after-learning /
// load-at-deployment path. JSON numbers are emitted at %.17g, so a
// round-tripped network must match the original parameter-for-parameter
// with EXACT FP equality, and therefore predict identically.
#include "neural/serialize.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "json_edit.h"
#include "util/check.h"
#include "util/rng.h"

namespace jarvis::neural {
namespace {

Network MakeNetwork(std::uint64_t seed) {
  return Network(7,
                 {{10, Activation::kRelu},
                  {6, Activation::kTanh},
                  {4, Activation::kSigmoid},
                  {3, Activation::kIdentity}},
                 Loss::kMeanSquaredError, std::make_unique<Adam>(0.005),
                 jarvis::util::Rng(seed));
}

// The checkpoint path's text round trip: Dump, then Parse.
std::string ToText(const Network& network,
                   const SerializeOptions& options = {}) {
  return ToJson(network, options).Dump();
}

Network FromText(const std::string& text, Loss loss,
                 std::unique_ptr<Optimizer> optimizer, jarvis::util::Rng rng) {
  return FromJson(jarvis::util::JsonValue::Parse(text), loss,
                  std::move(optimizer), rng);
}

void TrainALittle(Network& network, std::uint64_t seed) {
  jarvis::util::Rng rng(seed);
  Tensor inputs(24, network.input_features());
  for (double& x : inputs.mutable_data()) x = rng.NextGaussian();
  Tensor targets(24, network.output_features());
  for (double& x : targets.mutable_data()) x = rng.NextDouble();
  for (int epoch = 0; epoch < 3; ++epoch) {
    network.TrainEpoch(inputs, targets, 8);
  }
}

TEST(NeuralSerialize, RoundTripPreservesTopology) {
  Network original = MakeNetwork(5);
  const Network restored =
      FromText(ToText(original), Loss::kMeanSquaredError,
                     std::make_unique<Adam>(0.005), jarvis::util::Rng(999));
  ASSERT_EQ(restored.layers().size(), original.layers().size());
  EXPECT_EQ(restored.input_features(), original.input_features());
  EXPECT_EQ(restored.output_features(), original.output_features());
  EXPECT_EQ(restored.parameter_count(), original.parameter_count());
  for (std::size_t i = 0; i < original.layers().size(); ++i) {
    EXPECT_EQ(restored.layers()[i].activation(),
              original.layers()[i].activation());
    EXPECT_EQ(restored.layers()[i].in_features(),
              original.layers()[i].in_features());
    EXPECT_EQ(restored.layers()[i].out_features(),
              original.layers()[i].out_features());
  }
}

TEST(NeuralSerialize, RoundTripPreservesParametersExactly) {
  Network original = MakeNetwork(5);
  TrainALittle(original, 17);  // non-initial, "ugly" doubles
  const Network restored =
      FromText(ToText(original), Loss::kMeanSquaredError,
                     std::make_unique<Adam>(0.005), jarvis::util::Rng(999));
  for (std::size_t i = 0; i < original.layers().size(); ++i) {
    EXPECT_EQ(restored.layers()[i].weights().data(),
              original.layers()[i].weights().data())
        << "layer " << i << " weights";
    EXPECT_EQ(restored.layers()[i].biases().data(),
              original.layers()[i].biases().data())
        << "layer " << i << " biases";
  }
}

TEST(NeuralSerialize, RoundTripPredictsIdentically) {
  Network original = MakeNetwork(8);
  TrainALittle(original, 4);
  const Network restored =
      FromText(ToText(original), Loss::kMeanSquaredError,
                     std::make_unique<Adam>(0.005), jarvis::util::Rng(1));
  jarvis::util::Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> input(original.input_features());
    for (double& x : input) x = rng.NextGaussian(0.0, 3.0);
    EXPECT_EQ(restored.PredictOne(input), original.PredictOne(input));
  }
}

TEST(NeuralSerialize, SecondSerializationIsStable) {
  Network original = MakeNetwork(21);
  TrainALittle(original, 2);
  const std::string first = ToText(original);
  const Network restored =
      FromText(first, Loss::kMeanSquaredError,
                     std::make_unique<Adam>(0.005), jarvis::util::Rng(0));
  EXPECT_EQ(ToText(restored), first);
}

// Deterministic resumption: one fixed sample, batch size 1. TrainEpoch
// shuffles mini-batches with the network's *internal* RNG, which is
// deliberately not serialized — with a single sample the shuffle is a
// no-op and the continued trajectory is a pure function of parameters plus
// optimizer state, which is exactly what the round trip must preserve.
void ResumeTraining(Network& network, int steps) {
  int k = 0;
  Tensor input(1, network.input_features());
  for (double& x : input.mutable_data()) x = 0.1 * ++k;
  Tensor target(1, network.output_features());
  for (double& x : target.mutable_data()) x = 0.05 * ++k;
  for (int step = 0; step < steps; ++step) {
    network.TrainEpoch(input, target, 1);
  }
}

TEST(NeuralSerialize, OptimizerStateRoundTripResumesTrainingExactly) {
  // The strong form of optimizer-state fidelity: after a round trip WITH
  // optimizer state, continued training must follow the original run
  // step-for-step — Adam's moments, velocities, and step count all have to
  // be bit-exact for the bias-corrected updates to match.
  Network original = MakeNetwork(5);
  TrainALittle(original, 17);
  const SerializeOptions with_optimizer{.include_optimizer = true};
  Network restored =
      FromText(ToText(original, with_optimizer),
                     Loss::kMeanSquaredError, std::make_unique<Adam>(0.005),
                     jarvis::util::Rng(999));
  ResumeTraining(original, 5);
  ResumeTraining(restored, 5);
  for (std::size_t i = 0; i < original.layers().size(); ++i) {
    EXPECT_EQ(restored.layers()[i].weights().data(),
              original.layers()[i].weights().data())
        << "layer " << i << " diverged after resumed training";
  }
}

TEST(NeuralSerialize, ColdOptimizerRestoreDivergesFromWarm) {
  // Control for the test above: WITHOUT optimizer state the restored
  // network resumes with cold moments (Adam restarts its bias-correction
  // step count), so the same continued training takes a different
  // trajectory. Guards against include_optimizer silently doing nothing.
  Network original = MakeNetwork(5);
  TrainALittle(original, 17);
  Network cold =
      FromText(ToText(original), Loss::kMeanSquaredError,
                     std::make_unique<Adam>(0.005), jarvis::util::Rng(999));
  ResumeTraining(original, 5);
  ResumeTraining(cold, 5);
  bool any_difference = false;
  for (std::size_t i = 0; i < original.layers().size(); ++i) {
    if (cold.layers()[i].weights().data() !=
        original.layers()[i].weights().data()) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(NeuralSerialize, DocumentWithoutOptimizerOmitsTheSection) {
  Network original = MakeNetwork(3);
  TrainALittle(original, 9);
  const auto bare = ToJson(original);
  EXPECT_EQ(bare.AsObject().count("optimizer"), 0u);
  const auto with_state = ToJson(original, {.include_optimizer = true});
  EXPECT_EQ(with_state.AsObject().count("optimizer"), 1u);
}

TEST(NeuralSerialize, CrossKindOptimizerImportIsRejected) {
  // Adam state imported into an SGD optimizer (or vice versa) would be
  // silently misinterpreted; the kind is recorded and enforced.
  Network original = MakeNetwork(5);
  TrainALittle(original, 17);
  const std::string text =
      ToText(original, {.include_optimizer = true});
  EXPECT_THROW(FromText(text, Loss::kMeanSquaredError,
                              std::make_unique<Sgd>(0.005),
                              jarvis::util::Rng(0)),
               jarvis::util::JsonError);
}

TEST(NeuralSerialize, NonFiniteParameterRejectedAtSave) {
  // A diverged network must fail loudly at the boundary, not persist a
  // poisoned policy ("%.17g" would emit unparseable tokens anyway).
  Network network = MakeNetwork(5);
  network.mutable_layers()[1].mutable_weights().At(0, 0) =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ToText(network), jarvis::util::CheckError);

  Network infinite = MakeNetwork(6);
  infinite.mutable_layers()[0].biases().At(0, 1) =
      std::numeric_limits<double>::infinity();
  EXPECT_THROW(ToText(infinite), jarvis::util::CheckError);
}

TEST(NeuralSerialize, NonFiniteParameterRejectedAtLoad) {
  // Same policy on the read side: a checkpoint poisoned at rest (or by a
  // hostile writer) is rejected as malformed input, not loaded.
  Network network = MakeNetwork(5);
  const jarvis::util::JsonValue doc = json_edit::SetJson(
      ToJson(network), {"layers", 0u, "weights", "data", 0u},
      jarvis::util::JsonValue(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_THROW(FromJson(doc, Loss::kMeanSquaredError,
                        std::make_unique<Adam>(0.005),
                        jarvis::util::Rng(0)),
               jarvis::util::JsonError);
}

TEST(NeuralSerialize, RejectsCorruptDocuments) {
  // Hand-built document with a truncated weight payload: "data" holds one
  // value where rows*cols demands six.
  jarvis::util::JsonObject weights;
  weights["rows"] = jarvis::util::JsonValue(2);
  weights["cols"] = jarvis::util::JsonValue(3);
  weights["data"] =
      jarvis::util::JsonValue(jarvis::util::JsonArray{
          jarvis::util::JsonValue(1.0)});
  jarvis::util::JsonObject biases;
  biases["rows"] = jarvis::util::JsonValue(1);
  biases["cols"] = jarvis::util::JsonValue(3);
  biases["data"] = jarvis::util::JsonValue(
      jarvis::util::JsonArray(3, jarvis::util::JsonValue(0.0)));
  jarvis::util::JsonObject layer;
  layer["activation"] = jarvis::util::JsonValue("identity");
  layer["weights"] = jarvis::util::JsonValue(std::move(weights));
  layer["biases"] = jarvis::util::JsonValue(std::move(biases));
  jarvis::util::JsonObject doc;
  doc["input_features"] = jarvis::util::JsonValue(2);
  doc["layers"] = jarvis::util::JsonValue(
      jarvis::util::JsonArray{jarvis::util::JsonValue(std::move(layer))});
  EXPECT_THROW(
      FromJson(jarvis::util::JsonValue(std::move(doc)),
               Loss::kMeanSquaredError, std::make_unique<Adam>(0.005),
               jarvis::util::Rng(0)),
      jarvis::util::JsonError);
}

}  // namespace
}  // namespace jarvis::neural
