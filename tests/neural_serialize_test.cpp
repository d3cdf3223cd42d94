// Round-trip coverage for neural::serialize — the save-after-learning /
// load-at-deployment path. Tensors travel as their raw IEEE-754 bytes
// (f64le), so a round-tripped network must match the original
// parameter-for-parameter bit for bit, and therefore predict identically.
#include "neural/serialize.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
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
  // poisoned policy.
  Network network = MakeNetwork(5);
  network.mutable_layers()[1].mutable_weights().At(0, 0) =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ToText(network), jarvis::util::CheckError);

  Network infinite = MakeNetwork(6);
  infinite.mutable_layers()[0].biases().At(0, 1) =
      std::numeric_limits<double>::infinity();
  EXPECT_THROW(ToText(infinite), jarvis::util::CheckError);
}

// `doc` with the f64le of the tensor at `path` replaced by the encoding
// of `values`.
jarvis::util::JsonValue WithTensorValues(const jarvis::util::JsonValue& doc,
                                         const json_edit::JsonPath& path,
                                         const std::vector<double>& values) {
  json_edit::JsonPath field = path;
  field.emplace_back(std::string("f64le"));
  return json_edit::SetJson(doc, field,
                            jarvis::util::JsonValue(json_edit::F64le(values)));
}

TEST(NeuralSerialize, NonFiniteParameterRejectedAtLoad) {
  // Same policy on the read side: a checkpoint poisoned at rest (or by a
  // hostile writer) is rejected as malformed input, not loaded.
  Network network = MakeNetwork(5);
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              -std::numeric_limits<double>::infinity()}) {
    std::vector<double> values = network.layers()[0].weights().data();
    values[0] = poison;
    const jarvis::util::JsonValue doc = WithTensorValues(
        ToJson(network), {"layers", 0u, "weights"}, values);
    EXPECT_THROW(FromJson(doc, Loss::kMeanSquaredError,
                          std::make_unique<Adam>(0.005),
                          jarvis::util::Rng(0)),
                 jarvis::util::JsonError);
  }
}

TEST(NeuralSerialize, RejectsCorruptDocuments) {
  // A truncated weight payload: f64le holds one value where rows*cols
  // demands 70.
  const Network network = MakeNetwork(5);
  const jarvis::util::JsonValue good = ToJson(network);
  const auto load = [](const jarvis::util::JsonValue& doc) {
    return FromJson(doc, Loss::kMeanSquaredError,
                    std::make_unique<Adam>(0.005), jarvis::util::Rng(0));
  };
  EXPECT_THROW(load(WithTensorValues(good, {"layers", 0u, "weights"}, {1.0})),
               jarvis::util::JsonError);
  // Shapes that encode the right number of values but do not chain from
  // layer to layer (7x10 weights read as 10x7).
  const jarvis::util::JsonValue transposed = json_edit::SetJson(
      json_edit::SetJson(good, {"layers", 0u, "weights", "rows"},
                         jarvis::util::JsonValue(10)),
      {"layers", 0u, "weights", "cols"}, jarvis::util::JsonValue(7));
  EXPECT_THROW(load(transposed), jarvis::util::JsonError);
  // Only the version the writer stamps is read.
  for (const int version : {1, 2, 4}) {
    EXPECT_THROW(load(json_edit::SetJson(good, {"format_version"},
                                         jarvis::util::JsonValue(version))),
                 jarvis::util::JsonError);
  }
  EXPECT_NO_THROW(load(good));
}

TEST(NeuralSerialize, TensorEncodingIsTheRawLittleEndianBytes) {
  // The writer's f64le equals an independent bit-by-bit encoder's: the
  // format is the bytes, not whatever this codec happens to do.
  const Network network = MakeNetwork(9);
  const Tensor& weights = network.layers()[1].weights();
  EXPECT_EQ(TensorToJson(weights).At("f64le").AsString(),
            json_edit::F64le(weights.data()));
  EXPECT_EQ(TensorToJson(Tensor(1, 1, 1.0)).At("f64le").AsString(),
            "AAAAAAAA8D8=");
}

TEST(NeuralSerialize, TensorRoundTripIsBitExact) {
  // Values a decimal text round trip gets wrong or that sit at the edges
  // of the format: -0.0, the smallest subnormal, +-DBL_MAX, 0.1.
  const std::vector<double> values = {
      -0.0, std::numeric_limits<double>::denorm_min(), DBL_MAX, -DBL_MAX, 0.1,
      -std::numeric_limits<double>::denorm_min()};
  // Every padding length: 8, 16 and 24 bytes.
  for (std::size_t count = 1; count <= 3; ++count) {
    for (std::size_t start = 0; start + count <= values.size(); ++start) {
      Tensor t(1, count);
      for (std::size_t i = 0; i < count; ++i) t.At(0, i) = values[start + i];
      const Tensor back = TensorFromJson(
          jarvis::util::JsonValue::Parse(TensorToJson(t).Dump()));
      ASSERT_EQ(back.rows(), 1u);
      ASSERT_EQ(back.cols(), count);
      EXPECT_EQ(std::memcmp(back.data().data(), t.data().data(),
                            count * sizeof(double)),
                0)
          << "values from index " << start << ", count " << count;
    }
  }
  Tensor all(2, 3);
  for (std::size_t i = 0; i < values.size(); ++i) {
    all.mutable_data()[i] = values[i];
  }
  const Tensor back =
      TensorFromJson(jarvis::util::JsonValue::Parse(TensorToJson(all).Dump()));
  EXPECT_EQ(std::memcmp(back.data().data(), all.data().data(),
                        values.size() * sizeof(double)),
            0);
  EXPECT_TRUE(std::signbit(back.At(0, 0)));
}

TEST(NeuralSerialize, TensorDecoderRefusesEverythingButTheExactEncoding) {
  const auto tensor = [](jarvis::util::JsonValue rows,
                         jarvis::util::JsonValue cols, std::string f64le) {
    jarvis::util::JsonObject doc;
    doc["rows"] = std::move(rows);
    doc["cols"] = std::move(cols);
    doc["f64le"] = jarvis::util::JsonValue(std::move(f64le));
    return jarvis::util::JsonValue(std::move(doc));
  };
  const std::string one = json_edit::F64le({1.5});         // "xxx=" tail
  const std::string two = json_edit::F64le({1.5, -2.0});   // "xx==" tail
  const std::string three = json_edit::F64le({1.5, -2.0, 0.25});  // none
  ASSERT_EQ(one.size(), 12u);
  ASSERT_EQ(two.size(), 24u);
  ASSERT_EQ(three.size(), 32u);
  EXPECT_NO_THROW(TensorFromJson(tensor(1, 1, one)));
  EXPECT_NO_THROW(TensorFromJson(tensor(2, 1, two)));
  EXPECT_NO_THROW(TensorFromJson(tensor(1, 3, three)));
  EXPECT_NO_THROW(TensorFromJson(tensor(0, 5, "")));

  std::vector<std::pair<std::string, jarvis::util::JsonValue>> refused;
  const auto refuse = [&](const std::string& why, jarvis::util::JsonValue doc) {
    refused.emplace_back(why, std::move(doc));
  };
  // Bytes outside the alphabet, in a whole group and in the tail group.
  for (const char bad : {'-', '_', '.', ' ', '\0', '\x80', '\xff', '='}) {
    std::string text = three;
    text[5] = bad;
    refuse(std::string("byte ") + std::to_string(bad & 0xFF) + " in a group",
           tensor(1, 3, text));
    text = one;
    text[9] = bad;
    refuse(std::string("byte ") + std::to_string(bad & 0xFF) + " in the tail",
           tensor(1, 1, text));
  }
  // Wrong padding: missing, extra, or '=' where a value belongs.
  refuse("tail without '='", tensor(1, 1, one.substr(0, 11) + "A"));
  refuse("'==' where '=' belongs", tensor(1, 1, one.substr(0, 10) + "=="));
  refuse("'=' where '==' belongs", tensor(2, 1, two.substr(0, 22) + "A="));
  refuse("padding on a whole group", tensor(1, 3, three.substr(0, 31) + "="));
  // Non-zero pad bits: the low 2 (4) bits of the last value before '='.
  {
    const std::string alphabet =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    const auto with_low_bit = [&](std::string text, std::size_t at) {
      text[at] = alphabet[alphabet.find(text[at]) | 1u];
      return text;
    };
    ASSERT_NE(with_low_bit(one, 10), one);
    ASSERT_NE(with_low_bit(two, 21), two);
    refuse("non-zero pad bits (xxx=)", tensor(1, 1, with_low_bit(one, 10)));
    refuse("non-zero pad bits (xx==)", tensor(2, 1, with_low_bit(two, 21)));
  }
  // One character too long or too short.
  refuse("one character long", tensor(1, 3, three + "A"));
  refuse("one character short", tensor(1, 3, three.substr(0, 31)));
  refuse("empty text for one value", tensor(1, 1, ""));
  // Shapes: negative, and rows x cols that overflow 64 bits (2^40 x 2^24
  // wraps to 0, which an unchecked product would accept for "").
  refuse("negative rows", tensor(-1, 3, three));
  refuse("negative cols", tensor(3, -1, three));
  const std::int64_t big = std::int64_t{1} << 40;
  refuse("2^40 rows", tensor(big, 3, three));
  refuse("2^40 x 2^24 on empty text", tensor(big, std::int64_t{1} << 24, ""));
  refuse("2^40 x 2^40", tensor(big, big, three));
  refuse("shape of 4 values, text of 3", tensor(2, 2, three));
  // Non-finite bit patterns: quiet and signalling NaN, +-Inf.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::signaling_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    refuse("non-finite value", tensor(1, 3, json_edit::F64le({1.0, bad, 2.0})));
  }
  // Missing fields and wrong types.
  jarvis::util::JsonObject no_text;
  no_text["rows"] = jarvis::util::JsonValue(1);
  no_text["cols"] = jarvis::util::JsonValue(1);
  refuse("no f64le", jarvis::util::JsonValue(no_text));
  no_text["f64le"] = jarvis::util::JsonValue(1.5);
  refuse("f64le a number", jarvis::util::JsonValue(no_text));
  for (const auto& [why, doc] : refused) {
    EXPECT_THROW(TensorFromJson(doc), jarvis::util::JsonError) << why;
  }
}

}  // namespace
}  // namespace jarvis::neural
