// Bit-parity pins for the optimized kernels: the restructured-loop,
// scratch-reusing production path (Tensor::MatMulInto and friends, the
// DenseLayer/Network scratch forward/backward, the in-place Sgd and Adam
// steps) must produce bit-for-bit the doubles the naive reference
// implementations produce — forward, TrainBatch, and TrainBatchMasked
// alike. No #ifdef selects between the paths: both are always compiled,
// and every comparison below is exact (memcmp on the raw doubles, not a
// tolerance).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "neural/network.h"
#include "reference_kernels.h"
#include "util/rng.h"

namespace jarvis::neural {
namespace {

using testing::ReferenceAdam;
using testing::ReferenceMatMul;
using testing::ReferenceModel;
using testing::ReferenceTranspose;

void ExpectBitEqual(const Tensor& actual, const Tensor& expected,
                    const std::string& what) {
  ASSERT_TRUE(actual.SameShape(expected))
      << what << ": " << actual.ShapeString() << " vs "
      << expected.ShapeString();
  const auto& a = actual.data();
  const auto& e = expected.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &e[i], sizeof(double)), 0)
        << what << " element " << i << ": " << a[i] << " vs " << e[i];
  }
}

Tensor RandomTensor(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t(rows, cols);
  for (double& x : t.mutable_data()) x = rng.NextUniform(-2.0, 2.0);
  return t;
}

// Replay-shaped mask: roughly one taken slot in three.
Tensor RandomMask(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t(rows, cols);
  for (double& x : t.mutable_data()) x = rng.NextBool(1.0 / 3.0) ? 1.0 : 0.0;
  return t;
}

TEST(KernelParity, MatMulIntoMatchesNaiveReference) {
  util::Rng rng(41);
  const std::size_t shapes[][3] = {
      {1, 1, 1}, {3, 5, 2}, {8, 24, 13}, {32, 64, 64}};
  for (const auto& shape : shapes) {
    const Tensor a = RandomTensor(shape[0], shape[1], rng);
    const Tensor b = RandomTensor(shape[1], shape[2], rng);
    Tensor out;
    a.MatMulInto(b, out, AllFinite(b));
    ExpectBitEqual(out, ReferenceMatMul(a, b), "MatMulInto");
  }
}

TEST(KernelParity, TransposedKernelsMatchTransposeThenMultiply) {
  util::Rng rng(43);
  const Tensor grad_pre = RandomTensor(16, 9, rng);   // batch x out
  const Tensor weights = RandomTensor(24, 9, rng);    // in x out
  const Tensor inputs = RandomTensor(16, 24, rng);    // batch x in

  // out = grad_pre * weights^T (MatMulTransposedInto).
  Tensor grad_input;
  grad_pre.MatMulTransposedInto(weights, grad_input, AllFinite(weights));
  ExpectBitEqual(grad_input,
                 ReferenceMatMul(grad_pre, ReferenceTranspose(weights)),
                 "MatMulTransposedInto");

  // out += inputs^T * grad_pre from zero (TransposedMatMulAccumulate).
  Tensor grad_weights(24, 9, 0.0);
  inputs.TransposedMatMulAccumulate(grad_pre, grad_weights);
  ExpectBitEqual(grad_weights,
                 ReferenceMatMul(ReferenceTranspose(inputs), grad_pre),
                 "TransposedMatMulAccumulate");
}

// The DQN shape: ReLU hidden stack, identity (linear) output head, MSE.
Network MakeDqnShapedNetwork(double lr, double momentum, std::uint64_t seed) {
  return Network(12,
                 {{16, Activation::kRelu},
                  {16, Activation::kRelu},
                  {7, Activation::kIdentity}},
                 Loss::kMeanSquaredError, std::make_unique<Sgd>(lr, momentum),
                 util::Rng(seed));
}

// Fresh layers have all-zero biases, which would hide a bias-broadcast bug;
// every bias gets a random value through ImportParameters first.
void RandomizeBiases(Network& network, util::Rng& rng) {
  auto params = network.ExportParameters();
  for (auto& [weights, biases] : params) {
    for (double& b : biases.mutable_data()) b = rng.NextUniform(-1.0, 1.0);
  }
  network.ImportParameters(params);
}

TEST(KernelParity, ForwardBitIdenticalToReferenceAcrossBatchSizes) {
  Network network = MakeDqnShapedNetwork(0.01, 0.0, 47);
  util::Rng rng(48);
  RandomizeBiases(network, rng);
  const ReferenceModel reference = ReferenceModel::FromNetwork(network, 0.01);
  for (std::size_t batch : {std::size_t{1}, std::size_t{8}, std::size_t{32},
                            std::size_t{128}}) {
    const Tensor input = RandomTensor(batch, 12, rng);
    ExpectBitEqual(network.PredictBatch(input), reference.Predict(input),
                   "forward batch=" + std::to_string(batch));
  }
  // PredictOne rides the same kernels: row 0 of a 1-row batch.
  const Tensor one = RandomTensor(1, 12, rng);
  const auto row = network.PredictOne(one.RowVector(0));
  const Tensor ref_row = reference.Predict(one);
  ASSERT_EQ(row.size(), ref_row.cols());
  for (std::size_t c = 0; c < row.size(); ++c) {
    EXPECT_EQ(std::memcmp(&row[c], &ref_row.data()[c], sizeof(double)), 0)
        << "PredictOne col " << c;
  }
}

void ExpectParametersBitEqual(const Network& network,
                              const ReferenceModel& reference,
                              const std::string& what) {
  ASSERT_EQ(network.layers().size(), reference.layers.size());
  for (std::size_t li = 0; li < reference.layers.size(); ++li) {
    ExpectBitEqual(network.layers()[li].weights(),
                   reference.layers[li].weights,
                   what + " layer " + std::to_string(li) + " weights");
    ExpectBitEqual(network.layers()[li].biases(),
                   reference.layers[li].biases,
                   what + " layer " + std::to_string(li) + " biases");
  }
}

void RunTrainingParity(double momentum) {
  const double lr = 0.05;
  Network network = MakeDqnShapedNetwork(lr, momentum, 53);
  ReferenceModel reference =
      ReferenceModel::FromNetwork(network, lr, momentum);
  ExpectParametersBitEqual(network, reference, "seed");
  util::Rng rng(54);
  for (int step = 0; step < 8; ++step) {
    const Tensor input = RandomTensor(32, 12, rng);
    const Tensor target = RandomTensor(32, 7, rng);
    const double loss = network.TrainBatch(input, target);
    const double ref_loss = reference.TrainBatch(input, target);
    EXPECT_EQ(std::memcmp(&loss, &ref_loss, sizeof(double)), 0)
        << "loss diverged at step " << step;
    ExpectParametersBitEqual(network, reference,
                             "step " + std::to_string(step));
  }
}

TEST(KernelParity, TrainBatchTrajectoryBitIdenticalPlainSgd) {
  RunTrainingParity(/*momentum=*/0.0);
}

TEST(KernelParity, TrainBatchTrajectoryBitIdenticalMomentumSgd) {
  RunTrainingParity(/*momentum=*/0.9);
}

TEST(KernelParity, TrainBatchMaskedTrajectoryBitIdentical) {
  const double lr = 0.05;
  Network network = MakeDqnShapedNetwork(lr, 0.0, 59);
  ReferenceModel reference = ReferenceModel::FromNetwork(network, lr);
  util::Rng rng(60);
  for (int step = 0; step < 8; ++step) {
    const Tensor input = RandomTensor(32, 12, rng);
    const Tensor target = RandomTensor(32, 7, rng);
    const Tensor mask = RandomMask(32, 7, rng);
    const double loss = network.TrainBatchMasked(input, target, mask);
    const double ref_loss = reference.TrainBatchMasked(input, target, mask);
    EXPECT_EQ(std::memcmp(&loss, &ref_loss, sizeof(double)), 0)
        << "masked loss diverged at step " << step;
    ExpectParametersBitEqual(network, reference,
                             "masked step " + std::to_string(step));
  }
}

// The replay fast path — one ForwardForTraining whose cached activations
// feed TrainCachedMasked — must be bit-identical to the two-pass
// TrainBatchMasked, including when a PredictScratch (the replay
// bootstrap's forward) runs between the two halves.
TEST(KernelParity, TrainCachedMaskedMatchesTrainBatchMasked) {
  const double lr = 0.05;
  Network two_pass = MakeDqnShapedNetwork(lr, 0.0, 67);
  Network fast_path = MakeDqnShapedNetwork(lr, 0.0, 67);
  util::Rng rng(68);
  for (int step = 0; step < 6; ++step) {
    const Tensor input = RandomTensor(32, 12, rng);
    const Tensor target = RandomTensor(32, 7, rng);
    const Tensor mask = RandomMask(32, 7, rng);
    const Tensor probe = RandomTensor(4, 12, rng);

    const double loss_two_pass = two_pass.TrainBatchMasked(input, target, mask);

    fast_path.ForwardForTraining(input);
    fast_path.PredictBatch(probe);  // bootstrap-style forward in between
    const double loss_fast = fast_path.TrainCachedMasked(target, mask);

    EXPECT_EQ(std::memcmp(&loss_two_pass, &loss_fast, sizeof(double)), 0)
        << "cached-path loss diverged at step " << step;
    for (std::size_t li = 0; li < two_pass.layers().size(); ++li) {
      ExpectBitEqual(fast_path.layers()[li].weights(),
                     two_pass.layers()[li].weights(),
                     "cached step " + std::to_string(step) + " layer " +
                         std::to_string(li) + " weights");
      ExpectBitEqual(fast_path.layers()[li].biases(),
                     two_pass.layers()[li].biases(),
                     "cached step " + std::to_string(step) + " layer " +
                         std::to_string(li) + " biases");
    }
  }
}

// Mixing training and inference must not perturb either: the inference
// ping-pong scratch and the layer forward caches are distinct, so a
// Predict between TrainBatch calls leaves the training trajectory
// untouched.
TEST(KernelParity, InterleavedPredictDoesNotPerturbTraining) {
  const double lr = 0.05;
  Network network = MakeDqnShapedNetwork(lr, 0.0, 61);
  ReferenceModel reference = ReferenceModel::FromNetwork(network, lr);
  util::Rng rng(62);
  for (int step = 0; step < 4; ++step) {
    const Tensor probe = RandomTensor(5, 12, rng);
    ExpectBitEqual(network.PredictBatch(probe), reference.Predict(probe),
                   "interleaved predict " + std::to_string(step));
    const Tensor input = RandomTensor(16, 12, rng);
    const Tensor target = RandomTensor(16, 7, rng);
    network.TrainBatch(input, target);
    reference.TrainBatch(input, target);
    ExpectParametersBitEqual(network, reference,
                             "interleaved step " + std::to_string(step));
  }
}

// A sparse operand in the patterns the pipeline feeds the kernels: one-hot
// rows (the ANN's (state, mini-action, time) encoding), all-zero rows
// (replay's done rows), zero columns (inactive ReLU units), -0.0 entries and
// sparse random rows.
Tensor SparseTensor(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    switch (r % 4) {
      case 0:  // sparse random row (a batch of one gets this)
        for (std::size_t c = 0; c < cols; ++c) {
          if (rng.NextBool(0.2)) t.At(r, c) = rng.NextUniform(-2.0, 2.0);
        }
        break;
      case 1:  // one-hot row
        t.At(r, rng.NextIndex(cols)) = 1.0;
        break;
      case 2:  // all-zero row
        break;
      default:  // dense row with -0.0 holes
        for (std::size_t c = 0; c < cols; ++c) {
          t.At(r, c) = rng.NextBool(0.3) ? -0.0 : rng.NextUniform(-2.0, 2.0);
        }
    }
  }
  for (std::size_t c = 0; c < cols; c += 5) {  // dead ReLU units
    for (std::size_t r = 0; r < rows; ++r) t.At(r, c) = (r % 2) ? -0.0 : 0.0;
  }
  return t;
}

// Shapes (batch, in, out) of the kernels' callers: the ANN filter's
// 88 -> 32 hidden layer at batch 64, and the DQN's 44 -> 64 -> 64 -> 49
// stack at batch 32 and at batch 1 (a suggest).
constexpr std::size_t kPipelineShapes[][3] = {
    {64, 88, 32}, {32, 44, 64}, {32, 64, 64}, {32, 64, 49}, {1, 44, 64}};

TEST(KernelParity, MatMulIntoSkipsZerosBitIdenticallyOnSparseOperands) {
  util::Rng rng(71);
  for (const auto& shape : kPipelineShapes) {
    const Tensor a = SparseTensor(shape[0], shape[1], rng);
    const Tensor b = RandomTensor(shape[1], shape[2], rng);
    const Tensor expected = ReferenceMatMul(a, b);
    for (bool finite : {true, false}) {
      Tensor out;
      a.MatMulInto(b, out, finite);
      ExpectBitEqual(out, expected,
                     "MatMulInto " + std::to_string(shape[0]) + "x" +
                         std::to_string(shape[1]) + "x" +
                         std::to_string(shape[2]) +
                         (finite ? " skip" : " dense"));
    }
  }
}

TEST(KernelParity, TransposedMatMulAccumulateSkipsZerosBitIdentically) {
  util::Rng rng(73);
  for (const auto& shape : kPipelineShapes) {
    const Tensor inputs = SparseTensor(shape[0], shape[1], rng);
    // The upstream gradient is sparse too: ReLU derivatives and the replay
    // mask zero most of it.
    const Tensor grad_pre = SparseTensor(shape[0], shape[2], rng);
    Tensor grad_weights(shape[1], shape[2], 0.0);
    inputs.TransposedMatMulAccumulate(grad_pre, grad_weights);
    ExpectBitEqual(grad_weights,
                   ReferenceMatMul(ReferenceTranspose(inputs), grad_pre),
                   "TransposedMatMulAccumulate " + std::to_string(shape[0]) +
                       "x" + std::to_string(shape[1]) + "x" +
                       std::to_string(shape[2]));
  }
}

TEST(KernelParity, MatMulTransposedIntoSkipsZerosBitIdentically) {
  util::Rng rng(74);
  for (const auto& shape : kPipelineShapes) {
    // grad_pre (batch x out) against weights (in x out): the masked MSE
    // and ReLU derivatives leave most of grad_pre exactly zero.
    const Tensor grad_pre = SparseTensor(shape[0], shape[2], rng);
    const Tensor weights = RandomTensor(shape[1], shape[2], rng);
    const Tensor expected =
        ReferenceMatMul(grad_pre, ReferenceTranspose(weights));
    for (bool finite : {true, false}) {
      Tensor grad_input;
      grad_pre.MatMulTransposedInto(weights, grad_input, finite);
      ExpectBitEqual(grad_input, expected,
                     "MatMulTransposedInto " + std::to_string(shape[0]) +
                         "x" + std::to_string(shape[2]) + "x" +
                         std::to_string(shape[1]) +
                         (finite ? " skip" : " dense"));
    }
  }
}

// Shapes at the edges of the kernels' blocking: one output column (the
// ANN head), widths that are not a multiple of the 8-column block (49, 9,
// 3), batch 1, all-zero rows (SparseTensor's every fourth row), and an
// inner dimension of 600, wider than the kernels' 256-element gather
// chunk.
TEST(KernelParity, BlockTailsAndChunkedInnerDimensionsMatchReference) {
  util::Rng rng(83);
  const std::size_t shapes[][3] = {{64, 32, 1}, {32, 64, 49}, {1, 44, 64},
                                   {1, 64, 49}, {4, 600, 9},  {3, 600, 1},
                                   {600, 5, 3}, {5, 7, 2}};
  for (const auto& shape : shapes) {
    const std::string name = std::to_string(shape[0]) + "x" +
                             std::to_string(shape[1]) + "x" +
                             std::to_string(shape[2]);
    const Tensor a = SparseTensor(shape[0], shape[1], rng);
    const Tensor b = RandomTensor(shape[1], shape[2], rng);
    Tensor out;
    a.MatMulInto(b, out, true);
    ExpectBitEqual(out, ReferenceMatMul(a, b), "MatMulInto " + name);

    const Tensor w = RandomTensor(shape[2], shape[1], rng);
    a.MatMulTransposedInto(w, out, true);
    ExpectBitEqual(out, ReferenceMatMul(a, ReferenceTranspose(w)),
                   "MatMulTransposedInto " + name);

    // a as the batch-major input (batch = shape[0]), g the upstream
    // gradient.
    const Tensor g = SparseTensor(shape[0], shape[2], rng);
    Tensor grad_weights(shape[1], shape[2], 0.0);
    a.TransposedMatMulAccumulate(g, grad_weights);
    ExpectBitEqual(grad_weights, ReferenceMatMul(ReferenceTranspose(a), g),
                   "TransposedMatMulAccumulate " + name);
  }
}

// The DQN exactly: 44 -> 64 -> 64 -> 49 with ReLU hidden layers, Adam at
// the paper's lr 0.001, masked MSE over replay-shaped batches of 32 with
// one-hot-style sparse features. Pins the vectorized Adam step and all
// three kernels against the textbook per-element reference.
TEST(KernelParity, DqnAdamMaskedTrajectoryBitIdentical) {
  const ReferenceAdam adam;
  Network network(44,
                  {{64, Activation::kRelu},
                   {64, Activation::kRelu},
                   {49, Activation::kIdentity}},
                  Loss::kMeanSquaredError,
                  std::make_unique<Adam>(adam.learning_rate), util::Rng(63));
  util::Rng rng(64);
  RandomizeBiases(network, rng);
  ReferenceModel reference = ReferenceModel::FromAdamNetwork(network, adam);
  for (int step = 0; step < 12; ++step) {
    const Tensor input = SparseTensor(32, 44, rng);
    const Tensor target = RandomTensor(32, 49, rng);
    const Tensor mask = RandomMask(32, 49, rng);
    const double loss = network.TrainBatchMasked(input, target, mask);
    const double ref_loss = reference.TrainBatchMasked(input, target, mask);
    EXPECT_EQ(std::memcmp(&loss, &ref_loss, sizeof(double)), 0)
        << "Adam loss diverged at step " << step;
    ExpectParametersBitEqual(network, reference,
                             "Adam step " + std::to_string(step));
  }
}

// Algorithm 1's filter: one-hot inputs through a ReLU hidden layer and a
// sigmoid output, trained with BCE by plain SGD — the trajectory the zero
// skip shortens most.
TEST(KernelParity, OneHotTrainingTrajectoryBitIdentical) {
  const double lr = 0.1;
  Network network(88, {{32, Activation::kRelu}, {1, Activation::kSigmoid}},
                  Loss::kBinaryCrossEntropy, std::make_unique<Sgd>(lr),
                  util::Rng(75));
  ReferenceModel reference = ReferenceModel::FromNetwork(network, lr);
  util::Rng rng(76);
  for (int step = 0; step < 8; ++step) {
    Tensor input(64, 88);
    Tensor target(64, 1);
    for (std::size_t r = 0; r < 64; ++r) {
      // Three one-hot groups, like (state, mini-action, time bucket).
      input.At(r, rng.NextIndex(40)) = 1.0;
      input.At(r, 40 + rng.NextIndex(24)) = 1.0;
      input.At(r, 64 + rng.NextIndex(24)) = 1.0;
      target.At(r, 0) = rng.NextBool(0.5) ? 1.0 : 0.0;
    }
    const double loss = network.TrainBatch(input, target);
    const double ref_loss = reference.TrainBatch(input, target);
    EXPECT_EQ(std::memcmp(&loss, &ref_loss, sizeof(double)), 0)
        << "one-hot loss diverged at step " << step;
    ExpectParametersBitEqual(network, reference,
                             "one-hot step " + std::to_string(step));
  }
}

// Non-finite values: wherever the dense oracle yields NaN the production
// kernels must too, and finite elements stay bit-identical.
void ExpectSameNonFinitePattern(const Tensor& actual, const Tensor& expected,
                                const std::string& what) {
  ASSERT_TRUE(actual.SameShape(expected)) << what;
  bool saw_nan = false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const double a = actual.data()[i];
    const double e = expected.data()[i];
    if (std::isnan(e) || std::isnan(a)) {
      saw_nan = true;
      EXPECT_TRUE(std::isnan(a) && std::isnan(e))
          << what << " element " << i << ": " << a << " vs " << e;
    } else {
      EXPECT_EQ(std::memcmp(&a, &e, sizeof(double)), 0)
          << what << " element " << i << ": " << a << " vs " << e;
    }
  }
  EXPECT_TRUE(saw_nan) << what << ": the case must produce a NaN";
}

// Row 0 is zero at `zero_col` and dense elsewhere; row 1 is all zero.
Tensor ProbeZeroAt(std::size_t cols, std::size_t zero_col, util::Rng& rng) {
  Tensor probe = RandomTensor(2, cols, rng);
  probe.At(0, zero_col) = 0.0;
  for (std::size_t c = 0; c < cols; ++c) probe.At(1, c) = 0.0;
  return probe;
}

TEST(KernelParity, ImportedNanWeightPropagatesThroughZeroInput) {
  // Linear hidden layer: a ReLU would map the NaN it produces to 0.
  Network network(12,
                  {{16, Activation::kIdentity}, {7, Activation::kIdentity}},
                  Loss::kMeanSquaredError, std::make_unique<Sgd>(0.01),
                  util::Rng(77));
  auto params = network.ExportParameters();
  params[0].first.At(3, 5) = std::numeric_limits<double>::quiet_NaN();
  network.ImportParameters(params);
  EXPECT_FALSE(network.layers()[0].weights_finite());
  EXPECT_TRUE(network.layers()[1].weights_finite());
  const ReferenceModel reference = ReferenceModel::FromNetwork(network, 0.01);
  util::Rng rng(78);
  const Tensor probe = ProbeZeroAt(12, 3, rng);
  ExpectSameNonFinitePattern(network.PredictBatch(probe),
                             reference.Predict(probe), "imported NaN");

  // Importing finite weights again turns the skip back on.
  params[0].first.At(3, 5) = 0.25;
  network.ImportParameters(params);
  EXPECT_TRUE(network.layers()[0].weights_finite());
  ExpectBitEqual(network.PredictBatch(probe),
                 ReferenceModel::FromNetwork(network, 0.01).Predict(probe),
                 "re-imported finite");
}

TEST(KernelParity, OptimizerStepToInfWeightPropagatesThroughZeroInput) {
  // One identity layer and an lr so large that the step overflows: weights
  // fed by a non-zero input go to inf, the rest keep their finite values.
  const double lr = 1e300;
  Network network(4, {{3, Activation::kIdentity}}, Loss::kMeanSquaredError,
                  std::make_unique<Sgd>(lr), util::Rng(79));
  ReferenceModel reference = ReferenceModel::FromNetwork(network, lr);
  const Tensor input{{1.0, 0.0, 2.0, 0.0}};
  const Tensor target{{1e10, -1e10, 1e10}};
  network.TrainBatch(input, target);
  reference.TrainBatch(input, target);
  EXPECT_FALSE(network.layers()[0].weights_finite());
  EXPECT_TRUE(std::isinf(network.layers()[0].weights().At(0, 0)));
  // Zero at input 0, whose weight row is now inf: 0 * inf = NaN.
  const Tensor probe{{0.0, 1.0, 0.0, -0.5}, {0.0, 0.0, 0.0, 0.0}};
  ExpectSameNonFinitePattern(network.PredictBatch(probe),
                             reference.Predict(probe), "stepped to inf");
}

TEST(KernelParity, WeightGradientWithInfUpstreamGradientMatchesDense) {
  util::Rng rng(81);
  const Tensor inputs = SparseTensor(8, 12, rng);
  Tensor grad_pre = RandomTensor(8, 5, rng);
  // Row 0 of inputs is zero at every fifth column: 0 * inf there is NaN.
  grad_pre.At(0, 2) = std::numeric_limits<double>::infinity();
  Tensor grad_weights(12, 5, 0.0);
  inputs.TransposedMatMulAccumulate(grad_pre, grad_weights);
  ExpectSameNonFinitePattern(
      grad_weights, ReferenceMatMul(ReferenceTranspose(inputs), grad_pre),
      "inf grad_pre");
}

// The input-gradient skip: a zero in grad_pre times a NaN or inf weight
// must still give NaN, because a non-finite weight turns the skip off.
TEST(KernelParity, InputGradientPropagatesNonFiniteWeightThroughZero) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    util::Rng rng(85);
    const Tensor grad_pre = SparseTensor(8, 10, rng);  // batch x out
    Tensor weights = RandomTensor(12, 10, rng);  // in x out
    // Column 0 of grad_pre is zero in every row (a dead unit).
    weights.At(4, 0) = bad;
    ASSERT_EQ(grad_pre.At(0, 0), 0.0);
    Tensor grad_input;
    grad_pre.MatMulTransposedInto(weights, grad_input, AllFinite(weights));
    ExpectSameNonFinitePattern(
        grad_input, ReferenceMatMul(grad_pre, ReferenceTranspose(weights)),
        std::isnan(bad) ? "NaN weight" : "inf weight");
    EXPECT_TRUE(std::isnan(grad_input.At(0, 4)));
  }
}

}  // namespace
}  // namespace jarvis::neural
