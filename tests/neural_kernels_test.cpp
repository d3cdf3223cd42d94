// Bit-parity pins for the optimized kernels: the restructured-loop,
// scratch-reusing production path (Tensor::MatMulInto and friends, the
// DenseLayer/Network scratch forward/backward, the in-place Sgd step) must
// produce bit-for-bit the doubles the naive reference implementations
// produce — forward, TrainBatch, and TrainBatchMasked alike. No #ifdef
// selects between the paths: both are always compiled, and every
// comparison below is exact (memcmp on the raw doubles, not a tolerance).
#include <gtest/gtest.h>

#include <cstring>

#include "neural/network.h"
#include "reference_kernels.h"
#include "util/rng.h"

namespace jarvis::neural {
namespace {

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
    a.MatMulInto(b, out);
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
  grad_pre.MatMulTransposedInto(weights, grad_input);
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

TEST(KernelParity, ForwardBitIdenticalToReferenceAcrossBatchSizes) {
  const Network network = MakeDqnShapedNetwork(0.01, 0.0, 47);
  const ReferenceModel reference = ReferenceModel::FromNetwork(network, 0.01);
  util::Rng rng(48);
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

}  // namespace
}  // namespace jarvis::neural
