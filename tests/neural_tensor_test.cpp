#include "neural/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/check.h"

namespace jarvis::neural {
namespace {

// Derives the finiteness flag the way a caller must: from b itself.
Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor out;
  a.MatMulInto(b, out, AllFinite(b));
  return out;
}

TEST(Tensor, ConstructionAndAccess) {
  Tensor t(2, 3, 1.5);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_DOUBLE_EQ(t(1, 2), 1.5);
  t(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(t.At(0, 1), 7.0);
  EXPECT_THROW(t.At(2, 0), util::CheckError);
  EXPECT_THROW(t.At(0, 3), util::CheckError);
}

TEST(Tensor, InitializerListAndRaggedRejected) {
  Tensor t{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(t(1, 0), 3.0);
  EXPECT_THROW((Tensor{{1.0}, {2.0, 3.0}}), util::CheckError);
}

TEST(Tensor, RowAccessors) {
  const Tensor r{{1.0, 2.0, 3.0}};
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_EQ(r.cols(), 3u);
  EXPECT_EQ(r.RowVector(0), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_THROW(r.RowVector(1), util::CheckError);
}

TEST(Tensor, SetRowValidatesWidth) {
  Tensor t(2, 2);
  t.SetRow(1, {5.0, 6.0});
  EXPECT_DOUBLE_EQ(t(1, 1), 6.0);
  EXPECT_THROW(t.SetRow(0, {1.0}), util::CheckError);
  EXPECT_THROW(t.SetRow(2, {1.0, 2.0}), util::CheckError);
}

TEST(Tensor, HadamardInPlace) {
  Tensor a{{1.0, 2.0}, {3.0, 4.0}};
  const Tensor b{{10.0, 20.0}, {30.0, 40.0}};
  a.HadamardInPlace(b);
  EXPECT_DOUBLE_EQ(a(0, 1), 40.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 160.0);
  EXPECT_THROW(a.HadamardInPlace(Tensor(2, 3)), util::CheckError);
}

TEST(Tensor, MatMul) {
  const Tensor a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};   // 2x3
  const Tensor b{{7.0, 8.0}, {9.0, 10.0}, {11.0, 12.0}};  // 3x2
  const Tensor c = MatMul(a, b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
  EXPECT_THROW(MatMul(a, a), util::CheckError);
}

// The zero-operand skip must stay an identity under IEEE 754: 0 * inf and
// 0 * NaN are NaN, so skipping lhs == 0.0 against a non-finite rhs would
// swallow a non-finite weight instead of propagating it. The kernel skips
// only under a finite rhs. Divergence detection
// (ReplayBuffer::PurgePoisoned, DqnAgent::diverged) depends on non-finite
// values surfacing, not being masked by sparsity.
TEST(Tensor, MatMulPropagatesNanAndInfThroughZeroOperands) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Tensor zeros{{0.0, 0.0}};  // 1x2, all-zero lhs row
  const Tensor rhs_inf{{inf}, {1.0}};
  const Tensor rhs_nan{{nan}, {1.0}};
  // 0*inf + 0*1 = NaN + 0 = NaN; an unconditional skip would give 0.0.
  EXPECT_TRUE(std::isnan(MatMul(zeros, rhs_inf)(0, 0)));
  EXPECT_TRUE(std::isnan(MatMul(zeros, rhs_nan)(0, 0)));
  // Zero on the right operand likewise: inf * 0 = NaN.
  const Tensor lhs_inf{{inf, 1.0}};
  const Tensor rhs_zero{{0.0}, {0.0}};
  EXPECT_TRUE(std::isnan(MatMul(lhs_inf, rhs_zero)(0, 0)));
  // Under a finite rhs the skip applies: plain sparse product.
  const Tensor finite{{0.0, 2.0}};
  const Tensor dense{{5.0}, {7.0}};
  EXPECT_DOUBLE_EQ(MatMul(finite, dense)(0, 0), 14.0);
}

TEST(Tensor, MatMulIdentity) {
  const Tensor m{{1.0, 2.0}, {3.0, 4.0}};
  const Tensor identity{{1.0, 0.0}, {0.0, 1.0}};
  const Tensor product = MatMul(m, identity);
  EXPECT_DOUBLE_EQ(product(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(product(1, 1), 4.0);
}

TEST(Tensor, Fill) {
  Tensor t{{1.0, -2.0}};
  t.Fill(9.0);
  EXPECT_DOUBLE_EQ(t(0, 0), 9.0);
}

TEST(Tensor, BroadcastAndReduce) {
  const Tensor batch{{1.0, 2.0}, {3.0, 4.0}};
  Tensor shifted = batch;
  shifted.AddRowBroadcastInPlace(Tensor{{10.0, 20.0}});
  EXPECT_DOUBLE_EQ(shifted(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(shifted(1, 1), 24.0);
  EXPECT_THROW(shifted.AddRowBroadcastInPlace(Tensor(1, 3)),
               util::CheckError);

  Tensor colsum{{100.0, 200.0}};
  batch.SumRowsAccumulate(colsum);  // accumulates on top of out
  EXPECT_DOUBLE_EQ(colsum(0, 0), 104.0);
  EXPECT_DOUBLE_EQ(colsum(0, 1), 206.0);
  Tensor wrong(1, 3);
  EXPECT_THROW(batch.SumRowsAccumulate(wrong), util::CheckError);
}

// Contract-violation coverage: every misuse below must fail a JARVIS_CHECK
// (or, for At(), a JARVIS_DCHECK — active here because the test binaries
// compile with JARVIS_DCHECK_ENABLED=1).
TEST(TensorContract, OutOfBoundsAccessReportsIndexAndShape) {
  const Tensor t(2, 3);
  try {
    (void)t.At(5, 1);
    FAIL() << "At did not throw";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Tensor::At(5, 1)"), std::string::npos) << what;
    EXPECT_NE(what.find("2x3"), std::string::npos) << what;
  }
}

TEST(TensorContract, MutableAccessAlsoChecked) {
  Tensor t(1, 1);
  EXPECT_THROW(t.At(1, 0) = 3.0, util::CheckError);
  EXPECT_THROW(t(0, 1) = 3.0, util::CheckError);
}

TEST(TensorContract, ShapeMismatchReportsBothShapes) {
  Tensor a(2, 2);
  const Tensor b(3, 2);
  try {
    a.HadamardInPlace(b);
    FAIL() << "HadamardInPlace did not throw";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[2x2]"), std::string::npos) << what;
    EXPECT_NE(what.find("[3x2]"), std::string::npos) << what;
  }
}

TEST(TensorContract, MatMulInnerDimensionMismatch) {
  const Tensor a(2, 3);
  const Tensor b(4, 2);
  EXPECT_THROW(MatMul(a, b), util::CheckError);
}

}  // namespace
}  // namespace jarvis::neural
