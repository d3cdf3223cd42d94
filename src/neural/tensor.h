// A dense row-major 2-D tensor (matrix) with the operations needed by the
// paper's networks: the single-hidden-layer ANN filter (Section IV-A) and
// the two-hidden-layer DQN (Section V-A-6). Vectors are 1xN or Nx1 matrices.
//
// Kernel & memory model (DESIGN.md §12): the hot-path entry points are the
// *Into / *InPlace / *Accumulate kernels, which write into caller-owned
// tensors so steady-state forward/backward passes allocate nothing. Every
// kernel preserves one numerical invariant: each output element accumulates
// its k-products in ascending-k order starting from +0.0, independently of
// every other output element. That per-element order is what makes batched
// inference bit-identical to per-row inference (Network::PredictBatch) and
// the kernels bit-identical to the naive reference loops
// (tests/neural_kernels_test.cpp).
//
// Zero skip, exact by construction (DESIGN.md §12): the three matrix
// kernels multiply only the left operands that are != 0.0, and only when
// the right operand is entirely finite. Then every skipped product is ±0,
// and adding ±0 to an accumulator that started at +0.0 leaves it unchanged,
// so results stay bit-identical to the dense loop. A non-finite right
// operand turns the skip off, so 0 * inf and 0 * NaN still propagate NaN —
// divergence in the DQN surfaces in its outputs rather than being masked.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/check.h"

namespace jarvis::neural {

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols, double fill = 0.0);
  Tensor(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  // Element access. Bounds are JARVIS_DCHECKed: debug (and any build with
  // JARVIS_DCHECK_ENABLED=1) verifies every access; release keeps the
  // unchecked fast path.
  double& At(std::size_t r, std::size_t c) {
    JARVIS_DCHECK(r < rows_ && c < cols_, "Tensor::At(", r, ", ", c,
                  ") out of bounds for ", rows_, "x", cols_);
    return data_[r * cols_ + c];
  }
  double At(std::size_t r, std::size_t c) const {
    JARVIS_DCHECK(r < rows_ && c < cols_, "Tensor::At(", r, ", ", c,
                  ") out of bounds for ", rows_, "x", cols_);
    return data_[r * cols_ + c];
  }
  double& operator()(std::size_t r, std::size_t c) { return At(r, c); }
  double operator()(std::size_t r, std::size_t c) const { return At(r, c); }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& mutable_data() { return data_; }

  // Extracts row r as a flat vector.
  std::vector<double> RowVector(std::size_t r) const;
  void SetRow(std::size_t r, const std::vector<double>& values);
  // Copies src's row src_row into this tensor's row dst_row (widths must
  // match). The allocation-free row gather used by mini-batch assembly.
  void CopyRowFrom(std::size_t dst_row, const Tensor& src,
                   std::size_t src_row);

  // Reshapes without shrinking capacity: repeated Resize cycles between
  // shapes seen before perform no allocation (the scratch-tensor contract).
  // Newly exposed elements are zero; surviving elements keep their values
  // only when cols is unchanged (row-major layout).
  void Resize(std::size_t rows, std::size_t cols);

  // out = this * other, written into a caller-owned tensor (resized, no
  // allocation once out has seen the shape). Per output element the
  // k-products accumulate in ascending-k order from +0.0 — the
  // bit-identity invariant. `other_finite` must say whether every element
  // of other is finite (AllFinite(other)); when it is true, zero elements
  // of this are skipped. The caller passes it so a forward over fixed
  // weights need not rescan them (DenseLayer keeps the answer). `out` must
  // not alias this or other.
  void MatMulInto(const Tensor& other, Tensor& out, bool other_finite) const;

  // out = this * other^T without materializing the transpose. Element
  // (i, j) accumulates this(i, k) * other(j, k) in ascending-k order from
  // +0.0 — the order a textbook multiply by the materialized transpose
  // uses, so backprop's dInput is bit-identical to it. `other_finite` and
  // the zero skip are as for MatMulInto. `out` must not alias this or
  // other.
  void MatMulTransposedInto(const Tensor& other, Tensor& out,
                            bool other_finite) const;

  // out += this^T * other without materializing the transpose (the weight-
  // gradient kernel: this is the cached batch-major input, other the
  // batch-major upstream gradient). Element (i, j) accumulates
  // this(b, i) * other(b, j) in ascending-b order on top of out's current
  // value; with out zeroed this matches a textbook multiply by the
  // materialized transpose bit-for-bit. Zero elements of this are skipped
  // when other is entirely finite (checked here, O(batch x out)); that is
  // exact as long as out holds no -0.0, which no accumulator that started
  // at +0.0 can.
  // out must already be (this->cols x other.cols) and not alias either
  // operand.
  void TransposedMatMulAccumulate(const Tensor& other, Tensor& out) const;

  // Adds a 1xC row vector to every row (bias broadcast).
  void AddRowBroadcastInPlace(const Tensor& row);
  // out += column-wise sums (out is 1xC), accumulating rows in ascending
  // order: the bias-gradient reduce.
  void SumRowsAccumulate(Tensor& out) const;

  // this[i] *= other[i] elementwise (shapes must match).
  void HadamardInPlace(const Tensor& other);

  void Fill(double value);
  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string ShapeString() const;

 private:
  void CheckShape(const Tensor& other, const char* op) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// True when no element is NaN or infinite: the condition under which the
// kernels may skip a zero left operand.
bool AllFinite(const Tensor& t);

}  // namespace jarvis::neural
