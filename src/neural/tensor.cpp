#include "neural/tensor.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace jarvis::neural {

Tensor::Tensor(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Tensor::Tensor(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.begin() == rows.end() ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    JARVIS_CHECK_EQ(row.size(), cols_, "Tensor: ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

std::vector<double> Tensor::RowVector(std::size_t r) const {
  JARVIS_CHECK_LT(r, rows_, "Tensor::RowVector");
  return {data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
          data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_)};
}

void Tensor::SetRow(std::size_t r, const std::vector<double>& values) {
  JARVIS_CHECK_LT(r, rows_, "Tensor::SetRow");
  JARVIS_CHECK_EQ(values.size(), cols_, "Tensor::SetRow: width mismatch");
  std::copy(values.begin(), values.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(r * cols_));
}

void Tensor::CopyRowFrom(std::size_t dst_row, const Tensor& src,
                         std::size_t src_row) {
  JARVIS_DCHECK_LT(dst_row, rows_, "Tensor::CopyRowFrom: dst row");
  JARVIS_DCHECK_LT(src_row, src.rows_, "Tensor::CopyRowFrom: src row");
  JARVIS_CHECK_EQ(src.cols_, cols_, "Tensor::CopyRowFrom: width mismatch");
  std::copy(src.data_.begin() + static_cast<std::ptrdiff_t>(src_row * cols_),
            src.data_.begin() +
                static_cast<std::ptrdiff_t>((src_row + 1) * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>(dst_row * cols_));
}

void Tensor::Resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  // vector::resize never shrinks capacity, so cycling between previously
  // seen shapes is allocation-free.
  data_.resize(rows * cols);
}

void Tensor::CheckShape(const Tensor& other, const char* op) const {
  JARVIS_CHECK(SameShape(other), "Tensor shape mismatch in ", op, ": ",
               ShapeString(), " vs ", other.ShapeString());
}

void Tensor::MatMulInto(const Tensor& other, Tensor& out,
                        bool other_finite) const {
  JARVIS_CHECK_EQ(cols_, other.rows_, "Tensor::MatMulInto: inner dims ",
                  ShapeString(), " vs ", other.ShapeString());
  JARVIS_DCHECK(&out != this && &out != &other,
                "Tensor::MatMulInto: out aliases an operand");
  out.Resize(rows_, other.cols_);
  out.Fill(0.0);
  // i-k-j order: the inner loop streams both the rhs row and the out row
  // contiguously, and each out element still receives its k-products in
  // ascending-k order (the bit-identity invariant). A zero lhs is skipped
  // only under a finite rhs (the exact skip, tensor.h); a NaN lhs never
  // compares equal to 0.0, so it is never skipped.
  // __restrict matches the alias DCHECK above and lets the lane-wise
  // vectorizer run without runtime alias versioning.
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* __restrict lhs_row = &data_[i * cols_];
    double* __restrict out_row = &out.data_[i * other.cols_];
    for (std::size_t k = 0; k < cols_; ++k) {
      const double lhs = lhs_row[k];
      if (other_finite && lhs == 0.0) continue;
      const double* __restrict rhs_row = &other.data_[k * other.cols_];
      for (std::size_t j = 0; j < other.cols_; ++j) {
        out_row[j] += lhs * rhs_row[j];
      }
    }
  }
}

void Tensor::MatMulTransposedInto(const Tensor& other, Tensor& out) const {
  JARVIS_CHECK_EQ(cols_, other.cols_, "Tensor::MatMulTransposedInto: inner ",
                  "dims ", ShapeString(), " vs ", other.ShapeString());
  JARVIS_DCHECK(&out != this && &out != &other,
                "Tensor::MatMulTransposedInto: out aliases an operand");
  out.Resize(rows_, other.rows_);
  // i-j-k order: both operands stream row-contiguously and element (i, j)
  // accumulates this(i, k) * other(j, k) in ascending-k order — the same
  // per-element order as multiplying by the materialized transpose. The
  // j-loop is blocked four wide: each of the four accumulators is still its
  // own ascending-k chain from +0.0 (bit-identical), but the four
  // independent chains break the add-latency dependence that made the
  // plain reduction serial.
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* __restrict lhs_row = &data_[i * cols_];
    double* __restrict out_row = &out.data_[i * other.rows_];
    std::size_t j = 0;
    for (; j + 4 <= other.rows_; j += 4) {
      const double* __restrict rhs0 = &other.data_[j * other.cols_];
      const double* __restrict rhs1 = &other.data_[(j + 1) * other.cols_];
      const double* __restrict rhs2 = &other.data_[(j + 2) * other.cols_];
      const double* __restrict rhs3 = &other.data_[(j + 3) * other.cols_];
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      for (std::size_t k = 0; k < cols_; ++k) {
        const double lhs = lhs_row[k];
        acc0 += lhs * rhs0[k];
        acc1 += lhs * rhs1[k];
        acc2 += lhs * rhs2[k];
        acc3 += lhs * rhs3[k];
      }
      out_row[j] = acc0;
      out_row[j + 1] = acc1;
      out_row[j + 2] = acc2;
      out_row[j + 3] = acc3;
    }
    for (; j < other.rows_; ++j) {
      const double* __restrict rhs_row = &other.data_[j * other.cols_];
      double acc = 0.0;
      for (std::size_t k = 0; k < cols_; ++k) {
        acc += lhs_row[k] * rhs_row[k];
      }
      out_row[j] = acc;
    }
  }
}

void Tensor::TransposedMatMulAccumulate(const Tensor& other,
                                        Tensor& out) const {
  JARVIS_CHECK_EQ(rows_, other.rows_,
                  "Tensor::TransposedMatMulAccumulate: batch dims ",
                  ShapeString(), " vs ", other.ShapeString());
  JARVIS_CHECK(out.rows_ == cols_ && out.cols_ == other.cols_,
               "Tensor::TransposedMatMulAccumulate: out shape ",
               out.ShapeString(), " for ", ShapeString(), "^T x ",
               other.ShapeString());
  JARVIS_DCHECK(&out != this && &out != &other,
                "Tensor::TransposedMatMulAccumulate: out aliases an operand");
  // b-i-j order: element (i, j) accumulates this(b, i) * other(b, j) in
  // ascending-b order on top of out — with out zeroed this is bit-identical
  // to materializing the transpose, multiplying, and adding. The zero skip
  // follows MatMulInto's rule; other is the per-batch upstream gradient, so
  // its finiteness is checked here rather than carried by the caller.
  const bool skip_zeros = AllFinite(other);
  for (std::size_t b = 0; b < rows_; ++b) {
    const double* __restrict lhs_row = &data_[b * cols_];
    const double* __restrict rhs_row = &other.data_[b * other.cols_];
    for (std::size_t i = 0; i < cols_; ++i) {
      const double lhs = lhs_row[i];
      if (skip_zeros && lhs == 0.0) continue;
      double* __restrict out_row = &out.data_[i * other.cols_];
      for (std::size_t j = 0; j < other.cols_; ++j) {
        out_row[j] += lhs * rhs_row[j];
      }
    }
  }
}

void Tensor::AddRowBroadcastInPlace(const Tensor& row) {
  JARVIS_CHECK(row.rows_ == 1 && row.cols_ == cols_,
               "Tensor::AddRowBroadcastInPlace: shape mismatch: ",
               ShapeString(), " vs ", row.ShapeString());
  for (std::size_t r = 0; r < rows_; ++r) {
    double* out_row = &data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) {
      out_row[c] += row.data_[c];
    }
  }
}

void Tensor::SumRowsAccumulate(Tensor& out) const {
  JARVIS_CHECK(out.rows_ == 1 && out.cols_ == cols_,
               "Tensor::SumRowsAccumulate: out shape ", out.ShapeString(),
               " for ", ShapeString());
  JARVIS_DCHECK(&out != this, "Tensor::SumRowsAccumulate: out aliases");
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* in_row = &data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) {
      out.data_[c] += in_row[c];
    }
  }
}

void Tensor::HadamardInPlace(const Tensor& other) {
  CheckShape(other, "HadamardInPlace");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

void Tensor::Fill(double value) { std::fill(data_.begin(), data_.end(), value); }

std::string Tensor::ShapeString() const {
  return "[" + std::to_string(rows_) + "x" + std::to_string(cols_) + "]";
}

bool AllFinite(const Tensor& t) {
  return std::all_of(t.data().begin(), t.data().end(),
                     [](double v) { return std::isfinite(v); });
}

}  // namespace jarvis::neural
