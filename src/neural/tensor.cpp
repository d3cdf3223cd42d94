#include "neural/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.h"

namespace jarvis::neural {

namespace {

// Two doubles in one vector register (SSE2 on baseline x86-64). Lane-wise
// `*` and `+` round exactly as the scalar operations do, so a Pair
// accumulator is two independent ascending chains, not a reassociation.
using Pair = double __attribute__((vector_size(16)));

Pair LoadPair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void StorePair(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

// Left operands gathered per pass; a wider operand is walked in chunks of
// this many, each chunk continuing the ascending order of the last.
constexpr std::size_t kChunk = 256;

// The left operands one pass multiplies, in ascending k: their values and
// the offsets of their right-operand rows.
struct Gathered {
  double value[kChunk];
  std::size_t offset[kChunk];
  std::size_t count = 0;
};

// Gathers lhs[k * stride] for k in [0, n) (n <= kChunk), dropping the
// exact zeros unless `keep_zeros`. Branch-free: every element is written,
// and the count moves past it only when it is kept, so ReLU and one-hot
// zeros cost no mispredicted branch. NaN != 0.0, so a NaN is always kept.
void Gather(const double* lhs, std::size_t stride, std::size_t n,
            std::size_t offset_step, bool keep_zeros, Gathered& g) {
  std::size_t count = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double x = lhs[k * stride];
    g.value[count] = x;
    g.offset[count] = k * offset_step;
    count += static_cast<std::size_t>(keep_zeros | (x != 0.0));
  }
  g.count = count;
}

// out[0, 8) += g.value[t] * rhs[g.offset[t] + 0..8) over t in ascending
// order, with the eight accumulators held in registers across t.
void AccumulateBlock8(const Gathered& g, const double* rhs, double* out) {
  Pair a0 = LoadPair(out), a1 = LoadPair(out + 2);
  Pair a2 = LoadPair(out + 4), a3 = LoadPair(out + 6);
  for (std::size_t t = 0; t < g.count; ++t) {
    const Pair x = {g.value[t], g.value[t]};
    const double* row = rhs + g.offset[t];
    a0 += x * LoadPair(row);
    a1 += x * LoadPair(row + 2);
    a2 += x * LoadPair(row + 4);
    a3 += x * LoadPair(row + 6);
  }
  StorePair(out, a0);
  StorePair(out + 2, a1);
  StorePair(out + 4, a2);
  StorePair(out + 6, a3);
}

// out[0, cols) += the gathered products: blocks of 8 columns, then pairs,
// then one scalar column.
void AccumulateRow(const Gathered& g, const double* rhs, std::size_t cols,
                   double* out) {
  std::size_t j = 0;
  for (; j + 8 <= cols; j += 8) AccumulateBlock8(g, rhs + j, out + j);
  for (; j + 2 <= cols; j += 2) {
    Pair acc = LoadPair(out + j);
    for (std::size_t t = 0; t < g.count; ++t) {
      const Pair x = {g.value[t], g.value[t]};
      acc += x * LoadPair(rhs + g.offset[t] + j);
    }
    StorePair(out + j, acc);
  }
  if (j < cols) {
    double acc = out[j];
    for (std::size_t t = 0; t < g.count; ++t) {
      acc += g.value[t] * rhs[g.offset[t] + j];
    }
    out[j] = acc;
  }
}

// out[c] += g.value[t] * rhs[c * ld + g.offset[t]] for c in [0, 8): eight
// dot-product chains over the gathered k, each ascending, held in
// registers across t.
void DotBlock8(const Gathered& g, const double* rhs, std::size_t ld,
               double* out) {
  Pair a0 = LoadPair(out), a1 = LoadPair(out + 2);
  Pair a2 = LoadPair(out + 4), a3 = LoadPair(out + 6);
  for (std::size_t t = 0; t < g.count; ++t) {
    const Pair x = {g.value[t], g.value[t]};
    const double* c = rhs + g.offset[t];
    a0 += x * Pair{c[0], c[ld]};
    a1 += x * Pair{c[2 * ld], c[3 * ld]};
    a2 += x * Pair{c[4 * ld], c[5 * ld]};
    a3 += x * Pair{c[6 * ld], c[7 * ld]};
  }
  StorePair(out, a0);
  StorePair(out + 2, a1);
  StorePair(out + 4, a2);
  StorePair(out + 6, a3);
}

}  // namespace

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
  // Per row: gather the non-zero lhs (all of them under a non-finite rhs),
  // then run every out column over that list in register blocks.
  Gathered g;
  for (std::size_t i = 0; i < rows_; ++i) {
    double* out_row = &out.data_[i * other.cols_];
    for (std::size_t k0 = 0; k0 < cols_; k0 += kChunk) {
      Gather(&data_[i * cols_ + k0], 1, std::min(kChunk, cols_ - k0),
             other.cols_, !other_finite, g);
      AccumulateRow(g, &other.data_[k0 * other.cols_], other.cols_, out_row);
    }
  }
}

void Tensor::MatMulTransposedInto(const Tensor& other, Tensor& out,
                                  bool other_finite) const {
  JARVIS_CHECK_EQ(cols_, other.cols_, "Tensor::MatMulTransposedInto: inner ",
                  "dims ", ShapeString(), " vs ", other.ShapeString());
  JARVIS_DCHECK(&out != this && &out != &other,
                "Tensor::MatMulTransposedInto: out aliases an operand");
  out.Resize(rows_, other.rows_);
  out.Fill(0.0);
  // Per row: gather the non-zero lhs, then take the dot product of that
  // list with eight rhs rows at a time.
  Gathered g;
  for (std::size_t i = 0; i < rows_; ++i) {
    double* out_row = &out.data_[i * other.rows_];
    for (std::size_t k0 = 0; k0 < cols_; k0 += kChunk) {
      Gather(&data_[i * cols_ + k0], 1, std::min(kChunk, cols_ - k0), 1,
             !other_finite, g);
      std::size_t j = 0;
      for (; j + 8 <= other.rows_; j += 8) {
        DotBlock8(g, &other.data_[j * other.cols_ + k0], other.cols_,
                  out_row + j);
      }
      for (; j < other.rows_; ++j) {
        const double* rhs_row = &other.data_[j * other.cols_ + k0];
        double acc = out_row[j];
        for (std::size_t t = 0; t < g.count; ++t) {
          acc += g.value[t] * rhs_row[g.offset[t]];
        }
        out_row[j] = acc;
      }
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
  // Per out row i: gather column i of this over the batch, then run every
  // out column over that list in register blocks, on top of out's value.
  // other is the per-batch upstream gradient, so its finiteness is scanned
  // here rather than carried by the caller.
  const bool keep_zeros = !AllFinite(other);
  Gathered g;
  for (std::size_t i = 0; i < cols_; ++i) {
    double* out_row = &out.data_[i * other.cols_];
    for (std::size_t b0 = 0; b0 < rows_; b0 += kChunk) {
      Gather(&data_[b0 * cols_ + i], cols_, std::min(kChunk, rows_ - b0),
             other.cols_, keep_zeros, g);
      AccumulateRow(g, &other.data_[b0 * other.cols_], other.cols_, out_row);
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
