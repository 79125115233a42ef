// Owning column-major dense matrix.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "matrix/matrix_view.hpp"
#include "matrix/scalar.hpp"

namespace tiledqr {

/// Column-major dense matrix with 64-byte aligned storage (ld == rows).
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized m x n matrix.
  Matrix(std::int64_t m, std::int64_t n) : rows_(m), cols_(n), data_(size_t(m) * size_t(n)) {
    TILEDQR_CHECK(m >= 0 && n >= 0, "matrix dimensions must be non-negative");
  }

  [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::int64_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::int64_t ld() const noexcept { return rows_; }
  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }

  T& operator()(std::int64_t i, std::int64_t j) {
    TILEDQR_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[size_t(i) + size_t(j) * size_t(rows_)];
  }
  const T& operator()(std::int64_t i, std::int64_t j) const {
    TILEDQR_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[size_t(i) + size_t(j) * size_t(rows_)];
  }

  [[nodiscard]] MatrixView<T> view() noexcept {
    return MatrixView<T>(data(), rows_, cols_, rows_);
  }
  [[nodiscard]] ConstMatrixView<T> view() const noexcept {
    return ConstMatrixView<T>(data(), rows_, cols_, rows_);
  }
  [[nodiscard]] MatrixView<T> sub(std::int64_t i, std::int64_t j, std::int64_t mm,
                                  std::int64_t nn) {
    return view().sub(i, j, mm, nn);
  }
  [[nodiscard]] ConstMatrixView<T> sub(std::int64_t i, std::int64_t j, std::int64_t mm,
                                       std::int64_t nn) const {
    return view().sub(i, j, mm, nn);
  }

  /// Sets every entry to `value`.
  void fill(T value) {
    for (auto& x : data_) x = value;
  }

  /// m x m identity.
  [[nodiscard]] static Matrix identity(std::int64_t m) {
    Matrix I(m, m);
    for (std::int64_t i = 0; i < m; ++i) I(i, i) = T(1);
    return I;
  }

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<T, AlignedAllocator<T>> data_;
};

/// Copies `src` into `dst`; shapes must match.
template <typename T>
void copy(ConstMatrixView<std::type_identity_t<T>> src, MatrixView<T> dst) {
  TILEDQR_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols(),
                "copy: shape mismatch");
  for (std::int64_t j = 0; j < src.cols(); ++j)
    for (std::int64_t i = 0; i < src.rows(); ++i) dst(i, j) = src(i, j);
}

/// dst := srcᴴ (dst is src.cols() x src.rows(); no aliasing): the library's
/// one adjoint copy. It runs in 16 x 16 blocks, down the source's columns:
/// copied a column at a time, a source column stride of 4 KiB (a 512-row
/// double A) lands every read of a destination column in one L1 set. Tiling
/// a 512 x 4096 double A as Aᴴ took 1.6-1.7x the time of a straight tiling this
/// way, and 3.1-3.4x in 8 x 8 blocks across the columns (one core, AVX-512
/// host).
template <typename T>
void adjoint_copy(ConstMatrixView<std::type_identity_t<T>> src, MatrixView<T> dst) {
  TILEDQR_CHECK(dst.rows() == src.cols() && dst.cols() == src.rows(),
                "adjoint_copy: shape mismatch");
  constexpr std::int64_t kBlock = 16;
  for (std::int64_t j0 = 0; j0 < src.cols(); j0 += kBlock)
    for (std::int64_t i0 = 0; i0 < src.rows(); i0 += kBlock) {
      const std::int64_t i1 = std::min(i0 + kBlock, src.rows());
      const std::int64_t j1 = std::min(j0 + kBlock, src.cols());
      for (std::int64_t i = i0; i < i1; ++i)
        for (std::int64_t j = j0; j < j1; ++j) dst(j, i) = conj_if_complex(src(i, j));
    }
}

}  // namespace tiledqr
