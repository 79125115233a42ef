// Non-owning column-major matrix views.
//
// Kernels and BLAS routines take MatrixView arguments: a (pointer, leading
// dimension, rows, cols) quadruple. Views are cheap to copy and to slice.
#pragma once

#include <cstdint>

#include "common/error.hpp"

namespace tiledqr {

/// Mutable view over a column-major matrix block.
template <typename T>
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(T* data, std::int64_t rows, std::int64_t cols, std::int64_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    TILEDQR_ASSERT(rows >= 0 && cols >= 0 && ld >= rows);
  }

  [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::int64_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::int64_t ld() const noexcept { return ld_; }
  [[nodiscard]] T* data() const noexcept { return data_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  T& operator()(std::int64_t i, std::int64_t j) const {
    TILEDQR_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[i + j * ld_];
  }

  /// Pointer to the top of column j.
  [[nodiscard]] T* col(std::int64_t j) const noexcept { return data_ + j * ld_; }

  /// Sub-block view of size mm x nn starting at (i, j).
  [[nodiscard]] MatrixView sub(std::int64_t i, std::int64_t j, std::int64_t mm,
                               std::int64_t nn) const {
    TILEDQR_ASSERT(i >= 0 && j >= 0 && mm >= 0 && nn >= 0 && i + mm <= rows_ && j + nn <= cols_);
    return MatrixView(data_ + i + j * ld_, mm, nn, ld_);
  }

 private:
  T* data_ = nullptr;
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t ld_ = 0;
};

/// Read-only view over a column-major matrix block.
template <typename T>
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const T* data, std::int64_t rows, std::int64_t cols, std::int64_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    TILEDQR_ASSERT(rows >= 0 && cols >= 0 && ld >= rows);
  }
  // NOLINTNEXTLINE(google-explicit-constructor): implicit mutable->const view.
  ConstMatrixView(MatrixView<T> v)
      : data_(v.data()), rows_(v.rows()), cols_(v.cols()), ld_(v.ld()) {}

  [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::int64_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::int64_t ld() const noexcept { return ld_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  const T& operator()(std::int64_t i, std::int64_t j) const {
    TILEDQR_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[i + j * ld_];
  }

  [[nodiscard]] const T* col(std::int64_t j) const noexcept { return data_ + j * ld_; }

  [[nodiscard]] ConstMatrixView sub(std::int64_t i, std::int64_t j, std::int64_t mm,
                                    std::int64_t nn) const {
    TILEDQR_ASSERT(i >= 0 && j >= 0 && mm >= 0 && nn >= 0 && i + mm <= rows_ && j + nn <= cols_);
    return ConstMatrixView(data_ + i + j * ld_, mm, nn, ld_);
  }

 private:
  const T* data_ = nullptr;
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t ld_ = 0;
};

}  // namespace tiledqr
