// Matrix norms and comparison helpers.
#pragma once

#include <algorithm>
#include <cmath>

#include "matrix/matrix_view.hpp"
#include "matrix/scalar.hpp"

namespace tiledqr {

namespace detail {

/// Frobenius norm of f(i, j) over a rows x cols grid, two-pass scaled: the
/// largest |entry| first, then the sum of squares of the entries divided by
/// it. Squaring unscaled entries overflows above about 1e154 and underflows
/// to 0 below about 1e-154.
template <typename T, typename F>
[[nodiscard]] RealType<T> scaled_frobenius(std::int64_t rows, std::int64_t cols, F f) {
  using R = RealType<T>;
  R scale = 0;
  for (std::int64_t j = 0; j < cols; ++j)
    for (std::int64_t i = 0; i < rows; ++i) {
      const R v = std::abs(f(i, j));  // |x| without squaring
      if (v > scale || std::isnan(v)) scale = v;  // a NaN sticks
    }
  if (scale == R(0) || !std::isfinite(scale)) return scale;
  R sum = 0;
  for (std::int64_t j = 0; j < cols; ++j)
    for (std::int64_t i = 0; i < rows; ++i) sum += ScalarTraits<T>::abs_sq(f(i, j) / scale);
  return scale * std::sqrt(sum);
}

}  // namespace detail

/// Frobenius norm.
template <typename T>
[[nodiscard]] RealType<T> frobenius_norm(ConstMatrixView<T> a) {
  return detail::scaled_frobenius<T>(a.rows(), a.cols(),
                                     [&](std::int64_t i, std::int64_t j) { return a(i, j); });
}

/// Frobenius norm of (a - b); shapes must match.
template <typename T>
[[nodiscard]] RealType<T> difference_norm(ConstMatrixView<T> a, ConstMatrixView<T> b) {
  TILEDQR_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "difference_norm: shape mismatch");
  return detail::scaled_frobenius<T>(
      a.rows(), a.cols(), [&](std::int64_t i, std::int64_t j) { return T(a(i, j) - b(i, j)); });
}

/// Frobenius distance of a^H a (or a a^H) from the identity: the Gram
/// matrix of the smaller dimension, so tall/square inputs are checked for
/// orthonormal columns (|| I - Q^H Q ||_F) and wide inputs for orthonormal
/// rows (|| I - Q Q^H ||_F) — the thin Q of an LQ factorization.
template <typename T>
[[nodiscard]] RealType<T> orthogonality_error(ConstMatrixView<T> q) {
  const bool wide = q.rows() < q.cols();
  const std::int64_t dim = wide ? q.rows() : q.cols();
  const std::int64_t len = wide ? q.cols() : q.rows();
  RealType<T> sum = 0;
  for (std::int64_t j = 0; j < dim; ++j) {
    for (std::int64_t k = 0; k < dim; ++k) {
      T dot = T(0);
      for (std::int64_t i = 0; i < len; ++i)
        dot += wide ? q(j, i) * conj_if_complex(q(k, i))
                    : conj_if_complex(q(i, j)) * q(i, k);
      if (j == k) dot -= T(1);
      sum += ScalarTraits<T>::abs_sq(dot);
    }
  }
  return std::sqrt(sum);
}

/// Largest absolute entry strictly below the main diagonal.
template <typename T>
[[nodiscard]] RealType<T> below_diagonal_max(ConstMatrixView<T> a) {
  RealType<T> mx = 0;
  for (std::int64_t j = 0; j < a.cols(); ++j)
    for (std::int64_t i = j + 1; i < a.rows(); ++i)
      mx = std::max(mx, RealType<T>(std::sqrt(ScalarTraits<T>::abs_sq(a(i, j)))));
  return mx;
}

}  // namespace tiledqr
