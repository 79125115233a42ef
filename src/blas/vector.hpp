// Level-1 helpers on contiguous vectors (tile columns are stride-1).
//
// For real scalars, axpy and dotc route through the runtime-dispatched SIMD
// microkernel table (blas/simd/simd.hpp); complex scalars keep the generic
// loops, on madd (matrix/scalar.hpp). These primitives carry the panel
// factorizations (geqr2, the TSQRT/TTQRT column steps, the T-column
// recurrences), so the dispatch here is what vectorizes the non-GEMM part of
// every tile kernel.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "blas/dot_block.hpp"
#include "blas/simd/simd.hpp"
#include "matrix/scalar.hpp"

namespace tiledqr::blas {

/// y := y + alpha * x
template <typename T>
inline void axpy(std::int64_t n, T alpha, const T* x, T* y) noexcept {
  if constexpr (std::is_same_v<T, double>) {
    simd::ops().daxpy(n, alpha, x, y);
  } else if constexpr (std::is_same_v<T, float>) {
    simd::ops().saxpy(n, alpha, x, y);
  } else {
    for (std::int64_t i = 0; i < n; ++i) madd(y[i], alpha, x[i]);
  }
}

/// x := alpha * x
template <typename T>
inline void scal(std::int64_t n, T alpha, T* x) noexcept {
  for (std::int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

/// Conjugated dot product: sum conj(x_i) * y_i.
template <typename T>
[[nodiscard]] inline T dotc(std::int64_t n, const T* x, const T* y) noexcept {
  if constexpr (std::is_same_v<T, double>) {
    return simd::ops().ddot(n, x, y);
  } else if constexpr (std::is_same_v<T, float>) {
    return simd::ops().sdot(n, x, y);
  } else {
    T acc = T(0);
    for (std::int64_t i = 0; i < n; ++i) madd<true>(acc, x[i], y[i]);
    return acc;
  }
}

/// y[j] += alpha * dotc(m, a + j*lda, x) for j in [0, n): a run of dot
/// products against one shared x. The vector tiers load x once per four
/// columns — the memory-traffic lever for the unblocked panel loops, where
/// the shared operand is the current reflector.
template <typename T>
inline void gemv_t_acc(std::int64_t m, std::int64_t n, T alpha, const T* a, std::int64_t lda,
                       const T* x, T* y) noexcept {
  if constexpr (std::is_same_v<T, double>) {
    simd::ops().dgemv_t(m, n, alpha, a, lda, x, y);
  } else if constexpr (std::is_same_v<T, float>) {
    simd::ops().sgemv_t(m, n, alpha, a, lda, x, y);
  } else {
    gemm_tn_dots<true>(n, 1, m, alpha, a, lda, x, m, y, n);
  }
}

/// c(:,j) += alpha * y[j] * x for j in [0, n): rank-1 update with shared x
/// (no conjugation of y — callers fold their own).
template <typename T>
inline void ger_acc(std::int64_t m, std::int64_t n, T alpha, const T* x, const T* y, T* c,
                    std::int64_t ldc) noexcept {
  if constexpr (std::is_same_v<T, double>) {
    simd::ops().dger(m, n, alpha, x, y, c, ldc);
  } else if constexpr (std::is_same_v<T, float>) {
    simd::ops().sger(m, n, alpha, x, y, c, ldc);
  } else {
    for (std::int64_t j = 0; j < n; ++j) axpy(m, alpha * y[j], x, c + j * ldc);
  }
}

namespace detail {

/// Overflow-safe scaled sum of squares (LAPACK lassq-style; the magnitude is
/// taken before squaring so 1e200-scale entries do not overflow and
/// 1e-200-scale entries do not flush to zero).
template <typename T>
[[nodiscard]] inline RealType<T> nrm2_scaled(std::int64_t n, const T* x) noexcept {
  using R = RealType<T>;
  R scale = 0;
  R ssq = 1;
  for (std::int64_t i = 0; i < n; ++i) {
    R ax = std::abs(x[i]);
    if (ax != R(0)) {
      if (scale < ax) {
        R r = scale / ax;
        ssq = R(1) + ssq * r * r;
        scale = ax;
      } else {
        R r = ax / scale;
        ssq += r * r;
      }
    }
  }
  return scale * std::sqrt(ssq);
}

}  // namespace detail

/// Euclidean norm. Real scalars take a fast path — the dispatched dot gives
/// sum(x^2) vectorized — and fall back to the scaled loop whenever that sum
/// leaves the safely-representable band (overflow to inf, NaN, or small
/// enough that squaring lost denormal precision). nrm2 runs inside every
/// larfg, so this is on the panel-factorization critical path.
template <typename T>
[[nodiscard]] inline RealType<T> nrm2(std::int64_t n, const T* x) noexcept {
  using R = RealType<T>;
  if constexpr (!is_complex_v<T>) {
    const R ssq = dotc(n, x, x);
    // sqrt(min)/eps-ish guard band: below it, squared denormals have eaten
    // precision; above sqrt(max) the sum may have overflowed.
    constexpr R tsml = std::numeric_limits<R>::min() / std::numeric_limits<R>::epsilon();
    constexpr R tbig = std::numeric_limits<R>::max() * std::numeric_limits<R>::epsilon();
    // Out of band — including ssq == 0, which tiny-but-nonzero entries
    // produce by squaring below the denormal range — rescan scaled.
    if (ssq > tsml && ssq < tbig) return std::sqrt(ssq);
    return detail::nrm2_scaled(n, x);
  } else {
    return detail::nrm2_scaled(n, x);
  }
}

}  // namespace tiledqr::blas
