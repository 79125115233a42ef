// Elementary Householder reflectors and compact-WY block accumulation,
// following the LAPACK conventions:
//
//   larfg produces H = I - tau * v * v^H  (v = [1; x'], unit first entry)
//   with H^H * [alpha; x] = [beta; 0], beta real, and H unitary.
//
//   A QR factorization accumulates Q = H_1 H_2 ... H_k; block reflectors are
//   Q_blk = I - V T V^H with T upper triangular (larft, forward columnwise).
//
// Applying a block reflector is not here: one apply body in tile_kernels.hpp
// (detail::apply_block) serves GEQRT's unit-lower V and the TS/TT pairs, all
// through the packed GEMM. It reads T as a dense sb x sb block, so larft
// writes explicit zeros below T's diagonal.
#pragma once

#include <cmath>
#include <limits>

#include "blas/blas.hpp"
#include "matrix/matrix_view.hpp"
#include "matrix/scalar.hpp"

namespace tiledqr::kernels {

/// Generates an elementary reflector annihilating the n-vector x against the
/// scalar alpha (total reflector order n + 1). On return alpha holds beta and
/// x holds the reflector tail v (the leading implicit entry of v is 1).
/// Overflow-safe via LAPACK-style rescaling.
template <typename T>
void larfg(T& alpha, T* x, std::int64_t n, T& tau) {
  using R = RealType<T>;
  R xnorm = blas::nrm2(n, x);
  const R alphr = ScalarTraits<T>::real(alpha);
  const R alphi = ScalarTraits<T>::imag(alpha);

  if (xnorm == R(0) && alphi == R(0)) {
    tau = T(0);  // H = I
    return;
  }

  // sqrt(a^2 + b^2 + c^2): the unscaled sum inside nrm2's band, the scaled
  // std::hypot outside it, where the squares overflow (a column norm above
  // about 1e154) or lose bits to underflow.
  auto lapy = [](R a, R b, R c) {
    constexpr R tsml = std::numeric_limits<R>::min() / std::numeric_limits<R>::epsilon();
    constexpr R tbig = std::numeric_limits<R>::max() * std::numeric_limits<R>::epsilon();
    const R ssq = a * a + b * b + c * c;
    return ssq > tsml && ssq < tbig ? std::sqrt(ssq) : std::hypot(a, b, c);
  };
  R beta = -std::copysign(lapy(alphr, alphi, xnorm), alphr);

  const R safmin = std::numeric_limits<R>::min() / std::numeric_limits<R>::epsilon();
  const R rsafmn = R(1) / safmin;
  int knt = 0;
  T alpha_w = alpha;
  while (std::abs(beta) < safmin && knt < 20) {
    ++knt;
    blas::scal(n, T(rsafmn), x);
    beta *= rsafmn;
    alpha_w *= T(rsafmn);
    xnorm = blas::nrm2(n, x);
    beta = -std::copysign(lapy(ScalarTraits<T>::real(alpha_w), ScalarTraits<T>::imag(alpha_w), xnorm),
                          ScalarTraits<T>::real(alpha_w));
  }

  if constexpr (is_complex_v<T>) {
    tau = T((beta - ScalarTraits<T>::real(alpha_w)) / beta,
            -ScalarTraits<T>::imag(alpha_w) / beta);
  } else {
    tau = (beta - alpha_w) / beta;
  }
  T scale = T(1) / (alpha_w - T(beta));
  blas::scal(n, scale, x);

  for (int k = 0; k < knt; ++k) beta *= safmin;
  alpha = T(beta);
}

/// Unblocked QR of an m x n panel (LAPACK geqr2). On return the upper
/// triangle holds R, the strict lower part the reflector tails V, and tau[j]
/// the scalar factors. `work` must hold at least n entries.
template <typename T>
void geqr2(MatrixView<T> a, T* tau, T* work) {
  const std::int64_t m = a.rows();
  const std::int64_t n = a.cols();
  const std::int64_t k = std::min(m, n);
  for (std::int64_t i = 0; i < k; ++i) {
    larfg(a(i, i), &a(i + 1 < m ? i + 1 : i, i), m - i - 1, tau[i]);
    if (i + 1 < n) {
      // Apply H^H = I - conj(tau) v v^H to A[i:m, i+1:n].
      T alpha = a(i, i);
      a(i, i) = T(1);
      const T* v = &a(i, i);
      auto c = a.sub(i, i + 1, m - i, n - i - 1);
      // w_j = v^H C(:,j); then C(:,j) -= conj(tau) * w_j * v, through the
      // shared-x microkernels (v loaded once per four columns). gemv_t_acc
      // conjugates C's columns, so it sums conj(w_j).
      for (std::int64_t j = 0; j < c.cols(); ++j) work[j] = T(0);
      blas::gemv_t_acc(c.rows(), c.cols(), T(1), c.data(), c.ld(), v, work);
      for (std::int64_t j = 0; j < c.cols(); ++j) work[j] = conj_if_complex(work[j]);
      blas::ger_acc(c.rows(), c.cols(), -conj_if_complex(tau[i]), v, work, c.data(), c.ld());
      a(i, i) = alpha;
    }
  }
}

/// Forms the upper-triangular block factor T (k x k) of the compact WY
/// representation from reflectors V (m x k, unit lower trapezoidal) and tau,
/// such that H_1 ... H_k = I - V T V^H (LAPACK larft, forward columnwise).
/// T's strictly-lower part is written with zeros, so the apply body can
/// multiply by T as a dense block. Only V's strictly-lower part is read.
template <typename T>
void larft(ConstMatrixView<T> v, const T* tau, MatrixView<T> t) {
  const std::int64_t m = v.rows();
  const std::int64_t k = v.cols();
  TILEDQR_ASSERT(t.rows() >= k && t.cols() >= k);
  for (std::int64_t i = 0; i < k; ++i) {
    T* ti = t.col(i);
    for (std::int64_t j = i + 1; j < k; ++j) ti[j] = T(0);
    if (tau[i] == T(0)) {
      for (std::int64_t j = 0; j <= i; ++j) ti[j] = T(0);
      continue;
    }
    // t(0:i, i) = -tau_i * V(:,0:i)^H * v_i, exploiting the unit diagonal:
    // v_i has implicit 1 at row i (row i of column j < i is explicit, below
    // V's diagonal) and a contiguous explicit tail below, so the sum is one
    // shared-x gemv over the tails (v_i's tail loaded once per four columns
    // of V). The tail is addressed via col() pointers: when i + 1 == m it is
    // empty and &v(i + 1, j) would index past the view.
    for (std::int64_t j = 0; j < i; ++j) ti[j] = conj_if_complex(v(i, j));
    if (i > 0 && m > i + 1)
      blas::gemv_t_acc(m - i - 1, i, T(1), v.col(0) + i + 1, v.ld(), v.col(i) + i + 1, ti);
    for (std::int64_t j = 0; j < i; ++j) ti[j] *= -tau[i];
    // t(0:i, i) = T(0:i,0:i) * t(0:i, i) in axpy form over the columns of T:
    // step l still holds the pre-multiply t(l, i), which seeds the axpy into
    // rows [0, l) and then collapses to the diagonal term.
    for (std::int64_t l = 0; l < i; ++l) {
      const T coef = ti[l];
      blas::axpy(l, coef, t.col(l), ti);
      ti[l] = t(l, l) * coef;
    }
    ti[i] = tau[i];
  }
}

/// Whether a block application multiplies by Q or by Q^H.
enum class ApplyTrans { NoTrans, ConjTrans };

}  // namespace tiledqr::kernels
