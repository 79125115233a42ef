// Elementary Householder reflectors and compact-WY block accumulation,
// following the LAPACK conventions:
//
//   larfg produces H = I - tau * v * v^H  (v = [1; x'], unit first entry)
//   with H^H * [alpha; x] = [beta; 0], beta real, and H unitary.
//
//   A QR factorization accumulates Q = H_1 H_2 ... H_k; block reflectors are
//   Q_blk = I - V T V^H with T upper triangular (larft, forward columnwise).
//
//   Applying Q^H uses T^H, applying Q uses T (larfb, left).
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
      // w_j = v^H C(:,j); then C(:,j) -= conj(tau) * w_j * v. Real scalars
      // take the shared-x microkernels (v loaded once per four columns);
      // complex keeps per-column dotc because the conjugation is on v.
      if constexpr (!is_complex_v<T>) {
        for (std::int64_t j = 0; j < c.cols(); ++j) work[j] = T(0);
        blas::gemv_t_acc(c.rows(), c.cols(), T(1), c.data(), c.ld(), v, work);
        blas::ger_acc(c.rows(), c.cols(), -tau[i], v, work, c.data(), c.ld());
      } else {
        for (std::int64_t j = 0; j < c.cols(); ++j) work[j] = blas::dotc(c.rows(), v, c.col(j));
        for (std::int64_t j = 0; j < c.cols(); ++j)
          blas::axpy(c.rows(), -conj_if_complex(tau[i]) * work[j], v, c.col(j));
      }
      a(i, i) = alpha;
    }
  }
}

/// Forms the upper-triangular block factor T (k x k) of the compact WY
/// representation from reflectors V (m x k, unit lower trapezoidal) and tau,
/// such that H_1 ... H_k = I - V T V^H (LAPACK larft, forward columnwise).
template <typename T>
void larft(ConstMatrixView<T> v, const T* tau, MatrixView<T> t) {
  const std::int64_t m = v.rows();
  const std::int64_t k = v.cols();
  TILEDQR_ASSERT(t.rows() >= k && t.cols() >= k);
  for (std::int64_t i = 0; i < k; ++i) {
    if (tau[i] == T(0)) {
      for (std::int64_t j = 0; j <= i; ++j) t(j, i) = T(0);
      continue;
    }
    // t(0:i, i) = -tau_i * V(:,0:i)^H * v_i, exploiting the unit diagonal:
    // v_i has implicit 1 at row i, explicit tail below; the tails are
    // contiguous column segments, so the sum is a dotc. Real scalars batch
    // the i dots through the shared-x microkernel (v_i's tail loaded once
    // per four columns of V).
    if constexpr (!is_complex_v<T>) {
      for (std::int64_t j = 0; j < i; ++j) t(j, i) = v(i, j);  // implicit v_i(i) = 1
      if (i > 0 && m > i + 1)
        blas::gemv_t_acc(m - i - 1, i, T(1), &v(i + 1, 0), v.ld(), &v(i + 1, i), &t(0, i));
      for (std::int64_t j = 0; j < i; ++j) t(j, i) *= -tau[i];
    } else {
      for (std::int64_t j = 0; j < i; ++j) {
        // Row i of column j is explicit (j < i so V(i,j) is below V's
        // diagonal).
        // Tails via col() pointers: when i + 1 == m the tail is empty and
        // &v(i + 1, j) would index one past the view.
        T acc = conj_if_complex(v(i, j)) +  // from the implicit v_i(i) = 1
                blas::dotc(m - i - 1, v.col(j) + i + 1, v.col(i) + i + 1);
        t(j, i) = -tau[i] * acc;
      }
    }
    // t(0:i, i) = T(0:i,0:i) * t(0:i, i)
    if (i > 0) {
      auto tcol = MatrixView<T>(&t(0, i), i, 1, t.ld());
      blas::trmm(blas::Uplo::Upper, blas::Op::NoTrans, blas::Diag::NonUnit, T(1),
                 t.sub(0, 0, i, i), tcol);
    }
    t(i, i) = tau[i];
  }
}

/// Whether a block application multiplies by Q or by Q^H.
enum class ApplyTrans { NoTrans, ConjTrans };

/// Applies a compact-WY block reflector from the left (LAPACK larfb,
/// direction forward, storage columnwise):
///   C := (I - V op(T) V^H)^{(H)} C
/// with V (m x k) unit lower trapezoidal and T (k x k) upper triangular.
/// `work` must hold k * C.cols() entries.
template <typename T>
void larfb_left(ApplyTrans trans, ConstMatrixView<T> v, ConstMatrixView<T> t, MatrixView<T> c,
                T* work) {
  const std::int64_t m = v.rows();
  const std::int64_t k = v.cols();
  const std::int64_t n = c.cols();
  TILEDQR_ASSERT(c.rows() == m);
  if (m == 0 || n == 0 || k == 0) return;

  MatrixView<T> w(work, k, n, k);
  auto c1 = c.sub(0, 0, k, n);
  auto c2 = c.sub(k, 0, m - k, n);
  auto v1 = v.sub(0, 0, k, k);
  auto v2 = v.sub(k, 0, m - k, k);

  // W := V^H C = V1^H C1 + V2^H C2
  copy(ConstMatrixView<T>(c1), w);
  blas::trmm(blas::Uplo::Lower, blas::Op::ConjTrans, blas::Diag::Unit, T(1), v1, w);
  if (m > k)
    blas::gemm(blas::Op::ConjTrans, blas::Op::NoTrans, T(1), v2, ConstMatrixView<T>(c2), T(1), w);

  // W := op(T) W
  blas::trmm(blas::Uplo::Upper,
             trans == ApplyTrans::ConjTrans ? blas::Op::ConjTrans : blas::Op::NoTrans,
             blas::Diag::NonUnit, T(1), t, w);

  // C -= V W
  if (m > k)
    blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(-1), v2, ConstMatrixView<T>(w), T(1), c2);
  // C1 -= V1 W (V1 unit lower triangular): accumulate via trmm_acc.
  blas::trmm_acc(blas::Uplo::Lower, blas::Op::NoTrans, blas::Diag::Unit, T(-1), v1,
                 ConstMatrixView<T>(w), c1);
}

}  // namespace tiledqr::kernels
