// Reference (unblocked LAPACK-style) Householder QR, used as a numerical
// oracle by the test suite and by the examples for small problems.
#pragma once

#include <vector>

#include "kernels/householder.hpp"
#include "matrix/matrix.hpp"

namespace tiledqr::kernels {

/// Result of a reference QR factorization: the packed factors plus tau.
template <typename T>
struct ReferenceQr {
  Matrix<T> vr;        ///< R in the upper triangle, reflectors V below.
  std::vector<T> tau;  ///< Scalar reflector factors.

  [[nodiscard]] std::int64_t rows() const { return vr.rows(); }
  [[nodiscard]] std::int64_t cols() const { return vr.cols(); }

  /// Extracts the k x n upper-triangular R factor (k = min(m, n)).
  [[nodiscard]] Matrix<T> r_factor() const {
    const std::int64_t k = std::min(vr.rows(), vr.cols());
    Matrix<T> r(k, vr.cols());
    for (std::int64_t j = 0; j < vr.cols(); ++j)
      for (std::int64_t i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = vr(i, j);
    return r;
  }

  /// Applies op(Q) to C in place (C has m rows).
  void apply_q(ApplyTrans trans, MatrixView<T> c) const {
    const std::int64_t m = vr.rows();
    const std::int64_t k = std::int64_t(tau.size());
    TILEDQR_CHECK(c.rows() == m, "reference apply_q: row mismatch");
    std::vector<std::int64_t> order;
    for (std::int64_t i = 0; i < k; ++i) order.push_back(i);
    if (trans == ApplyTrans::NoTrans) std::reverse(order.begin(), order.end());
    std::vector<T> v(static_cast<size_t>(m));
    for (std::int64_t i : order) {
      // v = [1; vr(i+1:m, i)]
      v[size_t(i)] = T(1);
      for (std::int64_t r = i + 1; r < m; ++r) v[size_t(r)] = vr(r, i);
      T t = trans == ApplyTrans::ConjTrans ? conj_if_complex(tau[size_t(i)]) : tau[size_t(i)];
      for (std::int64_t j = 0; j < c.cols(); ++j) {
        T w = blas::dotc(m - i, v.data() + i, c.col(j) + i);
        blas::axpy(m - i, -t * w, v.data() + i, c.col(j) + i);
      }
    }
  }

  /// Forms the thin m x k Q factor explicitly.
  [[nodiscard]] Matrix<T> q_thin() const {
    const std::int64_t m = vr.rows();
    const std::int64_t k = std::int64_t(tau.size());
    Matrix<T> q(m, k);
    for (std::int64_t i = 0; i < k; ++i) q(i, i) = T(1);
    apply_q(ApplyTrans::NoTrans, q.view());
    return q;
  }
};

/// Factorizes a copy of `a` with unblocked Householder QR.
template <typename T>
[[nodiscard]] ReferenceQr<T> reference_qr(ConstMatrixView<T> a) {
  ReferenceQr<T> out;
  out.vr = Matrix<T>(a.rows(), a.cols());
  copy(a, out.vr.view());
  const std::int64_t k = std::min(a.rows(), a.cols());
  out.tau.assign(size_t(k), T(0));
  std::vector<T> work(size_t(a.cols()));
  geqr2(out.vr.view(), out.tau.data(), work.data());
  return out;
}

/// Solves the least-squares problem min ||a x - b||_2 for tall a via the
/// reference QR (oracle for the tiled solver).
template <typename T>
[[nodiscard]] Matrix<T> reference_least_squares(ConstMatrixView<T> a, ConstMatrixView<T> b) {
  TILEDQR_CHECK(a.rows() >= a.cols(), "reference_least_squares: need m >= n");
  auto qr = reference_qr(a);
  Matrix<T> qtb(b.rows(), b.cols());
  copy(b, qtb.view());
  qr.apply_q(ApplyTrans::ConjTrans, qtb.view());
  const std::int64_t n = a.cols();
  Matrix<T> x(n, b.cols());
  copy(qtb.sub(0, 0, n, b.cols()), x.view());
  blas::trsm(blas::Uplo::Upper, blas::Op::NoTrans, blas::Diag::NonUnit, T(1),
             qr.vr.sub(0, 0, n, n), x.view());
  return x;
}

}  // namespace tiledqr::kernels
