// gemm / gemv implementations.
//
// For real scalars the NN and (Conj)Trans x NoTrans paths — the hot loops of
// the update kernels — dispatch to the runtime-selected SIMD table
// (blas/simd/simd.hpp). On the vector tiers both run one packed,
// register-blocked GEMM body (op(A) packed into row panels, FMA where the host
// has it). Complex scalars keep the generic loops: the NoTrans x NoTrans path
// processes four result columns per sweep over A so each A column is loaded
// once per four C columns, and the transposed path runs the blocked dots of
// blas/dot_block.hpp. Their multiply-adds go through madd (matrix/scalar.hpp),
// which writes the complex product out in real arithmetic, so the stride-1
// inner loops auto-vectorize.
#pragma once

#include <type_traits>

#include "blas/dot_block.hpp"
#include "blas/simd/simd.hpp"
#include "common/error.hpp"

namespace tiledqr::blas {

namespace detail {

template <typename T>
void gemm_nn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c) {
  const std::int64_t m = c.rows();
  const std::int64_t n = c.cols();
  const std::int64_t k = a.cols();
  if constexpr (std::is_same_v<T, double>) {
    simd::ops().dgemm_nn(m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(), c.data(), c.ld());
    return;
  } else if constexpr (std::is_same_v<T, float>) {
    simd::ops().sgemm_nn(m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(), c.data(), c.ld());
    return;
  }
  std::int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    T* c0 = c.col(j);
    T* c1 = c.col(j + 1);
    T* c2 = c.col(j + 2);
    T* c3 = c.col(j + 3);
    for (std::int64_t l = 0; l < k; ++l) {
      const T* al = a.col(l);
      const T b0 = alpha * b(l, j);
      const T b1 = alpha * b(l, j + 1);
      const T b2 = alpha * b(l, j + 2);
      const T b3 = alpha * b(l, j + 3);
      for (std::int64_t i = 0; i < m; ++i) {
        const T av = al[i];
        madd(c0[i], b0, av);
        madd(c1[i], b1, av);
        madd(c2[i], b2, av);
        madd(c3[i], b3, av);
      }
    }
  }
  for (; j < n; ++j) {
    T* cj = c.col(j);
    for (std::int64_t l = 0; l < k; ++l) {
      const T bl = alpha * b(l, j);
      const T* al = a.col(l);
      for (std::int64_t i = 0; i < m; ++i) madd(cj[i], bl, al[i]);
    }
  }
}

template <typename T>
void gemm_tn(Op opa, T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c) {
  // c(i,j) += alpha * sum_l op(a(l,i)) * b(l,j).
  const std::int64_t m = c.rows();
  const std::int64_t n = c.cols();
  const std::int64_t k = a.rows();
  // For real scalars Trans and ConjTrans coincide, so every transposed-A
  // path takes the table's transposed GEMM (packed A^T on the vector tiers).
  // Complex scalars take blocked dots over contiguous columns of A and B.
  if constexpr (std::is_same_v<T, double>) {
    simd::ops().dgemm_tn(m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(), c.data(), c.ld());
  } else if constexpr (std::is_same_v<T, float>) {
    simd::ops().sgemm_tn(m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(), c.data(), c.ld());
  } else if (opa == Op::ConjTrans) {
    gemm_tn_dots<true>(m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(), c.data(), c.ld());
  } else {
    gemm_tn_dots<false>(m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(), c.data(), c.ld());
  }
}

template <typename T>
void gemm_nt(Op opb, T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c) {
  // c(:,j) += alpha * sum_l a(:,l) * op(b(j,l))
  const std::int64_t m = c.rows();
  const std::int64_t n = c.cols();
  const std::int64_t k = a.cols();
  for (std::int64_t j = 0; j < n; ++j) {
    T* cj = c.col(j);
    for (std::int64_t l = 0; l < k; ++l) {
      const T bl = alpha * apply_op(opb, b(j, l));
      const T* al = a.col(l);
      for (std::int64_t i = 0; i < m; ++i) cj[i] += bl * al[i];
    }
  }
}

template <typename T>
void gemm_tt(Op opa, Op opb, T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b,
             MatrixView<T> c) {
  const std::int64_t m = c.rows();
  const std::int64_t n = c.cols();
  const std::int64_t k = a.rows();
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t i = 0; i < m; ++i) {
      T acc = T(0);
      for (std::int64_t l = 0; l < k; ++l)
        acc += apply_op(opa, a(l, i)) * apply_op(opb, b(j, l));
      c(i, j) += alpha * acc;
    }
  }
}

}  // namespace detail

template <typename T>
void gemm(Op opa, Op opb, T alpha, ConstMatrixView<std::type_identity_t<T>> a,
          ConstMatrixView<std::type_identity_t<T>> b, T beta, MatrixView<T> c) {
  using detail::op_cols;
  using detail::op_rows;
  TILEDQR_CHECK(op_rows(opa, a.rows(), a.cols()) == c.rows(), "gemm: A/C row mismatch");
  TILEDQR_CHECK(op_cols(opb, b.rows(), b.cols()) == c.cols(), "gemm: B/C col mismatch");
  TILEDQR_CHECK(op_cols(opa, a.rows(), a.cols()) == op_rows(opb, b.rows(), b.cols()),
                "gemm: inner dimension mismatch");

  if (beta == T(0)) {
    for (std::int64_t j = 0; j < c.cols(); ++j) {
      T* cj = c.col(j);
      for (std::int64_t i = 0; i < c.rows(); ++i) cj[i] = T(0);
    }
  } else if (beta != T(1)) {
    for (std::int64_t j = 0; j < c.cols(); ++j) {
      T* cj = c.col(j);
      for (std::int64_t i = 0; i < c.rows(); ++i) cj[i] *= beta;
    }
  }
  if (alpha == T(0) || c.empty() || op_cols(opa, a.rows(), a.cols()) == 0) return;

  if (opa == Op::NoTrans && opb == Op::NoTrans) {
    detail::gemm_nn(alpha, a, b, c);
  } else if (opa != Op::NoTrans && opb == Op::NoTrans) {
    detail::gemm_tn(opa, alpha, a, b, c);
  } else if (opa == Op::NoTrans) {
    detail::gemm_nt(opb, alpha, a, b, c);
  } else {
    detail::gemm_tt(opa, opb, alpha, a, b, c);
  }
}

template <typename T>
void gemv(Op opa, T alpha, ConstMatrixView<std::type_identity_t<T>> a, const T* x, T beta, T* y) {
  const std::int64_t m = a.rows();
  const std::int64_t n = a.cols();
  // BLAS semantics: beta == 0 OVERWRITES y — it must not read it, or NaN/Inf
  // in an uninitialized output buffer would survive the scaling (0 * NaN is
  // NaN, not 0).
  const std::int64_t ny = opa == Op::NoTrans ? m : n;
  if (beta == T(0)) {
    for (std::int64_t i = 0; i < ny; ++i) y[i] = T(0);
  } else if (beta != T(1)) {
    scal(ny, beta, y);
  }
  if (opa == Op::NoTrans) {
    for (std::int64_t l = 0; l < n; ++l) axpy(m, alpha * x[l], a.col(l), y);
  } else if (opa == Op::ConjTrans || !is_complex_v<T>) {
    // Column dots batched against the shared x (x loaded once per four
    // columns of A on the vector tiers).
    gemv_t_acc(m, n, alpha, a.data(), a.ld(), x, y);
  } else if constexpr (is_complex_v<T>) {
    // gemv_t_acc conjugates A's columns; complex Trans takes plain dots.
    gemm_tn_dots<false>(n, 1, m, alpha, a.data(), a.ld(), x, m, y, n);
  }
}

template <typename T>
void add(T alpha, ConstMatrixView<std::type_identity_t<T>> b, MatrixView<T> c) {
  TILEDQR_CHECK(b.rows() == c.rows() && b.cols() == c.cols(), "add: shape mismatch");
  for (std::int64_t j = 0; j < c.cols(); ++j) axpy(c.rows(), alpha, b.col(j), c.col(j));
}

}  // namespace tiledqr::blas
