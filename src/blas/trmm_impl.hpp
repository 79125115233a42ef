// Triangular multiply / solve implementations.
//
// The multiplies — the T-factor and V1 applications inside every block
// reflector — are written in axpy/dot form over contiguous column segments
// of A, so they ride the same SIMD dispatch as the level-1 layer
// (blas/vector.hpp). For real scalars they additionally process four B
// columns per sweep through the shared-x microkernels (gemv_t_acc/ger_acc):
// every step reuses one A-column segment across all four B columns, which is
// the memory-traffic lever that makes the k x k triangle work in larfb scale
// with the vector width instead of the hsum latency. Only the complex
// non-conjugating transpose keeps the elementwise fallback (dotc conjugates,
// so it cannot express Op::Trans on complex data).
#pragma once

#include "common/error.hpp"

namespace tiledqr::blas {

namespace detail {

template <typename T>
inline T tri_diag(ConstMatrixView<T> a, Diag diag, std::int64_t i, Op opa) {
  if (diag == Diag::Unit) return T(1);
  return apply_op(opa, a(i, i));
}

/// Whether op(A) on this scalar type is expressible with dotc: real scalars
/// always (conjugation is the identity), complex only under ConjTrans.
template <typename T>
inline bool dotc_expressible(Op opa) {
  return !is_complex_v<T> || opa == Op::ConjTrans;
}

}  // namespace detail

template <typename T>
void trmm(Uplo uplo, Op opa, Diag diag, T alpha, ConstMatrixView<std::type_identity_t<T>> a,
          MatrixView<T> b) {
  const std::int64_t n = a.rows();
  TILEDQR_CHECK(a.rows() == a.cols(), "trmm: A must be square");
  TILEDQR_CHECK(b.rows() == n, "trmm: shape mismatch");

  // Whether the operated matrix op(A) is effectively upper triangular.
  const bool op_upper = (uplo == Uplo::Upper) == (opa == Op::NoTrans);

  std::int64_t j0 = 0;
  if constexpr (!is_complex_v<T>) {
    // Real scalars: four B columns per sweep, each step sharing one
    // A-column segment across the four columns via the shared-x
    // microkernels. Per column the update order over steps is unchanged.
    const std::int64_t ldb = b.ld();
    for (; j0 + 4 <= b.cols(); j0 += 4) {
      T* b0 = b.col(j0);
      if (op_upper) {
        if (opa == Op::NoTrans) {
          // b := U b, axpy form over column prefixes (see the per-column
          // loop below); rank-1 prefix update shared across four columns.
          for (std::int64_t l = 0; l < n; ++l) {
            const T d = detail::tri_diag(a, diag, l, opa);
            T coef[4] = {b0[l], b0[l + ldb], b0[l + 2 * ldb], b0[l + 3 * ldb]};
            ger_acc(l, 4, T(1), a.col(l), coef, b0, ldb);
            b0[l] = d * coef[0];
            b0[l + ldb] = d * coef[1];
            b0[l + 2 * ldb] = d * coef[2];
            b0[l + 3 * ldb] = d * coef[3];
          }
          if (alpha != T(1))
            for (int t = 0; t < 4; ++t) scal(n, alpha, b0 + t * ldb);
        } else {
          // op(A) upper with A lower: column-tail dots, four at a time.
          for (std::int64_t i = 0; i < n; ++i) {
            const T d = detail::tri_diag(a, diag, i, opa);
            T acc[4] = {d * b0[i], d * b0[i + ldb], d * b0[i + 2 * ldb],
                        d * b0[i + 3 * ldb]};
            gemv_t_acc(n - i - 1, 4, T(1), b0 + i + 1, ldb, a.col(i) + i + 1, acc);
            b0[i] = alpha * acc[0];
            b0[i + ldb] = alpha * acc[1];
            b0[i + 2 * ldb] = alpha * acc[2];
            b0[i + 3 * ldb] = alpha * acc[3];
          }
        }
      } else {
        if (opa == Op::NoTrans) {
          // b := L b, axpy form over column tails, descending.
          for (std::int64_t l = n - 1; l >= 0; --l) {
            const T d = detail::tri_diag(a, diag, l, opa);
            T coef[4] = {b0[l], b0[l + ldb], b0[l + 2 * ldb], b0[l + 3 * ldb]};
            ger_acc(n - l - 1, 4, T(1), a.col(l) + l + 1, coef, b0 + l + 1, ldb);
            b0[l] = d * coef[0];
            b0[l + ldb] = d * coef[1];
            b0[l + 2 * ldb] = d * coef[2];
            b0[l + 3 * ldb] = d * coef[3];
          }
          if (alpha != T(1))
            for (int t = 0; t < 4; ++t) scal(n, alpha, b0 + t * ldb);
        } else {
          // op(A) lower with A upper: column-prefix dots, descending.
          for (std::int64_t i = n - 1; i >= 0; --i) {
            const T d = detail::tri_diag(a, diag, i, opa);
            T acc[4] = {d * b0[i], d * b0[i + ldb], d * b0[i + 2 * ldb],
                        d * b0[i + 3 * ldb]};
            gemv_t_acc(i, 4, T(1), b0, ldb, a.col(i), acc);
            b0[i] = alpha * acc[0];
            b0[i + ldb] = alpha * acc[1];
            b0[i + 2 * ldb] = alpha * acc[2];
            b0[i + 3 * ldb] = alpha * acc[3];
          }
        }
      }
    }
  }
  for (std::int64_t j = j0; j < b.cols(); ++j) {
    T* bj = b.col(j);
    if (op_upper) {
      if (opa == Op::NoTrans) {
        // b := U b in axpy form over column prefixes of A: at step l, b[l]
        // is still the pre-multiply value (steps l' < l only wrote indices
        // <= l'), so it both seeds the axpy into rows [0, l) and collapses
        // to the diagonal contribution afterwards.
        for (std::int64_t l = 0; l < n; ++l) {
          const T coef = bj[l];
          axpy(l, coef, a.col(l), bj);
          bj[l] = detail::tri_diag(a, diag, l, opa) * coef;
        }
        if (alpha != T(1)) scal(n, alpha, bj);
      } else if (detail::dotc_expressible<T>(opa)) {
        // op(A) upper with A lower: column tails of A are contiguous dots.
        // Tail addressed via col() pointer arithmetic — on the last column
        // the tail is empty and &a(i + 1, i) would index past the view.
        for (std::int64_t i = 0; i < n; ++i) {
          T acc = detail::tri_diag(a, diag, i, opa) * bj[i] +
                  dotc(n - i - 1, a.col(i) + i + 1, bj + i + 1);
          bj[i] = alpha * acc;
        }
      } else {
        // new b_i depends on old b_l for l >= i: go top-down.
        for (std::int64_t i = 0; i < n; ++i) {
          T acc = detail::tri_diag(a, diag, i, opa) * bj[i];
          for (std::int64_t l = i + 1; l < n; ++l) acc += detail::apply_op(opa, a(l, i)) * bj[l];
          bj[i] = alpha * acc;
        }
      }
    } else {
      if (opa == Op::NoTrans) {
        // b := L b in axpy form over column tails, descending so b[l] is
        // still the pre-multiply value when it seeds step l.
        for (std::int64_t l = n - 1; l >= 0; --l) {
          const T coef = bj[l];
          axpy(n - l - 1, coef, a.col(l) + l + 1, bj + l + 1);
          bj[l] = detail::tri_diag(a, diag, l, opa) * coef;
        }
        if (alpha != T(1)) scal(n, alpha, bj);
      } else if (detail::dotc_expressible<T>(opa)) {
        // op(A) lower with A upper: column prefixes of A are contiguous.
        for (std::int64_t i = n - 1; i >= 0; --i) {
          T acc = detail::tri_diag(a, diag, i, opa) * bj[i] + dotc(i, a.col(i), bj);
          bj[i] = alpha * acc;
        }
      } else {
        // new b_i depends on old b_l for l <= i: go bottom-up.
        for (std::int64_t i = n - 1; i >= 0; --i) {
          T acc = detail::tri_diag(a, diag, i, opa) * bj[i];
          for (std::int64_t l = 0; l < i; ++l) acc += detail::apply_op(opa, a(l, i)) * bj[l];
          bj[i] = alpha * acc;
        }
      }
    }
  }
}

template <typename T>
void trmm_acc(Uplo uplo, Op opa, Diag diag, T alpha, ConstMatrixView<std::type_identity_t<T>> a,
              ConstMatrixView<std::type_identity_t<T>> b, MatrixView<T> c) {
  const std::int64_t n = a.rows();
  TILEDQR_CHECK(a.rows() == a.cols(), "trmm_acc: A must be square");
  TILEDQR_CHECK(b.rows() == n && c.rows() == n && b.cols() == c.cols(),
                "trmm_acc: shape mismatch");
  const bool op_upper = (uplo == Uplo::Upper) == (opa == Op::NoTrans);
  std::int64_t j0 = 0;
  if constexpr (!is_complex_v<T>) {
    // Real scalars: four (b, c) column pairs per sweep sharing each
    // A-column segment (see trmm above).
    const std::int64_t ldb = b.ld();
    const std::int64_t ldc = c.ld();
    for (; j0 + 4 <= b.cols(); j0 += 4) {
      const T* b0 = b.col(j0);
      T* c0 = c.col(j0);
      if (opa == Op::NoTrans) {
        for (std::int64_t l = 0; l < n; ++l) {
          const T d = diag == Diag::Unit ? T(1) : a.col(l)[l];
          const T coef[4] = {b0[l], b0[l + ldb], b0[l + 2 * ldb], b0[l + 3 * ldb]};
          if (op_upper) {
            ger_acc(l, 4, alpha, a.col(l), coef, c0, ldc);
          } else {
            ger_acc(n - l - 1, 4, alpha, a.col(l) + l + 1, coef, c0 + l + 1, ldc);
          }
          c0[l] += alpha * d * coef[0];
          c0[l + ldc] += alpha * d * coef[1];
          c0[l + 2 * ldc] += alpha * d * coef[2];
          c0[l + 3 * ldc] += alpha * d * coef[3];
        }
      } else {
        for (std::int64_t i = 0; i < n; ++i) {
          const T* ai = a.col(i);
          const T d = diag == Diag::Unit ? T(1) : ai[i];
          T acc[4] = {d * b0[i], d * b0[i + ldb], d * b0[i + 2 * ldb], d * b0[i + 3 * ldb]};
          if (op_upper) {
            gemv_t_acc(n - i - 1, 4, T(1), b0 + i + 1, ldb, ai + i + 1, acc);
          } else {
            gemv_t_acc(i, 4, T(1), b0, ldb, ai, acc);
          }
          c0[i] += alpha * acc[0];
          c0[i + ldc] += alpha * acc[1];
          c0[i + 2 * ldc] += alpha * acc[2];
          c0[i + 3 * ldc] += alpha * acc[3];
        }
      }
    }
  }
  for (std::int64_t j = j0; j < b.cols(); ++j) {
    const T* bj = b.col(j);
    T* cj = c.col(j);
    if (opa == Op::NoTrans) {
      // c(:,j) += alpha * A * b(:,j): axpy with columns of A restricted to
      // the triangle.
      for (std::int64_t l = 0; l < n; ++l) {
        const T coef = alpha * bj[l];
        const T* al = a.col(l);
        if (op_upper) {
          axpy(l, coef, al, cj);
          cj[l] += coef * (diag == Diag::Unit ? T(1) : al[l]);
        } else {
          cj[l] += coef * (diag == Diag::Unit ? T(1) : al[l]);
          axpy(n - l - 1, coef, al + l + 1, cj + l + 1);
        }
      }
    } else if (detail::dotc_expressible<T>(opa)) {
      // c(i,j) += alpha * (dot over the contiguous triangle segment of
      // column i, plus the diagonal term).
      for (std::int64_t i = 0; i < n; ++i) {
        const T* ai = a.col(i);
        T acc;
        if (op_upper) {
          // op(A) upper means A^H with A lower: a(l,i) nonzero for l >= i.
          acc = dotc(n - i - 1, ai + i + 1, bj + i + 1);
          acc += (diag == Diag::Unit ? T(1) : detail::apply_op(opa, ai[i])) * bj[i];
        } else {
          acc = dotc(i, ai, bj);
          acc += (diag == Diag::Unit ? T(1) : detail::apply_op(opa, ai[i])) * bj[i];
        }
        cj[i] += alpha * acc;
      }
    } else {
      // Complex Op::Trans: c(i,j) += alpha * sum over the triangle of
      // op(a(l,i)) * b(l,j).
      for (std::int64_t i = 0; i < n; ++i) {
        const T* ai = a.col(i);
        T acc = T(0);
        if (op_upper) {
          for (std::int64_t l = i + 1; l < n; ++l) acc += detail::apply_op(opa, ai[l]) * bj[l];
          acc += (diag == Diag::Unit ? T(1) : detail::apply_op(opa, ai[i])) * bj[i];
        } else {
          for (std::int64_t l = 0; l < i; ++l) acc += detail::apply_op(opa, ai[l]) * bj[l];
          acc += (diag == Diag::Unit ? T(1) : detail::apply_op(opa, ai[i])) * bj[i];
        }
        cj[i] += alpha * acc;
      }
    }
  }
}

template <typename T>
void trsm(Uplo uplo, Op opa, Diag diag, T alpha, ConstMatrixView<std::type_identity_t<T>> a,
          MatrixView<T> b) {
  const std::int64_t n = a.rows();
  TILEDQR_CHECK(a.rows() == a.cols(), "trsm: A must be square");
  TILEDQR_CHECK(b.rows() == n, "trsm: shape mismatch");
  const bool op_upper = (uplo == Uplo::Upper) == (opa == Op::NoTrans);

  auto op_elem = [&](std::int64_t i, std::int64_t l) -> T {
    return opa == Op::NoTrans ? a(i, l) : detail::apply_op(opa, a(l, i));
  };

  for (std::int64_t j = 0; j < b.cols(); ++j) {
    T* bj = b.col(j);
    if (alpha != T(1)) scal(n, alpha, bj);
    if (op_upper) {
      for (std::int64_t i = n - 1; i >= 0; --i) {
        T acc = bj[i];
        for (std::int64_t l = i + 1; l < n; ++l) acc -= op_elem(i, l) * bj[l];
        bj[i] = diag == Diag::Unit ? acc : acc / op_elem(i, i);
      }
    } else {
      for (std::int64_t i = 0; i < n; ++i) {
        T acc = bj[i];
        for (std::int64_t l = 0; l < i; ++l) acc -= op_elem(i, l) * bj[l];
        bj[i] = diag == Diag::Unit ? acc : acc / op_elem(i, i);
      }
    }
  }
}

}  // namespace tiledqr::blas
