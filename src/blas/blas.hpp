// BLAS substrate: the dense linear-algebra primitives the tile kernels are
// built on. The paper links against Intel MKL; offline we provide a compact
// templated implementation (real and complex) tuned enough that kernel flop
// ratios — the quantity the paper's experiments depend on — are faithful.
//
// All matrices are column-major views. Only the operations the library needs
// are provided; each follows the semantics of its BLAS namesake. Read-only
// operands are ConstMatrixView<std::type_identity_t<T>>: T is deduced from
// the other arguments, so a MatrixView converts without a cast.
#pragma once

#include <type_traits>

#include "blas/vector.hpp"
#include "matrix/matrix_view.hpp"
#include "matrix/scalar.hpp"

namespace tiledqr::blas {

/// Transposition modes. Trans is conjugate-free transpose; for real scalars
/// ConjTrans and Trans coincide.
enum class Op { NoTrans, Trans, ConjTrans };

enum class Uplo { Upper, Lower };
enum class Diag { NonUnit, Unit };

namespace detail {
template <typename T>
inline T apply_op(Op op, T x) noexcept {
  return op == Op::ConjTrans ? conj_if_complex(x) : x;
}
inline std::int64_t op_rows(Op op, std::int64_t r, std::int64_t c) noexcept {
  return op == Op::NoTrans ? r : c;
}
inline std::int64_t op_cols(Op op, std::int64_t r, std::int64_t c) noexcept {
  return op == Op::NoTrans ? c : r;
}
}  // namespace detail

/// C := alpha * op(A) * op(B) + beta * C
template <typename T>
void gemm(Op opa, Op opb, T alpha, ConstMatrixView<std::type_identity_t<T>> a,
          ConstMatrixView<std::type_identity_t<T>> b, T beta, MatrixView<T> c);

/// Solves op(A) * X = alpha * B with A triangular; X overwrites B.
template <typename T>
void trsm(Uplo uplo, Op opa, Diag diag, T alpha, ConstMatrixView<std::type_identity_t<T>> a,
          MatrixView<T> b);

/// y := alpha * op(A) * x + beta * y (contiguous vectors).
template <typename T>
void gemv(Op opa, T alpha, ConstMatrixView<std::type_identity_t<T>> a, const T* x, T beta, T* y);

/// C := C + alpha * B (same shapes).
template <typename T>
void add(T alpha, ConstMatrixView<std::type_identity_t<T>> b, MatrixView<T> c);

// ---------------------------------------------------------------------------
// Flop counting (complex counted as 1 multiply = 6 flops, 1 add = 2 flops via
// the standard LAPACK convention of 4x real flops for a complex fma pair).

/// Flops of gemm with an m x n result and inner dimension k.
double gemm_flops(std::int64_t m, std::int64_t n, std::int64_t k, bool complex_scalar);

/// Flops of a full QR of an m x n matrix (2mn^2 - 2n^3/3 for real).
double geqrf_flops(std::int64_t m, std::int64_t n, bool complex_scalar);

}  // namespace tiledqr::blas

#include "blas/gemm_impl.hpp"
#include "blas/trmm_impl.hpp"
