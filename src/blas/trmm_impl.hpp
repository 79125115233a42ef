// Triangular solve implementation.
//
// trsm serves the solve paths' R x = y and L y = b steps, outside the tile
// kernels: every triangle inside a block reflector (op(T), GEQRT's unit-lower
// V1, a TT tail's closing triangle) is a zero-padded dense block multiplied
// by the packed GEMM instead (kernels/tile_kernels.hpp), so no triangular
// multiply is left here.
#pragma once

#include "common/error.hpp"

namespace tiledqr::blas {

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
