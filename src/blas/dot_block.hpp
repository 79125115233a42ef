// The blocked dot-product form of C += alpha * op(A)^T B, shared by the
// scalar SIMD tier (real scalars) and the generic gemm/gemv (complex
// scalars). The packed vector GEMM reorders sums; this form does not: each
// element of C is one dot over l in ascending order, exactly the plain dot
// loop's arithmetic. Running a 4 x 2 block of those dots side by side
// overlaps their add latencies (one dot at a time waits on each add) and
// lets each loaded element of A serve two dots and each of B four.
//
// The real-scalar instantiations live only in the scalar tier's translation
// unit (gemm_impl.hpp and vector.hpp reach these templates for complex
// scalars only), so no code built with other flags can be merged into the
// scalar tier at link time. Keep it so: the per-ISA SIMD units must not
// include this header.
#pragma once

#include <cstdint>

#include "matrix/scalar.hpp"

namespace tiledqr::blas {

namespace detail {

template <bool Conj, int MI, int NJ, typename S>
void gemm_tn_dot_block(std::int64_t k, S alpha, const S* a, std::int64_t lda, const S* b,
                       std::int64_t ldb, S* c, std::int64_t ldc) noexcept {
  S acc[MI][NJ] = {};
  for (std::int64_t l = 0; l < k; ++l) {
    for (int q = 0; q < NJ; ++q) {
      const S bv = b[l + q * ldb];
      for (int p = 0; p < MI; ++p) {
        madd<Conj>(acc[p][q], a[l + p * lda], bv);
      }
    }
  }
  for (int q = 0; q < NJ; ++q)
    for (int p = 0; p < MI; ++p) c[p + q * ldc] += alpha * acc[p][q];
}

template <bool Conj, int NJ, typename S>
void gemm_tn_dot_cols(std::int64_t m, std::int64_t k, S alpha, const S* a, std::int64_t lda,
                      const S* b, std::int64_t ldb, S* c, std::int64_t ldc) noexcept {
  std::int64_t i = 0;
  for (; i + 4 <= m; i += 4)
    gemm_tn_dot_block<Conj, 4, NJ>(k, alpha, a + i * lda, lda, b, ldb, c + i, ldc);
  for (; i < m; ++i) gemm_tn_dot_block<Conj, 1, NJ>(k, alpha, a + i * lda, lda, b, ldb, c + i, ldc);
}

}  // namespace detail

/// c(i, j) += alpha * sum_l op(a(l, i)) * b(l, j) for the m x n C, with A
/// k x m and B k x n; op conjugates when Conj.
template <bool Conj, typename S>
void gemm_tn_dots(std::int64_t m, std::int64_t n, std::int64_t k, S alpha, const S* a,
                  std::int64_t lda, const S* b, std::int64_t ldb, S* c,
                  std::int64_t ldc) noexcept {
  std::int64_t j = 0;
  for (; j + 2 <= n; j += 2)
    detail::gemm_tn_dot_cols<Conj, 2>(m, k, alpha, a, lda, b + j * ldb, ldb, c + j * ldc, ldc);
  for (; j < n; ++j)
    detail::gemm_tn_dot_cols<Conj, 1>(m, k, alpha, a, lda, b + j * ldb, ldb, c + j * ldc, ldc);
}

}  // namespace tiledqr::blas
