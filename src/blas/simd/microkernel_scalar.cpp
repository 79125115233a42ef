// Scalar baseline tier: plain loops, compiled with the library's default
// flags only (no -m ISA options), so TILEDQR_SIMD=scalar reproduces the
// portable build's arithmetic exactly on every host. This is the reference
// the dispatch-equivalence tests compare the vector tiers against. The
// transposed products (gemm_tn, gemv_t) run as blocked dots
// (blas/dot_block.hpp): each result is still one dot in ascending order.
#include <cstdint>

#include "blas/dot_block.hpp"
#include "blas/simd/simd_tables.hpp"

namespace tiledqr::blas::simd {
namespace scalar {
namespace {

template <typename S>
void axpy_s(std::int64_t n, S alpha, const S* x, S* y) noexcept {
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

template <typename S>
S dot_s(std::int64_t n, const S* x, const S* y) noexcept {
  S acc = S(0);
  for (std::int64_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

/// Four result columns per sweep over A (each A column loaded once per four
/// C columns); stride-1 inner loops. Mirrors the historic gemm_nn hot loop.
template <typename S>
void gemm_nn_s(std::int64_t m, std::int64_t n, std::int64_t k, S alpha, const S* a,
               std::int64_t lda, const S* b, std::int64_t ldb, S* c, std::int64_t ldc) {
  std::int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    S* c0 = c + j * ldc;
    S* c1 = c + (j + 1) * ldc;
    S* c2 = c + (j + 2) * ldc;
    S* c3 = c + (j + 3) * ldc;
    for (std::int64_t l = 0; l < k; ++l) {
      const S* al = a + l * lda;
      const S b0 = alpha * b[l + j * ldb];
      const S b1 = alpha * b[l + (j + 1) * ldb];
      const S b2 = alpha * b[l + (j + 2) * ldb];
      const S b3 = alpha * b[l + (j + 3) * ldb];
      for (std::int64_t i = 0; i < m; ++i) {
        const S av = al[i];
        c0[i] += b0 * av;
        c1[i] += b1 * av;
        c2[i] += b2 * av;
        c3[i] += b3 * av;
      }
    }
  }
  for (; j < n; ++j) {
    S* cj = c + j * ldc;
    for (std::int64_t l = 0; l < k; ++l) {
      const S bl = alpha * b[l + j * ldb];
      const S* al = a + l * lda;
      for (std::int64_t i = 0; i < m; ++i) cj[i] += bl * al[i];
    }
  }
}

/// One dot per column in ascending order, as a plain dot loop sums it
/// (gemm_tn_dots with one column of B runs four of them side by side).
template <typename S>
void gemv_t_s(std::int64_t m, std::int64_t n, S alpha, const S* a, std::int64_t lda,
              const S* x, S* y) noexcept {
  gemm_tn_dots<false>(n, 1, m, alpha, a, lda, x, m, y, n);
}

template <typename S>
void ger_s(std::int64_t m, std::int64_t n, S alpha, const S* x, const S* y, S* c,
           std::int64_t ldc) noexcept {
  for (std::int64_t j = 0; j < n; ++j) axpy_s(m, alpha * y[j], x, c + j * ldc);
}

void daxpy_(std::int64_t n, double alpha, const double* x, double* y) noexcept {
  axpy_s(n, alpha, x, y);
}
void saxpy_(std::int64_t n, float alpha, const float* x, float* y) noexcept {
  axpy_s(n, alpha, x, y);
}
double ddot_(std::int64_t n, const double* x, const double* y) noexcept {
  return dot_s(n, x, y);
}
float sdot_(std::int64_t n, const float* x, const float* y) noexcept {
  return dot_s(n, x, y);
}
void dgemm_nn_(std::int64_t m, std::int64_t n, std::int64_t k, double alpha, const double* a,
               std::int64_t lda, const double* b, std::int64_t ldb, double* c,
               std::int64_t ldc) {
  gemm_nn_s(m, n, k, alpha, a, lda, b, ldb, c, ldc);
}
void sgemm_nn_(std::int64_t m, std::int64_t n, std::int64_t k, float alpha, const float* a,
               std::int64_t lda, const float* b, std::int64_t ldb, float* c,
               std::int64_t ldc) {
  gemm_nn_s(m, n, k, alpha, a, lda, b, ldb, c, ldc);
}
void dgemm_tn_(std::int64_t m, std::int64_t n, std::int64_t k, double alpha, const double* a,
               std::int64_t lda, const double* b, std::int64_t ldb, double* c,
               std::int64_t ldc) {
  gemm_tn_dots<false>(m, n, k, alpha, a, lda, b, ldb, c, ldc);
}
void sgemm_tn_(std::int64_t m, std::int64_t n, std::int64_t k, float alpha, const float* a,
               std::int64_t lda, const float* b, std::int64_t ldb, float* c,
               std::int64_t ldc) {
  gemm_tn_dots<false>(m, n, k, alpha, a, lda, b, ldb, c, ldc);
}
void dgemv_t_(std::int64_t m, std::int64_t n, double alpha, const double* a, std::int64_t lda,
              const double* x, double* y) noexcept {
  gemv_t_s(m, n, alpha, a, lda, x, y);
}
void sgemv_t_(std::int64_t m, std::int64_t n, float alpha, const float* a, std::int64_t lda,
              const float* x, float* y) noexcept {
  gemv_t_s(m, n, alpha, a, lda, x, y);
}
void dger_(std::int64_t m, std::int64_t n, double alpha, const double* x, const double* y,
           double* c, std::int64_t ldc) noexcept {
  ger_s(m, n, alpha, x, y, c, ldc);
}
void sger_(std::int64_t m, std::int64_t n, float alpha, const float* x, const float* y,
           float* c, std::int64_t ldc) noexcept {
  ger_s(m, n, alpha, x, y, c, ldc);
}

}  // namespace
}  // namespace scalar

const Ops& ops_scalar() noexcept {
  static const Ops table{
      "scalar",          scalar::daxpy_,    scalar::saxpy_,    scalar::ddot_,
      scalar::sdot_,     scalar::dgemm_nn_, scalar::sgemm_nn_, scalar::dgemm_tn_,
      scalar::sgemm_tn_, scalar::dgemv_t_,  scalar::sgemv_t_,  scalar::dger_,
      scalar::sger_,
  };
  return table;
}

}  // namespace tiledqr::blas::simd
