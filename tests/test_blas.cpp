// Tests for the BLAS substrate: every routine against a naive reference,
// across operand shapes, transposition modes, and scalar types.
#include <gtest/gtest.h>

#include <complex>
#include <limits>
#include <tuple>

#include "blas/blas.hpp"
#include "matrix/generate.hpp"
#include "matrix/norms.hpp"

namespace tiledqr {
namespace {

using blas::Diag;
using blas::Op;
using blas::Uplo;

template <typename T>
Matrix<T> op_of(Op op, const Matrix<T>& a) {
  if (op == Op::NoTrans) {
    Matrix<T> r(a.rows(), a.cols());
    copy(a.view(), r.view());
    return r;
  }
  Matrix<T> r(a.cols(), a.rows());
  for (std::int64_t j = 0; j < a.cols(); ++j)
    for (std::int64_t i = 0; i < a.rows(); ++i)
      r(j, i) = op == Op::ConjTrans ? conj_if_complex(a(i, j)) : a(i, j);
  return r;
}

template <typename T>
Matrix<T> naive_mul(const Matrix<T>& a, const Matrix<T>& b) {
  Matrix<T> c(a.rows(), b.cols());
  for (std::int64_t j = 0; j < b.cols(); ++j)
    for (std::int64_t l = 0; l < a.cols(); ++l)
      for (std::int64_t i = 0; i < a.rows(); ++i) c(i, j) += a(i, l) * b(l, j);
  return c;
}

template <typename T>
void make_triangular(Matrix<T>& a, Uplo uplo) {
  for (std::int64_t j = 0; j < a.cols(); ++j)
    for (std::int64_t i = 0; i < a.rows(); ++i) {
      if (uplo == Uplo::Upper && i > j) a(i, j) = T(0);
      if (uplo == Uplo::Lower && i < j) a(i, j) = T(0);
    }
}

/// Keeps triangular solves well-conditioned.
template <typename T>
void boost_diagonal(Matrix<T>& a) {
  for (std::int64_t i = 0; i < a.rows(); ++i) a(i, i) += T(4);
}

/// The matrix trsm actually operates on: the selected triangle, with a
/// unit diagonal substituted when diag == Unit.
template <typename T>
Matrix<T> effective_triangle(const Matrix<T>& a, Uplo uplo, Diag diag) {
  Matrix<T> t(a.rows(), a.cols());
  copy(a.view(), t.view());
  make_triangular(t, uplo);
  if (diag == Diag::Unit)
    for (std::int64_t i = 0; i < a.rows(); ++i) t(i, i) = T(1);
  return t;
}

using Scalars = ::testing::Types<float, double, std::complex<float>, std::complex<double>>;

template <typename T>
class BlasTyped : public ::testing::Test {
 protected:
  static constexpr double tol() { return sizeof(RealType<T>) == 4 ? 2e-4 : 1e-11; }
};
TYPED_TEST_SUITE(BlasTyped, Scalars);

TYPED_TEST(BlasTyped, GemmAllOpCombinations) {
  using T = TypeParam;
  const std::int64_t m = 7, n = 5, k = 6;
  for (Op opa : {Op::NoTrans, Op::Trans, Op::ConjTrans}) {
    for (Op opb : {Op::NoTrans, Op::Trans, Op::ConjTrans}) {
      Matrix<T> a = opa == Op::NoTrans ? random_matrix<T>(m, k, 1) : random_matrix<T>(k, m, 1);
      Matrix<T> b = opb == Op::NoTrans ? random_matrix<T>(k, n, 2) : random_matrix<T>(n, k, 2);
      Matrix<T> c = random_matrix<T>(m, n, 3);
      Matrix<T> want = naive_mul(op_of(opa, a), op_of(opb, b));
      const T alpha = T(2), beta = T(-1);
      for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t i = 0; i < m; ++i) want(i, j) = alpha * want(i, j) + beta * c(i, j);
      blas::gemm(opa, opb, alpha, a.view(), b.view(), beta, c.view());
      EXPECT_LE(difference_norm<T>(want.view(), c.view()), this->tol())
          << "opa=" << int(opa) << " opb=" << int(opb);
    }
  }
}

TYPED_TEST(BlasTyped, GemmBetaZeroOverwritesGarbage) {
  using T = TypeParam;
  auto a = random_matrix<T>(4, 4, 1);
  auto b = random_matrix<T>(4, 4, 2);
  Matrix<T> c(4, 4);
  c.fill(T(1e30));
  blas::gemm(Op::NoTrans, Op::NoTrans, T(1), a.view(), b.view(), T(0), c.view());
  auto want = naive_mul(a, b);
  EXPECT_LE(difference_norm<T>(want.view(), c.view()), this->tol());
}

TYPED_TEST(BlasTyped, GemmBetaZeroOverwritesNaN) {
  using T = TypeParam;
  // Stronger than the 1e30 fill: 0 * NaN is NaN, so any path that scales the
  // output instead of overwriting it fails this test.
  const auto nan = std::numeric_limits<RealType<T>>::quiet_NaN();
  auto a = random_matrix<T>(5, 3, 21);
  auto b = random_matrix<T>(3, 4, 22);
  Matrix<T> c(5, 4);
  c.fill(T(nan));
  blas::gemm(Op::NoTrans, Op::NoTrans, T(1), a.view(), b.view(), T(0), c.view());
  auto want = naive_mul(a, b);
  EXPECT_LE(difference_norm<T>(want.view(), c.view()), this->tol());
}

TYPED_TEST(BlasTyped, GemvBetaZeroOverwritesNaN) {
  using T = TypeParam;
  // Regression: gemv used to scale y by beta on both paths, so beta == 0 on a
  // NaN-poisoned output buffer produced NaN instead of overwriting.
  const auto nan = std::numeric_limits<RealType<T>>::quiet_NaN();
  auto a = random_matrix<T>(5, 4, 23);
  std::vector<T> x4{T(1), T(2), T(-1), T(0.5)};
  std::vector<T> x5{T(1), T(-2), T(3), T(0), T(1)};

  std::vector<T> y5(5, T(nan));
  blas::gemv(Op::NoTrans, T(2), a.view(), x4.data(), T(0), y5.data());
  for (int i = 0; i < 5; ++i) {
    T want = T(0);
    for (int j = 0; j < 4; ++j) want += T(2) * a(i, j) * x4[size_t(j)];
    EXPECT_LE(std::abs(want - y5[size_t(i)]), this->tol()) << i;
  }

  for (Op op : {Op::Trans, Op::ConjTrans}) {
    std::vector<T> y4(4, T(nan));
    blas::gemv(op, T(1), a.view(), x5.data(), T(0), y4.data());
    for (int j = 0; j < 4; ++j) {
      T want = T(0);
      for (int i = 0; i < 5; ++i)
        want += (op == Op::ConjTrans ? conj_if_complex(a(i, j)) : a(i, j)) * x5[size_t(i)];
      EXPECT_LE(std::abs(want - y4[size_t(j)]), this->tol()) << j;
    }
  }
}

TYPED_TEST(BlasTyped, GemmWideColumnBlocking) {
  using T = TypeParam;
  // Exercise the 4-column unrolled path and its remainder loop.
  for (std::int64_t n : {1, 3, 4, 9, 13}) {
    auto a = random_matrix<T>(8, 8, 4);
    auto b = random_matrix<T>(8, n, 5);
    Matrix<T> c(8, n);
    blas::gemm(Op::NoTrans, Op::NoTrans, T(1), a.view(), b.view(), T(0), c.view());
    auto want = naive_mul(a, b);
    EXPECT_LE(difference_norm<T>(want.view(), c.view()), this->tol()) << n;
  }
}

TYPED_TEST(BlasTyped, TrsmSolves) {
  using T = TypeParam;
  const std::int64_t n = 6, m = 4;
  for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
    for (Op op : {Op::NoTrans, Op::ConjTrans}) {
      for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
        Matrix<T> a = random_matrix<T>(n, n, 12);
        make_triangular(a, uplo);
        boost_diagonal(a);
        Matrix<T> b = random_matrix<T>(n, m, 13);
        Matrix<T> x(b.rows(), b.cols());
        copy(b.view(), x.view());
        blas::trsm(uplo, op, diag, T(1), a.view(), x.view());
        // Check op(A) X == B.
        auto eff = op_of(op, effective_triangle(a, uplo, diag));
        Matrix<T> back = naive_mul(eff, x);
        EXPECT_LE(difference_norm<T>(back.view(), b.view()), 32 * this->tol())
            << "uplo=" << int(uplo) << " op=" << int(op) << " diag=" << int(diag);
      }
    }
  }
}

TYPED_TEST(BlasTyped, GemvBothOps) {
  using T = TypeParam;
  auto a = random_matrix<T>(5, 4, 14);
  std::vector<T> x4{T(1), T(2), T(-1), T(0.5)};
  std::vector<T> x5{T(1), T(-2), T(3), T(0), T(1)};
  std::vector<T> y5(5, T(1)), y4(4, T(1));
  blas::gemv(Op::NoTrans, T(1), a.view(), x4.data(), T(2), y5.data());
  for (int i = 0; i < 5; ++i) {
    T want = T(2);
    for (int j = 0; j < 4; ++j) want += a(i, j) * x4[size_t(j)];
    EXPECT_LE(std::abs(want - y5[size_t(i)]), this->tol());
  }
  blas::gemv(Op::ConjTrans, T(1), a.view(), x5.data(), T(0), y4.data());
  for (int j = 0; j < 4; ++j) {
    T want = T(0);
    for (int i = 0; i < 5; ++i) want += conj_if_complex(a(i, j)) * x5[size_t(i)];
    EXPECT_LE(std::abs(want - y4[size_t(j)]), this->tol());
  }
}

TYPED_TEST(BlasTyped, VectorHelpers) {
  using T = TypeParam;
  std::vector<T> x{T(3), T(4)};
  EXPECT_NEAR(double(blas::nrm2(2, x.data())), 5.0, 1e-5);
  std::vector<T> y{T(1), T(1)};
  blas::axpy<T>(2, T(2), x.data(), y.data());
  EXPECT_LE(std::abs(y[0] - T(7)), this->tol());
  blas::scal<T>(2, T(0.5), y.data());
  EXPECT_LE(std::abs(y[0] - T(3.5)), this->tol());
  EXPECT_LE(std::abs(blas::dotc<T>(2, x.data(), x.data()) - T(25)), this->tol());
}

TEST(BlasChecks, GemmShapeMismatchThrows) {
  auto a = random_matrix<double>(3, 4, 1);
  auto b = random_matrix<double>(5, 2, 2);
  Matrix<double> c(3, 2);
  EXPECT_THROW(
      blas::gemm(Op::NoTrans, Op::NoTrans, 1.0, a.view(), b.view(), 0.0, c.view()), Error);
}

TEST(BlasFlops, Counts) {
  EXPECT_DOUBLE_EQ(blas::gemm_flops(10, 10, 10, false), 2000.0);
  EXPECT_DOUBLE_EQ(blas::gemm_flops(10, 10, 10, true), 8000.0);
  EXPECT_NEAR(blas::geqrf_flops(100, 100, false), 2e6 - 2.0 / 3.0 * 1e6, 1);
}

TEST(Nrm2, OverflowSafe) {
  std::vector<double> x{1e200, 1e200};
  EXPECT_NEAR(blas::nrm2(2, x.data()) / 1e200, std::sqrt(2.0), 1e-12);
  std::vector<double> tiny{1e-200, 1e-200};
  EXPECT_NEAR(blas::nrm2(2, tiny.data()) / 1e-200, std::sqrt(2.0), 1e-12);
}

}  // namespace
}  // namespace tiledqr
