// Tests for the dense and tiled matrix containers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <string>
#include <utility>

#include "matrix/generate.hpp"
#include "matrix/matrix.hpp"
#include "matrix/norms.hpp"
#include "matrix/tile_matrix.hpp"

namespace tiledqr {
namespace {

using Scalars = ::testing::Types<float, double, std::complex<float>, std::complex<double>>;

template <typename T>
class MatrixTyped : public ::testing::Test {};
TYPED_TEST_SUITE(MatrixTyped, Scalars);

TYPED_TEST(MatrixTyped, ZeroInitialized) {
  Matrix<TypeParam> a(3, 4);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 3; ++i) EXPECT_EQ(a(i, j), TypeParam(0));
}

TYPED_TEST(MatrixTyped, IdentityAndViews) {
  auto eye = Matrix<TypeParam>::identity(5);
  EXPECT_EQ(eye(2, 2), TypeParam(1));
  EXPECT_EQ(eye(2, 3), TypeParam(0));
  auto sub = eye.sub(1, 1, 3, 3);
  EXPECT_EQ(sub(0, 0), TypeParam(1));
  EXPECT_EQ(sub.rows(), 3);
  EXPECT_EQ(sub.ld(), 5);
}

TYPED_TEST(MatrixTyped, CopyView) {
  auto a = random_matrix<TypeParam>(6, 5, 3);
  Matrix<TypeParam> b(6, 5);
  copy(a.view(), b.view());
  EXPECT_EQ(difference_norm<TypeParam>(a.view(), b.view()), RealType<TypeParam>(0));
}

TYPED_TEST(MatrixTyped, TileRoundTripExactSize) {
  auto a = random_matrix<TypeParam>(12, 8, 5);
  auto t = TileMatrix<TypeParam>::from_dense(a.view(), 4);
  EXPECT_EQ(t.mt(), 3);
  EXPECT_EQ(t.nt(), 2);
  auto back = t.to_dense();
  EXPECT_EQ(difference_norm<TypeParam>(a.view(), back.view()), RealType<TypeParam>(0));
}

TYPED_TEST(MatrixTyped, TileRoundTripRaggedSizePadsWithZeros) {
  auto a = random_matrix<TypeParam>(13, 7, 6);
  auto t = TileMatrix<TypeParam>::from_dense(a.view(), 5);
  EXPECT_EQ(t.mt(), 3);
  EXPECT_EQ(t.nt(), 2);
  auto back = t.to_dense();
  EXPECT_EQ(difference_norm<TypeParam>(a.view(), back.view()), RealType<TypeParam>(0));
  // The padded region must be zero.
  EXPECT_EQ(t.tile(2, 1)(4, 4), TypeParam(0));
}

TYPED_TEST(MatrixTyped, TilingMatchesElementwiseCopyAndZeroesOnlyPadding) {
  // Every stored entry, padding included, against the element-wise tiling:
  // a(i, j) at tile (i / nb, j / w), position (i % nb, j % w), zero outside
  // the logical matrix. from_dense tiles square (w == nb); operand() tiles
  // nb x min(nb, ncols), so 1, 3 and 7 columns give w = 1, 3 and nb.
  using T = TypeParam;
  const int nb = 5;
  for (const std::int64_t m : {13, 10}) {  // ragged and exact row tiling
    for (const std::int64_t n : {1, 3, 7}) {
      const auto a = random_matrix<T>(m, n, unsigned(10 * m + n));
      for (const bool square : {false, true}) {
        const auto t = square ? TileMatrix<T>::from_dense(a.view(), nb)
                              : TileMatrix<T>::operand(a.view(), nb);
        const int w = square ? nb : int(std::min<std::int64_t>(nb, n));
        const std::string what = "m=" + std::to_string(m) + " n=" + std::to_string(n) +
                                 (square ? " from_dense" : " operand");
        ASSERT_EQ(t.nb(), nb) << what;
        ASSERT_EQ(t.w(), w) << what;
        ASSERT_EQ(t.mt(), (m + nb - 1) / nb) << what;
        ASSERT_EQ(t.nt(), (n + w - 1) / w) << what;
        for (int jt = 0; jt < t.nt(); ++jt)
          for (int it = 0; it < t.mt(); ++it) {
            const auto tile = t.tile(it, jt);
            ASSERT_EQ(tile.rows(), nb) << what;
            ASSERT_EQ(tile.cols(), w) << what;
            for (int c = 0; c < w; ++c)
              for (int r = 0; r < nb; ++r) {
                const std::int64_t i = std::int64_t(it) * nb + r, j = std::int64_t(jt) * w + c;
                const T want = i < m && j < n ? a(i, j) : T(0);
                ASSERT_EQ(tile(r, c), want) << what << " at (" << i << "," << j << ")";
              }
          }
        const auto back = t.to_dense();
        for (std::int64_t j = 0; j < n; ++j)
          for (std::int64_t i = 0; i < m; ++i) {
            ASSERT_EQ(back(i, j), a(i, j)) << what;
            ASSERT_EQ(t.at(i, j), a(i, j)) << what;
          }
      }
    }
  }
}

TYPED_TEST(MatrixTyped, AdjointTilingsMatchTheElementwiseAdjoint) {
  // Aᴴ's tiles three ways — tiled straight from dense A, adjointed in A's
  // own tile storage, and as a new matrix from A's tiles — against the
  // element-wise adjoint: every stored entry, padding included (zero), for
  // ragged and exact tilings and tile grids with mt < nt, mt == nt, mt > nt.
  using T = TypeParam;
  const int nb = 4;
  for (const auto& [m, n] : {std::pair{6, 17}, std::pair{8, 8}, std::pair{13, 5},
                             std::pair{3, 3}, std::pair{4, 12}}) {
    const auto a = random_matrix<T>(m, n, unsigned(31 * m + n));
    const auto tiles = TileMatrix<T>::from_dense(a.view(), nb);
    const TileMatrix<T> ways[] = {TileMatrix<T>::from_dense_adjoint(a.view(), nb),
                                  TileMatrix<T>(tiles).adjoint(), tiles.adjoint()};
    for (int w = 0; w < 3; ++w) {
      const std::string what = "m=" + std::to_string(m) + " n=" + std::to_string(n) +
                               " way " + std::to_string(w);
      const TileMatrix<T>& t = ways[w];
      ASSERT_EQ(t.m(), n) << what;
      ASSERT_EQ(t.n(), m) << what;
      ASSERT_EQ(t.mt(), tiles.nt()) << what;
      ASSERT_EQ(t.nt(), tiles.mt()) << what;
      for (int jt = 0; jt < t.nt(); ++jt)
        for (int it = 0; it < t.mt(); ++it)
          for (int c = 0; c < nb; ++c)
            for (int r = 0; r < nb; ++r) {
              const std::int64_t i = std::int64_t(it) * nb + r, j = std::int64_t(jt) * nb + c;
              const T want = i < n && j < m ? conj_if_complex(a(j, i)) : T(0);
              ASSERT_EQ(t.tile(it, jt)(r, c), want) << what << " at (" << i << "," << j << ")";
            }
    }
  }
}

TYPED_TEST(MatrixTyped, TileViewsAliasStorage) {
  TileMatrix<TypeParam> t(8, 8, 4);
  t.tile(1, 1)(2, 3) = TypeParam(7);
  EXPECT_EQ(t.at(6, 7), TypeParam(7));
}

TEST(Norms, FrobeniusKnownValue) {
  Matrix<double> a(2, 2);
  a(0, 0) = 3;
  a(1, 1) = 4;
  EXPECT_DOUBLE_EQ(frobenius_norm<double>(a.view()), 5.0);
}

TEST(Norms, OrthogonalityErrorOfIdentityIsZero) {
  auto eye = Matrix<double>::identity(6);
  EXPECT_DOUBLE_EQ(orthogonality_error<double>(eye.view()), 0.0);
}

TEST(Norms, BelowDiagonalMax) {
  Matrix<double> a(3, 3);
  a(2, 0) = -2.5;
  a(0, 2) = 9.0;  // above diagonal: ignored
  EXPECT_DOUBLE_EQ(below_diagonal_max<double>(a.view()), 2.5);
}

TEST(Norms, ScaledNearOverflowAndUnderflow) {
  // Squaring entries of about 1e+-200 unscaled overflows to Inf or underflows
  // to 0; both norms must scale first.
  for (double s : {1e200, 1e-200}) {
    Matrix<double> a(2, 2), b(2, 2);
    a(0, 0) = 3 * s;
    a(1, 1) = 4 * s;
    b(1, 1) = -8 * s;
    EXPECT_NEAR(frobenius_norm<double>(a.view()) / (5 * s), 1.0, 1e-14) << s;
    EXPECT_NEAR(difference_norm<double>(a.view(), b.view()) / (std::sqrt(153.0) * s), 1.0,
                1e-14)
        << s;
    Matrix<std::complex<double>> c(1, 2), z(1, 2);
    c(0, 0) = {3 * s, 4 * s};
    c(0, 1) = {0, 12 * s};
    EXPECT_NEAR(frobenius_norm<std::complex<double>>(c.view()) / (13 * s), 1.0, 1e-14) << s;
    EXPECT_NEAR(difference_norm<std::complex<double>>(c.view(), z.view()) / (13 * s), 1.0,
                1e-14)
        << s;
  }
  // A NaN entry still poisons the norm.
  Matrix<double> n(2, 2);
  n(1, 0) = std::nan("");
  EXPECT_TRUE(std::isnan(frobenius_norm<double>(n.view())));
}

TEST(Generate, Deterministic) {
  auto a = random_matrix<double>(4, 4, 42);
  auto b = random_matrix<double>(4, 4, 42);
  EXPECT_EQ(difference_norm<double>(a.view(), b.view()), 0.0);
  auto c = random_matrix<double>(4, 4, 43);
  EXPECT_GT(difference_norm<double>(a.view(), c.view()), 0.0);
}

TEST(Generate, UpperTriangular) {
  auto r = random_upper_triangular<double>(5, 1);
  EXPECT_EQ(below_diagonal_max<double>(r.view()), 0.0);
  EXPECT_NE(r(0, 0), 0.0);
}

TEST(MatrixChecks, InvalidDimensionsThrow) {
  EXPECT_THROW(TileMatrix<double>(0, 5, 4), Error);
  EXPECT_THROW(TileMatrix<double>(5, 5, 0), Error);
  const Matrix<double> no_cols(5, 0);
  const auto two_cols = random_matrix<double>(5, 2, 1);
  EXPECT_THROW((void)TileMatrix<double>::operand(no_cols.view(), 4), Error);
  EXPECT_THROW((void)TileMatrix<double>::operand(two_cols.view(), 0), Error);
}

TEST(MatrixChecks, OutOfRangeAccessorsThrow) {
#if defined(TILEDQR_ENABLE_ASSERTS) || !defined(NDEBUG)
  Matrix<double> a(3, 2);
  const Matrix<double>& ca = a;
  EXPECT_THROW((void)a(3, 0), Error);
  EXPECT_THROW((void)ca(0, 2), Error);
  EXPECT_THROW((void)a.view()(-1, 0), Error);
  EXPECT_THROW((void)ca.view()(0, -1), Error);
  TileMatrix<double> t(8, 8, 4);
  const TileMatrix<double>& ct = t;
  EXPECT_THROW((void)t.tile(2, 0), Error);
  EXPECT_THROW((void)ct.tile(0, -1), Error);
#else
  GTEST_SKIP() << "TILEDQR_ASSERT compiles out in this build";
#endif
}

}  // namespace
}  // namespace tiledqr
