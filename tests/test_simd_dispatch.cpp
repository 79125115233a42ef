// Tests for the runtime SIMD dispatch layer (blas/simd/simd.hpp).
//
// Two families of guarantees:
//   - Equivalence: every available tier computes the same results as the
//     scalar baseline, within an accumulation-order tolerance (vector tiers
//     use FMA contraction and multi-accumulator reductions, so bitwise
//     equality across tiers is not promised). Shapes deliberately straddle
//     register-block boundaries to exercise remainder paths. The GEMM is
//     also run on every tier, scalar included, on interior views (ld > rows)
//     against a naive triple loop.
//   - Determinism: within one tier, repeated runs are bitwise identical —
//     each tier fixes its lane layout and reduction order.
//
// The suite saves and restores the live tier around every test so ordering
// within the test binary does not matter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "blas/blas.hpp"
#include "blas/simd/simd.hpp"
#include "kernels/kernels.hpp"
#include "matrix/generate.hpp"
#include "matrix/norms.hpp"

namespace tiledqr {
namespace {

namespace simd = blas::simd;

class TierGuard {
 public:
  TierGuard() : saved_(simd::active_tier()) {}
  ~TierGuard() { simd::set_tier(saved_); }

 private:
  simd::Tier saved_;
};

std::vector<simd::Tier> vector_tiers() {
  auto tiers = simd::available_tiers();
  tiers.erase(std::remove(tiers.begin(), tiers.end(), simd::Tier::Scalar), tiers.end());
  return tiers;
}

TEST(SimdDispatch, ScalarTierAlwaysAvailable) {
  EXPECT_TRUE(simd::tier_available(simd::Tier::Scalar));
  auto tiers = simd::available_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), simd::Tier::Scalar);
  // Ascending, and the best tier is the last one.
  EXPECT_TRUE(std::is_sorted(tiers.begin(), tiers.end()));
  EXPECT_EQ(tiers.back(), simd::best_available_tier());
}

TEST(SimdDispatch, SetTierSwitchesTable) {
  TierGuard guard;
  for (simd::Tier t : simd::available_tiers()) {
    ASSERT_TRUE(simd::set_tier(t));
    EXPECT_EQ(simd::active_tier(), t);
    EXPECT_STREQ(simd::ops().name, simd::tier_name(t));
  }
}

TEST(SimdDispatch, UnavailableTierRejected) {
  TierGuard guard;
  const simd::Tier before = simd::active_tier();
  for (int t = 0; t < simd::kNumTiers; ++t) {
    if (simd::tier_available(simd::Tier(t))) continue;
    EXPECT_FALSE(simd::set_tier(simd::Tier(t)));
    EXPECT_EQ(simd::active_tier(), before);
  }
}

TEST(SimdDispatch, ParseTier) {
  simd::Tier t;
  EXPECT_TRUE(simd::parse_tier("scalar", t));
  EXPECT_EQ(t, simd::Tier::Scalar);
  EXPECT_TRUE(simd::parse_tier("avx512", t));
  EXPECT_EQ(t, simd::Tier::Avx512);
  EXPECT_FALSE(simd::parse_tier("auto", t));
  EXPECT_FALSE(simd::parse_tier("", t));
  EXPECT_FALSE(simd::parse_tier("sse9", t));
}

// Shapes that straddle the register-block boundaries: the double microkernel
// uses MR = 2 vector widths (8 or 16 rows) and NR = 4 columns with KC = 256
// k-blocking; odd sizes hit every remainder path.
struct GemmShape {
  std::int64_t m, n, k;
};
const GemmShape kGemmShapes[] = {
    {1, 1, 1},  {3, 2, 5},   {7, 4, 9},    {8, 4, 16},   {15, 5, 31}, {16, 8, 32},
    {17, 9, 33}, {31, 3, 7}, {33, 13, 40}, {64, 17, 70}, {5, 1, 300},  // k > KC
};

template <typename T>
double rel_tol() {
  // Accumulation-order tolerance: FMA contraction and lane-reduction order
  // differ between tiers. Scaled ULP bound, loose enough for k up to ~300.
  return sizeof(T) == 4 ? 5e-5 : 1e-13;
}

/// A copy of `src` in the interior of a larger matrix whose border cells hold
/// a sentinel, so the view's ld exceeds its row count, as it does for the
/// sub-views of nb-row tiles that the kernels pass.
template <typename T>
class Bordered {
 public:
  static constexpr std::int64_t kPad = 3;
  static constexpr T kSentinel = T(-777.25);

  explicit Bordered(const Matrix<T>& src)
      : rows_(src.rows()), cols_(src.cols()), full_(rows_ + 2 * kPad + 1, cols_ + 2 * kPad) {
    for (std::int64_t j = 0; j < full_.cols(); ++j)
      for (std::int64_t i = 0; i < full_.rows(); ++i) full_(i, j) = kSentinel;
    copy(src.view(), view());
  }

  MatrixView<T> view() { return full_.view().sub(kPad, kPad, rows_, cols_); }

  /// Whether every cell outside the view still holds the sentinel.
  [[nodiscard]] bool border_intact() const {
    for (std::int64_t j = 0; j < full_.cols(); ++j)
      for (std::int64_t i = 0; i < full_.rows(); ++i) {
        const bool inside = i >= kPad && i < kPad + rows_ && j >= kPad && j < kPad + cols_;
        if (!inside && full_(i, j) != kSentinel) return false;
      }
    return true;
  }

 private:
  std::int64_t rows_, cols_;
  Matrix<T> full_;
};

/// C0 + alpha * op(A) * B by a triple loop accumulated in double.
template <typename T>
Matrix<T> naive_gemm(blas::Op opa, T alpha, const Matrix<T>& a, const Matrix<T>& b,
                     const Matrix<T>& c0) {
  Matrix<T> c(c0.rows(), c0.cols());
  for (std::int64_t j = 0; j < c.cols(); ++j)
    for (std::int64_t i = 0; i < c.rows(); ++i) {
      double acc = 0;
      for (std::int64_t l = 0; l < b.rows(); ++l)
        acc += double(opa == blas::Op::NoTrans ? a(i, l) : a(l, i)) * double(b(l, j));
      c(i, j) = T(double(c0(i, j)) + double(alpha) * acc);
    }
  return c;
}

template <typename T>
void check_gemm_equivalence(blas::Op opa) {
  TierGuard guard;
  for (const auto& s : kGemmShapes) {
    auto a = opa == blas::Op::NoTrans ? random_matrix<T>(s.m, s.k, 31)
                                      : random_matrix<T>(s.k, s.m, 31);
    auto b = random_matrix<T>(s.k, s.n, 32);
    auto c0 = random_matrix<T>(s.m, s.n, 33);

    ASSERT_TRUE(simd::set_tier(simd::Tier::Scalar));
    Matrix<T> ref(s.m, s.n);
    copy(c0.view(), ref.view());
    blas::gemm(opa, blas::Op::NoTrans, T(1.5), a.view(), b.view(), T(1), ref.view());
    const double scale = std::max(1.0, double(frobenius_norm<T>(ref.view())));

    for (simd::Tier t : vector_tiers()) {
      ASSERT_TRUE(simd::set_tier(t));
      Matrix<T> c(s.m, s.n);
      copy(c0.view(), c.view());
      blas::gemm(opa, blas::Op::NoTrans, T(1.5), a.view(), b.view(), T(1), c.view());
      EXPECT_LE(double(difference_norm<T>(ref.view(), c.view())) / scale, rel_tol<T>())
          << simd::tier_name(t) << " m=" << s.m << " n=" << s.n << " k=" << s.k;
    }

    // Strided variant on every tier, scalar included: interior views with
    // ld > rows, checked against the triple loop, borders untouched.
    const auto naive = naive_gemm(opa, T(1.5), a, b, c0);
    for (simd::Tier t : simd::available_tiers()) {
      ASSERT_TRUE(simd::set_tier(t));
      Bordered<T> ab(a), bb(b), cb(c0);
      blas::gemm(opa, blas::Op::NoTrans, T(1.5), ConstMatrixView<T>(ab.view()),
                 ConstMatrixView<T>(bb.view()), T(1), cb.view());
      EXPECT_LE(double(difference_norm<T>(naive.view(), cb.view())) / scale, rel_tol<T>())
          << "strided " << simd::tier_name(t) << " m=" << s.m << " n=" << s.n << " k=" << s.k;
      EXPECT_TRUE(ab.border_intact() && bb.border_intact() && cb.border_intact())
          << "strided " << simd::tier_name(t) << " m=" << s.m << " n=" << s.n << " k=" << s.k;
    }
  }
}

TEST(SimdEquivalence, GemmNNDouble) { check_gemm_equivalence<double>(blas::Op::NoTrans); }
TEST(SimdEquivalence, GemmNNFloat) { check_gemm_equivalence<float>(blas::Op::NoTrans); }
TEST(SimdEquivalence, GemmTNDouble) { check_gemm_equivalence<double>(blas::Op::Trans); }
TEST(SimdEquivalence, GemmTNFloat) { check_gemm_equivalence<float>(blas::Op::Trans); }

template <typename T>
void check_level1_equivalence() {
  TierGuard guard;
  for (std::int64_t n : {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 100}) {
    auto xm = random_matrix<T>(n, 1, 41);
    auto ym = random_matrix<T>(n, 1, 42);
    const T* x = xm.data();

    ASSERT_TRUE(simd::set_tier(simd::Tier::Scalar));
    std::vector<T> y_ref(static_cast<size_t>(n));
    std::memcpy(y_ref.data(), ym.data(), size_t(n) * sizeof(T));
    blas::axpy(n, T(1.25), x, y_ref.data());
    const T dot_ref = blas::dotc(n, x, ym.data());

    for (simd::Tier t : vector_tiers()) {
      ASSERT_TRUE(simd::set_tier(t));
      std::vector<T> y(static_cast<size_t>(n));
      std::memcpy(y.data(), ym.data(), size_t(n) * sizeof(T));
      blas::axpy(n, T(1.25), x, y.data());
      for (std::int64_t i = 0; i < n; ++i)
        EXPECT_LE(std::abs(double(y[size_t(i)] - y_ref[size_t(i)])), rel_tol<T>())
            << simd::tier_name(t) << " n=" << n;
      const T dot = blas::dotc(n, x, ym.data());
      EXPECT_LE(std::abs(double(dot - dot_ref)) / std::max(1.0, std::abs(double(dot_ref))),
                rel_tol<T>())
          << simd::tier_name(t) << " n=" << n;
    }
  }
}

TEST(SimdEquivalence, AxpyDotDouble) { check_level1_equivalence<double>(); }
TEST(SimdEquivalence, AxpyDotFloat) { check_level1_equivalence<float>(); }

template <typename T>
void check_gemv_ger_equivalence() {
  TierGuard guard;
  for (std::int64_t m : {1, 3, 7, 8, 17, 64}) {
    for (std::int64_t n : {1, 2, 3, 4, 5, 9, 12}) {
      auto a0 = random_matrix<T>(m, n, 71);
      auto xm = random_matrix<T>(m, 1, 72);
      auto ym = random_matrix<T>(n, 1, 73);

      ASSERT_TRUE(simd::set_tier(simd::Tier::Scalar));
      std::vector<T> yt_ref(size_t(n), T(0.5));
      blas::gemv_t_acc(m, n, T(1.5), a0.data(), a0.ld(), xm.data(), yt_ref.data());
      Matrix<T> ger_ref(m, n);
      copy(a0.view(), ger_ref.view());
      blas::ger_acc(m, n, T(-2), xm.data(), ym.data(), ger_ref.data(), ger_ref.ld());

      for (simd::Tier t : vector_tiers()) {
        ASSERT_TRUE(simd::set_tier(t));
        std::vector<T> yt(size_t(n), T(0.5));
        blas::gemv_t_acc(m, n, T(1.5), a0.data(), a0.ld(), xm.data(), yt.data());
        for (std::int64_t j = 0; j < n; ++j)
          EXPECT_LE(std::abs(double(yt[size_t(j)] - yt_ref[size_t(j)])), rel_tol<T>())
              << simd::tier_name(t) << " m=" << m << " n=" << n;
        Matrix<T> g(m, n);
        copy(a0.view(), g.view());
        blas::ger_acc(m, n, T(-2), xm.data(), ym.data(), g.data(), g.ld());
        EXPECT_LE(double(difference_norm<T>(ger_ref.view(), g.view())), rel_tol<T>())
            << simd::tier_name(t) << " m=" << m << " n=" << n;
      }
    }
  }
}

TEST(SimdEquivalence, GemvTGerDouble) { check_gemv_ger_equivalence<double>(); }
TEST(SimdEquivalence, GemvTGerFloat) { check_gemv_ger_equivalence<float>(); }

// Full kernels: factor + apply on every tier must agree with the scalar tier
// to accumulation-order tolerance, and each tier must be bitwise-reproducible
// against itself. The chain runs all six kernels: GEQRT a1 and a3, TSQRT
// a2 into a1, TTQRT a3 into a1, each apply on an nb-column and a 1-column
// C (the narrow GEMM path), then Q back onto the 1-column C.
template <typename T>
std::vector<T> factor_and_apply(int nb, int ib) {
  using kernels::ApplyTrans;
  auto a1 = random_matrix<T>(nb, nb, 61);
  auto a2 = random_matrix<T>(nb, nb, 62);
  auto a3 = random_matrix<T>(nb, nb, 65);
  auto c1 = random_matrix<T>(nb, nb, 63);
  auto c2 = random_matrix<T>(nb, nb, 64);
  auto c3 = random_matrix<T>(nb, nb, 66);
  auto x1 = random_matrix<T>(nb, 1, 67);
  auto x2 = random_matrix<T>(nb, 1, 68);
  auto x3 = random_matrix<T>(nb, 1, 69);
  Matrix<T> t1(ib, nb), t2(ib, nb), t3(ib, nb), t4(ib, nb);

  const auto qh = ApplyTrans::ConjTrans;
  kernels::geqrt(ib, a1.view(), t1.view());
  kernels::geqrt(ib, a3.view(), t3.view());
  for (auto* c : {&c1, &x1}) kernels::unmqr(qh, ib, a1.view(), t1.view(), c->view());
  for (auto* c : {&c3, &x3}) kernels::unmqr(qh, ib, a3.view(), t3.view(), c->view());
  kernels::tsqrt(ib, a1.view(), a2.view(), t2.view());
  kernels::tsmqr(qh, ib, a2.view(), t2.view(), c1.view(), c2.view());
  kernels::tsmqr(qh, ib, a2.view(), t2.view(), x1.view(), x2.view());
  kernels::ttqrt(ib, a1.view(), a3.view(), t4.view());
  kernels::ttmqr(qh, ib, a3.view(), t4.view(), c1.view(), c3.view());
  kernels::ttmqr(qh, ib, a3.view(), t4.view(), x1.view(), x3.view());
  const auto q = ApplyTrans::NoTrans;
  kernels::ttmqr(q, ib, a3.view(), t4.view(), x1.view(), x3.view());
  kernels::tsmqr(q, ib, a2.view(), t2.view(), x1.view(), x2.view());
  kernels::unmqr(q, ib, a3.view(), t3.view(), x3.view());
  kernels::unmqr(q, ib, a1.view(), t1.view(), x1.view());

  std::vector<T> out;
  for (const auto* m : {&a1, &a2, &a3, &c1, &c2, &c3, &x1, &x2, &x3, &t1, &t2, &t3, &t4})
    for (std::int64_t j = 0; j < m->cols(); ++j)
      for (std::int64_t i = 0; i < m->rows(); ++i) out.push_back((*m)(i, j));
  return out;
}

TEST(SimdEquivalence, KernelFactorizationAcrossTiers) {
  TierGuard guard;
  const int nb = 24, ib = 8;
  ASSERT_TRUE(simd::set_tier(simd::Tier::Scalar));
  auto ref = factor_and_apply<double>(nb, ib);

  for (simd::Tier t : vector_tiers()) {
    ASSERT_TRUE(simd::set_tier(t));
    auto got = factor_and_apply<double>(nb, ib);
    ASSERT_EQ(got.size(), ref.size());
    double err = 0;
    for (size_t i = 0; i < ref.size(); ++i) err = std::max(err, std::abs(got[i] - ref[i]));
    EXPECT_LE(err, 1e-11) << simd::tier_name(t);
  }
}

TEST(SimdDeterminism, EachTierBitwiseReproducible) {
  TierGuard guard;
  const int nb = 24, ib = 8;
  for (simd::Tier t : simd::available_tiers()) {
    ASSERT_TRUE(simd::set_tier(t));
    auto run1 = factor_and_apply<double>(nb, ib);
    auto run2 = factor_and_apply<double>(nb, ib);
    ASSERT_EQ(run1.size(), run2.size());
    EXPECT_EQ(0, std::memcmp(run1.data(), run2.data(), run1.size() * sizeof(double)))
        << simd::tier_name(t);
  }
}

}  // namespace
}  // namespace tiledqr
