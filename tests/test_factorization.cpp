// End-to-end factorization tests: every algorithm x kernel family x matrix
// shape x scalar type, on sequential and threaded runtimes. Checks
// ||A - QR|| / ||A||, Q^H Q = I, R upper triangular, and determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <string>
#include <utility>

#include "blas/simd/simd.hpp"
#include "core/tiled_qr.hpp"
#include "kernels/reference_qr.hpp"
#include "matrix/generate.hpp"
#include "matrix/norms.hpp"

namespace tiledqr {
namespace {

using core::Options;
using core::TiledQr;
using kernels::ApplyTrans;
using trees::KernelFamily;
using trees::TreeConfig;
using trees::TreeKind;

template <typename T>
struct Tolerance {
  static constexpr double value = 1e-11;
};

/// Relative residual ||A - Q R||_F / ||A||_F with Q formed explicitly.
template <typename T>
double factorization_residual(const Matrix<T>& a, const TiledQr<T>& qr) {
  auto q = qr.q_thin();
  auto r = qr.r_factor();
  Matrix<T> prod(a.rows(), a.cols());
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(1), q.view(), r.view(), T(0), prod.view());
  return double(difference_norm<T>(a.view(), prod.view()) / frobenius_norm<T>(a.view()));
}

struct AlgoCase {
  TreeConfig tree;
  const char* label;
};

class FactorizationAlgos : public ::testing::TestWithParam<AlgoCase> {};

template <typename T>
void check_full(const TreeConfig& tree, std::int64_t m, std::int64_t n, int nb, int ib,
                int threads) {
  Options opt;
  opt.tree = tree;
  opt.nb = nb;
  opt.ib = ib;
  opt.threads = threads;
  auto a = random_matrix<T>(m, n, 97);
  auto qr = TiledQr<T>::factorize(a.view(), opt);
  EXPECT_LE(factorization_residual(a, qr), Tolerance<T>::value) << tree.name();
  auto q = qr.q_thin();
  EXPECT_LE(double(orthogonality_error<T>(q.view())), Tolerance<T>::value) << tree.name();
  auto r = qr.r_factor();
  EXPECT_EQ(double(below_diagonal_max<T>(r.view())), 0.0) << tree.name();
}

TEST_P(FactorizationAlgos, TallDouble) {
  check_full<double>(GetParam().tree, 48, 16, 8, 4, 2);
}
TEST_P(FactorizationAlgos, TallComplex) {
  check_full<std::complex<double>>(GetParam().tree, 48, 16, 8, 4, 2);
}
TEST_P(FactorizationAlgos, SquareDouble) {
  check_full<double>(GetParam().tree, 32, 32, 8, 8, 4);
}
TEST_P(FactorizationAlgos, RaggedSizesDouble) {
  // Non-multiples of nb exercise the zero-padding path.
  check_full<double>(GetParam().tree, 45, 13, 8, 3, 2);
}
TEST_P(FactorizationAlgos, SingleTileColumnDouble) {
  check_full<double>(GetParam().tree, 56, 7, 7, 7, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, FactorizationAlgos,
    ::testing::Values(
        AlgoCase{{TreeKind::FlatTree, KernelFamily::TT, 1, 0}, "flat_tt"},
        AlgoCase{{TreeKind::FlatTree, KernelFamily::TS, 1, 0}, "flat_ts"},
        AlgoCase{{TreeKind::BinaryTree, KernelFamily::TT, 1, 0}, "binary"},
        AlgoCase{{TreeKind::Fibonacci, KernelFamily::TT, 1, 0}, "fibonacci"},
        AlgoCase{{TreeKind::Greedy, KernelFamily::TT, 1, 0}, "greedy"},
        AlgoCase{{TreeKind::PlasmaTree, KernelFamily::TT, 2, 0}, "plasma_tt_bs2"},
        AlgoCase{{TreeKind::PlasmaTree, KernelFamily::TS, 3, 0}, "plasma_ts_bs3"},
        AlgoCase{{TreeKind::Asap, KernelFamily::TT, 1, 0}, "asap"},
        AlgoCase{{TreeKind::Grasap, KernelFamily::TT, 1, 1}, "grasap1"}),
    [](const auto& inst) { return std::string(inst.param.label); });

TEST(Factorization, MatchesReferenceRDiagonal) {
  const int m = 40, n = 24, nb = 8;
  auto a = random_matrix<double>(m, n, 5);
  Options opt;
  opt.nb = nb;
  opt.ib = 4;
  opt.threads = 2;
  auto qr = TiledQr<double>::factorize(a.view(), opt);
  auto ref = kernels::reference_qr<double>(a.view());
  auto r = qr.r_factor();
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(r(i, i)), std::abs(ref.vr(i, i)), 1e-11) << i;
}

TEST(Factorization, DeterministicAcrossThreadCounts) {
  const int m = 64, n = 32, nb = 8;
  auto a = random_matrix<double>(m, n, 31);
  Options opt;
  opt.nb = nb;
  opt.ib = 4;
  opt.threads = 1;
  auto qr1 = TiledQr<double>::factorize(a.view(), opt);
  opt.threads = 8;
  auto qr8 = TiledQr<double>::factorize(a.view(), opt);
  // Dataflow execution makes results bitwise identical for any thread count.
  auto d1 = qr1.factors().to_dense();
  auto d8 = qr8.factors().to_dense();
  EXPECT_EQ(difference_norm<double>(d1.view(), d8.view()), 0.0);
}

TEST(Factorization, TinyMatrices) {
  for (auto [m, n] : std::vector<std::pair<int, int>>{{1, 1}, {2, 1}, {3, 3}, {5, 2}}) {
    Options opt;
    opt.nb = 2;
    opt.ib = 2;
    opt.threads = 1;
    auto a = random_matrix<double>(m, n, 7);
    auto qr = TiledQr<double>::factorize(a.view(), opt);
    EXPECT_LE(factorization_residual(a, qr), 1e-12) << m << "x" << n;
  }
}

TEST(Factorization, SingularMatrixStillFactorizes) {
  // Rank-deficient input: QR is still well-defined (R with zero rows).
  const int m = 24, n = 12;
  auto a = random_matrix<double>(m, n, 11);
  for (int i = 0; i < m; ++i) a(i, 3) = a(i, 2);  // duplicate column
  Options opt;
  opt.nb = 6;
  opt.ib = 3;
  opt.threads = 2;
  auto qr = TiledQr<double>::factorize(a.view(), opt);
  EXPECT_LE(factorization_residual(a, qr), 1e-12);
}

TEST(Factorization, IdentityInputGivesIdentityR) {
  const int n = 16;
  auto eye = Matrix<double>::identity(n);
  Options opt;
  opt.nb = 4;
  opt.ib = 2;
  opt.threads = 1;
  auto qr = TiledQr<double>::factorize(eye.view(), opt);
  auto r = qr.r_factor();
  for (int i = 0; i < n; ++i) EXPECT_NEAR(std::abs(r(i, i)), 1.0, 1e-13);
}

TEST(Factorization, LargeIbClampedToNb) {
  Options opt;
  opt.nb = 6;
  opt.ib = 64;  // larger than nb: kernels clamp per-panel widths
  opt.threads = 2;
  auto a = random_matrix<double>(30, 12, 13);
  auto qr = TiledQr<double>::factorize(a.view(), opt);
  EXPECT_LE(factorization_residual(a, qr), 1e-12);
}

TEST(Factorization, FloatPrecision) {
  Options opt;
  opt.nb = 8;
  opt.ib = 4;
  opt.threads = 2;
  auto a = random_matrix<float>(40, 16, 17);
  auto qr = TiledQr<float>::factorize(a.view(), opt);
  auto q = qr.q_thin();
  EXPECT_LE(double(orthogonality_error<float>(q.view())), 1e-4);
}

/// ||A - Q R|| / ||A|| for a QR, ||A - L Q|| / ||A|| for an LQ (wide A).
template <typename T>
double residual_of(const Matrix<T>& a, const TiledQr<T>& f) {
  if (f.kind() == kernels::FactorKind::QR) return factorization_residual(a, f);
  auto l = f.l_factor();
  auto q = f.q_thin();
  Matrix<T> prod(a.rows(), a.cols());
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(1), l.view(), q.view(), T(0), prod.view());
  return double(difference_norm<T>(a.view(), prod.view()) / frobenius_norm<T>(a.view()));
}

template <typename T>
Matrix<T> adjoint_of(const Matrix<T>& a) {
  Matrix<T> h(a.cols(), a.rows());
  for (std::int64_t j = 0; j < a.cols(); ++j)
    for (std::int64_t i = 0; i < a.rows(); ++i) h(j, i) = conj_if_complex(a(i, j));
  return h;
}

/// Graded columns (1 down to 1e-12) and entries scaled near overflow
/// (2^600) and underflow (2^-600), tall and as the wide transpose (LQ):
/// every SIMD tier's summation order must keep the residual and the column
/// (QR) or row (LQ) orthogonality bounds.
template <typename T>
void hard_inputs_keep_bounds() {
  namespace simd = blas::simd;
  struct TierRestore {
    simd::Tier saved = simd::active_tier();
    ~TierRestore() { simd::set_tier(saved); }
  } restore;
  struct Shape {
    std::int64_t m, n;
    int nb, ib;
  };
  for (const Shape s : {Shape{192, 96, 24, 5}, Shape{512, 256, 128, 32}}) {
    auto graded = random_matrix<T>(s.m, s.n, 29);
    auto big = random_matrix<T>(s.m, s.n, 31);
    auto tiny = random_matrix<T>(s.m, s.n, 37);
    const RealType<T> up = std::ldexp(1.0, 600), down = std::ldexp(1.0, -600);
    for (std::int64_t j = 0; j < s.n; ++j) {
      const RealType<T> g = std::pow(1e-12, double(j) / double(s.n - 1));
      for (std::int64_t i = 0; i < s.m; ++i) {
        graded(i, j) *= g;
        big(i, j) *= up;  // powers of two: exact
        tiny(i, j) *= down;
      }
    }
    Options opt;
    opt.nb = s.nb;
    opt.ib = s.ib;
    for (simd::Tier tier : simd::available_tiers()) {
      ASSERT_TRUE(simd::set_tier(tier));
      for (const auto& [label, tall] : {std::pair{"graded", &graded}, std::pair{"2^600", &big},
                                        std::pair{"2^-600", &tiny}})
        for (const Matrix<T>& a : {*tall, adjoint_of(*tall)}) {
          auto f = TiledQr<T>::factorize(a.view(), opt);
          const std::string where = std::string(simd::tier_name(tier)) + " " + label + " " +
                                    std::to_string(a.rows()) + "x" + std::to_string(a.cols());
          EXPECT_LE(residual_of(a, f), Tolerance<T>::value) << where;
          auto q = f.q_thin();
          EXPECT_LE(double(orthogonality_error<T>(q.view())), Tolerance<T>::value) << where;
        }
    }
  }
}

TEST(Factorization, HardInputsKeepBoundsOnEveryTier) {
  hard_inputs_keep_bounds<double>();
  hard_inputs_keep_bounds<std::complex<double>>();
}

}  // namespace
}  // namespace tiledqr
