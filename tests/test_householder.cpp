// Tests for the Householder machinery: larfg, geqr2, larft, the block apply
// (larfb) of GEQRT's reflectors, and the reference QR used as an oracle
// elsewhere.
#include <gtest/gtest.h>

#include <complex>

#include "kernels/householder.hpp"
#include "kernels/tile_kernels.hpp"
#include "kernels/reference_qr.hpp"
#include "matrix/generate.hpp"
#include "matrix/norms.hpp"

namespace tiledqr {
namespace {

using kernels::ApplyTrans;

using Scalars = ::testing::Types<double, std::complex<double>>;

template <typename T>
class HouseholderTyped : public ::testing::Test {};
TYPED_TEST_SUITE(HouseholderTyped, Scalars);

TYPED_TEST(HouseholderTyped, LarfgAnnihilates) {
  using T = TypeParam;
  auto v = random_matrix<T>(6, 1, 3);
  T alpha = v(0, 0);
  std::vector<T> x(5);
  for (int i = 0; i < 5; ++i) x[size_t(i)] = v(i + 1, 0);
  std::vector<T> orig = x;
  T orig_alpha = alpha;
  T tau;
  kernels::larfg(alpha, x.data(), 5, tau);
  // H^H [alpha; x] = [beta; 0] with v = [1; x_out]:
  //   w = conj(1)*alpha0 + sum conj(v_i) x0_i; result = in - conj(tau) w v.
  T w = orig_alpha;
  for (int i = 0; i < 5; ++i) w += conj_if_complex(x[size_t(i)]) * orig[size_t(i)];
  T head = orig_alpha - conj_if_complex(tau) * w;
  EXPECT_LE(std::abs(head - alpha), 1e-12);         // head becomes beta
  EXPECT_LE(std::abs(ScalarTraits<T>::imag(alpha)), 1e-12);  // beta is real
  for (int i = 0; i < 5; ++i) {
    T r = orig[size_t(i)] - conj_if_complex(tau) * w * x[size_t(i)];
    EXPECT_LE(std::abs(r), 1e-12) << i;
  }
}

TYPED_TEST(HouseholderTyped, LarfgZeroVectorRealAlphaIsIdentity) {
  using T = TypeParam;
  T alpha = T(3);
  T tau = T(42);
  kernels::larfg(alpha, static_cast<T*>(nullptr), 0, tau);
  EXPECT_EQ(tau, T(0));
  EXPECT_EQ(alpha, T(3));
}

TYPED_TEST(HouseholderTyped, LarfgTinyValuesRescale) {
  using T = TypeParam;
  std::vector<T> x{T(1e-300), T(-2e-300)};
  T alpha = T(3e-300);
  T tau;
  kernels::larfg(alpha, x.data(), 2, tau);
  // beta = -sign * ||[3,1,-2]||*1e-300; finite and nonzero.
  double beta = ScalarTraits<T>::real(alpha);
  EXPECT_GT(std::abs(beta), 0.0);
  EXPECT_NEAR(std::abs(beta) / 1e-300, std::sqrt(14.0), 1e-6);
}

TYPED_TEST(HouseholderTyped, Geqr2ReconstructsViaQ) {
  using T = TypeParam;
  const int m = 9, n = 6;
  auto a0 = random_matrix<T>(m, n, 11);
  auto qr = kernels::reference_qr<T>(a0.view());
  // Q^H A = R
  Matrix<T> c(m, n);
  copy(a0.view(), c.view());
  qr.apply_q(ApplyTrans::ConjTrans, c.view());
  auto r = qr.r_factor();
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      T want = i <= j && i < n ? r(i, j) : T(0);
      EXPECT_LE(std::abs(c(i, j) - want), 1e-12);
    }
}

TYPED_TEST(HouseholderTyped, ReferenceQThinIsOrthonormal) {
  using T = TypeParam;
  auto a0 = random_matrix<T>(10, 4, 13);
  auto qr = kernels::reference_qr<T>(a0.view());
  auto q = qr.q_thin();
  EXPECT_LE(orthogonality_error<T>(q.view()), 1e-12);
  // A = Q R
  auto r = qr.r_factor();
  Matrix<T> qrm(10, 4);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(1), q.view(), r.view(), T(0), qrm.view());
  EXPECT_LE(difference_norm<T>(a0.view(), qrm.view()), 1e-12);
}

TYPED_TEST(HouseholderTyped, LarftLarfbBlockEqualsSequential) {
  using T = TypeParam;
  const int m = 8, k = 4;
  auto v0 = random_matrix<T>(m, k, 17);
  auto qr = kernels::reference_qr<T>(v0.view());  // produces V, tau
  // Build T and apply block reflector to C; compare with sequential apply.
  Matrix<T> t(k, k);
  kernels::larft(ConstMatrixView<T>(qr.vr.view()), qr.tau.data(), t.view());
  auto c0 = random_matrix<T>(m, 5, 19);
  Matrix<T> c_blk(m, 5), c_seq(m, 5);
  copy(c0.view(), c_blk.view());
  copy(c0.view(), c_seq.view());
  // V = [V1; V2]: the unit-lower head strictly below the diagonal of qr.vr
  // (R sits on and above it), and the dense rows below.
  auto apply = [&](ApplyTrans trans, MatrixView<T> c) {
    auto work = kernels::detail::kernel_scratch<T>(k, 5);
    const auto v = ConstMatrixView<T>(qr.vr.view());
    kernels::detail::apply_block(trans, kernels::detail::Tails::Dense, v.sub(0, 0, k, k),
                                 v.sub(k, 0, m - k, k), ConstMatrixView<T>(t.view()),
                                 c.sub(0, 0, k, 5), c.sub(k, 0, m - k, 5), work.data());
  };
  apply(ApplyTrans::ConjTrans, c_blk.view());
  qr.apply_q(ApplyTrans::ConjTrans, c_seq.view());
  EXPECT_LE(difference_norm<T>(c_blk.view(), c_seq.view()), 1e-12);

  // And the NoTrans direction.
  copy(c0.view(), c_blk.view());
  copy(c0.view(), c_seq.view());
  apply(ApplyTrans::NoTrans, c_blk.view());
  qr.apply_q(ApplyTrans::NoTrans, c_seq.view());
  EXPECT_LE(difference_norm<T>(c_blk.view(), c_seq.view()), 1e-12);
}

TYPED_TEST(HouseholderTyped, ReferenceLeastSquaresMatchesNormalEquations) {
  using T = TypeParam;
  const int m = 12, n = 5;
  auto a = random_matrix<T>(m, n, 23);
  auto b = random_matrix<T>(m, 1, 29);
  auto x = kernels::reference_least_squares<T>(a.view(), b.view());
  // Residual must be orthogonal to range(A): A^H (A x - b) ~ 0.
  Matrix<T> r(m, 1);
  copy(b.view(), r.view());
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(1), a.view(), x.view(), T(-1), r.view());
  Matrix<T> atr(n, 1);
  blas::gemm(blas::Op::ConjTrans, blas::Op::NoTrans, T(1), a.view(), r.view(), T(0), atr.view());
  EXPECT_LE(frobenius_norm<T>(atr.view()), 1e-11);
}

TEST(Householder, ComplexAlphaZeroTailStillReflects) {
  using T = std::complex<double>;
  // x empty but alpha has nonzero imaginary part: beta must become real.
  T alpha(1.0, 2.0);
  T tau;
  kernels::larfg(alpha, static_cast<T*>(nullptr), 0, tau);
  EXPECT_NE(tau, T(0));
  EXPECT_NEAR(alpha.imag(), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(alpha.real()), std::sqrt(5.0), 1e-12);
}

}  // namespace
}  // namespace tiledqr
