// Tests for the six tile kernels, parameterized over tile size, inner
// blocking and the column count of the operand C. Each *QRT kernel is
// validated through its matching *MQR kernel: applying Q^H to the original
// operands must reproduce [R; 0], applying Q then Q^H must round-trip, and
// the |R| diagonal must agree with the reference Householder QR of the
// stacked operands (R is unique up to the phase of its rows). Each *MQR
// kernel must also match its reflectors applied one at a time, in both
// directions and on 1-, 7- and nb-column operands.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstring>
#include <functional>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "kernels/kernels.hpp"
#include "kernels/reference_qr.hpp"
#include "matrix/generate.hpp"
#include "matrix/norms.hpp"

namespace tiledqr {
namespace {

using kernels::ApplyTrans;

struct Shape {
  int nb;
  int ib;
};

/// The tile shape, for the tests that apply no operand C.
class KernelParam : public ::testing::TestWithParam<Shape> {};

/// The tile shape and the column count of the apply operand C; width 0
/// stands for nb.
class KernelWidthParam : public ::testing::TestWithParam<std::tuple<Shape, int>> {
 protected:
  [[nodiscard]] int nb() const { return std::get<0>(GetParam()).nb; }
  [[nodiscard]] int ib() const { return std::get<0>(GetParam()).ib; }
  [[nodiscard]] int width() const {
    const int w = std::get<1>(GetParam());
    return w == 0 ? nb() : w;
  }
};

template <typename T>
Matrix<T> stack(const Matrix<T>& top, const Matrix<T>& bottom) {
  Matrix<T> s(top.rows() + bottom.rows(), top.cols());
  for (std::int64_t j = 0; j < top.cols(); ++j) {
    for (std::int64_t i = 0; i < top.rows(); ++i) s(i, j) = top(i, j);
    for (std::int64_t i = 0; i < bottom.rows(); ++i) s(top.rows() + i, j) = bottom(i, j);
  }
  return s;
}

template <typename T>
double check_geqrt(int nb, int ib, int w) {
  auto a0 = random_matrix<T>(nb, nb, 11);
  Matrix<T> a(nb, nb);
  copy(a0.view(), a.view());
  Matrix<T> t(ib, nb);
  kernels::geqrt(ib, a.view(), t.view());

  double err = 0;
  // Q^H A0 == R.
  Matrix<T> c(nb, nb);
  copy(a0.view(), c.view());
  kernels::unmqr(ApplyTrans::ConjTrans, ib, a.view(), t.view(), c.view());
  for (int j = 0; j < nb; ++j)
    for (int i = 0; i < nb; ++i)
      err = std::max(err, std::abs(c(i, j) - (i <= j ? a(i, j) : T(0))));
  // Round trip Q Q^H = I.
  auto d0 = random_matrix<T>(nb, w, 12);
  Matrix<T> d(nb, w);
  copy(d0.view(), d.view());
  kernels::unmqr(ApplyTrans::NoTrans, ib, a.view(), t.view(), d.view());
  kernels::unmqr(ApplyTrans::ConjTrans, ib, a.view(), t.view(), d.view());
  err = std::max(err, double(difference_norm<T>(d.view(), d0.view())));
  // |diag R| vs reference.
  auto ref = kernels::reference_qr<T>(a0.view());
  for (int i = 0; i < nb; ++i)
    err = std::max(err, std::abs(std::abs(a(i, i)) - std::abs(ref.vr(i, i))));
  return err;
}

template <typename T>
double check_pair(int nb, int ib, int w, bool tt) {
  auto a1o = random_upper_triangular<T>(nb, 21);
  auto a2o = tt ? random_upper_triangular<T>(nb, 22) : random_matrix<T>(nb, nb, 22);
  Matrix<T> a1(nb, nb), a2(nb, nb), t(ib, nb);
  copy(a1o.view(), a1.view());
  copy(a2o.view(), a2.view());
  if (tt)
    kernels::ttqrt(ib, a1.view(), a2.view(), t.view());
  else
    kernels::tsqrt(ib, a1.view(), a2.view(), t.view());

  auto mqr = [&](ApplyTrans trans, MatrixView<T> c1, MatrixView<T> c2) {
    if (tt)
      kernels::ttmqr(trans, ib, a2.view(), t.view(), c1, c2);
    else
      kernels::tsmqr(trans, ib, a2.view(), t.view(), c1, c2);
  };

  double err = 0;
  // Q^H [A1o; A2o] == [R; 0].
  Matrix<T> c1(nb, nb), c2(nb, nb);
  copy(a1o.view(), c1.view());
  copy(a2o.view(), c2.view());
  mqr(ApplyTrans::ConjTrans, c1.view(), c2.view());
  err = std::max(err, double(frobenius_norm<T>(c2.view())));
  err = std::max(err, double(difference_norm<T>(c1.view(), a1.view())));
  // Round trip.
  auto d1o = random_matrix<T>(nb, w, 23);
  auto d2o = random_matrix<T>(nb, w, 24);
  Matrix<T> d1(nb, w), d2(nb, w);
  copy(d1o.view(), d1.view());
  copy(d2o.view(), d2.view());
  mqr(ApplyTrans::NoTrans, d1.view(), d2.view());
  mqr(ApplyTrans::ConjTrans, d1.view(), d2.view());
  err = std::max(err, double(difference_norm<T>(d1.view(), d1o.view())));
  err = std::max(err, double(difference_norm<T>(d2.view(), d2o.view())));
  // |diag R| vs the reference QR of the stacked pair.
  auto ref = kernels::reference_qr<T>(ConstMatrixView<T>(stack(a1o, a2o).view()));
  for (int i = 0; i < nb; ++i)
    err = std::max(err, std::abs(std::abs(a1(i, i)) - std::abs(ref.vr(i, i))));
  return err;
}

/// Materializes Q^H of a TS/TT transformation as a dense 2nb x 2nb matrix
/// and checks unitarity.
template <typename T>
double check_unitarity(int nb, int ib, bool tt) {
  auto a1 = random_upper_triangular<T>(nb, 31);
  auto a2 = tt ? random_upper_triangular<T>(nb, 32) : random_matrix<T>(nb, nb, 32);
  Matrix<T> t(ib, nb);
  if (tt)
    kernels::ttqrt(ib, a1.view(), a2.view(), t.view());
  else
    kernels::tsqrt(ib, a1.view(), a2.view(), t.view());

  Matrix<T> qh(2 * nb, 2 * nb);
  // Column block c: Q^H applied to [I; 0] and [0; I].
  for (int blockcol = 0; blockcol < 2; ++blockcol) {
    Matrix<T> c1(nb, nb), c2(nb, nb);
    if (blockcol == 0)
      for (int i = 0; i < nb; ++i) c1(i, i) = T(1);
    else
      for (int i = 0; i < nb; ++i) c2(i, i) = T(1);
    if (tt)
      kernels::ttmqr(ApplyTrans::ConjTrans, ib, a2.view(), t.view(), c1.view(), c2.view());
    else
      kernels::tsmqr(ApplyTrans::ConjTrans, ib, a2.view(), t.view(), c1.view(), c2.view());
    for (int j = 0; j < nb; ++j)
      for (int i = 0; i < nb; ++i) {
        qh(i, blockcol * nb + j) = c1(i, j);
        qh(nb + i, blockcol * nb + j) = c2(i, j);
      }
  }
  return double(orthogonality_error<T>(qh.view()));
}

enum class Apply { UNMQR, TSMQR, TTMQR };

/// op(Q) C one reflector at a time, from a kernel's storage, independent of
/// the block apply: reflector c is v = [e_c; tail] with tau its T block's
/// diagonal entry t(c % ib, c), and C the stacked [c1; c2] (c1 alone for
/// UNMQR). The tail is rows c+1.. of the GEQRT tile's column c, all of the
/// TS tile's column c, or rows 0..c of the TT tile's column c.
template <typename T>
Matrix<T> reflector_by_reflector(Apply kind, ApplyTrans trans, int ib, const Matrix<T>& v,
                                 const Matrix<T>& t, const Matrix<T>& c1, const Matrix<T>& c2) {
  const std::int64_t nb = v.cols();
  Matrix<T> c = kind == Apply::UNMQR ? stack(c1, Matrix<T>(0, c1.cols())) : stack(c1, c2);
  const std::int64_t rows = c.rows();
  std::vector<T> vc(static_cast<size_t>(rows));
  auto one = [&](std::int64_t k) {
    for (std::int64_t r = 0; r < rows; ++r) {
      if (kind == Apply::UNMQR)
        vc[size_t(r)] = r < k ? T(0) : r == k ? T(1) : v(r, k);
      else if (r < nb)
        vc[size_t(r)] = r == k ? T(1) : T(0);
      else
        vc[size_t(r)] = kind == Apply::TTMQR && r - nb > k ? T(0) : v(r - nb, k);
    }
    const T tau = trans == ApplyTrans::ConjTrans ? conj_if_complex(t(k % ib, k)) : t(k % ib, k);
    for (std::int64_t j = 0; j < c.cols(); ++j) {
      T acc = T(0);
      for (std::int64_t r = 0; r < rows; ++r) acc += conj_if_complex(vc[size_t(r)]) * c(r, j);
      for (std::int64_t r = 0; r < rows; ++r) c(r, j) -= tau * acc * vc[size_t(r)];
    }
  };
  if (trans == ApplyTrans::ConjTrans)
    for (std::int64_t k = 0; k < nb; ++k) one(k);
  else
    for (std::int64_t k = nb - 1; k >= 0; --k) one(k);
  return c;
}

/// Max deviation of UNMQR, TSMQR and TTMQR on an nb x w operand, both
/// directions, from reflector_by_reflector on the same storage.
template <typename T>
double check_apply_against_reflectors(int nb, int ib, int w) {
  auto a1 = random_upper_triangular<T>(nb, 51);
  auto vg = random_matrix<T>(nb, nb, 52);
  auto vs = random_matrix<T>(nb, nb, 53);
  auto vt = random_upper_triangular<T>(nb, 54);
  Matrix<T> tg(ib, nb), ts(ib, nb), tt(ib, nb);
  kernels::geqrt(ib, vg.view(), tg.view());
  {
    Matrix<T> r(nb, nb);
    copy(a1.view(), r.view());
    kernels::tsqrt(ib, r.view(), vs.view(), ts.view());
    copy(a1.view(), r.view());
    kernels::ttqrt(ib, r.view(), vt.view(), tt.view());
  }
  const auto c1o = random_matrix<T>(nb, w, 55);
  const auto c2o = random_matrix<T>(nb, w, 56);
  double err = 0;
  for (Apply kind : {Apply::UNMQR, Apply::TSMQR, Apply::TTMQR}) {
    const Matrix<T>& v = kind == Apply::UNMQR ? vg : kind == Apply::TSMQR ? vs : vt;
    const Matrix<T>& t = kind == Apply::UNMQR ? tg : kind == Apply::TSMQR ? ts : tt;
    for (ApplyTrans trans : {ApplyTrans::ConjTrans, ApplyTrans::NoTrans}) {
      Matrix<T> c1(nb, w), c2(nb, w);
      copy(c1o.view(), c1.view());
      copy(c2o.view(), c2.view());
      if (kind == Apply::UNMQR)
        kernels::unmqr(trans, ib, v.view(), t.view(), c1.view());
      else if (kind == Apply::TSMQR)
        kernels::tsmqr(trans, ib, v.view(), t.view(), c1.view(), c2.view());
      else
        kernels::ttmqr(trans, ib, v.view(), t.view(), c1.view(), c2.view());
      const Matrix<T> want = reflector_by_reflector(kind, trans, ib, v, t, c1o, c2o);
      const Matrix<T> got =
          kind == Apply::UNMQR ? stack(c1, Matrix<T>(0, w)) : stack(c1, c2);
      err = std::max(err, double(difference_norm<T>(got.view(), want.view())));
    }
  }
  return err;
}

TEST_P(KernelWidthParam, GeqrtUnmqrDouble) {
  EXPECT_LE(check_geqrt<double>(nb(), ib(), width()), 1e-12);
}
TEST_P(KernelWidthParam, GeqrtUnmqrComplex) {
  EXPECT_LE(check_geqrt<std::complex<double>>(nb(), ib(), width()), 1e-12);
}
TEST_P(KernelWidthParam, TsqrtTsmqrDouble) {
  EXPECT_LE(check_pair<double>(nb(), ib(), width(), false), 1e-12);
}
TEST_P(KernelWidthParam, TsqrtTsmqrComplex) {
  EXPECT_LE(check_pair<std::complex<double>>(nb(), ib(), width(), false), 1e-12);
}
TEST_P(KernelWidthParam, TtqrtTtmqrDouble) {
  EXPECT_LE(check_pair<double>(nb(), ib(), width(), true), 1e-12);
}
TEST_P(KernelWidthParam, TtqrtTtmqrComplex) {
  EXPECT_LE(check_pair<std::complex<double>>(nb(), ib(), width(), true), 1e-12);
}
TEST_P(KernelWidthParam, ApplyMatchesReflectorByReflector) {
  EXPECT_LE(check_apply_against_reflectors<double>(nb(), ib(), width()), 1e-12);
  EXPECT_LE(check_apply_against_reflectors<std::complex<double>>(nb(), ib(), width()), 1e-12);
}
TEST_P(KernelParam, TsUnitary) {
  auto [nb, ib] = GetParam();
  EXPECT_LE(check_unitarity<double>(nb, ib, false), 1e-12);
  EXPECT_LE(check_unitarity<std::complex<double>>(nb, ib, false), 1e-12);
}
TEST_P(KernelParam, TtUnitary) {
  auto [nb, ib] = GetParam();
  EXPECT_LE(check_unitarity<double>(nb, ib, true), 1e-12);
  EXPECT_LE(check_unitarity<std::complex<double>>(nb, ib, true), 1e-12);
}

const auto kShapes =
    ::testing::Values(Shape{1, 1}, Shape{2, 1}, Shape{3, 2}, Shape{5, 2}, Shape{8, 3},
                      Shape{8, 8}, Shape{16, 4}, Shape{16, 16}, Shape{24, 5}, Shape{33, 8},
                      Shape{33, 64});
std::string shape_name(const Shape& s) {
  return "nb" + std::to_string(s.nb) + "_ib" + std::to_string(s.ib);
}

INSTANTIATE_TEST_SUITE_P(Shapes, KernelParam, kShapes,
                         [](const auto& inst) { return shape_name(inst.param); });
INSTANTIATE_TEST_SUITE_P(Shapes, KernelWidthParam,
                         ::testing::Combine(kShapes, ::testing::Values(0, 1, 7)),
                         [](const auto& inst) {
                           const int w = std::get<1>(inst.param);
                           return shape_name(std::get<0>(inst.param)) + "_w" +
                                  (w == 0 ? std::string("nb") : std::to_string(w));
                         });

TEST(KernelStorage, TtqrtPreservesStrictlyLowerParts) {
  // The strictly-lower triangles of both tiles hold GEQRT reflectors that a
  // later apply_q replay needs; TTQRT must not touch them.
  const int nb = 8, ib = 3;
  auto a1 = random_matrix<double>(nb, nb, 41);
  auto a2 = random_matrix<double>(nb, nb, 42);
  Matrix<double> a1c(nb, nb), a2c(nb, nb), t(ib, nb);
  copy(a1.view(), a1c.view());
  copy(a2.view(), a2c.view());
  kernels::ttqrt(ib, a1c.view(), a2c.view(), t.view());
  for (int j = 0; j < nb; ++j)
    for (int i = j + 1; i < nb; ++i) {
      EXPECT_EQ(a1c(i, j), a1(i, j)) << "a1 " << i << "," << j;
      EXPECT_EQ(a2c(i, j), a2(i, j)) << "a2 " << i << "," << j;
    }
}

TEST(KernelStorage, TsqrtPreservesPivotStrictlyLower) {
  const int nb = 8, ib = 4;
  auto a1 = random_matrix<double>(nb, nb, 43);
  auto a2 = random_matrix<double>(nb, nb, 44);
  Matrix<double> a1c(nb, nb), t(ib, nb);
  copy(a1.view(), a1c.view());
  kernels::tsqrt(ib, a1c.view(), a2.view(), t.view());
  for (int j = 0; j < nb; ++j)
    for (int i = j + 1; i < nb; ++i) EXPECT_EQ(a1c(i, j), a1(i, j));
}

TEST(KernelStorage, AppliesReadNothingOutsideTheirRegions) {
  // The DAG runs kernels on disjoint parts of one tile at once, so an apply
  // kernel must not read outside its region, not even to multiply by zero.
  // Every element an apply must not read is NaN here, and the outputs must
  // equal a clean run bit for bit:
  //  * UNMQR: the V tile's diagonal and upper triangle (R, which a
  //    concurrent TSQRT rewrites, in a QR of A and an LQ's QR of Aᴴ alike);
  //  * TTMQR: the zeroed tile's rows below each tail (GEQRT reflectors);
  //  * all three: T's rows below a short last block, and below min(ib, nb).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto poison_t = [&](Matrix<double>& t, int ib) {
    for (std::int64_t c = 0; c < t.cols(); ++c) {
      const std::int64_t sb = std::min<std::int64_t>(ib, t.cols() - c / ib * ib);
      for (std::int64_t r = sb; r < t.rows(); ++r) t(r, c) = nan;
    }
  };
  for (const Shape s : {Shape{24, 5}, Shape{33, 8}, Shape{16, 16}, Shape{7, 9}}) {
    const int nb = s.nb, ib = s.ib;
    auto vg = random_matrix<double>(nb, nb, 61);
    auto vs = random_matrix<double>(nb, nb, 62);
    auto vt = random_matrix<double>(nb, nb, 63);
    const std::int64_t trows = std::max(ib, nb);
    Matrix<double> tg(trows, nb), ts(trows, nb), tt(trows, nb);
    kernels::geqrt(ib, vg.view(), tg.view());
    {
      auto r = random_upper_triangular<double>(nb, 64);
      kernels::tsqrt(ib, r.view(), vs.view(), ts.view());
      kernels::ttqrt(ib, r.view(), vt.view(), tt.view());
    }
    Matrix<double> pvg(nb, nb), pvt(nb, nb), ptg(trows, nb), pts(trows, nb), ptt(trows, nb);
    copy(vg.view(), pvg.view());
    copy(vt.view(), pvt.view());
    copy(tg.view(), ptg.view());
    copy(ts.view(), pts.view());
    copy(tt.view(), ptt.view());
    for (int j = 0; j < nb; ++j)
      for (int i = 0; i < nb; ++i) (i <= j ? pvg : pvt)(i, j) = nan;
    for (auto* t : {&ptg, &pts, &ptt}) poison_t(*t, ib);
    for (const int w : {1, 7, nb}) {
      const auto c1o = random_matrix<double>(nb, w, 65);
      const auto c2o = random_matrix<double>(nb, w, 66);
      for (ApplyTrans trans : {ApplyTrans::ConjTrans, ApplyTrans::NoTrans}) {
        for (Apply kind : {Apply::UNMQR, Apply::TSMQR, Apply::TTMQR}) {
          SCOPED_TRACE(testing::Message() << "nb " << nb << " ib " << ib << " w " << w
                                          << " kind " << int(kind) << " trans " << int(trans));
          auto run = [&](const Matrix<double>& v, const Matrix<double>& t) {
            std::pair<Matrix<double>, Matrix<double>> c{Matrix<double>(nb, w),
                                                        Matrix<double>(nb, w)};
            copy(c1o.view(), c.first.view());
            copy(c2o.view(), c.second.view());
            if (kind == Apply::UNMQR)
              kernels::unmqr(trans, ib, v.view(), t.view(), c.first.view());
            else if (kind == Apply::TSMQR)
              kernels::tsmqr(trans, ib, v.view(), t.view(), c.first.view(), c.second.view());
            else
              kernels::ttmqr(trans, ib, v.view(), t.view(), c.first.view(), c.second.view());
            return c;
          };
          const auto clean = kind == Apply::UNMQR   ? run(vg, tg)
                             : kind == Apply::TSMQR ? run(vs, ts)
                                                    : run(vt, tt);
          const auto dirty = kind == Apply::UNMQR   ? run(pvg, ptg)
                             : kind == Apply::TSMQR ? run(vs, pts)
                                                    : run(pvt, ptt);
          const size_t bytes = sizeof(double) * size_t(nb) * size_t(w);
          EXPECT_EQ(0, std::memcmp(clean.first.data(), dirty.first.data(), bytes));
          EXPECT_EQ(0, std::memcmp(clean.second.data(), dirty.second.data(), bytes));
        }
      }
    }
  }
}

TEST(KernelMeta, WeightsMatchTable1) {
  using kernels::KernelKind;
  EXPECT_EQ(kernels::kernel_weight(KernelKind::GEQRT), 4);
  EXPECT_EQ(kernels::kernel_weight(KernelKind::UNMQR), 6);
  EXPECT_EQ(kernels::kernel_weight(KernelKind::TSQRT), 6);
  EXPECT_EQ(kernels::kernel_weight(KernelKind::TSMQR), 12);
  EXPECT_EQ(kernels::kernel_weight(KernelKind::TTQRT), 2);
  EXPECT_EQ(kernels::kernel_weight(KernelKind::TTMQR), 6);
}

TEST(KernelMeta, NamesAndFlops) {
  using kernels::KernelKind;
  EXPECT_STREQ(kernels::kernel_name(KernelKind::TSMQR), "TSMQR");
  EXPECT_DOUBLE_EQ(kernels::kernel_flops(KernelKind::GEQRT, 3, false), 4.0 * 9.0);
  EXPECT_DOUBLE_EQ(kernels::kernel_flops(KernelKind::GEQRT, 3, true), 16.0 * 9.0);
}

TEST(KernelChecks, BadIbThrows) {
  // Every kernel rejects ib < 1 before it allocates: a loop over
  // zero-width blocks would never end.
  Matrix<double> a(4, 4), b(4, 4), c1(4, 4), c2(4, 4), t(2, 4);
  for (int ib : {0, -1}) {
    SCOPED_TRACE(ib);
    EXPECT_THROW(kernels::geqrt(ib, a.view(), t.view()), Error);
    EXPECT_THROW(kernels::unmqr(ApplyTrans::ConjTrans, ib, a.view(), t.view(), c1.view()), Error);
    EXPECT_THROW(kernels::tsqrt(ib, a.view(), b.view(), t.view()), Error);
    EXPECT_THROW(
        kernels::tsmqr(ApplyTrans::NoTrans, ib, b.view(), t.view(), c1.view(), c2.view()), Error);
    EXPECT_THROW(kernels::ttqrt(ib, a.view(), b.view(), t.view()), Error);
    EXPECT_THROW(
        kernels::ttmqr(ApplyTrans::NoTrans, ib, b.view(), t.view(), c1.view(), c2.view()), Error);
  }
}

TEST(KernelChecks, TsqrtRejectsUndersizedR1) {
  // a1 must hold an n x n triangle: a 2 x 4 a1 cannot. The original check
  // compared a1.rows() against min(a1.rows(), n) — a tautology that let this
  // shape through to read past a1's rows.
  Matrix<double> a1(2, 4), a2(4, 4), t(2, 4);
  EXPECT_THROW(kernels::tsqrt(2, a1.view(), a2.view(), t.view()), Error);
}

TEST(KernelChecks, TsTtKernelsRejectUndersizedOperandsBeforeWriting) {
  // n = k = 4 reflectors at ib = 2, each case with one operand too small:
  // TTQRT's a1 or a2 (fewer than n rows), TSMQR's or TTMQR's a1 (fewer than
  // k rows), or t (smaller than min(ib, k) x k). A kernel must reject the
  // call before it writes anything: a check made panel by panel leaves the
  // operands half-updated, and a missing one writes past the short operand.
  using Ops = std::vector<Matrix<double>>;
  using Kernel = std::function<void(Ops&)>;
  const Kernel ttqrt = [](Ops& o) { kernels::ttqrt(2, o[0].view(), o[1].view(), o[2].view()); };
  const Kernel tsqrt = [](Ops& o) { kernels::tsqrt(2, o[0].view(), o[1].view(), o[2].view()); };
  const Kernel tsmqr = [](Ops& o) {
    kernels::tsmqr(ApplyTrans::ConjTrans, 2, o[0].view(), o[1].view(), o[2].view(), o[3].view());
  };
  const Kernel ttmqr = [](Ops& o) {
    kernels::ttmqr(ApplyTrans::ConjTrans, 2, o[0].view(), o[1].view(), o[2].view(), o[3].view());
  };
  auto r = [](std::int64_t m, std::int64_t n, std::uint64_t seed) {
    return random_matrix<double>(m, n, seed);
  };
  // Operands in call order: (a1, a2, t) or (v2, t, a1, a2).
  const std::vector<std::pair<Kernel, Ops>> cases = {
      {ttqrt, {r(3, 4, 1), r(4, 4, 2), r(2, 4, 3)}},              // short a1
      {ttqrt, {r(4, 4, 1), r(3, 4, 2), r(2, 4, 3)}},              // short a2
      {tsmqr, {r(4, 4, 1), r(2, 4, 2), r(3, 4, 3), r(4, 4, 4)}},  // short a1
      {ttmqr, {r(4, 4, 1), r(2, 4, 2), r(3, 4, 3), r(4, 4, 4)}},  // short a1
      {tsqrt, {r(4, 4, 1), r(4, 4, 2), r(1, 4, 3)}},              // t with 1 < ib rows
      {ttqrt, {r(4, 4, 1), r(4, 4, 2), r(2, 3, 3)}},              // t with 3 < k columns
      {tsmqr, {r(4, 4, 1), r(2, 3, 2), r(4, 4, 3), r(4, 4, 4)}},  // t with 3 < k columns
      {ttmqr, {r(4, 4, 1), r(2, 3, 2), r(4, 4, 3), r(4, 4, 4)}},  // t with 3 < k columns
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(c);
    Ops ops = cases[c].second;
    EXPECT_THROW(cases[c].first(ops), Error);
    for (size_t o = 0; o < ops.size(); ++o) {
      const Matrix<double>& before = cases[c].second[o];
      EXPECT_EQ(0, std::memcmp(ops[o].data(), before.data(),
                               sizeof(double) * size_t(before.rows() * before.cols())))
          << "operand " << o << " was written before the throw";
    }
  }
}

}  // namespace
}  // namespace tiledqr
