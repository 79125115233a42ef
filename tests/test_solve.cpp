// Tests for the solver layer: apply_q round trips, least squares against the
// reference solver, and square-system solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <future>
#include <limits>
#include <string>
#include <utility>

#include "core/qr_session.hpp"
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

Options small_opts(TreeKind kind = TreeKind::Greedy, KernelFamily fam = KernelFamily::TT) {
  Options opt;
  opt.tree = TreeConfig{kind, fam, 2, 1};
  opt.nb = 8;
  opt.ib = 4;
  opt.threads = 2;
  return opt;
}

using Scalars = ::testing::Types<double, std::complex<double>>;

template <typename T>
class SolveTyped : public ::testing::Test {};
TYPED_TEST_SUITE(SolveTyped, Scalars);

TYPED_TEST(SolveTyped, ApplyQRoundTrip) {
  using T = TypeParam;
  const int m = 40, n = 24;
  auto a = random_matrix<T>(m, n, 3);
  auto qr = TiledQr<T>::factorize(a.view(), small_opts());
  auto c0 = random_matrix<T>(m, 2 * 8, 5);
  auto c = TileMatrix<T>::from_dense(c0.view(), 8);
  qr.apply_q(ApplyTrans::NoTrans, c);
  qr.apply_q(ApplyTrans::ConjTrans, c);
  auto back = c.to_dense();
  EXPECT_LE(double(difference_norm<T>(back.view(), c0.view())), 1e-11);
}

template <typename T>
void expect_bitwise(const Matrix<T>& got, const Matrix<T>& want, const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::int64_t j = 0; j < got.cols(); ++j)
    for (std::int64_t i = 0; i < got.rows(); ++i)
      ASSERT_EQ(got(i, j), want(i, j)) << what << " at (" << i << "," << j << ")";
}

TYPED_TEST(SolveTyped, EverySolvePathMatchesTheNarrowReplay) {
  // A solve tiles its rhs nb x min(nb, nrhs) (TileMatrix::operand). The
  // reference is that tiling's own sequential replay — start_solve, the
  // one-thread apply_q, finish_solve — and the synchronous solve, the
  // session pipeline, the solve against a finished factorization and stream
  // push_solve must all equal it bit for bit: tall (least squares) and wide
  // (minimum norm), rhs widths below, at and above nb.
  using T = TypeParam;
  const Options opt = small_opts();
  const int nb = opt.nb;
  core::QrSession session(core::QrSession::Config{2});
  core::QrSession::StreamOptions sopt;
  sopt.nb = opt.nb;
  sopt.ib = opt.ib;
  sopt.tree = opt.tree;
  for (const bool wide : {false, true}) {
    const std::int64_t m = wide ? 2 * nb - 3 : 5 * nb - 3;
    const std::int64_t n = wide ? 5 * nb - 3 : 2 * nb - 3;
    auto a = random_matrix<T>(m, n, wide ? 201 : 202);
    const auto qr = TiledQr<T>::factorize(a.view(), opt);
    for (const int nrhs : {1, 3, nb - 1, nb, nb + 1}) {
      const std::string what =
          std::string(wide ? "wide" : "tall") + " nrhs=" + std::to_string(nrhs);
      auto b = random_matrix<T>(m, nrhs, unsigned(300 + nrhs));
      auto c = qr.start_solve(b.view());
      ASSERT_EQ(c.w(), std::min(nb, nrhs)) << what;
      qr.apply_q(qr.solve_trans(), c);
      const Matrix<T> want = qr.finish_solve(c);

      auto pipeline = session.solve_least_squares_async(ConstMatrixView<T>(a.view()),
                                                        ConstMatrixView<T>(b.view()), opt);
      auto borrowed = session.solve_least_squares_async(qr, ConstMatrixView<T>(b.view()));
      auto stream = session.template stream<T>(sopt);
      auto streamed =
          stream.push_solve(ConstMatrixView<T>(a.view()), ConstMatrixView<T>(b.view()));
      stream.close();
      expect_bitwise(qr.solve_least_squares(b.view()), want, what + " synchronous");
      expect_bitwise(pipeline.get(), want, what + " pipeline");
      expect_bitwise(borrowed.get(), want, what + " borrowed");
      expect_bitwise(streamed.get(), want, what + " push_solve");

      Matrix<T> r(m, nrhs);
      copy(b.view(), r.view());
      blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(1), a.view(), want.view(), T(-1),
                 r.view());
      if (wide) {  // consistent system: A x = b
        EXPECT_LE(double(frobenius_norm<T>(r.view()) / frobenius_norm<T>(b.view())), 1e-12)
            << what;
      } else {  // normal equations: Aᴴ (A x - b) = 0
        Matrix<T> atr(n, nrhs);
        blas::gemm(blas::Op::ConjTrans, blas::Op::NoTrans, T(1), a.view(), r.view(), T(0),
                   atr.view());
        EXPECT_LE(double(frobenius_norm<T>(atr.view())), 1e-10) << what;
      }
    }
  }
}

TYPED_TEST(SolveTyped, NarrowApplyQAsyncMatchesSequentialAndRoundTrips) {
  // An apply_q_async operand in nb x min(nb, ncols) tiles runs the same
  // kernels on the same tiles as the sequential apply_q, so the two agree
  // bit for bit, on QR and LQ factorizations; Q·Qᴴ restores the operand.
  using T = TypeParam;
  const Options opt = small_opts();
  core::QrSession session(core::QrSession::Config{2});
  for (const bool wide : {false, true}) {
    const std::int64_t m = wide ? 13 : 37, n = wide ? 37 : 13;
    auto a = random_matrix<T>(m, n, wide ? 211 : 212);
    const auto qr = TiledQr<T>::factorize(a.view(), opt);
    const std::int64_t rows = wide ? n : m;  // LQ operands live in the transposed world
    for (const int ncols : {1, 3, opt.nb + 1}) {
      auto c0 = random_matrix<T>(rows, ncols, unsigned(400 + ncols));
      for (const auto trans : {ApplyTrans::ConjTrans, ApplyTrans::NoTrans}) {
        const std::string what = std::string(wide ? "wide" : "tall") +
                                 " ncols=" + std::to_string(ncols) +
                                 (trans == ApplyTrans::NoTrans ? " Q" : " Qᴴ");
        auto seq = TileMatrix<T>::operand(c0.view(), opt.nb);
        qr.apply_q(trans, seq);
        auto async =
            session.apply_q_async(qr, trans, TileMatrix<T>::operand(c0.view(), opt.nb)).get();
        ASSERT_EQ(async.w(), std::min(opt.nb, ncols)) << what;
        expect_bitwise(async.to_dense(), seq.to_dense(), what);
        const auto inverse =
            trans == ApplyTrans::NoTrans ? ApplyTrans::ConjTrans : ApplyTrans::NoTrans;
        const auto back = session.apply_q_async(qr, inverse, std::move(async)).get().to_dense();
        EXPECT_LE(double(difference_norm<T>(back.view(), c0.view())), 1e-11) << what;
      }
    }
  }
}

TYPED_TEST(SolveTyped, QtAOnTilesEqualsR) {
  using T = TypeParam;
  const int m = 32, n = 16;
  auto a = random_matrix<T>(m, n, 7);
  auto qr = TiledQr<T>::factorize(a.view(), small_opts());
  auto c = TileMatrix<T>::from_dense(a.view(), 8);
  qr.apply_q(ApplyTrans::ConjTrans, c);
  auto qta = c.to_dense();
  auto r = qr.r_factor();
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      T want = (i <= j && i < n) ? r(i, j) : T(0);
      EXPECT_LE(std::abs(qta(i, j) - want), 1e-11) << i << "," << j;
    }
}

TYPED_TEST(SolveTyped, LeastSquaresMatchesReference) {
  using T = TypeParam;
  const int m = 45, n = 17;  // ragged on purpose
  auto a = random_matrix<T>(m, n, 11);
  auto b = random_matrix<T>(m, 3, 13);
  auto qr = TiledQr<T>::factorize(a.view(), small_opts());
  auto x = qr.solve_least_squares(b.view());
  auto xref = kernels::reference_least_squares<T>(a.view(), b.view());
  EXPECT_LE(double(difference_norm<T>(x.view(), xref.view())), 1e-10);
}

TYPED_TEST(SolveTyped, LeastSquaresResidualOrthogonalToRange) {
  using T = TypeParam;
  const int m = 64, n = 20;
  auto a = random_matrix<T>(m, n, 17);
  auto b = random_matrix<T>(m, 1, 19);
  auto qr = TiledQr<T>::factorize(a.view(), small_opts(TreeKind::Fibonacci));
  auto x = qr.solve_least_squares(b.view());
  Matrix<T> r(m, 1);
  copy(b.view(), r.view());
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(1), a.view(), x.view(), T(-1), r.view());
  Matrix<T> atr(n, 1);
  blas::gemm(blas::Op::ConjTrans, blas::Op::NoTrans, T(1), a.view(), r.view(), T(0), atr.view());
  EXPECT_LE(double(frobenius_norm<T>(atr.view())), 1e-10);
}

TYPED_TEST(SolveTyped, SquareSolve) {
  using T = TypeParam;
  const int n = 32;
  auto a = random_matrix<T>(n, n, 23);
  for (int i = 0; i < n; ++i) a(i, i) += T(8);  // well-conditioned
  auto xtrue = random_matrix<T>(n, 2, 29);
  Matrix<T> b(n, 2);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(1), a.view(), xtrue.view(), T(0), b.view());
  auto qr = TiledQr<T>::factorize(a.view(), small_opts());
  auto x = qr.solve(b.view());
  EXPECT_LE(double(difference_norm<T>(x.view(), xtrue.view()) / frobenius_norm<T>(xtrue.view())),
            1e-10);
}

TYPED_TEST(SolveTyped, ExactlySolvableOverdeterminedSystem) {
  using T = TypeParam;
  // b in range(A): residual must be ~0 and x recovers the generator.
  const int m = 48, n = 12;
  auto a = random_matrix<T>(m, n, 31);
  auto xtrue = random_matrix<T>(n, 1, 37);
  Matrix<T> b(m, 1);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(1), a.view(), xtrue.view(), T(0), b.view());
  auto qr = TiledQr<T>::factorize(a.view(), small_opts(TreeKind::PlasmaTree));
  auto x = qr.solve_least_squares(b.view());
  EXPECT_LE(double(difference_norm<T>(x.view(), xtrue.view())), 1e-9);
}

TEST(Solve, TsKernelsGiveSameSolution) {
  const int m = 40, n = 16;
  auto a = random_matrix<double>(m, n, 41);
  auto b = random_matrix<double>(m, 1, 43);
  auto qtt = TiledQr<double>::factorize(a.view(), small_opts(TreeKind::Greedy));
  auto qts = TiledQr<double>::factorize(a.view(), small_opts(TreeKind::FlatTree,
                                                             KernelFamily::TS));
  auto x1 = qtt.solve_least_squares(b.view());
  auto x2 = qts.solve_least_squares(b.view());
  EXPECT_LE(difference_norm<double>(x1.view(), x2.view()), 1e-10);
}

TEST(Solve, ShapeChecksThrow) {
  auto a = random_matrix<double>(24, 8, 47);
  auto qr = TiledQr<double>::factorize(a.view(), small_opts());
  auto bad = random_matrix<double>(23, 1, 49);
  EXPECT_THROW((void)qr.solve_least_squares(bad.view()), Error);
  EXPECT_THROW((void)qr.solve(bad.view()), Error);  // not square
  TileMatrix<double> wrong_tiling(24, 8, 6);
  EXPECT_THROW(qr.apply_q(ApplyTrans::NoTrans, wrong_tiling), Error);
  // The wide transpose: a rhs has A's 8 rows, not the 24 of Aᴴ's tile grid,
  // and an op(Q) operand the 24 rows of the transposed world.
  auto wide = random_matrix<double>(8, 24, 51);
  auto lq = TiledQr<double>::factorize(wide.view(), small_opts());
  for (std::int64_t rows : {7, 24}) {
    auto b = random_matrix<double>(rows, 1, 53);
    EXPECT_THROW((void)lq.solve_least_squares(b.view()), Error) << rows;
    EXPECT_THROW((void)lq.solve(b.view()), Error) << rows;
  }
  TileMatrix<double> wrong_wide_tiling(24, 8, 6);
  EXPECT_THROW(lq.apply_q(ApplyTrans::NoTrans, wrong_wide_tiling), Error);
}

TEST(Solve, NbLargerThanM) {
  // Tile size exceeding the matrix: a single padded tile (1x1 grid through
  // the padding path). apply_q and least squares must behave like LAPACK.
  const int m = 40, n = 24;
  auto a = random_matrix<double>(m, n, 61);
  auto b = random_matrix<double>(m, 2, 67);
  auto opt = small_opts();
  opt.nb = 64;  // > m
  opt.ib = 8;
  auto qr = TiledQr<double>::factorize(a.view(), opt);
  EXPECT_EQ(qr.factors().mt(), 1);
  EXPECT_EQ(qr.factors().nt(), 1);
  auto x = qr.solve_least_squares(b.view());
  auto xref = kernels::reference_least_squares<double>(a.view(), b.view());
  EXPECT_LE(double(difference_norm<double>(x.view(), xref.view())), 1e-10);
  EXPECT_LE(double(orthogonality_error<double>(qr.q_thin().view())), 1e-11);
}

TEST(Solve, OneByOneTileGrid) {
  // Matrix exactly one full tile: the degenerate DAG (single GEQRT).
  const int n = 8;
  auto a = random_matrix<double>(n, n, 71);
  for (int i = 0; i < n; ++i) a(i, i) += 4.0;
  auto xtrue = random_matrix<double>(n, 1, 73);
  Matrix<double> b(n, 1);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0, a.view(), xtrue.view(), 0.0, b.view());
  auto qr = TiledQr<double>::factorize(a.view(), small_opts());
  auto x = qr.solve(b.view());
  EXPECT_LE(double(difference_norm<double>(x.view(), xtrue.view()) /
                   frobenius_norm<double>(xtrue.view())),
            1e-10);
  auto c0 = random_matrix<double>(n, 3, 79);
  auto c = TileMatrix<double>::from_dense(c0.view(), 8);
  qr.apply_q(ApplyTrans::ConjTrans, c);
  qr.apply_q(ApplyTrans::NoTrans, c);
  EXPECT_LE(double(difference_norm<double>(c.to_dense().view(), c0.view())), 1e-11);
}

TEST(Solve, ZeroColumnRhsIsAValidDegenerateSystem) {
  // Tall and its wide transpose: x is n x 0 either way, n being A's column
  // count (for the wide case not the row count of Aᴴ's tile grid).
  core::QrSession session(core::QrSession::Config{2});
  for (const auto& [m, n] : {std::pair{40, 24}, std::pair{24, 40}}) {
    SCOPED_TRACE(std::to_string(m) + " x " + std::to_string(n));
    auto a = random_matrix<double>(m, n, 83);
    auto qr = TiledQr<double>::factorize(a.view(), small_opts());
    Matrix<double> b(m, 0);
    auto x = qr.solve_least_squares(b.view());
    EXPECT_EQ(x.rows(), n);
    EXPECT_EQ(x.cols(), 0);
    // The async pipeline handles the same degenerate rhs (both flavors).
    auto x2 = session.solve_least_squares_async(qr, ConstMatrixView<double>(b.view())).get();
    EXPECT_EQ(x2.rows(), n);
    EXPECT_EQ(x2.cols(), 0);
    auto x3 = session
                  .solve_least_squares_async(ConstMatrixView<double>(a.view()),
                                             ConstMatrixView<double>(b.view()), small_opts())
                  .get();
    EXPECT_EQ(x3.rows(), n);
    EXPECT_EQ(x3.cols(), 0);
  }
}

TEST(Solve, MismatchedRowTilingErrorPaths) {
  auto a = random_matrix<double>(24, 8, 89);
  auto qr = TiledQr<double>::factorize(a.view(), small_opts());
  // Same nb, wrong row count (different mt).
  TileMatrix<double> short_c(16, 8, 8);
  EXPECT_THROW(qr.apply_q(ApplyTrans::NoTrans, short_c), Error);
  EXPECT_THROW(qr.apply_q(ApplyTrans::NoTrans, short_c, /*threads=*/2), Error);
  // Same rows, wrong tile size.
  TileMatrix<double> wrong_nb(24, 8, 6);
  EXPECT_THROW(qr.apply_q(ApplyTrans::ConjTrans, wrong_nb), Error);
  // The async entry points surface the same errors through their futures.
  core::QrSession session(core::QrSession::Config{2});
  EXPECT_THROW((void)session.apply_q_async(qr, ApplyTrans::NoTrans, TileMatrix<double>(16, 8, 8))
                   .get(),
               Error);
  auto short_b = random_matrix<double>(23, 1, 97);
  EXPECT_THROW(
      (void)session.solve_least_squares_async(qr, ConstMatrixView<double>(short_b.view())).get(),
      Error);
  EXPECT_THROW((void)session
                   .solve_least_squares_async(ConstMatrixView<double>(a.view()),
                                              ConstMatrixView<double>(short_b.view()),
                                              small_opts())
                   .get(),
               Error);
  // Same nb and tile rows, wrong row count: 17 rows round up to A's 3 tile
  // rows. QR operands need A's m rows, LQ operands (transposed world) its n.
  auto ragged = random_matrix<double>(17, 2, 91);
  auto wide = random_matrix<double>(8, 24, 93);
  auto lq = TiledQr<double>::factorize(wide.view(), small_opts());
  // A wide A's rhs has its m rows: one with its n rows (Aᴴ's tile grid) is
  // refused by both async solves.
  auto wide_b = random_matrix<double>(24, 1, 95);
  EXPECT_THROW(
      (void)session.solve_least_squares_async(lq, ConstMatrixView<double>(wide_b.view())).get(),
      Error);
  EXPECT_THROW((void)session
                   .solve_least_squares_async(ConstMatrixView<double>(wide.view()),
                                              ConstMatrixView<double>(wide_b.view()),
                                              small_opts())
                   .get(),
               Error);
  for (const TiledQr<double>* f : {&qr, &lq}) {
    auto c = TileMatrix<double>::operand(ragged.view(), 8);
    ASSERT_EQ(c.mt(), 3);
    EXPECT_THROW(f->apply_q(ApplyTrans::ConjTrans, c), Error);
    EXPECT_THROW(f->apply_q(ApplyTrans::ConjTrans, c, /*threads=*/2), Error);
    EXPECT_THROW((void)session.apply_q_async(*f, ApplyTrans::ConjTrans, std::move(c)).get(),
                 Error);
  }
}

TEST(Solve, NarrowTilesAreNotFactorizationInputs) {
  // TileMatrix::operand tiles are for op(Q) operands: a 24 x 3 operand in
  // nb = 8 has 8 x 3 tiles, and every factorization entry point rejects it.
  auto narrow = random_matrix<double>(24, 3, 131);
  auto tiles = [&] { return TileMatrix<double>::operand(narrow.view(), 8); };
  const auto opt = small_opts();
  EXPECT_THROW((void)TiledQr<double>::factorize(tiles(), opt), Error);
  core::QrSession session(core::QrSession::Config{2});
  EXPECT_THROW((void)session.submit(tiles(), opt).get(), Error);
  auto stream = session.stream<double>();
  auto pushed = stream.push(tiles());
  stream.close();
  EXPECT_THROW((void)pushed.get(), Error);
  // An operand with at least nb columns comes out square, like from_dense.
  auto square_tiles = random_matrix<double>(24, 9, 137);
  auto qr = TiledQr<double>::factorize(TileMatrix<double>::operand(square_tiles.view(), 8), opt);
  EXPECT_EQ(qr.factors().w(), 8);
}

TEST(Solve, WideMatrixMinimumNormSolve) {
  // m < n routes to the LQ factorization and the minimum-norm solution:
  // x must satisfy A x = b exactly (A has full row rank w.h.p.) and be the
  // shortest such vector — i.e. x lies in range(A^H), so any residual
  // against the pseudoinverse solution shows up in the norm comparison.
  auto wide = random_matrix<double>(8, 24, 101);
  auto b = random_matrix<double>(8, 2, 103);
  auto qr = TiledQr<double>::factorize(wide.view(), small_opts());
  auto x = qr.solve_least_squares(b.view());
  ASSERT_EQ(x.rows(), 24);
  ASSERT_EQ(x.cols(), 2);
  Matrix<double> ax(8, 2);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0, wide.view(), x.view(), 0.0, ax.view());
  EXPECT_LE(difference_norm<double>(ax.view(), b.view()) / frobenius_norm<double>(b.view()),
            1e-12);
  // Minimum-norm certificate: x in range(A^H) means the component of x
  // orthogonal to range(A^H) vanishes. Project x onto null(A) via
  // x - A^H (A A^H)^{-1} A x and check it is zero: equivalently A^H y = x
  // is solvable, which we verify through x's norm against the normal
  // equations solution computed densely.
  Matrix<double> aat(8, 8);
  blas::gemm(blas::Op::NoTrans, blas::Op::ConjTrans, 1.0, wide.view(), wide.view(), 0.0,
             aat.view());
  // Solve (A A^H) y = b by the tall QR path (square system), then
  // x_ref = A^H y is the dense minimum-norm reference.
  auto aat_qr = TiledQr<double>::factorize(aat.view(), small_opts());
  auto y = aat_qr.solve_least_squares(b.view());
  Matrix<double> x_ref(24, 2);
  blas::gemm(blas::Op::ConjTrans, blas::Op::NoTrans, 1.0, wide.view(), y.view(), 0.0,
             x_ref.view());
  EXPECT_LE(difference_norm<double>(x.view(), x_ref.view()) /
                frobenius_norm<double>(x_ref.view()),
            1e-10);

  // The async pipeline routes the same way.
  core::QrSession session(core::QrSession::Config{2});
  auto x_async = session
                     .solve_least_squares_async(ConstMatrixView<double>(wide.view()),
                                                ConstMatrixView<double>(b.view()), small_opts())
                     .get();
  EXPECT_LE(difference_norm<double>(x_async.view(), x_ref.view()) /
                frobenius_norm<double>(x_ref.view()),
            1e-10);
}

/// Runs f and expects a tiledqr::Error whose message contains `entry`.
template <typename F>
void expect_solve_error(F&& f, const std::string& entry) {
  try {
    (void)f();
    ADD_FAILURE() << "no Error; wanted one naming " << entry;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(entry), std::string::npos) << e.what();
  }
}

TYPED_TEST(SolveTyped, RankDeficientSolvesThrowNamingTheEntry) {
  // A zero column of A makes r_jj exactly 0 and a zero row makes l_ii 0; a
  // NaN makes the diagonal NaN. Every solve must then throw an Error naming
  // the entry, where trsm would divide by it and return Inf or NaN: least
  // squares, the square solve, the minimum-norm solve, and the session's
  // async solves (pipeline, borrowed, streamed).
  using T = TypeParam;
  const Options opt = small_opts();
  core::QrSession session(core::QrSession::Config{2});
  auto tall = random_matrix<T>(40, 24, 501);
  for (int i = 0; i < 40; ++i) tall(i, 10) = T(0);
  auto square = random_matrix<T>(24, 24, 503);
  for (int i = 0; i < 24; ++i) square(i, 5) = T(0);
  auto wide = random_matrix<T>(16, 40, 505);
  for (int j = 0; j < 40; ++j) wide(3, j) = T(0);
  auto nan = random_matrix<T>(40, 24, 507);
  nan(2, 0) = T(std::numeric_limits<double>::quiet_NaN());
  const struct {
    const Matrix<T>* a;
    const char* entry;
  } cases[] = {{&tall, "R(10, 10) is zero"},
               {&square, "R(5, 5) is zero"},
               {&wide, "L(3, 3) is zero"},
               {&nan, "R(0, 0) is not finite"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.entry);
    const ConstMatrixView<T> a(c.a->view());
    auto b = random_matrix<T>(a.rows(), 2, 509);
    const ConstMatrixView<T> bv(b.view());
    const auto qr = TiledQr<T>::factorize(a, opt);
    expect_solve_error([&] { return qr.solve_least_squares(bv); }, c.entry);
    if (a.rows() == a.cols()) expect_solve_error([&] { return qr.solve(bv); }, c.entry);
    // The async results are held as shared_futures, which keep the stored
    // exception alive past the handler's read of what(). A plain
    // future::get() drops the test's last reference, so the exception's
    // final release could run on the worker, ordered only by reference
    // counts inside libstdc++ that TSan does not see.
    core::QrSession::StreamOptions sopt;
    sopt.nb = opt.nb;
    sopt.ib = opt.ib;
    sopt.tree = opt.tree;
    auto stream = session.template stream<T>(sopt);
    const std::shared_future<Matrix<T>> async[] = {
        session.solve_least_squares_async(a, bv, opt).share(),
        session.solve_least_squares_async(qr, bv).share(), stream.push_solve(a, bv).share()};
    stream.close();
    for (const auto& f : async) expect_solve_error([&] { return f.get(); }, c.entry);
  }
}

TEST(Solve, QThinFirstColumnsSpanA) {
  // Projection of A onto range(Q) equals A.
  const int m = 36, n = 12;
  auto a = random_matrix<double>(m, n, 53);
  auto qr = TiledQr<double>::factorize(a.view(), small_opts(TreeKind::Asap));
  auto q = qr.q_thin();
  Matrix<double> qta(n, n);
  blas::gemm(blas::Op::ConjTrans, blas::Op::NoTrans, 1.0, q.view(), a.view(), 0.0, qta.view());
  Matrix<double> proj(m, n);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0, q.view(), qta.view(), 0.0, proj.view());
  EXPECT_LE(difference_norm<double>(proj.view(), a.view()) / frobenius_norm<double>(a.view()),
            1e-11);
}

}  // namespace
}  // namespace tiledqr
