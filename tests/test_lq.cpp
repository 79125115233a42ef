// LQ workload tests: the first non-QR factorization through the
// algorithm-generic engine. Covers numerical quality (||A - L Q|| / ||A||
// and row-orthonormality of Q across elimination trees and kernel
// families), bitwise determinism against the sequential replay with worker
// pinning off and on (TILEDQR_PIN), wide-shape routing through every
// session entry point (submit, stream push, batch), and the factor-kind
// keying of the PlanCache and TuningTable (same reduction grid, distinct
// entries).
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/plan_cache.hpp"
#include "core/qr_session.hpp"
#include "matrix/generate.hpp"
#include "matrix/norms.hpp"
#include "runtime/executor.hpp"
#include "tuner/tuning_table.hpp"

namespace tiledqr {
namespace {

using core::Options;
using core::QrSession;
using core::TiledQr;
using kernels::FactorKind;
using trees::KernelFamily;
using trees::TreeConfig;
using trees::TreeKind;

/// Relative residual ||A - L Q||_F / ||A||_F with L and Q formed explicitly.
template <typename T>
double lq_residual(const Matrix<T>& a, const TiledQr<T>& lq) {
  auto l = lq.l_factor();  // m x m lower triangular
  auto q = lq.q_thin();    // m x n, orthonormal rows
  Matrix<T> prod(a.rows(), a.cols());
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(1), l.view(), q.view(), T(0), prod.view());
  return double(difference_norm<T>(a.view(), prod.view()) / frobenius_norm<T>(a.view()));
}

/// Sequential per-matrix LQ replay (runtime::execute on one thread): the
/// plan runs on Aᴴ's tiles, its reduction grid, and the factored tiles are
/// adjointed back to A's layout — the reference every scheduled LQ result
/// must match bit for bit.
Matrix<double> replay_sequential_lq(const Matrix<double>& a, int nb, int ib,
                                    const TreeConfig& tree) {
  auto tiles = TileMatrix<double>::from_dense_adjoint(a.view(), nb);
  auto plan = core::make_plan(tiles.mt(), tiles.nt(), tree, FactorKind::LQ);
  core::TStore<double> ts(tiles.mt(), tiles.nt(), ib, tiles.nb());
  core::TStore<double> t2s(tiles.mt(), tiles.nt(), ib, tiles.nb());
  runtime::execute(
      plan.graph,
      [&](std::int32_t idx) {
        core::run_task_kernels(plan.graph.tasks[size_t(idx)], tiles, ts, t2s, ib);
      },
      1);
  return std::move(tiles).adjoint().to_dense();
}

template <typename T>
void expect_bitwise(const Matrix<T>& got, const Matrix<T>& want, const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::int64_t j = 0; j < got.cols(); ++j)
    for (std::int64_t i = 0; i < got.rows(); ++i) {
      const T g = got(i, j), w = want(i, j);  // memcmp: -0 and +0 differ
      ASSERT_EQ(std::memcmp(&g, &w, sizeof(T)), 0)
          << what << " at (" << i << "," << j << "): " << g << " vs " << w;
    }
}

// ------------------------------------------------------- numerical quality --

TEST(LqFactorization, ResidualAndOrthogonalityAcrossTrees) {
  const std::vector<std::pair<TreeConfig, const char*>> algos = {
      {{TreeKind::FlatTree, KernelFamily::TS, 1, 0}, "flat-ts"},
      {{TreeKind::FlatTree, KernelFamily::TT, 1, 0}, "flat-tt"},
      {{TreeKind::Greedy, KernelFamily::TT, 1, 0}, "greedy-tt"},
      {{TreeKind::Fibonacci, KernelFamily::TT, 1, 0}, "fibonacci-tt"},
      {{TreeKind::PlasmaTree, KernelFamily::TT, 2, 0}, "plasma-tt-d2"},
  };
  // Wide shapes only (m < n routes to LQ), including ragged sizes that
  // exercise the zero-padded tile triangle.
  const std::vector<std::tuple<std::int64_t, std::int64_t, int, int>> shapes = {
      {16, 48, 8, 4},  // 2 x 6 tile grid
      {13, 45, 8, 3},  // ragged: padding path
      {7, 56, 7, 7},   // single tile row
      {31, 33, 16, 8}, // barely wide
  };
  for (const auto& [tree, label] : algos) {
    for (const auto& [m, n, nb, ib] : shapes) {
      Options opt;
      opt.tree = tree;
      opt.nb = nb;
      opt.ib = ib;
      opt.threads = 2;
      auto a = random_matrix<double>(m, n, unsigned(100 * m + n));
      auto lq = TiledQr<double>::factorize(a.view(), opt);
      const std::string what =
          std::string(label) + " m=" + std::to_string(m) + " n=" + std::to_string(n);
      ASSERT_EQ(lq.kind(), FactorKind::LQ) << what;
      EXPECT_LE(lq_residual(a, lq), 1e-13) << what;
      auto q = lq.q_thin();
      EXPECT_LE(double(orthogonality_error<double>(q.view())), 1e-13) << what;
    }
  }
}

template <typename T>
Matrix<T> adjoint(const Matrix<T>& a) {
  Matrix<T> h(a.cols(), a.rows());
  for (std::int64_t j = 0; j < a.cols(); ++j)
    for (std::int64_t i = 0; i < a.rows(); ++i) h(j, i) = conj_if_complex(a(i, j));
  return h;
}

/// The LQ of A is the QR of Aᴴ, bit for bit, under the same explicit tree:
/// its factored tiles, L and Q are the adjoints of the QR's tiles, R and Q̃,
/// except that L is +0 above its diagonal where Rᴴ holds conjugated zeros.
template <typename T>
void expect_lq_is_adjoint_qr(const Matrix<T>& a, const Options& opt, const std::string& what) {
  const Matrix<T> ah = adjoint(a);
  const auto lq = TiledQr<T>::factorize(ConstMatrixView<T>(a.view()), opt);
  const auto qr = TiledQr<T>::factorize(ConstMatrixView<T>(ah.view()), opt);
  ASSERT_EQ(lq.kind(), FactorKind::LQ) << what;
  ASSERT_EQ(qr.kind(), FactorKind::QR) << what;
  expect_bitwise(lq.factors().to_dense(), adjoint(qr.factors().to_dense()), what + " factors");
  Matrix<T> rh = adjoint(qr.r_factor());
  for (std::int64_t j = 1; j < rh.cols(); ++j) std::fill_n(rh.view().col(j), j, T(0));
  expect_bitwise(lq.l_factor(), rh, what + " L");
  expect_bitwise(lq.q_thin(), adjoint(qr.q_thin()), what + " Q");
}

TEST(LqFactorization, IsTheAdjointOfQrOfTheTranspose) {
  const std::vector<std::pair<TreeConfig, const char*>> algos = {
      {{TreeKind::FlatTree, KernelFamily::TS, 1, 0}, "flat-ts"},
      {{TreeKind::FlatTree, KernelFamily::TT, 1, 0}, "flat-tt"},
      {{TreeKind::Greedy, KernelFamily::TT, 1, 0}, "greedy-tt"},
      {{TreeKind::Fibonacci, KernelFamily::TT, 1, 0}, "fibonacci-tt"},
      {{TreeKind::PlasmaTree, KernelFamily::TT, 2, 0}, "plasma-tt-d2"},
  };
  const std::vector<std::tuple<std::int64_t, std::int64_t, int, int>> shapes = {
      {16, 48, 8, 4}, {13, 45, 8, 3}, {7, 56, 7, 7}, {31, 33, 16, 8}};
  for (const auto& [tree, label] : algos)
    for (const auto& [m, n, nb, ib] : shapes)
      for (int threads : {1, 3}) {
        Options opt;
        opt.tree = tree;
        opt.nb = nb;
        opt.ib = ib;
        opt.threads = threads;
        const std::string what = std::string(label) + " m=" + std::to_string(m) +
                                 " n=" + std::to_string(n) + " threads=" + std::to_string(threads);
        expect_lq_is_adjoint_qr(random_matrix<double>(m, n, unsigned(100 * m + n)), opt,
                                what + " double");
        expect_lq_is_adjoint_qr(random_matrix<std::complex<double>>(m, n, unsigned(7 * m + n)),
                                opt, what + " complex");
      }
}

TEST(LqFactorization, ComplexWideResidual) {
  using C = std::complex<double>;
  Options opt;
  opt.tree = TreeConfig{TreeKind::Greedy, KernelFamily::TT, 1, 0};
  opt.nb = 8;
  opt.ib = 4;
  opt.threads = 2;
  auto a = random_matrix<C>(16, 48, 11);
  auto lq = TiledQr<C>::factorize(a.view(), opt);
  ASSERT_EQ(lq.kind(), FactorKind::LQ);
  EXPECT_LE(lq_residual(a, lq), 1e-11);
  auto q = lq.q_thin();
  EXPECT_LE(double(orthogonality_error<C>(q.view())), 1e-11);
}

// ---------------------------------------------------- scheduling determinism --

TEST(LqFactorization, BitwiseDeterministicAcrossPinSweep) {
  // Pinned and unpinned workers (TILEDQR_PIN) must both produce factors
  // bitwise identical to the 1-thread sequential replay: LQ tasks
  // are commutative-free (each tile has one writer chain), so scheduling
  // order must not leak into the bits.
  Options opt;
  opt.tree = TreeConfig{};  // pin Greedy: a disengaged tree would autotune
  opt.nb = 16;
  opt.ib = 8;
  constexpr int kMats = 3;
  std::vector<Matrix<double>> inputs;
  std::vector<Matrix<double>> refs;
  for (int i = 0; i < kMats; ++i) {
    inputs.push_back(random_matrix<double>(2 * 16 - 3, 5 * 16 - 1, 910 + unsigned(i)));
    refs.push_back(replay_sequential_lq(inputs.back(), opt.nb, opt.ib, *opt.tree));
  }

  const char* old_pin = std::getenv("TILEDQR_PIN");
  for (int pin : {0, 1}) {
    setenv("TILEDQR_PIN", pin ? "1" : "0", 1);
    QrSession session(QrSession::Config{4});
    std::vector<std::future<TiledQr<double>>> futs;
    for (const auto& a : inputs)
      futs.push_back(session.submit<double>(ConstMatrixView<double>(a.view()), opt));
    for (int i = 0; i < kMats; ++i) {
      auto lq = futs[size_t(i)].get();
      ASSERT_EQ(lq.kind(), FactorKind::LQ);
      expect_bitwise(lq.factors().to_dense(), refs[size_t(i)],
                     "matrix " + std::to_string(i) + " pin=" + std::to_string(pin));
    }
  }
  old_pin ? setenv("TILEDQR_PIN", old_pin, 1) : unsetenv("TILEDQR_PIN");
}

TEST(LqFactorization, FactorsFromFourThreadsAtOnceAgree) {
  // factors() hands back A's m x n layout; four threads asking for it at
  // once on one wide factorization all read the sequential replay's bits.
  Options opt;
  opt.tree = TreeConfig{};
  opt.nb = 16;
  opt.ib = 8;
  opt.threads = 2;
  auto a = random_matrix<double>(2 * 16 - 3, 5 * 16 - 1, 915);
  const auto want = replay_sequential_lq(a, opt.nb, opt.ib, *opt.tree);
  const auto lq = TiledQr<double>::factorize(a.view(), opt);
  std::vector<Matrix<double>> got(4);
  {
    std::vector<std::jthread> readers;
    for (auto& g : got) readers.emplace_back([&lq, &g] { g = lq.factors().to_dense(); });
  }
  for (size_t i = 0; i < got.size(); ++i)
    expect_bitwise(got[i], want, "reader " + std::to_string(i));
}

// ------------------------------------------------------------ shape routing --

TEST(LqRouting, WideShapesRouteThroughEverySessionPath) {
  // submit and stream push route on element shape: m < n goes LQ, and both
  // produce bitwise-identical factors (the batch, solve and apply paths are
  // covered by WideInputsRunTheBatchSolveAndApplyPaths).
  const TreeConfig tree{};
  Options opt;
  opt.tree = tree;
  opt.nb = 16;
  opt.ib = 8;
  auto a = random_matrix<double>(2 * 16, 5 * 16, 77);
  const auto want = replay_sequential_lq(a, opt.nb, opt.ib, tree);

  QrSession session(QrSession::Config{2});
  auto sub = session.submit<double>(ConstMatrixView<double>(a.view()), opt).get();
  ASSERT_EQ(sub.kind(), FactorKind::LQ);
  expect_bitwise(sub.factors().to_dense(), want, "submit");
  // A caller-tiled wide A is adjointed in its own storage: same bits.
  auto tiled = session.submit(TileMatrix<double>::from_dense(a.view(), opt.nb), opt).get();
  ASSERT_EQ(tiled.kind(), FactorKind::LQ);
  expect_bitwise(tiled.factors().to_dense(), want, "submit of caller tiles");
  expect_bitwise(TiledQr<double>::factorize(TileMatrix<double>::from_dense(a.view(), opt.nb), opt)
                     .factors()
                     .to_dense(),
                 want, "factorize of caller tiles");

  QrSession::StreamOptions sopt;
  sopt.nb = opt.nb;
  sopt.ib = opt.ib;
  sopt.tree = tree;
  auto stream = session.stream<double>(sopt);
  auto pushed = stream.push(ConstMatrixView<double>(a.view()));
  auto pushed_tiles = stream.push(TileMatrix<double>::from_dense(a.view(), opt.nb));
  stream.close();
  auto streamed = pushed.get();
  ASSERT_EQ(streamed.kind(), FactorKind::LQ);
  expect_bitwise(streamed.factors().to_dense(), want, "stream push");
  expect_bitwise(pushed_tiles.get().factors().to_dense(), want, "stream push of caller tiles");
}

TEST(LqRouting, WideInputsRunTheBatchSolveAndApplyPaths) {
  // The session paths the routing test above leaves out, on one wide input:
  // a homogeneous batch rides the cached LQ fused plan; the pipeline solve,
  // the solve against a finished factorization and the streamed push_solve
  // agree bit for bit on the minimum-norm solution; and an apply_q_async
  // Q̃ / Q̃ᴴ round trip on the LQ factorization restores its operand.
  const TreeConfig tree{};
  Options opt;
  opt.tree = tree;
  opt.nb = 16;
  opt.ib = 8;
  auto a = random_matrix<double>(2 * 16 - 1, 5 * 16 - 3, 81);
  auto b = random_matrix<double>(2 * 16 - 1, 2, 82);
  const auto want = replay_sequential_lq(a, opt.nb, opt.ib, tree);

  QrSession session(QrSession::Config{2});
  std::vector<ConstMatrixView<double>> views(3, ConstMatrixView<double>(a.view()));
  auto batch = session.factorize_batch(views, opt);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i].kind(), FactorKind::LQ);
    expect_bitwise(batch[i].factors().to_dense(), want, "wide batch part " + std::to_string(i));
  }
  EXPECT_EQ(session.plan_cache_stats().fused_misses, 1);
  EXPECT_EQ(session.plan_cache_stats().fused_entries, 1u);

  auto pipeline = session.solve_least_squares_async(ConstMatrixView<double>(a.view()),
                                                    ConstMatrixView<double>(b.view()), opt);
  auto borrowed = session.solve_least_squares_async(batch[0], ConstMatrixView<double>(b.view()));
  QrSession::StreamOptions sopt;
  sopt.nb = opt.nb;
  sopt.ib = opt.ib;
  sopt.tree = tree;
  auto stream = session.stream<double>(sopt);
  auto streamed = stream.push_solve(ConstMatrixView<double>(a.view()),
                                    ConstMatrixView<double>(b.view()));
  stream.close();
  const auto x = pipeline.get();
  ASSERT_EQ(x.rows(), a.cols());
  expect_bitwise(borrowed.get(), x, "solve against the batch factorization");
  expect_bitwise(streamed.get(), x, "stream push_solve");
  expect_bitwise(batch[0].solve_least_squares(b.view()), x, "synchronous solve");
  Matrix<double> ax(b.rows(), b.cols());
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0, a.view(), x.view(), 0.0, ax.view());
  EXPECT_LE(double(difference_norm<double>(ax.view(), b.view()) /
                   frobenius_norm<double>(b.view())),
            1e-12);

  // C lives in the transposed world: as many rows as A has columns.
  auto c0 = random_matrix<double>(a.cols(), 3, 83);
  auto c = TileMatrix<double>::from_dense(c0.view(), opt.nb);
  c = session.apply_q_async(batch[0], core::ApplyTrans::NoTrans, std::move(c)).get();
  c = session.apply_q_async(batch[0], core::ApplyTrans::ConjTrans, std::move(c)).get();
  auto back = c.to_dense();
  EXPECT_LE(double(difference_norm<double>(back.view(), c0.view()) /
                   frobenius_norm<double>(c0.view())),
            1e-13);
}

TEST(LqRouting, MixedTallAndWideBatchRoutesPerMatrix) {
  // One fused graft carrying a QR part and an LQ part: routing is per
  // matrix, and fusion must not cross-talk between the two worlds.
  const TreeConfig tree{};
  Options opt;
  opt.tree = tree;
  opt.nb = 16;
  opt.ib = 8;
  auto tall = random_matrix<double>(5 * 16, 2 * 16, 21);
  auto wide = random_matrix<double>(2 * 16 - 1, 5 * 16 - 3, 22);
  std::vector<ConstMatrixView<double>> views = {ConstMatrixView<double>(tall.view()),
                                                ConstMatrixView<double>(wide.view())};
  QrSession session(QrSession::Config{2});
  auto results = session.factorize_batch(views, opt);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].kind(), FactorKind::QR);
  EXPECT_EQ(results[1].kind(), FactorKind::LQ);
  expect_bitwise(results[1].factors().to_dense(),
                 replay_sequential_lq(wide, opt.nb, opt.ib, tree), "wide batch part");
  EXPECT_LE(lq_residual(wide, results[1]), 1e-13);
}

// -------------------------------------------------------- factor-kind keys --

TEST(LqKeys, PlanCacheKeysOnFactorKind) {
  // A QR and an LQ workload on the same reduction grid (p, q, config) must
  // get distinct cache entries — colliding would hand QR kernels to an LQ
  // run or vice versa.
  core::PlanCache cache;
  const TreeConfig cfg{TreeKind::Greedy, KernelFamily::TT, 1, 0};
  auto qr_plan = cache.get(6, 2, cfg, FactorKind::QR);
  auto lq_plan = cache.get(6, 2, cfg, FactorKind::LQ);
  ASSERT_NE(qr_plan, lq_plan);
  EXPECT_EQ(qr_plan->graph.factor, FactorKind::QR);
  EXPECT_EQ(lq_plan->graph.factor, FactorKind::LQ);
  // Same elimination tree, dual kernel kinds.
  ASSERT_EQ(qr_plan->graph.tasks.size(), lq_plan->graph.tasks.size());
  for (size_t i = 0; i < qr_plan->graph.tasks.size(); ++i)
    EXPECT_EQ(kernels::lq_dual(qr_plan->graph.tasks[i].kind), lq_plan->graph.tasks[i].kind);
  auto s = cache.stats();
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.entries, 2u);
  // Repeat lookups hit their own entries.
  EXPECT_EQ(cache.get(6, 2, cfg, FactorKind::QR), qr_plan);
  EXPECT_EQ(cache.get(6, 2, cfg, FactorKind::LQ), lq_plan);
  EXPECT_EQ(cache.stats().hits, 2);
}

TEST(LqKeys, TuningTableKeysOnFactorKindAndRoundTrips) {
  tuner::TuningTable table;
  tuner::TunedDecision qr_dec;
  qr_dec.config = TreeConfig{TreeKind::Greedy, KernelFamily::TT, 1, 0};
  qr_dec.model_makespan = 12.5;
  tuner::TunedDecision lq_dec;
  lq_dec.config = TreeConfig{TreeKind::FlatTree, KernelFamily::TS, 1, 0};
  lq_dec.model_makespan = 14.0;
  lq_dec.measured_seconds = 0.25;
  lq_dec.refined = true;

  (void)table.record(8, 3, 4, "table1", qr_dec, FactorKind::QR);
  (void)table.record(8, 3, 4, "table1", lq_dec, FactorKind::LQ);
  EXPECT_EQ(table.stats().entries, 2u);

  auto got_qr = table.lookup(8, 3, 4, "table1", FactorKind::QR);
  auto got_lq = table.lookup(8, 3, 4, "table1", FactorKind::LQ);
  ASSERT_TRUE(got_qr.has_value());
  ASSERT_TRUE(got_lq.has_value());
  EXPECT_EQ(*got_qr, qr_dec);
  EXPECT_EQ(*got_lq, lq_dec);

  // The factor kind survives serialization: both entries round-trip and
  // stay independently addressable.
  auto reloaded = tuner::TuningTable::from_json(table.to_json());
  EXPECT_EQ(reloaded.stats().entries, 2u);
  auto rt_qr = reloaded.lookup(8, 3, 4, "table1", FactorKind::QR);
  auto rt_lq = reloaded.lookup(8, 3, 4, "table1", FactorKind::LQ);
  ASSERT_TRUE(rt_qr.has_value());
  ASSERT_TRUE(rt_lq.has_value());
  EXPECT_EQ(*rt_qr, qr_dec);
  EXPECT_EQ(*rt_lq, lq_dec);
}

}  // namespace
}  // namespace tiledqr
