// Tests for streaming fusion (QrSession::stream / FactorStream): bitwise
// equivalence of streamed pushes against the fixed-batch fused path and the
// sequential replay, push_solve against the async pipeline, cork/uncork
// coalescing through the cached FusedPlan machinery, per-request failure
// isolation, close semantics, auto-tree routing on the push path, and a
// multi-client interleaving stress (the CI TSan job runs this under the
// `fast` label; TILEDQR_STRESS=1 — the `stress` label — widens the grids
// and round counts).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "core/qr_session.hpp"
#include "matrix/generate.hpp"
#include "matrix/norms.hpp"
#include "runtime/executor.hpp"

namespace tiledqr {
namespace {

using core::FactorStream;
using core::Options;
using core::QrSession;
using core::TiledQr;
using trees::KernelFamily;
using trees::TreeConfig;
using trees::TreeKind;

/// Sequential per-matrix replay (runtime::execute on one thread): the
/// reference the streamed results must match bit for bit.
Matrix<double> replay_sequential(const Matrix<double>& a, int nb, int ib,
                                 const TreeConfig& tree) {
  auto tiles = TileMatrix<double>::from_dense(a.view(), nb);
  auto plan = core::make_plan(tiles.mt(), tiles.nt(), tree);
  core::TStore<double> ts(tiles.mt(), tiles.nt(), ib, tiles.nb());
  core::TStore<double> t2s(tiles.mt(), tiles.nt(), ib, tiles.nb());
  runtime::execute(
      plan.graph,
      [&](std::int32_t idx) {
        core::run_task_kernels(plan.graph.tasks[size_t(idx)], tiles, ts, t2s, ib);
      },
      1);
  return tiles.to_dense();
}

void expect_bitwise(const Matrix<double>& got, const Matrix<double>& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::int64_t j = 0; j < got.cols(); ++j)
    for (std::int64_t i = 0; i < got.rows(); ++i)
      ASSERT_EQ(got(i, j), want(i, j)) << what << " at (" << i << "," << j << ")";
}

struct SweepCase {
  int p, q, nb;
  TreeConfig tree;
  int threads;
  int depth;
  bool corked;
};

std::vector<SweepCase> sweep_cases() {
  const TreeConfig greedy_tt{TreeKind::Greedy, KernelFamily::TT, 1, 0};
  const TreeConfig flat_ts{TreeKind::FlatTree, KernelFamily::TS, 1, 0};
  const TreeConfig plasma2{TreeKind::PlasmaTree, KernelFamily::TT, 2, 0};
  std::vector<SweepCase> cases = {
      {4, 2, 8, greedy_tt, 2, 5, false},  // one-by-one pushes, tall grid
      {4, 2, 8, greedy_tt, 2, 5, true},   // same burst corked: one fused graft
      {5, 3, 8, flat_ts, 4, 4, true},     // TS kernel family
      {3, 3, 16, plasma2, 2, 4, false},   // square grid, PlasmaTree domains
      {1, 1, 8, greedy_tt, 1, 3, true},   // single-tile DAGs on one worker
  };
  if (env_flag("TILEDQR_STRESS")) {
    const TreeConfig fib_tt{TreeKind::Fibonacci, KernelFamily::TT, 1, 0};
    const TreeConfig asap{TreeKind::Asap, KernelFamily::TT, 1, 0};
    cases.push_back({8, 4, 16, greedy_tt, 4, 12, false});
    cases.push_back({8, 4, 16, greedy_tt, 4, 12, true});
    cases.push_back({10, 2, 8, fib_tt, 8, 9, true});
    cases.push_back({5, 5, 8, asap, 4, 8, false});
  }
  return cases;
}

// ---------------------------------------------------- streamed == batched --

TEST(FactorStream, StreamedPushesMatchFixedBatchBitwise) {
  for (const auto& c : sweep_cases()) {
    const std::string what = "p=" + std::to_string(c.p) + " q=" + std::to_string(c.q) +
                             " nb=" + std::to_string(c.nb) +
                             " threads=" + std::to_string(c.threads) +
                             " depth=" + std::to_string(c.depth) +
                             (c.corked ? " corked" : " uncorked");
    // Ragged on purpose (padding path), but keep m >= n.
    const std::int64_t m = std::int64_t(c.p) * c.nb - (c.p > 1 ? 3 : 0);
    const std::int64_t n = std::min(std::int64_t(c.q) * c.nb - (c.q > 1 ? 2 : 1), m);
    std::vector<Matrix<double>> inputs;
    for (int i = 0; i < c.depth; ++i)
      inputs.push_back(random_matrix<double>(m, n, 100 * unsigned(c.p) + unsigned(i)));

    QrSession session(QrSession::Config{c.threads});
    QrSession::StreamOptions sopt;
    sopt.nb = c.nb;
    sopt.ib = c.nb / 2;
    sopt.tree = c.tree;
    auto stream = session.stream<double>(sopt);
    if (c.corked) stream.cork();
    std::vector<std::future<TiledQr<double>>> futures;
    for (const auto& a : inputs)
      futures.push_back(stream.push(ConstMatrixView<double>(a.view())));
    if (c.corked) stream.uncork();
    stream.close();

    // Reference 1: the fixed-batch fused path on a fresh session.
    QrSession batch_session(QrSession::Config{c.threads});
    Options bopt;
    bopt.tree = c.tree;
    bopt.nb = c.nb;
    bopt.ib = c.nb / 2;
    std::vector<ConstMatrixView<double>> views;
    for (const auto& a : inputs) views.push_back(ConstMatrixView<double>(a.view()));
    auto batch = batch_session.factorize_batch(views, bopt);

    for (int i = 0; i < c.depth; ++i) {
      auto got = futures[size_t(i)].get().factors().to_dense();
      expect_bitwise(got, batch[size_t(i)].factors().to_dense(),
                     what + " vs batch, matrix " + std::to_string(i));
      // Reference 2: the sequential replay.
      expect_bitwise(got, replay_sequential(inputs[size_t(i)], c.nb, c.nb / 2, c.tree),
                     what + " vs replay, matrix " + std::to_string(i));
    }
  }
}

TEST(FactorStream, CorkedBurstCoalescesIntoOneFusedGraft) {
  QrSession session(QrSession::Config{2});
  QrSession::StreamOptions sopt;
  sopt.nb = 16;
  sopt.ib = 8;
  sopt.tree = TreeConfig{};
  auto stream = session.stream<double>(sopt);
  constexpr int kBurst = 6;
  std::vector<Matrix<double>> inputs;
  for (int i = 0; i < kBurst; ++i) inputs.push_back(random_matrix<double>(64, 32, 40 + i));

  stream.cork();
  std::vector<std::future<TiledQr<double>>> futures;
  for (const auto& a : inputs) futures.push_back(stream.push(ConstMatrixView<double>(a.view())));
  {
    auto s = stream.stats();
    EXPECT_EQ(s.pushed, kBurst);
    EXPECT_EQ(s.pending, kBurst);     // corked: nothing grafted yet
    EXPECT_EQ(s.components, 0);
  }
  stream.uncork();
  {
    auto s = stream.stats();
    EXPECT_EQ(s.components, 1);       // the whole burst rode one fused graft
    EXPECT_EQ(s.fused_requests, kBurst);
    EXPECT_EQ(s.pending, 0);
  }
  for (auto& f : futures) (void)f.get();
  stream.close();
  // The graft went through the cached FusedPlan machinery.
  auto cache = session.plan_cache_stats();
  EXPECT_EQ(cache.fused_misses, 1);
  EXPECT_EQ(cache.fused_entries, 1u);
}

TEST(FactorStream, PushSolveMatchesAsyncPipelineBitwise) {
  const TreeConfig tree{};
  QrSession session(QrSession::Config{2});
  QrSession::StreamOptions sopt;
  sopt.nb = 16;
  sopt.ib = 8;
  sopt.tree = tree;
  auto stream = session.stream<double>(sopt);
  constexpr int kSolves = 4;
  std::vector<Matrix<double>> as, bs;
  for (int i = 0; i < kSolves; ++i) {
    as.push_back(random_matrix<double>(5 * 16 - 3, 2 * 16 - 1, 300 + i));
    bs.push_back(random_matrix<double>(5 * 16 - 3, 2, 400 + i));
  }
  std::vector<std::future<Matrix<double>>> streamed;
  for (int i = 0; i < kSolves; ++i)
    streamed.push_back(stream.push_solve(ConstMatrixView<double>(as[size_t(i)].view()),
                                         ConstMatrixView<double>(bs[size_t(i)].view())));
  stream.close();

  QrSession ref_session(QrSession::Config{2});
  Options opt;
  opt.tree = tree;
  opt.nb = 16;
  opt.ib = 8;
  for (int i = 0; i < kSolves; ++i) {
    auto want = ref_session
                    .solve_least_squares_async(ConstMatrixView<double>(as[size_t(i)].view()),
                                               ConstMatrixView<double>(bs[size_t(i)].view()), opt)
                    .get();
    expect_bitwise(streamed[size_t(i)].get(), want, "solve " + std::to_string(i));
  }
}

TEST(FactorStream, CorkedSolveBurstCoalescesApplyStages) {
  // A corked homogeneous burst of solves rides ONE fused factor graft; each
  // request's apply stage is queued as its factor part retires, and the
  // factor component's retirement callback claims the whole queue and
  // grafts it as ONE fused apply component. Before apply coalescing this
  // burst produced 1 + kSolves components; now it is exactly 2. Run once
  // tall (QR: apply-Qᵀb then trsm tail) and once wide (LQ: trsm head then
  // apply-Q̃ minimum norm) — both solve tails ride the coalesced path.
  const TreeConfig tree{};
  constexpr int kSolves = 5;
  for (bool wide : {false, true}) {
    const std::int64_t m = wide ? 2 * 16 - 1 : 4 * 16 - 3;
    const std::int64_t n = wide ? 4 * 16 - 3 : 2 * 16 - 1;
    const std::string label = wide ? "wide" : "tall";
    std::vector<Matrix<double>> as, bs;
    for (int i = 0; i < kSolves; ++i) {
      as.push_back(random_matrix<double>(m, n, 600 + unsigned(i) + (wide ? 50u : 0u)));
      bs.push_back(random_matrix<double>(m, 2, 700 + unsigned(i) + (wide ? 50u : 0u)));
    }
    QrSession session(QrSession::Config{2});
    QrSession::StreamOptions sopt;
    sopt.nb = 16;
    sopt.ib = 8;
    sopt.tree = tree;
    auto stream = session.stream<double>(sopt);
    stream.cork();
    std::vector<std::future<Matrix<double>>> streamed;
    for (int i = 0; i < kSolves; ++i)
      streamed.push_back(stream.push_solve(ConstMatrixView<double>(as[size_t(i)].view()),
                                           ConstMatrixView<double>(bs[size_t(i)].view())));
    EXPECT_EQ(stream.stats().components, 0) << label;
    stream.uncork();
    std::vector<Matrix<double>> xs;
    for (auto& f : streamed) xs.push_back(f.get());
    stream.drain();  // quiesce: `unresolved` drops after the promise resolves
    {
      auto s = stream.stats();
      EXPECT_EQ(s.components, 2) << label;  // fused factor graft + fused apply graft
      EXPECT_EQ(s.fused_requests, kSolves) << label;
      EXPECT_EQ(s.unresolved, 0) << label;
    }
    stream.close();

    QrSession ref_session(QrSession::Config{2});
    Options opt;
    opt.tree = tree;
    opt.nb = 16;
    opt.ib = 8;
    for (int i = 0; i < kSolves; ++i) {
      auto want =
          ref_session
              .solve_least_squares_async(ConstMatrixView<double>(as[size_t(i)].view()),
                                         ConstMatrixView<double>(bs[size_t(i)].view()), opt)
              .get();
      expect_bitwise(xs[size_t(i)], want, label + " coalesced solve " + std::to_string(i));
    }
  }
}

TEST(FactorStream, ZeroColumnRhsSolveIsDegenerate) {
  QrSession session(QrSession::Config{2});
  QrSession::StreamOptions sopt;
  sopt.nb = 16;
  auto stream = session.stream<double>(sopt);
  auto a = random_matrix<double>(48, 32, 7);
  Matrix<double> b(48, 0);
  auto x = stream.push_solve(ConstMatrixView<double>(a.view()),
                             ConstMatrixView<double>(b.view()));
  stream.close();
  auto sol = x.get();
  EXPECT_EQ(sol.rows(), 32);
  EXPECT_EQ(sol.cols(), 0);
}

TEST(FactorStream, AutoRoutedPushMatchesExplicitChoice) {
  // A stream without a pinned tree routes each pushed shape through the
  // session tuner; results must be bitwise identical to pushing the chosen
  // tree explicitly.
  QrSession session(QrSession::Config{2});
  QrSession::StreamOptions auto_opt;
  auto_opt.nb = 16;
  auto_opt.ib = 8;
  auto auto_stream = session.stream<double>(auto_opt);
  auto a = random_matrix<double>(6 * 16, 2 * 16, 99);
  auto auto_qr = auto_stream.push(ConstMatrixView<double>(a.view())).get();
  auto_stream.close();

  const TreeConfig chosen = session.choose_tree(6, 2);
  EXPECT_EQ(auto_qr.options().tree, std::optional<TreeConfig>(chosen));
  expect_bitwise(auto_qr.factors().to_dense(), replay_sequential(a, 16, 8, chosen),
                 "auto-routed push");
}

TEST(FactorStream, FailedPushDoesNotPoisonTheStream) {
  QrSession session(QrSession::Config{2});
  QrSession::StreamOptions sopt;
  sopt.nb = 16;
  sopt.ib = 8;
  sopt.tree = TreeConfig{};
  auto stream = session.stream<double>(sopt);
  // A push whose preparation fails resolves its own future with the error...
  Matrix<double> empty(0, 0);
  auto bad = stream.push(ConstMatrixView<double>(empty.view()));
  EXPECT_THROW((void)bad.get(), Error);
  // ...and the stream keeps serving.
  auto a = random_matrix<double>(64, 32, 3);
  auto good = stream.push(ConstMatrixView<double>(a.view()));
  stream.close();
  expect_bitwise(good.get().factors().to_dense(), replay_sequential(a, 16, 8, TreeConfig{}),
                 "push after failed push");
}

TEST(FactorStream, ClosedStreamRejectsPushes) {
  QrSession session(QrSession::Config{2});
  auto stream = session.stream<double>();
  auto a = random_matrix<double>(128, 128, 1);
  auto f = stream.push(ConstMatrixView<double>(a.view()));
  stream.close();
  (void)f.get();
  EXPECT_THROW((void)stream.push(ConstMatrixView<double>(a.view())), Error);
  stream.close();  // idempotent
}

TEST(FactorStream, InvalidStreamOptionsThrowUpFront) {
  QrSession session(QrSession::Config{2});
  QrSession::StreamOptions bad_nb;
  bad_nb.nb = 0;
  EXPECT_THROW((void)session.stream<double>(bad_nb), Error);
  QrSession::StreamOptions bad_ib;
  bad_ib.ib = -1;
  EXPECT_THROW((void)session.stream<double>(bad_ib), Error);
}

TEST(FactorStream, DrainKeepsTheStreamOpen) {
  QrSession session(QrSession::Config{2});
  QrSession::StreamOptions sopt;
  sopt.nb = 16;
  sopt.ib = 8;
  sopt.tree = TreeConfig{};
  auto stream = session.stream<double>(sopt);
  auto a = random_matrix<double>(64, 32, 21);
  auto f1 = stream.push(ConstMatrixView<double>(a.view()));
  stream.drain();
  EXPECT_EQ(f1.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  auto f2 = stream.push(ConstMatrixView<double>(a.view()));  // still open
  stream.close();
  expect_bitwise(f1.get().factors().to_dense(), f2.get().factors().to_dense(),
                 "same input, same plan");
}

// ------------------------------------------------------------ serving QoS --

TEST(FactorStream, MultiClientCorkVsDrainKeepsBurstIntact) {
  // Client A corks a burst; a peer calls drain(). The drain must not claim
  // A's corked backlog (the burst grafts as the ONE fused component cork
  // promised) and must park on the retirement condvar — not spin flushing an
  // empty backlog — until A uncorks.
  QrSession session(QrSession::Config{2});
  QrSession::StreamOptions sopt;
  sopt.nb = 16;
  sopt.ib = 8;
  sopt.tree = TreeConfig{};
  auto stream = session.stream<double>(sopt);
  constexpr int kBurst = 3;
  std::vector<Matrix<double>> inputs;
  for (int i = 0; i < kBurst; ++i) inputs.push_back(random_matrix<double>(64, 32, 500 + i));

  stream.cork();
  std::vector<std::future<TiledQr<double>>> futures;
  for (const auto& a : inputs) futures.push_back(stream.push(ConstMatrixView<double>(a.view())));

  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    stream.drain();
    drained.store(true);
  });
  // Give the drainer time to park; it cannot return (3 unresolved corked
  // requests) and must not graft anything.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load());
  {
    auto s = stream.stats();
    EXPECT_EQ(s.components, 0);  // corked backlog untouched by the drain
    EXPECT_EQ(s.pending, kBurst);
    EXPECT_EQ(s.unresolved, kBurst);
  }
  stream.uncork();
  drainer.join();
  EXPECT_TRUE(drained.load());
  auto s = stream.stats();
  EXPECT_EQ(s.components, 1);  // the whole burst rode one fused graft
  EXPECT_EQ(s.fused_requests, kBurst);
  EXPECT_EQ(s.unresolved, 0);
  // A parked drain claims the (empty, corked) backlog at most once.
  EXPECT_LE(s.empty_flushes, 2);
  for (auto& f : futures) (void)f.get();
  stream.close();
}

TEST(FactorStream, MovedFromHandleGuardsThrow) {
  QrSession session(QrSession::Config{2});
  auto stream = session.stream<double>();
  auto moved = std::move(stream);
  auto a = random_matrix<double>(32, 16, 9);
  // Every public method on the moved-from handle reports the caller bug
  // instead of dereferencing null shared state.
  EXPECT_THROW((void)stream.push(ConstMatrixView<double>(a.view())), Error);
  EXPECT_THROW((void)stream.push(TileMatrix<double>::from_dense(a.view(), 16)), Error);
  EXPECT_THROW((void)stream.push_solve(ConstMatrixView<double>(a.view()),
                                       ConstMatrixView<double>(a.view())),
               Error);
  EXPECT_THROW(stream.cork(), Error);
  EXPECT_THROW(stream.uncork(), Error);
  EXPECT_THROW(stream.flush(), Error);
  EXPECT_THROW(stream.drain(), Error);
  EXPECT_THROW((void)stream.stats(), Error);
  EXPECT_THROW(stream.close(), Error);
  EXPECT_FALSE(stream.valid());
  // The moved-into handle works (and the moved-from destructor is a no-op).
  auto f = moved.push(ConstMatrixView<double>(a.view()));
  moved.close();
  (void)f.get();
}

TEST(FactorStream, RejectOverflowReturnsFailedFuture) {
  QrSession session(QrSession::Config{2});
  QrSession::StreamOptions sopt;
  sopt.nb = 16;
  sopt.ib = 8;
  sopt.tree = TreeConfig{};
  sopt.max_queued = 2;
  sopt.overflow = QrSession::StreamOverflow::Reject;
  auto stream = session.stream<double>(sopt);
  auto a = random_matrix<double>(64, 32, 71);
  stream.cork();  // hold the admitted requests unresolved deterministically
  auto f1 = stream.push(ConstMatrixView<double>(a.view()));
  auto f2 = stream.push(ConstMatrixView<double>(a.view()));
  auto f3 = stream.push(ConstMatrixView<double>(a.view()));  // over the bound
  try {
    (void)f3.get();
    FAIL() << "expected a backpressure reject";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("backpressure reject"), std::string::npos);
  }
  {
    auto s = stream.stats();
    EXPECT_EQ(s.rejected, 1);
    EXPECT_EQ(s.unresolved, 2);
    EXPECT_EQ(s.pushed, 2);  // the rejected push was never admitted
  }
  stream.uncork();
  stream.close();
  (void)f1.get();  // the admitted requests are untouched by the reject
  (void)f2.get();
  EXPECT_LE(stream.stats().peak_unresolved, 2);
}

TEST(FactorStream, BlockOverflowBoundsUnresolvedRequests) {
  // The acceptance bar: a Block-overflow stream never holds more than
  // max_queued unresolved requests — the pusher parks until a slot frees —
  // and loses nothing.
  QrSession session(QrSession::Config{2});
  QrSession::StreamOptions sopt;
  sopt.nb = 16;
  sopt.ib = 8;
  sopt.tree = TreeConfig{};
  sopt.max_queued = 2;
  sopt.overflow = QrSession::StreamOverflow::Block;
  auto stream = session.stream<double>(sopt);
  constexpr int kPushes = 16;
  std::vector<Matrix<double>> inputs;
  std::vector<std::future<TiledQr<double>>> futures;
  for (int i = 0; i < kPushes; ++i) {
    inputs.push_back(random_matrix<double>(48, 32, 800 + i));
    futures.push_back(stream.push(ConstMatrixView<double>(inputs.back().view())));
  }
  stream.close();
  auto s = stream.stats();
  EXPECT_LE(s.peak_unresolved, 2);
  EXPECT_EQ(s.pushed, kPushes);
  EXPECT_EQ(s.rejected, 0);
  for (size_t i = 0; i < futures.size(); ++i) {
    auto got = futures[i].get().factors().to_dense();
    expect_bitwise(got, replay_sequential(inputs[i], 16, 8, TreeConfig{}),
                   "blocked push " + std::to_string(i));
  }
}

TEST(FactorStream, LowWatermarkGraftsBehindLiveComponent) {
  // low_watermark = 1 keeps a graft queued behind the live one: a push that
  // arrives with only the live graft in flight grafts immediately instead of
  // pending until the stream runs dry. The graft happens synchronously on
  // the pushing thread, so the component count is deterministic.
  QrSession session(QrSession::Config{2});
  QrSession::StreamOptions sopt;
  sopt.nb = 16;
  sopt.ib = 8;
  sopt.tree = TreeConfig{};
  sopt.low_watermark = 1;
  auto stream = session.stream<double>(sopt);
  auto a = random_matrix<double>(64, 32, 31);
  auto f1 = stream.push(ConstMatrixView<double>(a.view()));
  EXPECT_EQ(stream.stats().components, 1);  // idle stream: grafted immediately
  auto f2 = stream.push(ConstMatrixView<double>(a.view()));
  // Whether or not the first graft already retired, inflight <= 1 here, so
  // the watermark grafts the second push rather than pending it.
  EXPECT_EQ(stream.stats().components, 2);
  EXPECT_EQ(stream.stats().pending, 0);
  stream.close();
  expect_bitwise(f1.get().factors().to_dense(), f2.get().factors().to_dense(),
                 "same input through watermark grafts");
}

TEST(FactorStream, FlushDeadlineCapsCoalescingLatency) {
  // A big factorization keeps the stream busy; a small request pushed behind
  // it would normally coalesce until the big one retires. flush_deadline
  // caps that wait: the deadline thread grafts the aged backlog while the
  // big graft is still running. (The big QR takes tens of milliseconds on
  // two workers — over ten times the deadline — so the ordering is robust,
  // and sanitizer slowdowns only widen the margin. At 512 x 512 it took about
  // 10 ms once the block applies ran on the GEMM, and the deadline flush
  // missed it in about a third of the runs.)
  QrSession session(QrSession::Config{2});
  QrSession::StreamOptions sopt;
  sopt.nb = 64;
  sopt.ib = 16;
  sopt.tree = TreeConfig{};
  sopt.flush_deadline = std::chrono::milliseconds(5);
  auto stream = session.stream<double>(sopt);
  auto big = random_matrix<double>(1024, 1024, 1);
  auto small = random_matrix<double>(64, 32, 2);
  auto f_big = stream.push(ConstMatrixView<double>(big.view()));
  auto f_small = stream.push(ConstMatrixView<double>(small.view()));
  auto small_qr = f_small.get();
  EXPECT_GE(stream.stats().deadline_flushes, 1);
  (void)f_big.get();
  stream.close();
  expect_bitwise(small_qr.factors().to_dense(),
                 replay_sequential(small, 64, 16, TreeConfig{}), "deadline-grafted push");
}

TEST(FactorStream, MoveAssignClosesTheOverwrittenStream) {
  // Re-opening a stream in place (`stream = session.stream(...)`) must close
  // the old one: its in-flight requests resolve and its deadline thread
  // joins — nothing is orphaned with no handle left to close it.
  QrSession session(QrSession::Config{2});
  QrSession::StreamOptions sopt;
  sopt.nb = 16;
  sopt.ib = 8;
  sopt.tree = TreeConfig{};
  sopt.flush_deadline = std::chrono::milliseconds(50);  // engages the thread
  auto stream = session.stream<double>(sopt);
  auto a = random_matrix<double>(64, 32, 13);
  auto f = stream.push(ConstMatrixView<double>(a.view()));
  stream = session.stream<double>(sopt);  // old stream closed by move-assign
  EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  auto f2 = stream.push(ConstMatrixView<double>(a.view()));
  stream.close();
  expect_bitwise(f.get().factors().to_dense(), f2.get().factors().to_dense(),
                 "same input across the reassignment");
}

TEST(FactorStream, NewStreamOptionKnobsAreValidated) {
  QrSession session(QrSession::Config{2});
  QrSession::StreamOptions bad_queue;
  bad_queue.max_queued = -1;
  EXPECT_THROW((void)session.stream<double>(bad_queue), Error);
  QrSession::StreamOptions bad_watermark;
  bad_watermark.low_watermark = -1;
  EXPECT_THROW((void)session.stream<double>(bad_watermark), Error);
  QrSession::StreamOptions bad_deadline;
  bad_deadline.flush_deadline = std::chrono::milliseconds(-1);
  EXPECT_THROW((void)session.stream<double>(bad_deadline), Error);
}

// ------------------------------------------------- multi-client interleave --

TEST(FactorStream, MultiClientInterleavingStress) {
  // Several client threads hammer ONE session: two share a stream, one owns
  // a private corked-burst stream, one drives the fixed-batch path — any
  // cross-talk between grafts shows up as a value mismatch (and any data
  // race in the TSan CI job).
  const int rounds = env_flag("TILEDQR_STRESS") ? 10 : 2;
  const int clients = env_flag("TILEDQR_STRESS") ? 4 : 3;
  const TreeConfig tree{};
  QrSession session(QrSession::Config{4});
  QrSession::StreamOptions sopt;
  sopt.nb = 16;
  sopt.ib = 8;
  sopt.tree = tree;
  auto shared_stream = session.stream<double>(sopt);

  std::mutex fail_mu;
  std::vector<std::string> failures;
  auto record = [&](std::string what) {
    std::lock_guard<std::mutex> lock(fail_mu);
    failures.push_back(std::move(what));
  };

  std::vector<std::thread> threads;
  for (int cid = 0; cid < clients; ++cid) {
    threads.emplace_back([&, cid] {
      for (int r = 0; r < rounds; ++r) {
        const unsigned seed = unsigned(10000 + cid * 1000 + r * 10);
        if (cid % 3 == 0) {
          // Pushes one-by-one into the shared stream (plus one solve).
          std::vector<Matrix<double>> inputs;
          std::vector<std::future<TiledQr<double>>> futs;
          for (int i = 0; i < 3; ++i)
            inputs.push_back(random_matrix<double>(3 * 16, 2 * 16, seed + unsigned(i)));
          for (auto& a : inputs)
            futs.push_back(shared_stream.push(ConstMatrixView<double>(a.view())));
          auto b = random_matrix<double>(3 * 16, 1, seed + 7);
          auto x = shared_stream.push_solve(ConstMatrixView<double>(inputs[0].view()),
                                            ConstMatrixView<double>(b.view()));
          for (size_t i = 0; i < futs.size(); ++i) {
            auto got = futs[i].get().factors().to_dense();
            auto want = replay_sequential(inputs[i], 16, 8, tree);
            if (got.rows() != want.rows()) { record("stream shape mismatch"); continue; }
            for (std::int64_t jj = 0; jj < got.cols(); ++jj)
              for (std::int64_t ii = 0; ii < got.rows(); ++ii)
                if (got(ii, jj) != want(ii, jj)) {
                  record("stream value mismatch c" + std::to_string(cid));
                  jj = got.cols();
                  break;
                }
          }
          (void)x.get();
        } else if (cid % 3 == 1) {
          // Private stream, corked bursts of a different shape.
          auto mine = session.stream<double>(sopt);
          mine.cork();
          std::vector<Matrix<double>> inputs;
          std::vector<std::future<TiledQr<double>>> futs;
          for (int i = 0; i < 4; ++i)
            inputs.push_back(random_matrix<double>(4 * 16, 16, seed + unsigned(i)));
          for (auto& a : inputs)
            futs.push_back(mine.push(ConstMatrixView<double>(a.view())));
          mine.uncork();
          mine.close();
          for (size_t i = 0; i < futs.size(); ++i) {
            auto got = futs[i].get().factors().to_dense();
            auto want = replay_sequential(inputs[i], 16, 8, tree);
            for (std::int64_t jj = 0; jj < got.cols(); ++jj)
              for (std::int64_t ii = 0; ii < got.rows(); ++ii)
                if (got(ii, jj) != want(ii, jj)) {
                  record("burst value mismatch c" + std::to_string(cid));
                  jj = got.cols();
                  break;
                }
          }
        } else {
          // Fixed-batch client sharing the same pool/cache.
          Options opt;
          opt.tree = tree;
          opt.nb = 16;
          opt.ib = 8;
          std::vector<Matrix<double>> inputs;
          for (int i = 0; i < 3; ++i)
            inputs.push_back(random_matrix<double>(2 * 16, 2 * 16, seed + unsigned(i)));
          std::vector<ConstMatrixView<double>> views;
          for (auto& a : inputs) views.push_back(ConstMatrixView<double>(a.view()));
          std::vector<TiledQr<double>> qrs;
          try {
            qrs = session.factorize_batch(views, opt);
          } catch (const std::exception& e) {
            record(std::string("batch threw: ") + e.what());
            continue;
          }
          for (size_t i = 0; i < qrs.size(); ++i) {
            auto got = qrs[i].factors().to_dense();
            auto want = replay_sequential(inputs[i], 16, 8, tree);
            for (std::int64_t jj = 0; jj < got.cols(); ++jj)
              for (std::int64_t ii = 0; ii < got.rows(); ++ii)
                if (got(ii, jj) != want(ii, jj)) {
                  record("batch value mismatch c" + std::to_string(cid));
                  jj = got.cols();
                  break;
                }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  shared_stream.close();
  for (const auto& f : failures) ADD_FAILURE() << f;
}

TEST(FactorStream, TwoStreamQoSCompetitionStress) {
  // Two clients, each with its own QoS-bounded stream (Block overflow +
  // watermark), hammer one 2-worker session. The pool-level fairness deal
  // interleaves their grafts; the per-stream bound must hold for both under
  // contention and every result must stay bitwise identical to the replay.
  const int per_client = env_flag("TILEDQR_STRESS") ? 24 : 6;
  const TreeConfig tree{};
  QrSession session(QrSession::Config{2});
  QrSession::StreamOptions sopt;
  sopt.nb = 16;
  sopt.ib = 8;
  sopt.tree = tree;
  sopt.max_queued = 4;
  sopt.overflow = QrSession::StreamOverflow::Block;
  sopt.low_watermark = 1;

  std::mutex fail_mu;
  std::vector<std::string> failures;
  std::vector<std::thread> clients;
  std::vector<long> peaks(2, 0);
  for (int cid = 0; cid < 2; ++cid) {
    clients.emplace_back([&, cid] {
      auto stream = session.stream<double>(sopt);
      std::vector<Matrix<double>> inputs;
      std::vector<std::future<TiledQr<double>>> futs;
      for (int i = 0; i < per_client; ++i) {
        inputs.push_back(random_matrix<double>(3 * 16, 2 * 16, unsigned(20000 + cid * 100 + i)));
        futs.push_back(stream.push(ConstMatrixView<double>(inputs.back().view())));
      }
      stream.drain();
      peaks[size_t(cid)] = stream.stats().peak_unresolved;
      stream.close();
      for (size_t i = 0; i < futs.size(); ++i) {
        auto got = futs[i].get().factors().to_dense();
        auto want = replay_sequential(inputs[i], 16, 8, tree);
        for (std::int64_t jj = 0; jj < got.cols(); ++jj)
          for (std::int64_t ii = 0; ii < got.rows(); ++ii)
            if (got(ii, jj) != want(ii, jj)) {
              std::lock_guard<std::mutex> lock(fail_mu);
              failures.push_back("qos stream value mismatch c" + std::to_string(cid));
              jj = got.cols();
              break;
            }
      }
    });
  }
  for (auto& th : clients) th.join();
  for (const auto& f : failures) ADD_FAILURE() << f;
  EXPECT_LE(peaks[0], 4);
  EXPECT_LE(peaks[1], 4);
  EXPECT_GT(peaks[0], 0);
  EXPECT_GT(peaks[1], 0);
}

}  // namespace
}  // namespace tiledqr
