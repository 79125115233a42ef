// Tests for the QrSession serving front end: async submit, batched
// factorization, bitwise agreement with the synchronous API, plan-cache
// amortization across a batch, and error surfacing.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/qr_session.hpp"
#include "matrix/generate.hpp"
#include "matrix/norms.hpp"

namespace tiledqr {
namespace {

using core::Options;
using core::QrSession;
using core::TiledQr;

Options small_opt() {
  Options opt;
  // Pinned tree: these tests compare session paths against the synchronous
  // Greedy-default TiledQr::factorize bit for bit; a disengaged tree would
  // route the batch/pipeline paths through the autotuner instead.
  opt.tree = trees::TreeConfig{};
  opt.nb = 32;
  opt.ib = 16;
  return opt;
}

template <typename T>
void expect_bitwise_equal(const TiledQr<T>& a, const TiledQr<T>& b) {
  auto da = a.factors().to_dense();
  auto db = b.factors().to_dense();
  ASSERT_EQ(da.rows(), db.rows());
  ASSERT_EQ(da.cols(), db.cols());
  for (std::int64_t j = 0; j < da.cols(); ++j)
    for (std::int64_t i = 0; i < da.rows(); ++i)
      ASSERT_EQ(da(i, j), db(i, j)) << "(" << i << "," << j << ")";
}

TEST(QrSession, SubmitMatchesSynchronousFactorize) {
  QrSession session(QrSession::Config{4});
  auto opt = small_opt();
  auto a = random_matrix<double>(8 * 32, 4 * 32, 11);

  auto future = session.submit(ConstMatrixView<double>(a.view()), opt);
  auto async_qr = future.get();

  auto sync_opt = opt;
  sync_opt.threads = 1;
  auto sync_qr = TiledQr<double>::factorize(a.view(), sync_opt);
  expect_bitwise_equal(async_qr, sync_qr);

  // The async result is a fully usable TiledQr.
  auto q = async_qr.q_thin();
  EXPECT_LE(double(orthogonality_error<double>(q.view())), 1e-11);
}

TEST(QrSession, ManyOutstandingFuturesResolve) {
  QrSession session(QrSession::Config{4});
  auto opt = small_opt();
  constexpr int kJobs = 24;
  std::vector<Matrix<double>> inputs;
  std::vector<std::future<TiledQr<double>>> futures;
  for (int i = 0; i < kJobs; ++i)
    inputs.push_back(random_matrix<double>(6 * 32, 3 * 32, 100 + i));
  for (int i = 0; i < kJobs; ++i)
    futures.push_back(session.submit(ConstMatrixView<double>(inputs[size_t(i)].view()), opt));
  for (int i = 0; i < kJobs; ++i) {
    auto qr = futures[size_t(i)].get();
    auto sync_opt = opt;
    sync_opt.threads = 1;
    auto expect = TiledQr<double>::factorize(inputs[size_t(i)].view(), sync_opt);
    expect_bitwise_equal(qr, expect);
  }
}

TEST(QrSession, BatchMatchesSerialAndPreservesOrder) {
  QrSession session(QrSession::Config{4});
  auto opt = small_opt();
  constexpr int kBatch = 16;
  std::vector<Matrix<double>> inputs;
  for (int i = 0; i < kBatch; ++i)
    inputs.push_back(random_matrix<double>(5 * 32, 2 * 32, 1000 + i));
  std::vector<ConstMatrixView<double>> views;
  for (auto& m : inputs) views.push_back(ConstMatrixView<double>(m.view()));

  auto results = session.factorize_batch(views, opt);
  ASSERT_EQ(results.size(), size_t(kBatch));
  for (int i = 0; i < kBatch; ++i) {
    auto sync_opt = opt;
    sync_opt.threads = 1;
    auto expect = TiledQr<double>::factorize(inputs[size_t(i)].view(), sync_opt);
    expect_bitwise_equal(results[size_t(i)], expect);
  }
}

TEST(QrSession, BatchAmortizesPlanningAcrossRepeatedShapes) {
  QrSession session(QrSession::Config{2});
  auto opt = small_opt();
  constexpr int kBatch = 12;
  std::vector<Matrix<double>> inputs;
  for (int i = 0; i < kBatch; ++i)
    inputs.push_back(random_matrix<double>(4 * 32, 2 * 32, 2000 + i));
  std::vector<ConstMatrixView<double>> views;
  for (auto& m : inputs) views.push_back(ConstMatrixView<double>(m.view()));
  (void)session.factorize_batch(views, opt);

  auto stats = session.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, kBatch - 1);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.hit_rate(), 0.9);
}

TEST(QrSession, MixedShapesInOneSession) {
  QrSession session(QrSession::Config{4});
  auto opt = small_opt();
  auto tall = random_matrix<double>(9 * 32, 2 * 32, 1);
  auto square = random_matrix<double>(4 * 32, 4 * 32, 2);
  auto f1 = session.submit(ConstMatrixView<double>(tall.view()), opt);
  auto f2 = session.submit(ConstMatrixView<double>(square.view()), opt);
  auto qr_tall = f1.get();
  auto qr_square = f2.get();
  EXPECT_LE(double(orthogonality_error<double>(qr_tall.q_thin().view())), 1e-11);
  // Solve with the square factorization to exercise apply_q on the result.
  auto b = random_matrix<double>(4 * 32, 2, 3);
  auto x = qr_square.solve(b.view());
  Matrix<double> ax(b.rows(), b.cols());
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0, square.view(), x.view(), 0.0, ax.view());
  EXPECT_LE(double(difference_norm<double>(ax.view(), b.view()) /
                   frobenius_norm<double>(b.view())),
            1e-9);
  EXPECT_EQ(session.plan_cache_stats().entries, 2u);
}

TEST(QrSession, InvalidOptionsThrowOnSubmit) {
  QrSession session(QrSession::Config{2});
  auto a = random_matrix<double>(64, 32, 4);
  Options opt;
  opt.nb = 0;  // invalid tile size: tiling the input must fail loudly
  EXPECT_THROW((void)session.submit(ConstMatrixView<double>(a.view()), opt), Error);
}

TEST(QrSession, CapAndClampAgreeOnEveryPath) {
  // Regression for the worker-cap audit: a zero cap, a negative cap, and an
  // over-pool cap must behave identically (whole pool) on submit, batch, and
  // pipeline paths — bitwise-identical results AND identical stored options,
  // so nothing downstream (e.g. q_thin's thread count) can diverge.
  QrSession session(QrSession::Config{2});
  auto a = random_matrix<double>(4 * 32, 2 * 32, 77);
  auto b = random_matrix<double>(4 * 32, 1, 78);
  const std::vector<int> caps = {0, -3, session.pool().size() + 7, 1 << 20};

  std::vector<TiledQr<double>> qrs;
  for (int cap : caps) {
    auto opt = small_opt();
    opt.threads = cap;
    qrs.push_back(session.submit(ConstMatrixView<double>(a.view()), opt).get());
  }
  for (size_t i = 1; i < qrs.size(); ++i) {
    expect_bitwise_equal(qrs[i], qrs[0]);
    // The stored per-factorization thread count is identical too (and never
    // exceeds the pool), so 0 and over-pool caps leave the same state.
    EXPECT_EQ(qrs[i].options().threads, qrs[0].options().threads) << caps[i];
    EXPECT_LE(qrs[i].options().threads, session.pool().size()) << caps[i];
  }

  std::vector<Matrix<double>> xs;
  for (int cap : caps) {
    auto opt = small_opt();
    opt.threads = cap;
    std::vector<ConstMatrixView<double>> views(3, ConstMatrixView<double>(a.view()));
    auto batch = session.factorize_batch(views, opt);
    expect_bitwise_equal(batch[2], qrs[0]);
    xs.push_back(session
                     .solve_least_squares_async(ConstMatrixView<double>(a.view()),
                                                ConstMatrixView<double>(b.view()), opt)
                     .get());
  }
  for (size_t i = 1; i < xs.size(); ++i)
    for (std::int64_t r = 0; r < xs[i].rows(); ++r)
      ASSERT_EQ(xs[i](r, 0), xs[0](r, 0)) << "pipeline cap " << caps[i];
}

TEST(QrSession, CollectBatchAggregatesMultipleFailures) {
  // Two of five inputs fail to tile: the blocking collector must surface the
  // first error's message plus the sibling count, not silently swallow the
  // second failure.
  QrSession session(QrSession::Config{2});
  auto good = random_matrix<double>(64, 32, 9);
  Matrix<double> empty(0, 0);  // tiling an empty matrix fails per input
  std::vector<ConstMatrixView<double>> views;
  views.push_back(ConstMatrixView<double>(good.view()));
  views.push_back(ConstMatrixView<double>(empty.view()));
  views.push_back(ConstMatrixView<double>(good.view()));
  views.push_back(ConstMatrixView<double>(empty.view()));
  views.push_back(ConstMatrixView<double>(good.view()));
  auto opt = small_opt();
  try {
    (void)session.factorize_batch(views, opt);
    FAIL() << "expected the batch to throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 of 5"), std::string::npos) << what;
    EXPECT_NE(what.find("non-empty"), std::string::npos)
        << "first failure's message missing: " << what;
  }
  // A single failure still rethrows the original exception verbatim.
  std::vector<ConstMatrixView<double>> one_bad;
  one_bad.push_back(ConstMatrixView<double>(good.view()));
  one_bad.push_back(ConstMatrixView<double>(empty.view()));
  try {
    (void)session.factorize_batch(one_bad, opt);
    FAIL() << "expected the batch to throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("of 2 inputs failed"), std::string::npos) << e.what();
  }
}

TEST(QrSession, SubmitAutoValidatesOptionsUpFront) {
  QrSession session(QrSession::Config{2});
  auto a = random_matrix<double>(64, 32, 10);
  QrSession::AutoOptions bad_nb;
  bad_nb.nb = 0;  // the PR-1 SIGFPE shape: must be a descriptive Error now
  try {
    (void)session.submit_auto(ConstMatrixView<double>(a.view()), bad_nb);
    FAIL() << "expected submit_auto to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("AutoOptions::nb"), std::string::npos) << e.what();
  }
  QrSession::AutoOptions bad_ib;
  bad_ib.ib = -4;
  try {
    (void)session.factorize_auto(ConstMatrixView<double>(a.view()), bad_ib);
    FAIL() << "expected factorize_auto to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("AutoOptions::ib"), std::string::npos) << e.what();
  }
}

TEST(QrSession, DefaultedTreeRoutesBatchAndPipelineThroughTuner) {
  // Leaving Options::tree disengaged on the batch/pipeline paths must give
  // exactly the tree the tuner picks for that shape — bitwise identical to
  // pinning the choice explicitly.
  QrSession session(QrSession::Config{2});
  auto a = random_matrix<double>(6 * 32, 2 * 32, 55);
  Options auto_opt;  // tree disengaged
  auto_opt.nb = 32;
  auto_opt.ib = 16;
  std::vector<ConstMatrixView<double>> views(2, ConstMatrixView<double>(a.view()));
  auto auto_batch = session.factorize_batch(views, auto_opt);

  Options pinned = auto_opt;
  pinned.tree = session.choose_tree(6, 2);
  auto pinned_batch = session.factorize_batch(views, pinned);
  expect_bitwise_equal(auto_batch[0], pinned_batch[0]);
  EXPECT_EQ(auto_batch[0].options().tree, pinned.tree);

  auto b = random_matrix<double>(6 * 32, 1, 56);
  auto x_auto = session
                    .solve_least_squares_async(ConstMatrixView<double>(a.view()),
                                               ConstMatrixView<double>(b.view()), auto_opt)
                    .get();
  auto x_pinned = session
                      .solve_least_squares_async(ConstMatrixView<double>(a.view()),
                                                 ConstMatrixView<double>(b.view()), pinned)
                      .get();
  for (std::int64_t r = 0; r < x_auto.rows(); ++r) ASSERT_EQ(x_auto(r, 0), x_pinned(r, 0));
}

TEST(QrSession, StreamQoSKnobsDoNotChangeResults) {
  // The serving-QoS knobs (backpressure, watermark, deadline) only decide
  // WHEN requests graft, never what they compute: a fully-knobbed stream
  // must be bitwise identical to a default one on the same inputs.
  auto a = random_matrix<double>(4 * 16 - 1, 2 * 16 - 2, 77);
  QrSession::StreamOptions plain;
  plain.nb = 16;
  plain.ib = 8;
  plain.tree = trees::TreeConfig{};
  QrSession::StreamOptions qos = plain;
  qos.max_queued = 2;
  qos.overflow = QrSession::StreamOverflow::Block;
  qos.low_watermark = 1;
  qos.flush_deadline = std::chrono::milliseconds(1);

  QrSession session(QrSession::Config{2});
  std::vector<Matrix<double>> results;
  for (const auto& sopt : {plain, qos}) {
    auto stream = session.stream<double>(sopt);
    std::vector<std::future<TiledQr<double>>> futs;
    for (int i = 0; i < 4; ++i) futs.push_back(stream.push(ConstMatrixView<double>(a.view())));
    stream.close();
    for (auto& f : futs) results.push_back(f.get().factors().to_dense());
  }
  for (size_t i = 1; i < results.size(); ++i)
    for (std::int64_t j = 0; j < results[0].cols(); ++j)
      for (std::int64_t r = 0; r < results[0].rows(); ++r)
        ASSERT_EQ(results[i](r, j), results[0](r, j)) << "request " << i;
}

TEST(QrSession, EntryPointsKeepTheirSubmissionShape) {
  // The performance invariant of the one request path: each one-shot entry
  // point is a fixed number of pool submissions. A submit is one component,
  // a homogeneous batch of 4 one fused component (one fused-plan miss), and
  // a solve two: factor, then apply.
  QrSession session(QrSession::Config{2});
  auto opt = small_opt();
  auto a = random_matrix<double>(4 * 32, 2 * 32, 31);
  auto b = random_matrix<double>(4 * 32, 1, 32);
  // A fused batch's futures resolve in their parts' last tasks, before the
  // pool retires the component, so let the retirement count catch up (and
  // give a stray extra component time to show) before reading it.
  auto completed_once = [&](long expected) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (session.pool_stats().graphs_completed < expected &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return session.pool_stats().graphs_completed;
  };

  (void)session.submit(ConstMatrixView<double>(a.view()), opt).get();
  EXPECT_EQ(completed_once(1), 1) << "submit";

  std::vector<ConstMatrixView<double>> views(4, ConstMatrixView<double>(a.view()));
  for (auto& f : session.submit_batch(views, opt)) (void)f.get();
  EXPECT_EQ(completed_once(2), 2) << "homogeneous submit_batch of 4";
  EXPECT_EQ(session.plan_cache_stats().fused_misses, 1);

  (void)session
      .solve_least_squares_async(ConstMatrixView<double>(a.view()),
                                 ConstMatrixView<double>(b.view()), opt)
      .get();
  EXPECT_EQ(completed_once(4), 4) << "solve_least_squares_async(a, b, opt)";
}

TEST(QrSession, SessionOutlivesNothingItHandsOut) {
  // Futures resolved before the session dies; results stay valid after.
  std::vector<TiledQr<double>> keep;
  auto a = random_matrix<double>(4 * 32, 2 * 32, 5);
  {
    QrSession session(QrSession::Config{2});
    auto opt = small_opt();
    keep.push_back(session.submit(ConstMatrixView<double>(a.view()), opt).get());
  }
  // The TiledQr owns (shared) plan + tiles; usable after the session is gone.
  EXPECT_LE(double(orthogonality_error<double>(keep[0].q_thin().view())), 1e-11);
}

}  // namespace
}  // namespace tiledqr
