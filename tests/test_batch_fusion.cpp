// Tests for multi-matrix DAG fusion: TaskGraph::append_offset / FusedPlan
// structure, cached scheduling ranks, the fused factorize_batch path
// (bitwise identity against the sequential per-matrix replay +
// paper-tolerance residuals over a (p, q, nb, tree, threads, batch) grid),
// heterogeneous batches, fused-plan caching, and error handling.
//
// TILEDQR_STRESS=1 (the ctest `stress` label) widens the grid; the default
// run stays tier-1 quick.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/env.hpp"
#include "core/qr_session.hpp"
#include "matrix/generate.hpp"
#include "matrix/norms.hpp"
#include "runtime/executor.hpp"
#include "trees/generators.hpp"

namespace tiledqr {
namespace {

using core::Options;
using core::QrSession;
using core::TiledQr;
using trees::KernelFamily;
using trees::TreeConfig;
using trees::TreeKind;

// ---------------------------------------------------------------- helpers --

/// Sequential per-matrix replay (runtime::execute on one thread): the
/// reference the fused results must match bit for bit.
Matrix<double> replay_sequential(const Matrix<double>& a, const Options& opt) {
  auto tiles = TileMatrix<double>::from_dense(a.view(), opt.nb);
  auto plan = core::make_plan(tiles.mt(), tiles.nt(), *opt.tree);
  core::TStore<double> ts(tiles.mt(), tiles.nt(), opt.ib, tiles.nb());
  core::TStore<double> t2s(tiles.mt(), tiles.nt(), opt.ib, tiles.nb());
  runtime::execute(
      plan.graph,
      [&](std::int32_t idx) {
        core::run_task_kernels(plan.graph.tasks[size_t(idx)], tiles, ts, t2s, opt.ib);
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

/// ||Q^T Q - I|| and ||A - Q R|| / ||A|| at paper tolerances.
void expect_residuals(const TiledQr<double>& qr, const Matrix<double>& a,
                      const std::string& what) {
  auto q = qr.q_thin();
  EXPECT_LE(double(orthogonality_error<double>(q.view())), 1e-11) << what;
  auto r = qr.r_factor();
  Matrix<double> qrprod(a.rows(), a.cols());
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0, q.view(), r.view(), 0.0, qrprod.view());
  EXPECT_LE(double(difference_norm<double>(qrprod.view(), a.view()) /
                   frobenius_norm<double>(a.view())),
            1e-12)
      << what;
}

struct SweepCase {
  int p, q, nb;
  TreeConfig tree;
  int threads;
  int batch;
};

std::vector<SweepCase> sweep_cases() {
  const TreeConfig greedy_tt{TreeKind::Greedy, KernelFamily::TT, 1, 0};
  const TreeConfig flat_ts{TreeKind::FlatTree, KernelFamily::TS, 1, 0};
  const TreeConfig fib_tt{TreeKind::Fibonacci, KernelFamily::TT, 1, 0};
  const TreeConfig plasma2{TreeKind::PlasmaTree, KernelFamily::TT, 2, 0};
  const TreeConfig asap{TreeKind::Asap, KernelFamily::TT, 1, 0};
  std::vector<SweepCase> cases = {
      {1, 1, 8, greedy_tt, 2, 3},   // single-tile DAGs: fusion of trivial graphs
      {4, 2, 8, greedy_tt, 4, 5},   // tall grid, whole-pool interleave
      {5, 3, 8, flat_ts, 2, 4},     // TS kernel family
      {3, 3, 16, fib_tt, 4, 4},     // square grid, larger tiles
      {6, 2, 8, plasma2, 2, 6},     // PlasmaTree with domains
      {4, 4, 8, asap, 1, 4},        // dynamic tree on a single-worker pool
  };
  if (env_flag("TILEDQR_STRESS")) {
    const TreeConfig grasap{TreeKind::Grasap, KernelFamily::TT, 1, 2};
    cases.push_back({8, 4, 16, greedy_tt, 4, 16});
    cases.push_back({7, 3, 8, grasap, 4, 9});
    cases.push_back({10, 2, 8, fib_tt, 8, 12});
    cases.push_back({5, 5, 8, flat_ts, 8, 8});
  }
  return cases;
}

// ------------------------------------------------------ dag-level fusion --

TEST(TaskGraphFusion, AppendOffsetBuildsDisjointUnion) {
  auto g1 = dag::build_task_graph(4, 2, trees::greedy_tree(4, 2));
  auto g2 = dag::build_task_graph(3, 3, trees::greedy_tree(3, 3));
  dag::TaskGraph fused;
  auto off1 = fused.append_offset(g1);
  auto off2 = fused.append_offset(g2);
  EXPECT_EQ(off1, 0);
  EXPECT_EQ(off2, std::int32_t(g1.tasks.size()));
  ASSERT_EQ(fused.tasks.size(), g1.tasks.size() + g2.tasks.size());
  EXPECT_EQ(fused.edge_count(), g1.edge_count() + g2.edge_count());
  EXPECT_EQ(fused.total_weight(), g1.total_weight() + g2.total_weight());
  // Component tasks are verbatim copies with successor indices shifted into
  // their own range; npred is untouched.
  for (size_t t = 0; t < g1.tasks.size(); ++t) {
    EXPECT_EQ(fused.tasks[t].npred, g1.tasks[t].npred);
    for (size_t s = 0; s < g1.tasks[t].succ.size(); ++s)
      EXPECT_EQ(fused.tasks[t].succ[s], g1.tasks[t].succ[s]);
  }
  for (size_t t = 0; t < g2.tasks.size(); ++t) {
    const auto& ft = fused.tasks[size_t(off2) + t];
    EXPECT_EQ(ft.npred, g2.tasks[t].npred);
    ASSERT_EQ(ft.succ.size(), g2.tasks[t].succ.size());
    for (size_t s = 0; s < g2.tasks[t].succ.size(); ++s) {
      EXPECT_EQ(ft.succ[s], g2.tasks[t].succ[s] + off2);
      EXPECT_GE(ft.succ[s], off2);  // no cross-component edges
    }
  }
}

TEST(TaskGraphFusion, FusedRanksEqualConcatenatedPlanRanks) {
  // Downward ranks never cross independent components, so the fused graph's
  // rank vector must equal the concatenation of the per-plan cached ranks.
  const TreeConfig greedy{TreeKind::Greedy, KernelFamily::TT, 1, 0};
  const TreeConfig flat{TreeKind::FlatTree, KernelFamily::TS, 1, 0};
  auto p1 = std::make_shared<const core::Plan>(core::make_plan(5, 2, greedy));
  auto p2 = std::make_shared<const core::Plan>(core::make_plan(3, 3, flat));
  std::vector<std::shared_ptr<const core::Plan>> plans = {p1, p2, p1};
  auto fused = core::make_fused_plan(plans);
  ASSERT_EQ(fused.parts.size(), 3u);
  EXPECT_EQ(fused.parts[0].begin, 0);
  EXPECT_EQ(fused.parts[2].end, std::int32_t(fused.graph.tasks.size()));
  auto recomputed = runtime::downward_ranks(fused.graph);
  ASSERT_EQ(fused.ranks.size(), recomputed.size());
  for (size_t t = 0; t < recomputed.size(); ++t) EXPECT_EQ(fused.ranks[t], recomputed[t]);
  // part_of maps every boundary correctly.
  for (size_t i = 0; i < fused.parts.size(); ++i) {
    EXPECT_EQ(fused.part_of(fused.parts[i].begin), int(i));
    EXPECT_EQ(fused.part_of(fused.parts[i].end - 1), int(i));
  }
}

TEST(TaskGraphFusion, PlanRanksMatchExecutorRanks) {
  // The cached ranks in a Plan are exactly what the executor would compute.
  auto plan = core::make_plan(6, 3, TreeConfig{});
  auto fresh = runtime::downward_ranks(plan.graph);
  ASSERT_EQ(plan.ranks.size(), fresh.size());
  for (size_t t = 0; t < fresh.size(); ++t) EXPECT_EQ(plan.ranks[t], fresh[t]);
}

// ------------------------------------------------- fused batch execution --

TEST(BatchFusion, SweepMatchesSequentialReplayBitwise) {
  for (const auto& c : sweep_cases()) {
    const std::string what = "p=" + std::to_string(c.p) + " q=" + std::to_string(c.q) +
                             " nb=" + std::to_string(c.nb) +
                             " tree=" + std::to_string(int(c.tree.kind)) +
                             " threads=" + std::to_string(c.threads) +
                             " batch=" + std::to_string(c.batch);
    Options opt;
    opt.tree = c.tree;
    opt.nb = c.nb;
    opt.ib = c.nb / 2;
    // Ragged on purpose (padding path), but keep m >= n for q_thin.
    const std::int64_t m = std::int64_t(c.p) * c.nb - (c.p > 1 ? 3 : 0);
    const std::int64_t n = std::min(std::int64_t(c.q) * c.nb - (c.q > 1 ? 2 : 1), m);

    QrSession session(QrSession::Config{c.threads});
    std::vector<Matrix<double>> inputs;
    std::vector<ConstMatrixView<double>> views;
    for (int i = 0; i < c.batch; ++i)
      inputs.push_back(random_matrix<double>(m, n, 100 * unsigned(c.p) + unsigned(i)));
    for (auto& a : inputs) views.push_back(ConstMatrixView<double>(a.view()));

    auto results = session.factorize_batch(views, opt);
    ASSERT_EQ(results.size(), size_t(c.batch)) << what;
    for (int i = 0; i < c.batch; ++i) {
      auto want = replay_sequential(inputs[size_t(i)], opt);
      expect_bitwise(results[size_t(i)].factors().to_dense(), want,
                     what + " matrix " + std::to_string(i));
    }
    // Residuals at paper tolerances on a couple of representatives.
    expect_residuals(results.front(), inputs.front(), what);
    expect_residuals(results.back(), inputs.back(), what);
  }
}

TEST(BatchFusion, HeterogeneousShapesFuseAdHoc) {
  QrSession session(QrSession::Config{4});
  Options opt;
  opt.tree = TreeConfig{};  // pin Greedy: a disengaged tree would autotune
  opt.nb = 16;
  opt.ib = 8;
  std::vector<Matrix<double>> inputs;
  inputs.push_back(random_matrix<double>(5 * 16, 2 * 16, 1));
  inputs.push_back(random_matrix<double>(2 * 16, 2 * 16, 2));
  inputs.push_back(random_matrix<double>(7 * 16 - 5, 16 - 1, 3));
  inputs.push_back(random_matrix<double>(5 * 16, 2 * 16, 4));  // same shape as #0
  std::vector<ConstMatrixView<double>> views;
  for (auto& a : inputs) views.push_back(ConstMatrixView<double>(a.view()));

  auto results = session.factorize_batch(views, opt);
  ASSERT_EQ(results.size(), 4u);
  for (size_t i = 0; i < results.size(); ++i)
    expect_bitwise(results[i].factors().to_dense(), replay_sequential(inputs[i], opt),
                   "heterogeneous matrix " + std::to_string(i));
  // Mixed shapes fuse ad hoc: no fused cache entry is created.
  auto stats = session.plan_cache_stats();
  EXPECT_EQ(stats.fused_entries, 0u);
  EXPECT_EQ(stats.entries, 3u);  // three distinct base shapes
}

TEST(BatchFusion, HomogeneousBatchCachesTheFusedPlan) {
  QrSession session(QrSession::Config{2});
  Options opt;
  opt.tree = TreeConfig{};  // pin Greedy: a disengaged tree would autotune
  opt.nb = 16;
  opt.ib = 8;
  constexpr int kBatch = 6;
  std::vector<Matrix<double>> inputs;
  for (int i = 0; i < kBatch; ++i) inputs.push_back(random_matrix<double>(64, 32, 50 + i));
  std::vector<ConstMatrixView<double>> views;
  for (auto& a : inputs) views.push_back(ConstMatrixView<double>(a.view()));

  (void)session.factorize_batch(views, opt);
  auto stats1 = session.plan_cache_stats();
  EXPECT_EQ(stats1.fused_misses, 1);
  EXPECT_EQ(stats1.fused_hits, 0);
  EXPECT_EQ(stats1.fused_entries, 1u);
  EXPECT_EQ(stats1.entries, 1u);  // base-plan accounting untouched by fusion
  EXPECT_EQ(stats1.misses, 1);
  EXPECT_GT(stats1.bytes, 0u);

  (void)session.factorize_batch(views, opt);
  auto stats2 = session.plan_cache_stats();
  EXPECT_EQ(stats2.fused_misses, 1);
  EXPECT_EQ(stats2.fused_hits, 1);
  EXPECT_EQ(stats2.fused_entries, 1u);
}

TEST(BatchFusion, FuturesResolveIndependently) {
  QrSession session(QrSession::Config{4});
  Options opt;
  opt.tree = TreeConfig{};  // pin Greedy: a disengaged tree would autotune
  opt.nb = 16;
  opt.ib = 8;
  constexpr int kBatch = 8;
  std::vector<Matrix<double>> inputs;
  for (int i = 0; i < kBatch; ++i) inputs.push_back(random_matrix<double>(96, 32, 900 + i));
  std::vector<ConstMatrixView<double>> views;
  for (auto& a : inputs) views.push_back(ConstMatrixView<double>(a.view()));

  auto futures = session.submit_batch(views, opt);
  ASSERT_EQ(futures.size(), size_t(kBatch));
  // Draining in reverse exercises the per-subgraph sentinels (no single
  // batch barrier): every future must resolve on its own.
  for (int i = kBatch - 1; i >= 0; --i) {
    auto qr = futures[size_t(i)].get();
    expect_bitwise(qr.factors().to_dense(), replay_sequential(inputs[size_t(i)], opt),
                   "future " + std::to_string(i));
  }
}

TEST(BatchFusion, EmptyBatchIsANoOp) {
  QrSession session(QrSession::Config{2});
  Options opt;
  opt.nb = 16;
  std::vector<ConstMatrixView<double>> none;
  auto results = session.factorize_batch(none, opt);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(session.pool_stats().graphs_completed, 0);
}

TEST(BatchFusion, InvalidOptionsFailEveryFutureWithoutPoisoningTheSession) {
  QrSession session(QrSession::Config{2});
  auto a = random_matrix<double>(64, 32, 5);
  std::vector<ConstMatrixView<double>> views(3, ConstMatrixView<double>(a.view()));
  Options bad;
  bad.nb = 0;  // tiling must fail loudly, per input
  auto futures = session.submit_batch(views, bad);
  ASSERT_EQ(futures.size(), 3u);
  for (auto& f : futures) EXPECT_THROW((void)f.get(), Error);
  // The session keeps serving after a failed batch.
  Options good;
  good.nb = 16;
  good.ib = 8;
  auto results = session.factorize_batch(views, good);
  EXPECT_EQ(results.size(), 3u);
}

TEST(BatchFusion, BatchOfOneSkipsFusion) {
  QrSession session(QrSession::Config{2});
  Options opt;
  opt.tree = TreeConfig{};  // pin Greedy: a disengaged tree would autotune
  opt.nb = 16;
  opt.ib = 8;
  auto a = random_matrix<double>(80, 32, 77);
  std::vector<ConstMatrixView<double>> views{ConstMatrixView<double>(a.view())};
  auto results = session.factorize_batch(views, opt);
  ASSERT_EQ(results.size(), 1u);
  expect_bitwise(results[0].factors().to_dense(), replay_sequential(a, opt), "batch of one");
  auto stats = session.plan_cache_stats();
  EXPECT_EQ(stats.fused_entries, 0u);  // no single-part fusion cached
  EXPECT_EQ(stats.fused_misses, 0);
}

}  // namespace
}  // namespace tiledqr
