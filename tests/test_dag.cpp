// Tests for the task-graph builder: structure, dependency conformance with
// paper §2.1, the total-weight invariant, and error handling.
#include <gtest/gtest.h>

#include <set>

#include "dag/task_graph.hpp"
#include "trees/generators.hpp"

namespace tiledqr {
namespace {

using dag::build_task_graph;
using kernels::KernelKind;
using trees::EliminationList;
using trees::KernelFamily;

long expected_weight(int p, int q) { return 6L * p * q * q - 2L * q * q * q; }

TEST(TaskGraph, TotalWeightInvariantAcrossAlgorithms) {
  // Paper §2.2: any valid elimination list totals 6pq^2 - 2q^3 (p >= q),
  // with TT and TS kernels alike.
  for (auto [p, q] : std::vector<std::pair<int, int>>{{3, 2}, {8, 3}, {15, 6}, {10, 10}}) {
    std::vector<EliminationList> lists{
        trees::flat_tree(p, q, KernelFamily::TT), trees::flat_tree(p, q, KernelFamily::TS),
        trees::binary_tree(p, q),                 trees::fibonacci_tree(p, q),
        trees::greedy_tree(p, q),                 trees::plasma_tree(p, q, 3, KernelFamily::TS),
    };
    for (const auto& list : lists)
      EXPECT_EQ(build_task_graph(p, q, list).total_weight(), expected_weight(p, q))
          << p << "x" << q;
  }
}

TEST(TaskGraph, EdgesRespectEmissionOrder) {
  auto g = build_task_graph(12, 5, trees::greedy_tree(12, 5));
  for (size_t t = 0; t < g.tasks.size(); ++t) {
    EXPECT_LE(g.tasks[t].npred, std::int32_t(t));  // preds must come earlier
    for (auto s : g.tasks[t].succ) EXPECT_GT(size_t(s), t);  // topological order
  }
  // npred totals must equal edge count.
  size_t npred_sum = 0;
  for (const auto& t : g.tasks) npred_sum += size_t(t.npred);
  EXPECT_EQ(npred_sum, g.edge_count());
}

TEST(TaskGraph, ZeroTaskMappingComplete) {
  const int p = 9, q = 4;
  auto g = build_task_graph(p, q, trees::fibonacci_tree(p, q));
  for (int i = 0; i < p; ++i)
    for (int k = 0; k < q; ++k) {
      auto id = g.zero_task_index(i, k);
      if (i > k) {
        ASSERT_GE(id, 0) << i << "," << k;
        auto kind = g.tasks[size_t(id)].kind;
        EXPECT_TRUE(kind == KernelKind::TTQRT || kind == KernelKind::TSQRT);
        EXPECT_EQ(g.tasks[size_t(id)].i, i);
        EXPECT_EQ(g.tasks[size_t(id)].k, k);
      } else {
        EXPECT_EQ(id, -1);
      }
    }
}

TEST(TaskGraph, SingleTtEliminationMatchesPaperDependencies) {
  // Algorithm 3 on a 2x2 grid: GEQRT x2, UNMQR x2, TTQRT, TTMQR (+ final
  // diagonal GEQRT). The paper's dependency list must hold, and no false
  // UNMQR -> TTQRT edge may exist (the NODEP fix).
  EliminationList list{{1, 0, 0, false}};
  auto g = build_task_graph(2, 2, list);
  auto find = [&](KernelKind kind, int i) -> const dag::Task* {
    for (const auto& t : g.tasks)
      if (t.kind == kind && t.i == i) return &t;
    return nullptr;
  };
  const auto* geqrt1 = find(KernelKind::GEQRT, 1);
  const auto* unmqr1 = find(KernelKind::UNMQR, 1);
  const auto* ttqrt = find(KernelKind::TTQRT, 1);
  ASSERT_TRUE(geqrt1 && unmqr1 && ttqrt);
  auto has_succ = [&](const dag::Task* a, const dag::Task* b) {
    long ib = b - g.tasks.data();
    for (auto s : a->succ)
      if (s == ib) return true;
    return false;
  };
  EXPECT_TRUE(has_succ(geqrt1, ttqrt));   // GEQRT(i,k) < TTQRT
  EXPECT_TRUE(has_succ(geqrt1, unmqr1));  // GEQRT(i,k) < UNMQR(i,k,j)
  EXPECT_FALSE(has_succ(unmqr1, ttqrt));  // no false WAR edge on the V tile
}

TEST(TaskGraph, TsEliminationEmitsNoVictimGeqrt) {
  EliminationList list{{1, 0, 0, true}};
  auto g = build_task_graph(2, 1, list);
  int geqrt_count = 0;
  for (const auto& t : g.tasks)
    if (t.kind == KernelKind::GEQRT) ++geqrt_count;
  EXPECT_EQ(geqrt_count, 1);  // only the pivot tile is triangularized
}

TEST(TaskGraph, SquareMatrixGetsFinalDiagonalGeqrt) {
  const int n = 4;
  auto g = build_task_graph(n, n, trees::greedy_tree(n, n));
  int diag_geqrt = 0;
  for (const auto& t : g.tasks)
    if (t.kind == KernelKind::GEQRT && t.i == n - 1 && t.k == n - 1) ++diag_geqrt;
  EXPECT_EQ(diag_geqrt, 1);
}

TEST(TaskGraph, InvalidListsThrowWithDiagnostics) {
  EliminationList missing{{1, 0, 0, false}};
  EXPECT_THROW((void)build_task_graph(3, 1, missing), Error);
  EliminationList ts_on_triangle{{3, 2, 0, false}, {2, 0, 0, true}, {1, 0, 0, false}};
  EXPECT_THROW((void)build_task_graph(4, 1, ts_on_triangle), Error);
}

TEST(TaskGraph, TaskCountsForFlatTree) {
  // FlatTree p x q (TT): per column k, (p - k) GEQRTs, (p - k)(q - k - 1)
  // UNMQRs, (p - k - 1) TTQRTs and (p - k - 1)(q - k - 1) TTMQRs.
  const int p = 7, q = 3;
  auto g = build_task_graph(p, q, trees::flat_tree(p, q, KernelFamily::TT));
  std::array<int, 6> counts{};
  for (const auto& t : g.tasks) counts[size_t(t.kind)]++;
  int geqrt = 0, unmqr = 0, ttqrt = 0, ttmqr = 0;
  for (int k = 0; k < q; ++k) {
    geqrt += p - k;
    unmqr += (p - k) * (q - k - 1);
    ttqrt += p - k - 1;
    ttmqr += (p - k - 1) * (q - k - 1);
  }
  EXPECT_EQ(counts[size_t(KernelKind::GEQRT)], geqrt);
  EXPECT_EQ(counts[size_t(KernelKind::UNMQR)], unmqr);
  EXPECT_EQ(counts[size_t(KernelKind::TTQRT)], ttqrt);
  EXPECT_EQ(counts[size_t(KernelKind::TTMQR)], ttmqr);
  EXPECT_EQ(counts[size_t(KernelKind::TSQRT)], 0);
  EXPECT_EQ(counts[size_t(KernelKind::TSMQR)], 0);
}

TEST(TaskGraph, InferDependenciesReproducesBuilderEdges) {
  // The analyzer rebuilds a DAG from a trace that records only kinds and
  // tile coordinates; infer_dependencies must reproduce the builder's edges
  // exactly for any tree shape, or the offline critical path drifts from the
  // in-process one.
  for (auto [p, q] : std::vector<std::pair<int, int>>{{4, 2}, {8, 3}, {6, 6}}) {
    for (const auto& list : {trees::greedy_tree(p, q), trees::flat_tree(p, q, KernelFamily::TS),
                             trees::plasma_tree(p, q, 2, KernelFamily::TT)}) {
      auto g = build_task_graph(p, q, list);
      std::vector<dag::Task> stripped;
      for (const auto& t : g.tasks)
        stripped.push_back(dag::Task{t.kind, t.i, t.piv, t.k, t.j, 0, {}});
      dag::infer_dependencies(p, q, stripped);
      ASSERT_EQ(stripped.size(), g.tasks.size());
      for (size_t t = 0; t < g.tasks.size(); ++t) {
        EXPECT_EQ(stripped[t].npred, g.tasks[t].npred) << p << "x" << q << " task " << t;
        EXPECT_EQ(stripped[t].succ, g.tasks[t].succ) << p << "x" << q << " task " << t;
      }
    }
  }
}

TEST(TaskGraph, InferDependenciesRejectsOutOfGridPivotsAndColumns) {
  // A trace slice carries arbitrary coordinates. The pivot row of the TS/TT
  // kinds and the updated column of the update kinds index the dependency
  // tracker just like (i, k), so an out-of-grid one is an Error, not an
  // out-of-bounds write; kinds that do not use them ignore them.
  const int p = 3, q = 2;
  auto infer = [&](KernelKind kind, int piv, int j) {
    std::vector<dag::Task> tasks{dag::Task{kind, 1, piv, 0, j, 0, {}}};
    dag::infer_dependencies(p, q, tasks);
  };
  for (const KernelKind kind : {KernelKind::TSQRT, KernelKind::TSMQR, KernelKind::TTQRT,
                                KernelKind::TTMQR, KernelKind::TSLQT, KernelKind::TTMLQ})
    for (const int piv : {-7, -1, p})
      EXPECT_THROW(infer(kind, piv, 1), Error) << kernels::kernel_name(kind) << " piv " << piv;
  for (const KernelKind kind :
       {KernelKind::UNMQR, KernelKind::TSMQR, KernelKind::TTMQR, KernelKind::UNMLQ})
    for (const int j : {-1, q, 1 << 30})
      EXPECT_THROW(infer(kind, 0, j), Error) << kernels::kernel_name(kind) << " j " << j;
  EXPECT_NO_THROW(infer(KernelKind::GEQRT, -7, -7));
  EXPECT_NO_THROW(infer(KernelKind::UNMQR, -7, 1));
  EXPECT_NO_THROW(infer(KernelKind::TSQRT, 0, -7));
  EXPECT_NO_THROW(infer(KernelKind::TTMLQ, 2, 1));
}

TEST(TaskGraph, Lemma1TransformPreservesCriticalPathLength) {
  // Build a list with reverse eliminations, remove them, and check the
  // execution time is unchanged (Lemma 1).
  EliminationList rev{{1, 3, 0, false}, {2, 3, 0, false}, {3, 0, 0, false}};
  ASSERT_TRUE(trees::validate_elimination_list(4, 1, rev).ok);
  auto fwd = trees::remove_reverse_eliminations(4, 1, rev);
  auto g1 = build_task_graph(4, 1, rev);
  auto g2 = build_task_graph(4, 1, fwd);
  // Weighted longest paths agree (computed in test_critical_path too; here
  // just compare total weights and task counts as a structural check).
  EXPECT_EQ(g1.total_weight(), g2.total_weight());
  EXPECT_EQ(g1.tasks.size(), g2.tasks.size());
}

}  // namespace
}  // namespace tiledqr
