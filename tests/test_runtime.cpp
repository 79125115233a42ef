// Tests for the dataflow executor: ordering guarantees, thread scaling,
// determinism, and failure injection.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>

#include "runtime/executor.hpp"
#include "runtime/thread_pool.hpp"
#include "trees/generators.hpp"

namespace tiledqr {
namespace {

dag::TaskGraph small_graph() {
  return dag::build_task_graph(10, 4, trees::greedy_tree(10, 4));
}

/// A thread count above the default pool: execute() runs it on a pool of
/// exactly that many workers built for the call, on every host.
int oversubscribed() { return runtime::ThreadPool::default_pool().size() + 1; }

TEST(Executor, RunsEveryTaskExactlyOnce) {
  auto g = small_graph();
  for (int threads : {1, 2, 4, 8, oversubscribed()}) {
    std::vector<std::atomic<int>> count(g.tasks.size());
    for (auto& c : count) c.store(0);
    runtime::execute(
        g, [&](std::int32_t t) { count[size_t(t)].fetch_add(1); }, threads);
    for (size_t t = 0; t < g.tasks.size(); ++t)
      EXPECT_EQ(count[t].load(), 1) << "task " << t << " threads " << threads;
  }
}

TEST(Executor, RespectsDependenciesUnderConcurrency) {
  auto g = small_graph();
  std::vector<std::atomic<bool>> done(g.tasks.size());
  for (auto& d : done) d.store(false);
  std::atomic<bool> violation{false};
  runtime::execute(
      g,
      [&](std::int32_t t) {
        // All predecessors must have completed. Scan via successor lists:
        // cheaper to check when marking done, so check here that no
        // successor has run yet.
        for (auto s : g.tasks[size_t(t)].succ)
          if (done[size_t(s)].load()) violation.store(true);
        done[size_t(t)].store(true);
      },
      8);
  EXPECT_FALSE(violation.load());
}

TEST(Executor, SequentialEmissionPriorityIsEmissionOrder) {
  auto g = small_graph();
  std::vector<std::int32_t> order;
  runtime::execute(
      g, [&](std::int32_t t) { order.push_back(t); }, 1,
      runtime::SchedulePriority::EmissionOrder);
  // Emission order is itself topological, and emission-priority makes the
  // 1-thread schedule exactly that order.
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], std::int32_t(i));
}

TEST(Executor, CriticalPathPriorityIsTopological) {
  auto g = small_graph();
  std::vector<std::int32_t> order;
  runtime::execute(
      g, [&](std::int32_t t) { order.push_back(t); }, 1,
      runtime::SchedulePriority::CriticalPath);
  std::vector<bool> seen(g.tasks.size(), false);
  for (auto t : order) {
    for (auto s : g.tasks[size_t(t)].succ) EXPECT_FALSE(seen[size_t(s)]);
    seen[size_t(t)] = true;
  }
  EXPECT_EQ(order.size(), g.tasks.size());
}

TEST(Executor, DownwardRanksAreConsistent) {
  auto g = small_graph();
  auto rank = runtime::downward_ranks(g);
  long cp = 0;
  for (size_t t = 0; t < g.tasks.size(); ++t) {
    cp = std::max(cp, rank[t]);
    for (auto s : g.tasks[t].succ)
      EXPECT_GE(rank[t], rank[size_t(s)] + g.tasks[t].weight());
  }
  // The max downward rank is the critical path length.
  EXPECT_GT(cp, 0);
}

TEST(Executor, PropagatesExceptions) {
  auto g = small_graph();
  for (int threads : {1, 4, oversubscribed()}) {
    EXPECT_THROW(
        runtime::execute(
            g,
            [&](std::int32_t t) {
              if (t == 5) throw Error("injected failure");
            },
            threads),
        Error)
        << threads;
  }
}

TEST(Executor, SurvivesRepeatedUse) {
  auto g = small_graph();
  for (int round = 0; round < 5; ++round) {
    std::atomic<long> sum{0};
    runtime::execute(
        g, [&](std::int32_t t) { sum.fetch_add(t); }, 4);
    long expect = long(g.tasks.size()) * long(g.tasks.size() - 1) / 2;
    EXPECT_EQ(sum.load(), expect);
  }
}

TEST(Executor, EmptyGraphIsNoOp) {
  dag::TaskGraph g;
  g.p = g.q = 0;
  int calls = 0;
  runtime::execute(
      g, [&](std::int32_t) { ++calls; }, 4);
  EXPECT_EQ(calls, 0);
}

TEST(Executor, InvalidThreadCountThrows) {
  auto g = small_graph();
  EXPECT_THROW(runtime::execute(g, [](std::int32_t) {}, 0), Error);
}

}  // namespace
}  // namespace tiledqr
