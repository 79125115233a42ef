// Tests for the persistent worker pool: reuse across DAGs, work stealing,
// worker-set capping, bitwise determinism of factorizations across thread
// counts, re-entrant run(), and exception propagation through every
// execution path (sequential, per-call pool above the default size,
// persistent pool).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "common/env.hpp"
#include "core/qr_session.hpp"
#include "core/tiled_qr.hpp"
#include "matrix/generate.hpp"
#include "runtime/thread_pool.hpp"
#include "trees/generators.hpp"

namespace tiledqr {
namespace {

using runtime::SchedulePriority;
using runtime::ThreadPool;

dag::TaskGraph qr_graph(int p, int q) {
  return dag::build_task_graph(p, q, trees::greedy_tree(p, q));
}

/// A single source fanning out to `width` sinks — the widest possible DAG;
/// stresses the initial distribution and stealing.
dag::TaskGraph fanout_graph(int width) {
  dag::TaskGraph g;
  g.p = width;
  g.q = 1;
  g.tasks.push_back(dag::Task{kernels::KernelKind::GEQRT, 0, -1, 0, -1, 0, {}});
  for (int i = 0; i < width; ++i) {
    g.tasks.push_back(dag::Task{kernels::KernelKind::UNMQR, i, -1, 0, 0, 1, {}});
    g.tasks[0].succ.push_back(std::int32_t(i + 1));
  }
  return g;
}

/// A single free-standing task; the smallest submission.
dag::TaskGraph one_task_graph() {
  dag::TaskGraph g;
  g.p = 1;
  g.q = 1;
  g.tasks.push_back(dag::Task{kernels::KernelKind::GEQRT, 0, -1, 0, -1, 0, {}});
  return g;
}

TEST(ThreadPool, ReusedAcrossManyGraphs) {
  ThreadPool pool(4);
  auto g = qr_graph(8, 4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<long> sum{0};
    pool.run(g, [&](std::int32_t t) { sum.fetch_add(t); });
    EXPECT_EQ(sum.load(), long(g.tasks.size()) * long(g.tasks.size() - 1) / 2) << round;
  }
  auto stats = pool.stats();
  EXPECT_EQ(stats.graphs_completed, 20);
  EXPECT_EQ(stats.tasks_executed, 20 * long(g.tasks.size()));
}

TEST(ThreadPool, WideFanOutRunsEveryTaskOnce) {
  ThreadPool pool(8);
  auto g = fanout_graph(500);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::atomic<int>> count(g.tasks.size());
    for (auto& c : count) c.store(0);
    pool.run(g, [&](std::int32_t t) { count[size_t(t)].fetch_add(1); });
    for (size_t t = 0; t < g.tasks.size(); ++t) EXPECT_EQ(count[t].load(), 1) << t;
  }
}

TEST(ThreadPool, RespectsDependencies) {
  ThreadPool pool(8);
  auto g = qr_graph(12, 6);
  std::vector<std::atomic<bool>> done(g.tasks.size());
  for (auto& d : done) d.store(false);
  std::atomic<bool> violation{false};
  pool.run(g, [&](std::int32_t t) {
    for (auto s : g.tasks[size_t(t)].succ)
      if (done[size_t(s)].load()) violation.store(true);
    done[size_t(t)].store(true);
  });
  EXPECT_FALSE(violation.load());
}

TEST(ThreadPool, OwnerPopsMostUrgentFirstThievesTakeLeastUrgent) {
  // The ready-set order, made deterministic with gates. Keys are distinct
  // and scrambled (7 is coprime to kN), so neither index order matches.
  constexpr int kN = 11;
  auto scrambled = [](int i) { return long((i * 7) % kN) + 1; };
  std::mutex mu;
  std::vector<std::int32_t> order;
  auto record = [&](std::int32_t t) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(t);
  };
  std::atomic<bool> release{false};
  auto wait_for_release = [&] {
    while (!release.load()) std::this_thread::yield();
  };

  // One worker, held in a gate while kN independent sources are dealt to it:
  // the owner pops them most urgent first.
  {
    ThreadPool pool(1);
    const auto gate_graph = one_task_graph();
    std::atomic<bool> gated{false};
    auto gate = pool.submit(gate_graph, [&](std::int32_t) {
      gated.store(true);
      wait_for_release();
    });
    while (!gated.load()) std::this_thread::yield();
    dag::TaskGraph g;
    std::vector<long> keys;
    for (int i = 0; i < kN; ++i) {
      g.tasks.push_back(dag::Task{kernels::KernelKind::GEQRT, i, -1, 0, -1, 0, {}});
      keys.push_back(scrambled(i));
    }
    auto sources = pool.submit(g, record, SchedulePriority::CriticalPath, 0, nullptr, &keys);
    release.store(true);
    gate.get();
    sources.get();
    ASSERT_EQ(order.size(), size_t(kN));
    for (size_t i = 1; i < order.size(); ++i)
      EXPECT_GT(keys[size_t(order[i - 1])], keys[size_t(order[i])]) << "position " << i;
  }

  // Two workers. Task 0 enables the gate (task 1, the most urgent) and kN
  // leaves at once, so the worker that ran it pops the gate and holds the
  // leaves in its ready set. The other worker steals them one by one, least
  // urgent first; the gate opens only after every leaf has run.
  order.clear();
  release.store(false);
  ThreadPool pool(2);
  dag::TaskGraph g;
  std::vector<long> keys{0, 1000};
  g.tasks.push_back(dag::Task{kernels::KernelKind::GEQRT, 0, -1, 0, -1, 0, {}});
  for (int i = 0; i <= kN; ++i) {
    g.tasks.push_back(dag::Task{kernels::KernelKind::GEQRT, i + 1, -1, 0, -1, 1, {}});
    g.tasks[0].succ.push_back(std::int32_t(i + 1));
    if (i > 0) keys.push_back(scrambled(i - 1));
  }
  auto run = pool.submit(
      g,
      [&](std::int32_t t) {
        if (t == 1)
          wait_for_release();
        else if (t > 1)
          record(t);
      },
      SchedulePriority::CriticalPath, 0, nullptr, &keys);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (order.size() == size_t(kN)) break;
    }
    std::this_thread::yield();
  }
  release.store(true);
  run.get();
  for (size_t i = 1; i < order.size(); ++i)
    EXPECT_LT(keys[size_t(order[i - 1])], keys[size_t(order[i])]) << "position " << i;
  EXPECT_GE(pool.stats().tasks_stolen, kN);
}

TEST(ThreadPool, CappedSubmissionConfinedToWorkerSubset) {
  ThreadPool pool(6);
  auto g = fanout_graph(300);
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.run(
      g,
      [&](std::int32_t) {
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      },
      SchedulePriority::CriticalPath, /*max_workers=*/2);
  EXPECT_LE(ids.size(), 2u);
}

TEST(ThreadPool, ConcurrentSubmissionsInterleave) {
  ThreadPool pool(4);
  auto g = qr_graph(6, 3);
  constexpr int kGraphs = 16;
  std::vector<std::future<void>> futures;
  std::vector<std::unique_ptr<std::atomic<long>>> sums;
  for (int i = 0; i < kGraphs; ++i) sums.push_back(std::make_unique<std::atomic<long>>(0));
  for (int i = 0; i < kGraphs; ++i) {
    auto* sum = sums[size_t(i)].get();
    futures.push_back(pool.submit(g, [sum](std::int32_t t) { sum->fetch_add(t); }));
  }
  for (auto& f : futures) f.get();
  const long expect = long(g.tasks.size()) * long(g.tasks.size() - 1) / 2;
  for (int i = 0; i < kGraphs; ++i) EXPECT_EQ(sums[size_t(i)]->load(), expect) << i;
}

TEST(ThreadPool, SubmitFromMultipleExternalThreads) {
  ThreadPool pool(4);
  auto g = qr_graph(8, 4);
  const long expect = long(g.tasks.size()) * long(g.tasks.size() - 1) / 2;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        std::atomic<long> sum{0};
        pool.run(g, [&](std::int32_t t) { sum.fetch_add(t); });
        if (sum.load() != expect) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadPool, ReentrantRunFromTaskBodyHelps) {
  ThreadPool pool(2);
  auto outer = qr_graph(4, 2);
  auto inner = fanout_graph(20);
  std::atomic<long> inner_runs{0};
  pool.run(outer, [&](std::int32_t t) {
    if (t == 0) {
      // Nested DAG from inside a worker: the worker must help execute
      // instead of deadlocking the (small) pool.
      pool.run(inner, [&](std::int32_t) { inner_runs.fetch_add(1); });
    }
  });
  EXPECT_EQ(inner_runs.load(), long(inner.tasks.size()));
}

TEST(ThreadPool, ExceptionPropagatesThroughEveryPath) {
  auto g = qr_graph(10, 4);
  auto failing = [](std::int32_t t) {
    if (t == 7) throw Error("injected failure");
  };
  // Sequential path.
  EXPECT_THROW(runtime::execute(g, failing, 1), Error);
  // Above the default pool: a pool built for the call.
  EXPECT_THROW(runtime::execute(g, failing, ThreadPool::default_pool().size() + 1), Error);
  // Persistent pool, blocking run().
  ThreadPool pool(4);
  EXPECT_THROW(pool.run(g, failing), Error);
  // Persistent pool, async future.
  auto future = pool.submit(g, failing);
  EXPECT_THROW(future.get(), Error);
  // Re-entrant run() from a task body: rethrown in that body.
  std::atomic<bool> nested_threw{false};
  pool.run(one_task_graph(), [&](std::int32_t) {
    try {
      pool.run(g, failing);
    } catch (const Error&) {
      nested_threw.store(true);
    }
  });
  EXPECT_TRUE(nested_threw.load());
  // The pool survives failures and keeps executing.
  std::atomic<long> count{0};
  pool.run(g, [&](std::int32_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), long(g.tasks.size()));
}

TEST(ThreadPool, FactorizationBitwiseIdenticalAcrossThreadCounts) {
  // The same matrix factored on 1, 2, 8 and default-pool + 1 workers
  // (sequential, pool-capped or pool-wide, and a pool built for the call)
  // must give bit-for-bit equal tiles.
  core::Options opt;
  opt.nb = 32;
  opt.ib = 16;
  auto a = random_matrix<double>(13 * 32, 5 * 32, 1234);

  opt.threads = 1;
  auto ref = core::TiledQr<double>::factorize(a.view(), opt);
  auto ref_dense = ref.factors().to_dense();
  for (int threads : {2, 8, ThreadPool::default_pool().size() + 1}) {
    opt.threads = threads;
    for (int round = 0; round < 3; ++round) {
      auto qr = core::TiledQr<double>::factorize(a.view(), opt);
      auto dense = qr.factors().to_dense();
      ASSERT_EQ(dense.rows(), ref_dense.rows());
      ASSERT_EQ(dense.cols(), ref_dense.cols());
      for (std::int64_t j = 0; j < dense.cols(); ++j)
        for (std::int64_t i = 0; i < dense.rows(); ++i)
          ASSERT_EQ(dense(i, j), ref_dense(i, j))
              << "mismatch at (" << i << "," << j << ") threads=" << threads;
    }
  }
}

TEST(ThreadPool, FactorizationBitwiseIdenticalAcrossSchedulingModes) {
  // Determinism across worker pinning: the same batch factored with
  // TILEDQR_PIN off and on — read at pool construction, so each setting gets
  // a fresh session — must be bitwise equal to the sequential replay. The
  // batch is homogeneous, so this also drives the replicated-component
  // (copies > 1) scheduling path.
  core::Options opt;
  opt.tree = trees::TreeConfig{};  // pin Greedy: a disengaged tree would autotune
  opt.nb = 32;
  opt.ib = 16;
  constexpr int kBatch = 4;
  std::vector<Matrix<double>> inputs;
  std::vector<ConstMatrixView<double>> views;
  for (int i = 0; i < kBatch; ++i)
    inputs.push_back(random_matrix<double>(5 * 32, 3 * 32, 777 + unsigned(i)));
  for (auto& a : inputs) views.push_back(ConstMatrixView<double>(a.view()));

  std::vector<Matrix<double>> refs;
  {
    core::Options seq = opt;
    seq.threads = 1;
    for (auto& a : inputs)
      refs.push_back(core::TiledQr<double>::factorize(a.view(), seq).factors().to_dense());
  }

  const char* old_pin = std::getenv("TILEDQR_PIN");
  for (int pin : {0, 1}) {
    setenv("TILEDQR_PIN", pin ? "1" : "0", 1);
    core::QrSession session(core::QrSession::Config{4});
    auto results = session.factorize_batch(views, opt);
    ASSERT_EQ(results.size(), size_t(kBatch));
    for (int b = 0; b < kBatch; ++b) {
      auto dense = results[size_t(b)].factors().to_dense();
      const auto& ref = refs[size_t(b)];
      for (std::int64_t j = 0; j < dense.cols(); ++j)
        for (std::int64_t i = 0; i < dense.rows(); ++i)
          ASSERT_EQ(dense(i, j), ref(i, j))
              << "matrix " << b << " at (" << i << "," << j << ") pin=" << pin;
    }
    // The locality split accounts for executed tasks. The two counters are
    // adjacent but separate atomics, so a snapshot taken while the last
    // tasks are retiring may lag by up to one task per worker.
    auto stats = session.pool_stats();
    EXPECT_LE(stats.tasks_home + stats.tasks_foreign, stats.tasks_executed) << "pin=" << pin;
    EXPECT_GE(stats.tasks_home + stats.tasks_foreign, stats.tasks_executed - 4) << "pin=" << pin;
    EXPECT_GT(stats.tasks_home, 0) << "pin=" << pin;
  }
  old_pin ? setenv("TILEDQR_PIN", old_pin, 1) : unsetenv("TILEDQR_PIN");
}

TEST(ThreadPool, DefaultPoolBacksExecute) {
  // execute(threads > 1) goes through the shared default pool as long as the
  // request fits it: repeated calls reuse the pool, so graphs_completed
  // grows. A request above the pool's size runs on a pool of exactly that
  // many workers built for the call and leaves the default pool untouched.
  auto& pool = ThreadPool::default_pool();
  auto g = qr_graph(6, 3);
  auto run = [&](int threads) {
    std::atomic<long> count{0};
    runtime::execute(g, [&](std::int32_t) { count.fetch_add(1); }, threads);
    EXPECT_EQ(count.load(), long(g.tasks.size())) << "threads=" << threads;
  };
  if (pool.size() >= 2) {
    const long before = pool.stats().graphs_completed;
    for (int i = 0; i < 3; ++i) run(pool.size());
    EXPECT_GE(pool.stats().graphs_completed, before + 3);
  }
  const long before = pool.stats().graphs_completed;
  run(pool.size() + 1);
  EXPECT_EQ(pool.stats().graphs_completed, before);
}

TEST(ThreadPool, EmptyGraphCompletesImmediately) {
  ThreadPool pool(2);
  dag::TaskGraph g;
  int calls = 0;
  pool.run(g, [&](std::int32_t) { ++calls; });
  auto future = pool.submit(g, [&](std::int32_t) { ++calls; });
  future.get();
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, FailureDoesNotCancelAConcurrentSubmission) {
  // A task failure cancels only its own submission's remaining tasks: a
  // submission running next to it (another request) runs every task, and
  // the pool keeps accepting work.
  ThreadPool pool(2);
  auto g = qr_graph(8, 4);
  std::atomic<long> good_tasks{0};
  auto bad = pool.submit(g, [](std::int32_t t) {
    if (t == 5) throw Error("injected");
  });
  auto good = pool.submit(g, [&](std::int32_t) { good_tasks.fetch_add(1); });
  EXPECT_THROW(bad.get(), Error);
  good.get();
  EXPECT_EQ(good_tasks.load(), long(g.tasks.size()));
  std::atomic<long> more{0};
  pool.run(g, [&](std::int32_t) { more.fetch_add(1); });
  EXPECT_EQ(more.load(), long(g.tasks.size()));
}

TEST(ThreadPool, CompletionCallbackSubmitsTheNextGraph) {
  // A completion callback, running on the worker that retired its
  // submission, submits the next stage: the solve pipeline's pattern, and
  // how a retiring FactorStream graft launches the next one. Declared
  // before the pool, so its draining destructor runs while they live.
  auto g = qr_graph(4, 2);
  std::atomic<long> second_stage{0};
  std::promise<void> chained;
  std::future<void> chained_done = chained.get_future();
  ThreadPool pool(2);
  pool.submit(g, [](std::int32_t) {}, [&](std::exception_ptr e) {
    EXPECT_EQ(e, nullptr);
    pool.submit(g, [&](std::int32_t) { second_stage.fetch_add(1); },
                [&](std::exception_ptr) { chained.set_value(); });
  });
  chained_done.get();
  EXPECT_EQ(second_stage.load(), long(g.tasks.size()));
  EXPECT_EQ(pool.stats().graphs_completed, 2);
}

TEST(ThreadPool, QueuedSubmissionsInterleaveFairly) {
  // The per-worker lane rotation, deterministic at a 2-worker pool: block
  // both workers behind 1-task gate submissions (each capped to a single
  // worker), queue two replicated submissions of k one-task copies, A then
  // B, release the gates, and record the order the tasks run in. Each worker
  // holds one lane per submission and alternates between them, so A and B
  // interleave; one LIFO deque per worker would run all of B before A's
  // backlog.
  const int k = env_flag("TILEDQR_STRESS") ? 32 : 16;
  ThreadPool pool(2);
  auto gate_graph = one_task_graph();
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  auto gate_body = [&](std::int32_t) {
    started.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
  };
  // Fresh pool: the worker-set anchor deals gate 1 to worker 0, gate 2 to
  // worker 1 (max_workers=1 confines each to its own one-worker set).
  auto gate1 = pool.submit(gate_graph, gate_body, SchedulePriority::CriticalPath, 1);
  auto gate2 = pool.submit(gate_graph, gate_body, SchedulePriority::CriticalPath, 1);
  while (started.load() < 2) std::this_thread::yield();

  auto g = one_task_graph();
  std::mutex order_mu;
  std::string order;  // task tags in run order, e.g. "ABABAB..."
  auto tag = [&](char c) {
    return [&, c](std::int32_t) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(c);
    };
  };
  auto a = pool.submit(g, tag('A'), SchedulePriority::CriticalPath, 0, nullptr, nullptr, k);
  auto b = pool.submit(g, tag('B'), SchedulePriority::CriticalPath, 0, nullptr, nullptr, k);
  release.store(true);
  gate1.get();
  gate2.get();
  a.get();
  b.get();

  ASSERT_EQ(order.size(), size_t(2 * k));
  // Strict per-worker alternation merged across two workers (plus bounded
  // steal and record-reorder effects) keeps every prefix nearly balanced;
  // one submission run whole is an imbalance of k. The slack covers
  // sanitizer-grade preemption.
  int balance = 0, worst = 0;
  for (char c : order) {
    balance += c == 'A' ? 1 : -1;
    worst = std::max(worst, std::abs(balance));
  }
  EXPECT_LE(worst, 6) << "run order: " << order;
  // And directly: the first half of the run is NOT one submission's entire
  // backlog.
  const auto half = order.substr(0, size_t(k));
  EXPECT_GE(std::count(half.begin(), half.end(), 'A'), k / 8) << order;
  EXPECT_GE(std::count(half.begin(), half.end(), 'B'), k / 8) << order;
}

}  // namespace
}  // namespace tiledqr
