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

/// A single free-standing task; the smallest graftable component.
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

// -------------------------------------------------------- streaming grafts --

TEST(ThreadPoolStream, AppendsGraftOntoLiveSubmission) {
  ThreadPool pool(4);
  auto g = qr_graph(6, 3);
  auto stream = pool.open_stream();
  ASSERT_TRUE(stream.valid());
  constexpr int kComponents = 10;
  std::vector<std::unique_ptr<std::atomic<long>>> sums;
  std::atomic<int> completions{0};
  for (int i = 0; i < kComponents; ++i) sums.push_back(std::make_unique<std::atomic<long>>(0));
  // Appends race with workers draining earlier generations — exactly the
  // streaming regime (no stop-the-world between components).
  for (int i = 0; i < kComponents; ++i) {
    auto* sum = sums[size_t(i)].get();
    stream.append(
        g, [sum](std::int32_t t) { sum->fetch_add(t); },
        [&completions](std::exception_ptr e) {
          if (!e) completions.fetch_add(1);
        });
  }
  EXPECT_EQ(stream.generation(), kComponents);
  stream.wait();
  EXPECT_EQ(stream.retired(), kComponents);
  EXPECT_EQ(completions.load(), kComponents);
  const long expect = long(g.tasks.size()) * long(g.tasks.size() - 1) / 2;
  for (int i = 0; i < kComponents; ++i) EXPECT_EQ(sums[size_t(i)]->load(), expect) << i;
  stream.close();
  EXPECT_TRUE(stream.closed());
}

TEST(ThreadPoolStream, AppendAfterCloseThrows) {
  ThreadPool pool(2);
  auto g = qr_graph(3, 2);
  auto stream = pool.open_stream();
  stream.append(g, [](std::int32_t) {});
  stream.close();
  stream.close();  // idempotent
  EXPECT_THROW(stream.append(g, [](std::int32_t) {}), Error);
  stream.wait();
  EXPECT_EQ(stream.retired(), 1);
}

TEST(ThreadPoolStream, ComponentFailureDoesNotCancelSiblings) {
  ThreadPool pool(2);
  auto g = qr_graph(8, 4);
  auto stream = pool.open_stream();
  std::atomic<long> good_tasks{0};
  std::atomic<bool> bad_failed{false};
  stream.append(g, [](std::int32_t t) {
    if (t == 5) throw Error("injected");
  }, [&](std::exception_ptr e) { bad_failed.store(e != nullptr); });
  stream.append(g, [&](std::int32_t) { good_tasks.fetch_add(1); });
  stream.wait();
  EXPECT_TRUE(bad_failed.load());
  EXPECT_EQ(good_tasks.load(), long(g.tasks.size()));
  // The stream keeps accepting work after a component failure.
  std::atomic<long> more{0};
  stream.append(g, [&](std::int32_t) { more.fetch_add(1); });
  stream.wait();
  EXPECT_EQ(more.load(), long(g.tasks.size()));
}

TEST(ThreadPoolStream, ChainedAppendFromCompletionCallback) {
  // A completion callback grafts the next pipeline stage onto the same
  // stream (the solve-pipeline pattern); wait() must cover the chained
  // generation once it observes it.
  ThreadPool pool(2);
  auto g = qr_graph(4, 2);
  auto stream = pool.open_stream();
  std::atomic<long> second_stage{0};
  std::atomic<bool> chained{false};
  stream.append(g, [](std::int32_t) {}, [&](std::exception_ptr) {
    stream.append(g, [&](std::int32_t) { second_stage.fetch_add(1); },
                  [&](std::exception_ptr) { chained.store(true); });
  });
  while (!chained.load()) stream.wait();
  EXPECT_EQ(second_stage.load(), long(g.tasks.size()));
  EXPECT_EQ(stream.generation(), 2);
  EXPECT_EQ(stream.retired(), 2);
}

TEST(ThreadPoolStream, CappedStreamConfinedToWorkerSubset) {
  ThreadPool pool(6);
  auto g = fanout_graph(200);
  auto stream = pool.open_stream(/*max_workers=*/2);
  std::mutex mu;
  std::set<std::thread::id> ids;
  for (int i = 0; i < 3; ++i)
    stream.append(g, [&](std::int32_t) {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
  stream.wait();
  EXPECT_LE(ids.size(), 2u);
}

TEST(ThreadPoolStream, OpenIdleStreamDoesNotBlockPoolDestructor) {
  auto pool = std::make_unique<ThreadPool>(2);
  auto stream = pool->open_stream();
  auto g = qr_graph(3, 2);
  std::atomic<long> count{0};
  stream.append(g, [&](std::int32_t) { count.fetch_add(1); });
  stream.wait();
  // Stream never closed; the destructor must drain what was appended and
  // return (an open, idle stream holds no in-flight work).
  pool.reset();
  EXPECT_EQ(count.load(), long(g.tasks.size()));
}

TEST(ThreadPoolStream, TwoStreamsInterleaveFairly) {
  // The multi-stream fairness contract, deterministic at a 2-worker pool:
  // block both workers behind 1-task gate submissions (each capped to a
  // single-worker set), pile K components of stream A and then K of stream B
  // into the ready queues, release the gates, and record the completion
  // order. Per-submission worker queues with round-robin pop must interleave
  // the two streams; the old single LIFO deque would drain the entire
  // later-pushed stream before the earlier one's backlog (all-B-then-all-A).
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
  auto stream_a = pool.open_stream();
  auto stream_b = pool.open_stream();
  std::mutex order_mu;
  std::string order;  // completion tags, e.g. "ABABAB..."
  auto tag = [&](char c) {
    return [&, c](std::exception_ptr) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(c);
    };
  };
  for (int i = 0; i < k; ++i) stream_a.append(g, [](std::int32_t) {}, tag('A'));
  for (int i = 0; i < k; ++i) stream_b.append(g, [](std::int32_t) {}, tag('B'));
  release.store(true);
  gate1.get();
  gate2.get();
  stream_a.wait();
  stream_b.wait();
  stream_a.close();
  stream_b.close();

  ASSERT_EQ(order.size(), size_t(2 * k));
  // Strict per-worker alternation merged across two workers (plus bounded
  // steal and record-reorder effects) keeps every prefix nearly balanced;
  // the old single-LIFO scheduler's signature is a full one-stream run,
  // i.e. an imbalance of k. The slack covers sanitizer-grade preemption.
  int balance = 0, worst = 0;
  for (char c : order) {
    balance += c == 'A' ? 1 : -1;
    worst = std::max(worst, std::abs(balance));
  }
  EXPECT_LE(worst, 6) << "completion order: " << order;
  // And directly: the first half of the completions is NOT one stream's
  // entire backlog.
  const auto half = order.substr(0, size_t(k));
  EXPECT_GE(std::count(half.begin(), half.end(), 'A'), k / 8) << order;
  EXPECT_GE(std::count(half.begin(), half.end(), 'B'), k / 8) << order;
}

TEST(ThreadPoolStream, WaitCoversCompletionCallbacks) {
  // wait() must not return while a component's completion callback is still
  // running: callers read the callback's effects right after it. The body
  // retires the component at once; the callback then sleeps, and wait() is
  // called well inside that sleep.
  ThreadPool pool(2);
  auto g = one_task_graph();
  auto stream = pool.open_stream();
  std::atomic<bool> body_ran{false};
  std::atomic<bool> callback_done{false};
  stream.append(
      g, [&](std::int32_t) { body_ran.store(true); },
      [&](std::exception_ptr) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        callback_done.store(true);
      });
  while (!body_ran.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stream.wait();
  EXPECT_TRUE(callback_done.load());
  EXPECT_EQ(stream.retired(), 1);
  stream.close();
}

TEST(ThreadPoolStream, LiveStreamGaugeTracksOpenAndClose) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.stats().streams_live, 0);
  auto s1 = pool.open_stream();
  auto s2 = pool.open_stream();
  EXPECT_EQ(pool.stats().streams_live, 2);
  EXPECT_EQ(pool.stats().streams_opened, 2);
  s1.close();
  s1.close();  // idempotent: the gauge drops once
  EXPECT_EQ(pool.stats().streams_live, 1);
  s2.close();
  EXPECT_EQ(pool.stats().streams_live, 0);
  EXPECT_EQ(pool.stats().streams_opened, 2);
  {
    // A handle dropped without close() must not leave a phantom live stream.
    auto abandoned = pool.open_stream();
    EXPECT_EQ(pool.stats().streams_live, 1);
  }
  EXPECT_EQ(pool.stats().streams_live, 0);
}

TEST(ThreadPoolStream, StatsCountStreamsAndComponents) {
  ThreadPool pool(2);
  auto g = qr_graph(3, 2);
  auto s1 = pool.open_stream();
  auto s2 = pool.open_stream();
  s1.append(g, [](std::int32_t) {});
  s2.append(g, [](std::int32_t) {});
  s1.wait();
  s2.wait();
  auto stats = pool.stats();
  EXPECT_EQ(stats.streams_opened, 2);
  EXPECT_EQ(stats.graphs_completed, 2);  // one per component, like submit()
}

}  // namespace
}  // namespace tiledqr
