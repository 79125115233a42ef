#include "runtime/executor.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/kernel_profile.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace tiledqr::runtime {

namespace {

// Load-time refs: the per-task trace guard is one relaxed enabled() load
// (see thread_pool.cpp for the same pattern).
obs::Tracer& g_tracer = obs::Tracer::instance();
obs::KernelProfiler& g_kernel_profiler = obs::KernelProfiler::global();

/// Priority-queue entry: higher key first, ties by ascending index.
struct Prioritized {
  long key;
  std::int32_t task;
  bool operator<(const Prioritized& o) const {
    return key != o.key ? key < o.key : task > o.task;
  }
};

void execute_sequential(const dag::TaskGraph& g, const std::function<void(std::int32_t)>& body,
                        const std::vector<long>& keys) {
  std::vector<std::int32_t> npred(g.tasks.size());
  std::priority_queue<Prioritized> ready;
  for (size_t t = 0; t < g.tasks.size(); ++t) {
    npred[t] = g.tasks[t].npred;
    if (npred[t] == 0) ready.push({keys[t], std::int32_t(t)});
  }
  const bool traced = g_tracer.enabled();
  const std::uint32_t sid = traced ? obs::next_trace_submission_id() : 0;
  size_t done = 0;
  while (!ready.empty()) {
    std::int32_t t = ready.top().task;
    ready.pop();
    const std::int64_t t0 = traced ? obs::now_ns() : 0;
    body(t);
    if (traced) {
      const std::int64_t t1 = obs::now_ns();
      const dag::Task& task = g.tasks[size_t(t)];
      g_tracer.record(t0, t1, std::uint8_t(task.kind), task.i, task.piv, task.k, task.j, t, sid,
                      /*stolen=*/false);
      g_kernel_profiler.record(std::uint8_t(task.kind), t1 - t0);
    }
    ++done;
    for (std::int32_t s : g.tasks[size_t(t)].succ)
      if (--npred[size_t(s)] == 0) ready.push({keys[size_t(s)], s});
  }
  TILEDQR_CHECK(done == g.tasks.size(), "execute: dependency cycle (bug)");
}

}  // namespace

std::vector<long> downward_ranks(const dag::TaskGraph& g) {
  std::vector<long> rank(g.tasks.size(), 0);
  // Tasks are stored in topological order: one reverse sweep suffices.
  for (size_t t = g.tasks.size(); t-- > 0;) {
    long best = 0;
    for (std::int32_t s : g.tasks[t].succ) best = std::max(best, rank[size_t(s)]);
    rank[t] = best + g.tasks[t].weight();
  }
  return rank;
}

std::vector<long> make_priority_keys(const dag::TaskGraph& g, SchedulePriority priority) {
  if (priority == SchedulePriority::CriticalPath) return downward_ranks(g);
  // Emission order: earlier tasks get larger keys.
  std::vector<long> keys(g.tasks.size());
  for (size_t t = 0; t < g.tasks.size(); ++t) keys[t] = long(g.tasks.size()) - long(t);
  return keys;
}

void execute(const dag::TaskGraph& g, const std::function<void(std::int32_t)>& body,
             int threads, SchedulePriority priority, const std::vector<long>* keys) {
  TILEDQR_CHECK(threads >= 1, "execute: need at least one thread");
  if (g.tasks.empty()) return;
  if (threads == 1) {
    // Branch instead of a conditional expression: `keys ? *keys : ...` would
    // materialize a copy of the borrowed vector, re-paying the per-call cost
    // the cached ranks exist to remove.
    if (keys)
      execute_sequential(g, body, *keys);
    else
      execute_sequential(g, body, make_priority_keys(g, priority));
    return;
  }
  ThreadPool& pool = ThreadPool::default_pool();
  if (threads > pool.size()) {
    // More concurrency than the persistent pool has (e.g. a scaling ablation
    // sweeping past the core count): honor the exact thread count with a
    // pool of that size for this call.
    ThreadPool(threads).run(g, body, priority, 0, keys);
    return;
  }
  pool.run(g, body, priority, threads, keys);
}

}  // namespace tiledqr::runtime
