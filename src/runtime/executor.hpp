// Dataflow executor: runs a task DAG on a pool of worker threads, firing
// each task as soon as its dependencies resolve (PLASMA/QUARK's execution
// model). Ready tasks are dispatched in DAG-emission order, which follows
// the elimination list — the same static-list/dynamic-execution scheme the
// paper describes in §2.3.
#pragma once

#include <functional>

#include "dag/task_graph.hpp"

namespace tiledqr::runtime {

/// Dispatch order among simultaneously-ready tasks.
enum class SchedulePriority {
  /// Longest weighted path to a sink first (keeps the critical path moving;
  /// the default, and what matters in the cp-bound regime of tall grids).
  CriticalPath,
  /// DAG-emission order (the elimination-list order).
  EmissionOrder,
};

/// Runs `body(task_index)` for every task in `g`, respecting dependencies.
///
/// threads == 1 executes inline on the calling thread (deterministic order
/// given the priority rule) — the sequential replay the tests compare every
/// schedule against. threads > 1 submits the DAG to the process-wide
/// persistent worker pool (ThreadPool::default_pool()), capped to `threads`
/// concurrent workers — unless `threads` exceeds the pool size, in which
/// case the call runs on a ThreadPool of exactly `threads` workers built for
/// it (scaling sweeps past the core count oversubscribe). Any exception
/// thrown by a task body is captured and rethrown on the calling thread
/// after the DAG drains. Because tasks only read their declared inputs,
/// results are bitwise identical for any thread count and priority rule.
///
/// `keys`, when non-null, supplies precomputed scheduling keys (one per
/// task, higher runs first) and must outlive the call; the priority rule is
/// then not consulted. Cached plans pass their `ranks` here so repeated
/// submissions skip the rank sweep.
void execute(const dag::TaskGraph& g, const std::function<void(std::int32_t)>& body,
             int threads, SchedulePriority priority = SchedulePriority::CriticalPath,
             const std::vector<long>* keys = nullptr);

/// Scheduling keys for a priority rule: CriticalPath uses downward_ranks(),
/// EmissionOrder gives earlier tasks larger keys. Higher key = run first.
std::vector<long> make_priority_keys(const dag::TaskGraph& g, SchedulePriority priority);

/// Longest weighted path from each task to a sink (Table 1 weights); the
/// ranks used by SchedulePriority::CriticalPath.
std::vector<long> downward_ranks(const dag::TaskGraph& g);

}  // namespace tiledqr::runtime
