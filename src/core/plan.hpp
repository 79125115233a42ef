// Planning: turn an algorithm selection (TreeConfig) into an elimination
// list + task DAG + critical path, handling both static algorithms
// (FlatTree, BinaryTree, Fibonacci, Greedy, PlasmaTree) and dynamic ones
// (Asap, Grasap), whose lists come from the simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dag/task_graph.hpp"
#include "trees/elimination.hpp"

namespace tiledqr::core {

struct Plan {
  trees::EliminationList list;
  dag::TaskGraph graph;
  long critical_path = 0;  ///< Table 1 units (n_b^3/3 flops)
  /// Cached downward ranks (longest weighted path to a sink) of every task —
  /// the CriticalPath scheduling keys. Computed once at planning time so
  /// repeated submissions of a cached plan skip the rank sweep entirely.
  std::vector<long> ranks;

  /// Which factorization this plan describes. For LQ the graph lives on the
  /// reduction grid (the tile grid of A^H).
  [[nodiscard]] kernels::FactorKind factor() const noexcept { return graph.factor; }
};

/// A batch of independent plans fused into one scheduling object: the batch
/// pays one submission (one deal of the initial ready set, one wake, one
/// completion walk) instead of one per matrix, and the scheduler overlaps the
/// tail of one factorization with the heads of the others.
///
/// Two representations behind one accessor API:
///
///   * **homogeneous** (`make_homogeneous_fused_plan`): every part is the
///     same base plan, so nothing is materialized — the fused plan is just
///     {base, count} and global task ids are stride arithmetic
///     (`global = part * stride + local`). The pool schedules it by
///     replicating the base graph `copies()` times (ThreadPool submit/append
///     `copies` parameter), so a batch of 64 costs the same plan memory as a
///     batch of 1;
///   * **heterogeneous** (`make_fused_plan`): the disjoint union of the
///     per-matrix DAGs is materialized with successor indices offset;
///     `parts[i]` is the half-open task-index range of source plan i, and
///     `ranks` concatenates the per-plan rank vectors (downward ranks never
///     cross components, so the concatenation *is* the fused graph's rank
///     vector).
///
/// Consumers address tasks by *global* index in both representations:
/// `part_of`/`task` translate, `component_graph`/`component_ranks`/`copies`
/// are what gets handed to the pool.
struct FusedPlan {
  // Heterogeneous (materialized) state; empty for homogeneous plans.
  dag::TaskGraph graph;
  struct Part {
    std::int32_t begin = 0;
    std::int32_t end = 0;
  };
  std::vector<Part> parts;
  std::vector<long> ranks;

  // Homogeneous (thin) state; `base` non-null selects this representation.
  std::shared_ptr<const Plan> base;
  int count = 0;
  std::int32_t stride = 0;  ///< tasks per part (= base graph size)

  [[nodiscard]] bool homogeneous() const noexcept { return base != nullptr; }

  /// The graph to submit once per component — the base graph (scheduled
  /// `copies()` times by the pool) or the materialized union.
  [[nodiscard]] const dag::TaskGraph& component_graph() const noexcept {
    return base ? base->graph : graph;
  }
  /// Scheduling keys matching component_graph(), one per task.
  [[nodiscard]] const std::vector<long>& component_ranks() const noexcept {
    return base ? base->ranks : ranks;
  }
  /// Replication factor to pass alongside component_graph().
  [[nodiscard]] int copies() const noexcept { return base ? count : 1; }

  [[nodiscard]] int part_count() const noexcept {
    return base ? count : int(parts.size());
  }
  [[nodiscard]] std::int32_t part_size(int i) const noexcept {
    return base ? stride : parts[size_t(i)].end - parts[size_t(i)].begin;
  }
  [[nodiscard]] std::int64_t total_tasks() const noexcept {
    return base ? std::int64_t(count) * stride : std::int64_t(graph.tasks.size());
  }
  /// The task at a *global* index (what the pool hands the body).
  [[nodiscard]] const dag::Task& task(std::int32_t global) const noexcept {
    return base ? base->graph.tasks[std::size_t(global % stride)]
                : graph.tasks[std::size_t(global)];
  }

  /// Index of the part containing `task` — division for homogeneous plans,
  /// binary search over `parts` otherwise.
  [[nodiscard]] int part_of(std::int32_t task) const noexcept {
    if (base) return int(task / stride);
    int lo = 0, hi = int(parts.size()) - 1;
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (task < parts[size_t(mid)].end)
        hi = mid;
      else
        lo = mid + 1;
    }
    return lo;
  }
};

/// Builds the full plan for a p x q tile grid. For FactorKind::LQ, (p, q)
/// is the *reduction* grid — the tile grid of A^H, with p >= q — so every
/// tree generator and simulator runs unchanged; only the emitted kernel
/// kinds differ (the LQ duals).
[[nodiscard]] Plan make_plan(int p, int q, const trees::TreeConfig& config,
                             kernels::FactorKind factor = kernels::FactorKind::QR);

/// Fuses plans (in order) into one FusedPlan, materializing the
/// disjoint-union graph — the one ad-hoc fusion: cached factor plans of
/// mixed shapes, or per-request solve apply stages. The scheduling keys are
/// the concatenated per-plan ranks (ranks never cross components), so
/// nothing is recomputed. Homogeneous batches should prefer
/// make_homogeneous_fused_plan (O(1) memory instead of count x base).
[[nodiscard]] FusedPlan make_fused_plan(std::span<const std::shared_ptr<const Plan>> plans);

/// Thin fused plan for `count` parts that all share `base`: no graph is
/// materialized — part ranges are stride arithmetic over the base plan.
[[nodiscard]] FusedPlan make_homogeneous_fused_plan(std::shared_ptr<const Plan> base, int count);

/// Critical path only. Builds the full plan internally (it is not cheaper
/// than make_plan); provided for readability at call sites that sweep many
/// configurations and only need the critical-path length.
[[nodiscard]] long plan_critical_path(int p, int q, const trees::TreeConfig& config);

/// Searches PlasmaTree domain sizes 1..p and returns the best (BS, critical
/// path) pair — the paper's exhaustive-search composite.
struct BestBs {
  int bs = 1;
  long critical_path = 0;
};
[[nodiscard]] BestBs best_plasma_bs(int p, int q, trees::KernelFamily family);

}  // namespace tiledqr::core
