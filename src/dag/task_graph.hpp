// Task DAG construction for tiled QR.
//
// Given an elimination list, builds the full kernel-level task graph with
// dataflow dependencies. Dependencies are inferred from declared accesses,
// like PLASMA/QUARK's INPUT/OUTPUT/INOUT tracking, but at *region*
// granularity: each tile exposes two independently-tracked regions,
//
//   U — the diagonal-and-above part (R factor / TT reflector tails V2)
//   L — the strictly-below-diagonal part (GEQRT reflector tails V)
//
// plus two block-factor resources T (GEQRT/TSQRT) and T2 (TTQRT). This
// reproduces exactly the dependency lists of paper §2.1. Tracking whole
// tiles instead would add a false WAR edge from UNMQR (which reads only L)
// to the TTQRT that overwrites U, lengthening every critical path — the same
// false dependency the paper removes in PLASMA by re-tagging the V argument
// of the update kernels from INPUT to NODEP [12].
//
// Task access sets:
//   GEQRT(i,k):        RW U(i,k), RW L(i,k), W T(i,k)
//   UNMQR(i,k,j):      R  L(i,k), R T(i,k),  RW U+L(i,j)
//   TSQRT(i,piv,k):    RW U(piv,k), RW U+L(i,k), W T(i,k)
//   TSMQR(i,piv,k,j):  R  U+L(i,k), R T(i,k), RW U+L(piv,j), RW U+L(i,j)
//   TTQRT(i,piv,k):    RW U(piv,k), RW U(i,k), W T2(i,k)
//   TTMQR(i,piv,k,j):  R  U(i,k),  R T2(i,k), RW U+L(piv,j), RW U+L(i,j)
#pragma once

#include <cstdint>
#include <vector>

#include "kernels/kernels.hpp"
#include "trees/elimination.hpp"

namespace tiledqr::dag {

/// One kernel invocation in the DAG.
struct Task {
  kernels::KernelKind kind;
  std::int32_t i;    ///< row of the factored / zeroed tile
  std::int32_t piv;  ///< pivot row (TS/TT kernels), -1 otherwise
  std::int32_t k;    ///< panel column
  std::int32_t j;    ///< update column (update kernels), -1 otherwise
  std::int32_t npred = 0;          ///< number of predecessor edges
  std::vector<std::int32_t> succ;  ///< successor task indices

  [[nodiscard]] int weight() const noexcept { return kernels::kernel_weight(kind); }
};

/// Full task graph for one factorization.
///
/// For LQ graphs (factor == FactorKind::LQ) the grid is the *reduction*
/// grid — the tile grid of Aᴴ, so p >= q always holds and every tree
/// builder works unchanged — and tasks carry the LQ kernel kinds. Task
/// coordinates are tiles of Aᴴ, which is what an LQ factorization stores,
/// so each task runs its QR dual on them in place.
struct TaskGraph {
  int p = 0;
  int q = 0;
  kernels::FactorKind factor = kernels::FactorKind::QR;
  std::vector<Task> tasks;
  /// zero_task[i*q + k] = index of the task that zeroes tile (i,k); -1 if
  /// the tile is not zeroed (on/above diagonal).
  std::vector<std::int32_t> zero_task;

  [[nodiscard]] std::int32_t zero_task_index(int i, int k) const {
    return zero_task[size_t(i) * size_t(q) + size_t(k)];
  }

  /// Total task weight in nb^3/3 units; equals 6pq^2 - 2q^3 for any valid
  /// list on a p x q matrix with p >= q (paper §2.2).
  [[nodiscard]] long total_weight() const {
    long w = 0;
    for (const auto& t : tasks) w += t.weight();
    return w;
  }

  /// Number of edges in the DAG.
  [[nodiscard]] size_t edge_count() const {
    size_t e = 0;
    for (const auto& t : tasks) e += t.succ.size();
    return e;
  }

  /// Appends `other`'s tasks as an independent component, offsetting all
  /// successor indices by this graph's current task count, and returns that
  /// offset. Tile coordinates (i, piv, k, j) are copied unchanged: they are
  /// per-component concepts, so the caller must dispatch each task to the
  /// tile storage of the component it came from. The receiver's p/q grow to
  /// cover the widest component and zero_task is dropped — a fused graph is
  /// a scheduling object, not a factorization map. Topological order is
  /// preserved (components are independent).
  std::int32_t append_offset(const TaskGraph& other);
};

/// Builds the task graph for an elimination list; the list is validated
/// first (throws tiledqr::Error with the validator's diagnostic on failure).
/// Tasks appear in a dependency-consistent (topological) order. For
/// FactorKind::LQ the same elimination structure is emitted with the dual
/// LQ kernel kinds (the list describes the reduction grid either way).
[[nodiscard]] TaskGraph build_task_graph(
    int p, int q, const trees::EliminationList& list,
    kernels::FactorKind factor = kernels::FactorKind::QR);

/// Recomputes `npred`/`succ` for an externally-assembled task list (kinds and
/// tile coordinates set, tasks in emission order) by replaying the access
/// sets above — the same dependence rule build_task_graph applies while
/// emitting. Lets the trace analyzer rebuild a plan's exact DAG from a trace
/// that records only each task's kind and coordinates. Existing edges are
/// discarded first.
void infer_dependencies(int p, int q, std::vector<Task>& tasks);

}  // namespace tiledqr::dag
