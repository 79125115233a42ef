// Realized-critical-path reconstruction: what actually determined a traced
// run's makespan, and where the time the model doesn't predict went.
//
// The schedule report already states achieved-vs-model span; this module
// explains the difference. Trace events carry the task index and submission
// id of every executed task, so they can be joined against the plan's
// TaskGraph dependency edges. Walking backwards from the
// last-finishing task and, at every step, following the predecessor that
// finished *last* (the dependency that actually gated the start) recovers
// the realized critical chain — the paper's §5 critical path, measured
// instead of simulated. Every edge on the chain decomposes into
//
//   work — the predecessor's execution time, and
//   gap  — predecessor-end → successor-start scheduler latency, classified
//          dispatch-local (successor ran on the same worker) vs cross-worker
//          (different worker, including steals),
//
// so realized = Σ work + Σ gap exactly, and the totals reconcile with the
// report's span up to ring-drop error. Aggregations per kernel kind and per
// worker, the top-k widest gap edges, and a log2 gap histogram point at
// *which* handoffs to fix; the unbounded weighted critical path under the
// live kernel profile is the model-side floor the chain is compared to.
//
// Consumed three ways: build_schedule_report attaches a breakdown when given
// the graph, the HealthMonitor snapshots it live, and tools/tiledqr_analyze
// rebuilds the same breakdown offline from an exported Chrome trace.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "kernels/kernels.hpp"
#include "obs/trace.hpp"

namespace tiledqr::dag {
struct TaskGraph;
}

namespace tiledqr::obs {

/// One edge of the realized critical chain: `pred` finished, `gap_ns` of
/// scheduler latency passed, then `succ` started.
struct GapEdge {
  std::int32_t pred = -1;  ///< task index of the gating predecessor
  std::int32_t succ = -1;  ///< task index of the gated successor
  std::uint8_t pred_kind = TraceEvent::kNonKernel;
  std::uint8_t succ_kind = TraceEvent::kNonKernel;
  std::int64_t gap_ns = 0;
  bool cross_worker = false;  ///< succ ran on a different track than pred
  bool stolen = false;        ///< succ ran off a steal
  std::string pred_track;
  std::string succ_track;
};

/// Per-worker attribution of the realized chain: how much of the critical
/// path's work ran on this track, and how much gap preceded its tasks.
struct CriticalPathWorker {
  std::string track;
  long tasks = 0;             ///< chain tasks that executed on this track
  std::int64_t work_ns = 0;   ///< their execution time
  std::int64_t gap_ns = 0;    ///< incoming-edge gaps charged to this track
};

/// The decomposition of one traced submission's makespan. All totals satisfy
/// realized_ns == work_ns + gap_ns and gap_ns == dispatch_gap_ns +
/// cross_gap_ns by construction; `dropped` bounds the reconciliation error
/// against the full-trace span (a dropped event can hide a longer chain).
struct CriticalPathBreakdown {
  static constexpr int kGapBuckets = 32;  ///< log2 ns buckets, [2^b, 2^(b+1))
  static constexpr int kKinds = kernels::kNumKernelKinds;  ///< QR + LQ kinds

  bool valid = false;          ///< a chain of at least one task was found
  std::uint32_t submission = 0;  ///< trace submission id analyzed
  long events_matched = 0;     ///< trace events joined against graph tasks
  long dropped = 0;            ///< ring-overflow losses over the window

  long path_tasks = 0;         ///< tasks on the realized chain
  std::int64_t realized_ns = 0;  ///< chain end − chain start (realized path length)
  std::int64_t work_ns = 0;      ///< execution time on the chain
  std::int64_t gap_ns = 0;       ///< scheduler latency on the chain
  std::int64_t dispatch_gap_ns = 0;  ///< same-worker handoffs
  std::int64_t cross_gap_ns = 0;     ///< cross-worker handoffs (incl. steals)
  long stolen_edges = 0;       ///< chain edges whose successor ran off a steal

  /// Unbounded weighted critical path of the graph under the live kernel
  /// profile (KernelProfiler::global().live_profile()): the model-side path
  /// length the realized chain is compared to. < 0 = not computed.
  double model_cp_seconds = -1.0;
  /// realized / model_cp when both known (>= 1 in a healthy run: the
  /// realized chain carries real durations plus scheduler gaps).
  double realized_over_model = -1.0;

  std::array<std::int64_t, kKinds> work_by_kind{};  ///< chain work per KernelKind
  std::array<long, kKinds> tasks_by_kind{};
  std::vector<CriticalPathWorker> workers;  ///< per-track chain attribution
  std::vector<GapEdge> top_gaps;            ///< widest chain gaps, descending
  std::array<long, kGapBuckets> gap_hist{};  ///< chain-edge gaps, log2 ns buckets
};

struct BreakdownOptions {
  std::uint32_t submission = 0;  ///< 0 = auto-select (most events, then latest)
  int top_k = 5;                 ///< gap edges kept in top_gaps
  std::int64_t since_ns = 0;     ///< only events with start_ns >= this
  bool with_model = true;        ///< compute model_cp_seconds (live profile)
};

/// Reconstructs the realized critical chain of one submission's events in
/// `tracks` against `graph`'s dependency edges. Auto-selection picks the
/// submission with the most events whose task indices all fit the graph
/// (ties: latest end time) — for a single-factorization trace that is simply
/// "the run". Returns an invalid (valid == false) breakdown when no
/// submission matches.
[[nodiscard]] CriticalPathBreakdown build_critical_path_breakdown(
    const std::vector<TrackSnapshot>& tracks, const dag::TaskGraph& graph,
    const BreakdownOptions& options = {});

/// Same over the tracer's current events, honoring its begin-mark (only
/// events since mark() are considered, like build_schedule_report).
[[nodiscard]] CriticalPathBreakdown build_critical_path_breakdown(
    const Tracer& tracer, const dag::TaskGraph& graph, const BreakdownOptions& options = {});

/// Human-readable multi-line rendering ("" for an invalid breakdown).
[[nodiscard]] std::string format_critical_path_breakdown(const CriticalPathBreakdown& b);

}  // namespace tiledqr::obs
