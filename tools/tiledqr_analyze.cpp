// tiledqr_analyze — offline critical-path forensics over an exported Chrome
// trace.
//
//   tiledqr_analyze <trace.json> [top_k]
//
// Re-parses the trace_event JSON the Tracer writes (TILEDQR_TRACE=...,
// Tracer::export_now, or the CI artifact), rebuilds the factorization's
// task DAG from the kernel kinds and tile coordinates each slice carries
// (dag::infer_dependencies replays the paper's access-set dependence rule),
// and prints the same realized-critical-path breakdown the in-process
// schedule report attaches: work vs gap split, dispatch vs cross-worker
// attribution, per-kind and per-worker aggregation, top-k gap edges. The
// model-side critical path is computed under per-kernel means measured from
// the trace itself, so no live process is needed.
//
// Exit status: 0 on a printed breakdown, 1 on parse/analysis failure, 2 on
// usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stringf.hpp"
#include "dag/task_graph.hpp"
#include "obs/critical_path.hpp"
#include "obs/kernel_profile.hpp"
#include "obs/trace_import.hpp"

namespace {

using tiledqr::obs::TraceEvent;
using tiledqr::obs::TrackSnapshot;

// Rebuilds the DAG of one traced factorization: its tasks, sorted by the
// task index the runtime recorded, must form exactly 0..n-1; dependencies
// are re-inferred from kinds + tile coordinates. The grid is sized from the
// coordinates only once they are bounded by the task count: every tile row
// and column of a p x q factorization (p >= q) appears in its tasks, and it
// has at least pq - q(q-1)/2 > pq/2 of them.
tiledqr::dag::TaskGraph rebuild_graph(const std::vector<const TraceEvent*>& events) {
  std::vector<const TraceEvent*> sorted = events;
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceEvent* a, const TraceEvent* b) { return a->task < b->task; });
  const auto count = std::int64_t(sorted.size());
  std::vector<tiledqr::dag::Task> tasks;
  tasks.reserve(sorted.size());
  int p = 1;
  int q = 1;
  for (std::size_t n = 0; n < sorted.size(); ++n) {
    const TraceEvent& e = *sorted[n];
    TILEDQR_CHECK(e.task == std::int32_t(n),
                  "trace group is not a complete factorization: task indices must "
                  "cover 0..n-1 exactly (dropped events?)");
    for (const std::int32_t c : {e.i, e.piv, e.k, e.j})
      TILEDQR_CHECK(c < count, tiledqr::stringf("task %d has tile coordinate %d, but a "
                                                "factorization with %lld tasks has fewer "
                                                "tile rows and columns",
                                                e.task, c, static_cast<long long>(count)));
    tiledqr::dag::Task t{static_cast<tiledqr::kernels::KernelKind>(e.kind),
                         e.i, e.piv, e.k, e.j, 0, {}};
    p = std::max({p, e.i + 1, e.piv + 1});
    q = std::max({q, e.k + 1, e.j + 1});
    tasks.push_back(std::move(t));
  }
  TILEDQR_CHECK(std::int64_t(p) * q < 2 * count,
                tiledqr::stringf("a factorization of a %d x %d tile grid has more than %lld "
                                 "tasks, but the trace group has %lld",
                                 p, q, static_cast<long long>(p) * q / 2,
                                 static_cast<long long>(count)));
  tiledqr::dag::infer_dependencies(p, q, tasks);
  tiledqr::dag::TaskGraph g;
  g.p = p;
  g.q = q;
  g.tasks = std::move(tasks);
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: tiledqr_analyze <trace.json> [top_k]\n");
    return 2;
  }
  const int top_k = argc == 3 ? std::atoi(argv[2]) : 5;
  try {
    const std::vector<TrackSnapshot> tracks = tiledqr::obs::import_chrome_json(argv[1]);

    // Per-trace summary, plus: feed every kernel slice into the profiler so
    // the breakdown's model critical path uses means measured from this
    // trace (the offline stand-in for the live profile).
    long total_events = 0;
    std::map<std::uint32_t, std::vector<const TraceEvent*>> groups;  // by submission
    for (const auto& t : tracks) {
      total_events += long(t.events.size());
      for (const auto& e : t.events) {
        if (e.kind < tiledqr::obs::KernelProfiler::kKinds) {
          tiledqr::obs::KernelProfiler::global().record(e.kind, e.end_ns - e.start_ns);
          if (e.task >= 0) groups[e.submission].push_back(&e);
        }
      }
    }
    std::printf("%s: %zu tracks, %ld events, %zu factorization group(s)\n", argv[1],
                tracks.size(), total_events, groups.size());
    if (groups.empty()) {
      std::fprintf(stderr, "tiledqr_analyze: no kernel task events in trace\n");
      return 1;
    }

    // Analyze the largest group — "the run" for a single-factorization
    // trace; a multi-run trace gets its dominant factorization.
    const auto largest =
        std::max_element(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
          return a.second.size() < b.second.size();
        });
    const tiledqr::dag::TaskGraph graph = rebuild_graph(largest->second);
    std::printf("rebuilt DAG for sub %u: %d x %d tiles, %zu tasks, %zu edges\n", largest->first,
                graph.p, graph.q, graph.tasks.size(), graph.edge_count());

    tiledqr::obs::BreakdownOptions opt;
    opt.submission = largest->first;
    opt.top_k = top_k;
    const auto breakdown = tiledqr::obs::build_critical_path_breakdown(tracks, graph, opt);
    if (!breakdown.valid) {
      std::fprintf(stderr, "tiledqr_analyze: no realized path found for the group\n");
      return 1;
    }
    std::fputs(tiledqr::obs::format_critical_path_breakdown(breakdown).c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tiledqr_analyze: %s\n", e.what());
    return 1;
  }
}
