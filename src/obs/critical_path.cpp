#include "obs/critical_path.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>

#include "dag/task_graph.hpp"
#include "kernels/kernels.hpp"
#include "obs/kernel_profile.hpp"
#include "sim/critical_path.hpp"

namespace tiledqr::obs {

namespace {

// One joined event: the trace record of a graph task, plus which track ran
// it. Indexed by task id once a group is selected.
struct Joined {
  const TraceEvent* ev = nullptr;
  int track = -1;  ///< index into the track-name table
};

int gap_bucket(std::int64_t gap_ns) {
  if (gap_ns <= 0) return 0;
  int b = std::bit_width(static_cast<std::uint64_t>(gap_ns)) - 1;
  return std::min(b, CriticalPathBreakdown::kGapBuckets - 1);
}

const char* kind_name(std::uint8_t kind) {
  return kind < kernels::kNumKernelKinds
             ? kernels::kernel_name(static_cast<kernels::KernelKind>(kind))
             : "task";
}

}  // namespace

CriticalPathBreakdown build_critical_path_breakdown(
    const std::vector<TrackSnapshot>& tracks, const dag::TaskGraph& graph,
    const BreakdownOptions& options) {
  CriticalPathBreakdown b;
  const std::size_t ntasks = graph.tasks.size();

  // Group events by submission; a group is usable only if every task index
  // fits the graph — a trace can hold several factorizations and only groups
  // shaped like this graph can be joined against it.
  struct Group {
    long events = 0;
    std::int64_t last_end = std::numeric_limits<std::int64_t>::min();
    bool fits = true;
  };
  std::map<std::uint32_t, Group> groups;
  for (const auto& t : tracks) {
    b.dropped += t.dropped;
    for (const auto& e : t.events) {
      if (e.start_ns < options.since_ns) continue;
      Group& g = groups[e.submission];
      ++g.events;
      g.last_end = std::max(g.last_end, e.end_ns);
      if (e.task < 0 || std::size_t(e.task) >= ntasks) g.fits = false;
    }
  }

  const Group* best = nullptr;
  for (const auto& [sub, g] : groups) {
    if (!g.fits || (options.submission != 0 && sub != options.submission)) continue;
    if (best == nullptr || g.events > best->events ||
        (g.events == best->events && g.last_end > best->last_end)) {
      best = &g;
      b.submission = sub;
    }
  }
  if (best == nullptr) return b;

  // Join the selected group: task id -> (event, track). A task recorded
  // twice (ring anomalies only) keeps its first event.
  std::vector<Joined> by_task(ntasks);
  std::vector<std::string> track_names;
  for (const auto& t : tracks) {
    int ti = -1;
    for (const auto& e : t.events) {
      if (e.start_ns < options.since_ns) continue;
      if (e.submission != b.submission) continue;
      if (ti < 0) {
        ti = int(track_names.size());
        track_names.push_back(t.name);
      }
      if (by_task[std::size_t(e.task)].ev == nullptr) {
        by_task[std::size_t(e.task)] = {&e, ti};
        ++b.events_matched;
      }
    }
  }
  if (b.events_matched == 0) return b;

  // Predecessor lists, reversed from the graph's successor edges.
  std::vector<std::vector<std::int32_t>> preds(ntasks);
  for (std::size_t id = 0; id < ntasks; ++id) {
    for (std::int32_t s : graph.tasks[id].succ) {
      if (s >= 0 && std::size_t(s) < ntasks) preds[std::size_t(s)].push_back(std::int32_t(id));
    }
  }

  // Realized chain: start at the latest-ending recorded task and repeatedly
  // step to the recorded predecessor that finished last — the dependency
  // that actually gated each start. Stop when no predecessor was recorded
  // (the chain's head, or a ring drop truncating it).
  std::int32_t cur = -1;
  std::int64_t cur_end = std::numeric_limits<std::int64_t>::min();
  for (std::size_t id = 0; id < ntasks; ++id) {
    if (by_task[id].ev != nullptr && by_task[id].ev->end_ns > cur_end) {
      cur = std::int32_t(id);
      cur_end = by_task[id].ev->end_ns;
    }
  }
  std::vector<std::int32_t> chain;  // built tail-first, reversed below
  while (cur >= 0) {
    chain.push_back(cur);
    std::int32_t best = -1;
    std::int64_t best_end = std::numeric_limits<std::int64_t>::min();
    for (std::int32_t p : preds[std::size_t(cur)]) {
      const Joined& jp = by_task[std::size_t(p)];
      if (jp.ev != nullptr && jp.ev->end_ns > best_end) {
        best = p;
        best_end = jp.ev->end_ns;
      }
    }
    cur = best;
  }
  std::reverse(chain.begin(), chain.end());

  b.valid = true;
  b.path_tasks = long(chain.size());
  const Joined& head = by_task[std::size_t(chain.front())];
  const Joined& tail = by_task[std::size_t(chain.back())];
  b.realized_ns = tail.ev->end_ns - head.ev->start_ns;

  std::map<int, CriticalPathWorker*> by_track;
  auto worker_of = [&](int track) -> CriticalPathWorker& {
    auto it = by_track.find(track);
    if (it == by_track.end()) {
      b.workers.push_back(CriticalPathWorker{track_names[std::size_t(track)], 0, 0, 0});
      it = by_track.emplace(track, &b.workers.back()).first;
    }
    return *it->second;
  };
  // b.workers uses a deque-free vector: reserve so pointers stay valid.
  b.workers.reserve(track_names.size());

  std::vector<GapEdge> edges;
  for (std::size_t n = 0; n < chain.size(); ++n) {
    const Joined& jt = by_task[std::size_t(chain[n])];
    const TraceEvent& e = *jt.ev;
    const std::int64_t dur = e.end_ns - e.start_ns;
    b.work_ns += dur;
    if (e.kind < CriticalPathBreakdown::kKinds) {
      b.work_by_kind[e.kind] += dur;
      ++b.tasks_by_kind[e.kind];
    }
    CriticalPathWorker& w = worker_of(jt.track);
    ++w.tasks;
    w.work_ns += dur;
    if (n == 0) continue;
    const Joined& jp = by_task[std::size_t(chain[n - 1])];
    GapEdge edge;
    edge.pred = chain[n - 1];
    edge.succ = chain[n];
    edge.pred_kind = jp.ev->kind;
    edge.succ_kind = e.kind;
    // Unclamped: both stamps come from one steady clock and the predecessor
    // finishes before the successor is released, so this is >= 0 in practice
    // — and leaving it exact keeps work + gap == realized an identity.
    edge.gap_ns = e.start_ns - jp.ev->end_ns;
    edge.cross_worker = jt.track != jp.track;
    edge.stolen = (e.flags & TraceEvent::kFlagStolen) != 0;
    b.gap_ns += edge.gap_ns;
    if (edge.cross_worker) {
      b.cross_gap_ns += edge.gap_ns;
    } else {
      b.dispatch_gap_ns += edge.gap_ns;
    }
    if (edge.stolen) ++b.stolen_edges;
    w.gap_ns += edge.gap_ns;
    ++b.gap_hist[std::size_t(gap_bucket(edge.gap_ns))];
    edge.pred_track = track_names[std::size_t(jp.track)];
    edge.succ_track = track_names[std::size_t(jt.track)];
    edges.push_back(std::move(edge));
  }

  std::sort(edges.begin(), edges.end(),
            [](const GapEdge& a, const GapEdge& c) { return a.gap_ns > c.gap_ns; });
  const int keep = std::max(0, options.top_k);
  if (int(edges.size()) > keep) edges.resize(std::size_t(keep));
  b.top_gaps = std::move(edges);
  std::sort(b.workers.begin(), b.workers.end(),
            [](const CriticalPathWorker& a, const CriticalPathWorker& c) {
              return a.track < c.track;
            });

  if (options.with_model) {
    b.model_cp_seconds =
        sim::critical_path_weighted(graph, KernelProfiler::global().live_profile().weight);
    if (b.model_cp_seconds > 0.0) {
      b.realized_over_model = double(b.realized_ns) / 1e9 / b.model_cp_seconds;
    }
  }
  return b;
}

CriticalPathBreakdown build_critical_path_breakdown(const Tracer& tracer,
                                                    const dag::TaskGraph& graph,
                                                    const BreakdownOptions& options) {
  BreakdownOptions opt = options;
  opt.since_ns = std::max(opt.since_ns, tracer.mark_ns());
  // collect_since already filtered; the group pass re-checks since_ns, which
  // is harmless (no event below the mark survives collection).
  return build_critical_path_breakdown(tracer.collect_since(opt.since_ns), graph, opt);
}

std::string format_critical_path_breakdown(const CriticalPathBreakdown& b) {
  if (!b.valid) return "";
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "critical path (sub %u): %ld tasks, realized %.3f ms\n", b.submission,
                b.path_tasks, double(b.realized_ns) / 1e6);
  out += line;
  const double rel = b.realized_ns > 0 ? 100.0 / double(b.realized_ns) : 0.0;
  std::snprintf(line, sizeof(line),
                "  work %.3f ms (%.1f%%), gap %.3f ms (%.1f%%): dispatch %.3f ms, "
                "cross-worker %.3f ms, %ld stolen edges\n",
                double(b.work_ns) / 1e6, double(b.work_ns) * rel, double(b.gap_ns) / 1e6,
                double(b.gap_ns) * rel, double(b.dispatch_gap_ns) / 1e6,
                double(b.cross_gap_ns) / 1e6, b.stolen_edges);
  out += line;
  if (b.model_cp_seconds >= 0.0) {
    std::snprintf(line, sizeof(line),
                  "  model critical path (live profile) %.3f ms, realized/model %.2f\n",
                  b.model_cp_seconds * 1e3, b.realized_over_model);
    out += line;
  }
  out += "  work by kind:";
  bool any = false;
  for (int k = 0; k < CriticalPathBreakdown::kKinds; ++k) {
    if (b.tasks_by_kind[std::size_t(k)] == 0) continue;
    std::snprintf(line, sizeof(line), " %s %ldx %.3fms",
                  kernels::kernel_name(static_cast<kernels::KernelKind>(k)),
                  b.tasks_by_kind[std::size_t(k)], double(b.work_by_kind[std::size_t(k)]) / 1e6);
    out += line;
    any = true;
  }
  if (!any) out += " (none)";
  out += '\n';
  for (const auto& w : b.workers) {
    std::snprintf(line, sizeof(line), "  on %-14s %4ld tasks, work %.3f ms, gap %.3f ms\n",
                  w.track.c_str(), w.tasks, double(w.work_ns) / 1e6, double(w.gap_ns) / 1e6);
    out += line;
  }
  for (const auto& g : b.top_gaps) {
    std::snprintf(line, sizeof(line),
                  "  gap %8.3f ms  %s #%d (%s) -> %s #%d (%s)%s%s\n", double(g.gap_ns) / 1e6,
                  kind_name(g.pred_kind), g.pred, g.pred_track.c_str(), kind_name(g.succ_kind),
                  g.succ, g.succ_track.c_str(), g.cross_worker ? " [cross]" : " [local]",
                  g.stolen ? " [stolen]" : "");
    out += line;
  }
  if (b.dropped > 0) {
    std::snprintf(line, sizeof(line),
                  "  note: %ld events dropped — the realized chain may be truncated\n",
                  b.dropped);
    out += line;
  }
  return out;
}

}  // namespace tiledqr::obs
