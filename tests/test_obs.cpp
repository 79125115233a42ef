// Tests for the observability layer: the per-thread trace collector
// (begin/end pairing, ring overflow accounting, disabled-mode cost contract),
// the Chrome trace_event exporter (validated by the strict JSON reader in
// common/json), the unified metrics registry (sources, retirement, named
// metrics, snapshots), the kernel profiler -> WeightProfile bridge, and the
// post-run schedule report.
//
// The ObsSmoke suite doubles as the CI `obs_smoke` ctest: it traces a real
// pool factorization end to end and writes build/trace_ci.json, which CI
// uploads as a Perfetto-loadable artifact.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "core/qr_session.hpp"
#include "dag/task_graph.hpp"
#include "matrix/generate.hpp"
#include "obs/critical_path.hpp"
#include "obs/health.hpp"
#include "obs/kernel_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/schedule_report.hpp"
#include "obs/trace.hpp"
#include "obs/trace_import.hpp"
#include "runtime/executor.hpp"
#include "runtime/thread_pool.hpp"

namespace tiledqr {
namespace {

using json::Value;

/// Member `key` of a parsed object; a missing member fails the calling test.
const Value& at(const Value& v, const char* key) {
  const Value* member = v.find(key);
  if (member == nullptr) throw std::runtime_error(std::string("missing key: ") + key);
  return *member;
}

/// A file-name stem unique to this process, in the test temp directory. The
/// append-safe export tests write "<stem>.<ext>" and "<stem>-1.<ext>", and
/// test_obs processes sharing a directory must not write or delete each
/// other's files.
std::string process_stem(const char* name) {
  return ::testing::TempDir() + name + "_" + std::to_string(getpid());
}

// ------------------------------------------------------------------------
// Trace tests share the process-global tracer; each test starts and ends
// from the disabled, empty state. (CMake marks this binary RUN_SERIAL so a
// concurrently scheduled test's pool cannot record into our tracks.)
struct TracerGuard {
  obs::Tracer& tracer = obs::Tracer::instance();
  TracerGuard() {
    tracer.disable();
    tracer.clear();
  }
  ~TracerGuard() {
    tracer.disable();
    tracer.clear();
  }
};

/// Chrome-trace "X" events of one exported JSON document.
std::vector<Value> slice_events(const Value& doc) {
  std::vector<Value> out;
  for (const Value& e : at(doc, "traceEvents").array)
    if (at(e, "ph").string == "X") out.push_back(e);
  return out;
}

std::map<int, std::string> thread_names(const Value& doc) {
  std::map<int, std::string> names;
  for (const Value& e : at(doc, "traceEvents").array)
    if (at(e, "ph").string == "M" && at(e, "name").string == "thread_name")
      names[int(at(e, "tid").number)] = at(at(e, "args"), "name").string;
  return names;
}

TEST(Trace, DisabledModeRecordsNothing) {
  TracerGuard guard;
  EXPECT_FALSE(guard.tracer.enabled());
  guard.tracer.record(10, 20, 0, 0, -1, -1, -1, 0, 1, false);
  EXPECT_EQ(guard.tracer.event_count(), 0u);
  EXPECT_EQ(guard.tracer.dropped_count(), 0);

  // A full factorization with tracing off leaves no events either — the
  // acceptance contract behind the "< 5% overhead" bench assertion.
  core::QrSession session(core::QrSession::Config{.threads = 2});
  auto a = random_matrix<double>(64, 32, 0xB5);
  core::Options opt;
  opt.nb = 16;
  opt.ib = 8;
  (void)session.submit(ConstMatrixView<double>(a.view()), opt).get();
  EXPECT_EQ(guard.tracer.event_count(), 0u);
}

TEST(Trace, RecordsPairedEventsPerThread) {
  TracerGuard guard;
  guard.tracer.enable();

  constexpr int kThreads = 3;
  constexpr int kEvents = 50;
  // Barrier: every thread must bind (and name) its track before any thread
  // exits — a released track is reused by the next binder, and this test
  // needs three distinct tracks.
  std::atomic<int> bound{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([w, &guard, &bound] {
      guard.tracer.set_thread_track_name("pair.w" + std::to_string(w));
      bound.fetch_add(1);
      while (bound.load() < kThreads) std::this_thread::yield();
      for (int e = 0; e < kEvents; ++e) {
        const std::int64_t t0 = obs::now_ns();
        const std::int64_t t1 = obs::now_ns();
        guard.tracer.record(t0, t1, std::uint8_t(e % 6), e, -1, w, e, e, /*submission=*/7,
                            (e % 2) != 0);
      }
    });
  }
  for (auto& t : threads) t.join();

  int matched_tracks = 0;
  for (const auto& track : guard.tracer.collect()) {
    if (track.name.rfind("pair.w", 0) != 0) continue;
    ++matched_tracks;
    ASSERT_EQ(track.events.size(), std::size_t(kEvents)) << track.name;
    EXPECT_EQ(track.dropped, 0);
    std::int64_t prev_start = 0;
    for (int e = 0; e < kEvents; ++e) {
      const obs::TraceEvent& ev = track.events[std::size_t(e)];
      EXPECT_GE(ev.end_ns, ev.start_ns);     // begin/end pairing, same thread
      EXPECT_GE(ev.start_ns, prev_start);    // recording order preserved
      prev_start = ev.start_ns;
      EXPECT_EQ(ev.task, e);
      EXPECT_EQ(ev.submission, 7u);
      EXPECT_EQ(ev.kind, std::uint8_t(e % 6));
      EXPECT_EQ((ev.flags & obs::TraceEvent::kFlagStolen) != 0, (e % 2) != 0);
    }
  }
  EXPECT_EQ(matched_tracks, kThreads);
  EXPECT_GE(guard.tracer.event_count(), std::size_t(kThreads * kEvents));
}

TEST(Trace, OverflowDropsAreCountedNotCorrupting) {
  TracerGuard guard;
  guard.tracer.enable();

  // Overflow any ring (default capacity 65536; a reused one can be smaller).
  constexpr long kRecords = 70000;
  std::thread writer([&guard] {
    guard.tracer.set_thread_track_name("overflow.w0");
    for (long e = 0; e < kRecords; ++e)
      guard.tracer.record(e, e + 1, 0, 1, -1, -1, -1, std::int32_t(e),
                          /*submission=*/0xBEEF, false);
  });
  writer.join();

  bool found = false;
  for (const auto& track : guard.tracer.collect()) {
    if (track.name != "overflow.w0") continue;
    found = true;
    // Nothing lost silently: kept + dropped accounts for every record().
    EXPECT_GT(track.dropped, 0);
    EXPECT_EQ(long(track.events.size()) + track.dropped, kRecords);
    // The ring kept the oldest events, uncorrupted, in order.
    for (std::size_t e = 0; e < track.events.size(); ++e) {
      ASSERT_EQ(track.events[e].task, std::int32_t(e));
      ASSERT_EQ(track.events[e].start_ns, std::int64_t(e));
      ASSERT_EQ(track.events[e].submission, 0xBEEFu);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GT(guard.tracer.dropped_count(), 0);
}

TEST(Trace, ClearResetsEventsAndDrops) {
  TracerGuard guard;
  guard.tracer.enable();
  guard.tracer.record(1, 2, 0, 0, -1, -1, -1, 0, 1, false);
  EXPECT_GE(guard.tracer.event_count(), 1u);
  guard.tracer.disable();
  guard.tracer.clear();
  EXPECT_EQ(guard.tracer.event_count(), 0u);
  EXPECT_EQ(guard.tracer.dropped_count(), 0);
}

TEST(Trace, ExportedJsonIsValidAndComplete) {
  TracerGuard guard;
  guard.tracer.enable();

  std::thread writer([&guard] {
    guard.tracer.set_thread_track_name("export.w0");
    for (int e = 0; e < 10; ++e)
      guard.tracer.record(1000 * e, 1000 * e + 500, std::uint8_t(e % 6), e, e + 1, -1, -1, e,
                          3, false);
  });
  writer.join();

  std::ostringstream out;
  guard.tracer.export_chrome_json(out);
  Value doc = json::parse(out.str(), "exported JSON");

  EXPECT_EQ(at(doc, "displayTimeUnit").string, "ms");
  auto names = thread_names(doc);
  bool named = false;
  for (const auto& [tid, name] : names) named = named || name == "export.w0";
  EXPECT_TRUE(named);

  int matched = 0;
  for (const Value& e : slice_events(doc)) {
    // Complete events: non-negative microsecond timestamps and durations,
    // a tid with thread_name metadata, kernel-kind slice names.
    EXPECT_GE(at(e, "ts").number, 0.0);
    EXPECT_GE(at(e, "dur").number, 0.0);
    EXPECT_TRUE(names.count(int(at(e, "tid").number))) << "unnamed tid";
    if (names[int(at(e, "tid").number)] != "export.w0") continue;
    ++matched;
    EXPECT_EQ(at(e, "dur").number, 500.0 / 1000.0);  // 500 ns = 0.5 us
    EXPECT_TRUE(at(e, "args").find("i") != nullptr);
    EXPECT_TRUE(at(e, "args").find("sub") != nullptr);
    static const std::set<std::string> kKernels{"GEQRT", "UNMQR", "TSQRT",
                                               "TSMQR", "TTQRT", "TTMQR"};
    EXPECT_TRUE(kKernels.count(at(e, "name").string)) << at(e, "name").string;
  }
  EXPECT_EQ(matched, 10);
}

TEST(Trace, SubmissionIdsAreUnique) {
  std::uint32_t a = obs::next_trace_submission_id();
  std::uint32_t b = obs::next_trace_submission_id();
  EXPECT_NE(a, b);
}

TEST(Trace, TrackReuseClearsDeadThreadsEvents) {
  TracerGuard guard;
  guard.tracer.enable();

  // First lessee records and dies; its track returns to the free list.
  std::thread first([&guard] {
    guard.tracer.set_thread_track_name("reuse.old");
    for (int e = 0; e < 5; ++e)
      guard.tracer.record(100 * e, 100 * e + 50, 0, e, -1, 0, -1, e, /*submission=*/11,
                          false);
  });
  first.join();

  // The free list is LIFO, so the next binder leases that exact track. The
  // dead thread's name and events must be gone: a mid-process report built
  // now must not mix the stale run into the live one.
  std::thread second([&guard] {
    guard.tracer.set_thread_track_name("reuse.new");
    for (int e = 0; e < 2; ++e)
      guard.tracer.record(1000 + 10 * e, 1005 + 10 * e, 0, e, -1, 0, -1, e, /*submission=*/12,
                          false);
  });
  second.join();

  bool saw_old = false;
  bool saw_new = false;
  for (const auto& track : guard.tracer.collect()) {
    if (track.name == "reuse.old") saw_old = true;
    if (track.name != "reuse.new") continue;
    saw_new = true;
    ASSERT_EQ(track.events.size(), 2u);
    EXPECT_EQ(track.dropped, 0);
    for (const auto& e : track.events) EXPECT_EQ(e.submission, 12u);
  }
  EXPECT_FALSE(saw_old);
  EXPECT_TRUE(saw_new);
}

TEST(Trace, ExportNowInsertsUniqueSuffix) {
  TracerGuard guard;
  guard.tracer.enable();
  std::thread writer([&guard] {
    guard.tracer.set_thread_track_name("exportnow.w0");
    guard.tracer.record(100, 200, 0, 0, -1, 0, -1, 0, 1, false);
  });
  writer.join();

  const std::string stem = process_stem("export_now");
  std::remove((stem + ".json").c_str());
  std::remove((stem + "-1.json").c_str());
  const std::string p1 = guard.tracer.export_now(stem + ".json");
  const std::string p2 = guard.tracer.export_now(stem + ".json");
  EXPECT_EQ(p1, stem + ".json");
  EXPECT_EQ(p2, stem + "-1.json");  // append-safe: never overwrites

  // Both files exist and hold valid Chrome JSON.
  for (const std::string& path : {p1, p2}) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buf;
    buf << in.rdbuf();
    Value doc = json::parse(buf.str(), "exported JSON");
    EXPECT_EQ(slice_events(doc).size(), 1u) << path;
  }
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

// ------------------------------------------------------------------------

TEST(Metrics, NamedCountersGaugesHistograms) {
  obs::MetricsRegistry reg;
  reg.counter("requests").add(3);
  reg.counter("requests").add(2);
  reg.gauge("depth").set(7);
  reg.histogram("latency").record_ns(1000);
  reg.histogram("latency").record_ns(3000);

  auto snap = reg.snapshot();
  EXPECT_EQ(snap.value("requests"), 5.0);
  EXPECT_EQ(snap.value("depth"), 7.0);
  EXPECT_EQ(snap.value("latency.count"), 2.0);
  EXPECT_NEAR(snap.value("latency.mean_us"), 2.0, 1e-9);
  EXPECT_TRUE(std::isnan(snap.value("no.such.metric")));
}

TEST(Metrics, HistogramQuantilesAreBucketBoundsClampedToMax) {
  obs::Histogram h;
  EXPECT_EQ(h.quantile_ns(0.5), 0.0);
  for (int i = 0; i < 100; ++i) h.record_ns(1000);  // bucket [512, 1024)
  h.record_ns(1 << 20);
  EXPECT_EQ(h.count(), 101);
  EXPECT_EQ(h.max_ns(), 1 << 20);
  double p50 = h.quantile_ns(0.5);
  EXPECT_GE(p50, 1000.0);   // within its power-of-two bucket...
  EXPECT_LE(p50, 2048.0);   // ...never past the bucket's upper bound
  EXPECT_EQ(h.quantile_ns(1.0), double(1 << 20));  // clamped to observed max
}

TEST(Metrics, SourcesPrefixAndRetire) {
  obs::MetricsRegistry reg;
  {
    auto handle = reg.register_source("pool0", [](std::vector<obs::Sample>& out) {
      out.push_back({"tasks", 42.0});
    });
    EXPECT_EQ(reg.snapshot().value("pool0.tasks"), 42.0);
  }
  // A dead source's final samples are frozen, so end-of-run dumps still show
  // closed components.
  EXPECT_EQ(reg.snapshot().value("pool0.tasks"), 42.0);
  reg.clear_retired();
  EXPECT_TRUE(std::isnan(reg.snapshot().value("pool0.tasks")));
}

TEST(Metrics, UniqueLabelsPerPrefix) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.unique_label("pool"), "pool0");
  EXPECT_EQ(reg.unique_label("pool"), "pool1");
  EXPECT_EQ(reg.unique_label("stream"), "stream0");
}

TEST(Metrics, JsonDumpParses) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").add(1);
  reg.histogram("h").record_ns(500);
  Value doc = json::parse(reg.snapshot().to_json(), "exported JSON");
  EXPECT_EQ(at(doc, "a.count").number, 1.0);
  EXPECT_EQ(at(doc, "h.count").number, 1.0);
  EXPECT_FALSE(reg.snapshot().to_text().empty());
}

TEST(Metrics, DumpNowInsertsUniqueSuffix) {
  obs::MetricsRegistry reg;
  reg.counter("dumped.count").add(1);
  const std::string stem = process_stem("dump_now");
  std::remove((stem + ".txt").c_str());
  std::remove((stem + "-1.txt").c_str());
  const std::string p1 = reg.dump_now(stem + ".txt");
  const std::string p2 = reg.dump_now(stem + ".txt");
  EXPECT_EQ(p1, stem + ".txt");
  EXPECT_EQ(p2, stem + "-1.txt");  // append-safe, like Tracer::export_now
  std::ifstream in(p2);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("dumped.count"), std::string::npos);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(Metrics, RuntimeComponentsExportThroughGlobalRegistry) {
  auto& reg = obs::MetricsRegistry::global();
  core::QrSession session(core::QrSession::Config{.threads = 2});
  core::QrSession::StreamOptions sopt;
  sopt.nb = 16;
  sopt.ib = 8;
  sopt.label = "unit";
  auto stream = session.stream<double>(sopt);

  constexpr int kPushes = 3;
  std::vector<std::future<core::TiledQr<double>>> futures;
  for (int r = 0; r < kPushes; ++r) {
    auto a = random_matrix<double>(48, 32, 0xC0 + unsigned(r));
    futures.push_back(stream.push(ConstMatrixView<double>(a.view())));
  }
  for (auto& f : futures) (void)f.get();
  // get() returns at promise fulfilment, which precedes the latency record;
  // drain() returns only after every admitted request fully resolved.
  stream.drain();

  // Live: the stream's source is registered under its label.
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.value("stream.unit.pushed"), double(kPushes));
  EXPECT_EQ(snap.value("stream.unit.latency.count"), double(kPushes));
  EXPECT_GT(snap.value("stream.unit.latency.mean_us"), 0.0);

  // The session pool registered as "pool<N>"; find it via the prefix API.
  bool pool_found = false;
  for (const auto& s : snap.samples)
    pool_found = pool_found || (s.name.rfind("pool", 0) == 0 &&
                                s.name.find(".tasks_executed") != std::string::npos);
  EXPECT_TRUE(pool_found);

  // Closed: the stream's totals survive as retired samples.
  stream.close();
  EXPECT_EQ(reg.snapshot().value("stream.unit.pushed"), double(kPushes));
}

// ------------------------------------------------------------------------

TEST(KernelProfiler, EmptyProfilerReturnsFallbackUnchanged) {
  obs::KernelProfiler prof;
  auto fallback = perf::sc11_profile();
  auto live = prof.live_profile(fallback);
  EXPECT_EQ(live.id, fallback.id);
  EXPECT_EQ(live.weight, fallback.weight);
}

TEST(KernelProfiler, LiveProfileUsesObservedMeansAndScalesTheRest) {
  obs::KernelProfiler prof;
  auto fallback = perf::sc11_profile();
  // Observe only GEQRT, at exactly 3x its fallback weight (in seconds).
  const double observed_seconds = 3.0 * fallback.weight[0];
  for (int s = 0; s < 8; ++s)
    prof.record(0, std::int64_t(observed_seconds * 1e9));
  auto live = prof.live_profile(fallback);
  EXPECT_EQ(live.id, "live");
  EXPECT_NEAR(live.weight[0], observed_seconds, observed_seconds * 1e-6);
  // Unobserved kinds keep the fallback's relative shape, rescaled by the
  // observed/fallback ratio (3x) so they stay comparable.
  for (std::size_t k = 1; k < live.weight.size(); ++k)
    EXPECT_NEAR(live.weight[k], 3.0 * fallback.weight[k], 3.0 * fallback.weight[k] * 1e-6)
        << "kind " << k;
  EXPECT_EQ(prof.samples(0), 8);
  EXPECT_EQ(prof.total_samples(), 8);
  prof.reset();
  EXPECT_EQ(prof.total_samples(), 0);
}

// ------------------------------------------------------------------------
// CriticalPath: realized-path reconstruction over synthetic traces with
// known-exact decompositions, the tracer's mark window, and the offline
// Chrome-JSON import round trip.

obs::TraceEvent task_event(std::int64_t start, std::int64_t end, std::uint8_t kind,
                           std::int32_t task, bool stolen = false) {
  obs::TraceEvent e;
  e.start_ns = start;
  e.end_ns = end;
  e.task = task;
  e.submission = 1;
  e.i = task;
  e.k = 0;
  e.kind = kind;
  e.flags = stolen ? obs::TraceEvent::kFlagStolen : std::uint8_t(0);
  return e;
}

/// A hand-built 3-task chain 0 -> 1 -> 2 (GEQRT, then two TSQRTs).
dag::TaskGraph chain_graph() {
  dag::TaskGraph g;
  g.p = 3;
  g.q = 1;
  g.tasks.push_back(dag::Task{kernels::KernelKind::GEQRT, 0, -1, 0, -1, 0, {1}});
  g.tasks.push_back(dag::Task{kernels::KernelKind::TSQRT, 1, 0, 0, -1, 1, {2}});
  g.tasks.push_back(dag::Task{kernels::KernelKind::TSQRT, 2, 0, 0, -1, 1, {}});
  return g;
}

TEST(CriticalPath, SyntheticChainDecomposesExactly) {
  // task 0 on w0 [1000, 1100]; task 1 stolen onto w1 after a 50 ns
  // cross-worker gap [1150, 1250]; task 2 on w1 after a 10 ns dispatch gap
  // [1260, 1400]. Every breakdown total is known exactly.
  std::vector<obs::TrackSnapshot> tracks(2);
  tracks[0].name = "syn.w0";
  tracks[0].tid = 0;
  tracks[0].events.push_back(task_event(1000, 1100, 0, 0));
  tracks[1].name = "syn.w1";
  tracks[1].tid = 1;
  tracks[1].events.push_back(task_event(1150, 1250, 2, 1, /*stolen=*/true));
  tracks[1].events.push_back(task_event(1260, 1400, 2, 2));

  obs::BreakdownOptions opt;
  opt.with_model = false;
  const auto b = obs::build_critical_path_breakdown(tracks, chain_graph(), opt);
  ASSERT_TRUE(b.valid);
  EXPECT_EQ(b.submission, 1u);
  EXPECT_EQ(b.events_matched, 3);
  EXPECT_EQ(b.dropped, 0);
  EXPECT_EQ(b.path_tasks, 3);
  EXPECT_EQ(b.realized_ns, 400);
  EXPECT_EQ(b.work_ns, 340);
  EXPECT_EQ(b.gap_ns, 60);
  EXPECT_EQ(b.cross_gap_ns, 50);
  EXPECT_EQ(b.dispatch_gap_ns, 10);
  EXPECT_EQ(b.stolen_edges, 1);
  // The headline identity: work + gap == realized, exactly.
  EXPECT_EQ(b.work_ns + b.gap_ns, b.realized_ns);
  EXPECT_EQ(b.dispatch_gap_ns + b.cross_gap_ns, b.gap_ns);

  // Per-kind attribution.
  EXPECT_EQ(b.work_by_kind[0], 100);  // GEQRT
  EXPECT_EQ(b.work_by_kind[2], 240);  // TSQRT x2
  EXPECT_EQ(b.tasks_by_kind[0], 1);
  EXPECT_EQ(b.tasks_by_kind[2], 2);

  // Widest gap first: the stolen cross-worker handoff 0 -> 1.
  ASSERT_EQ(b.top_gaps.size(), 2u);
  EXPECT_EQ(b.top_gaps[0].pred, 0);
  EXPECT_EQ(b.top_gaps[0].succ, 1);
  EXPECT_EQ(b.top_gaps[0].gap_ns, 50);
  EXPECT_TRUE(b.top_gaps[0].cross_worker);
  EXPECT_TRUE(b.top_gaps[0].stolen);
  EXPECT_EQ(b.top_gaps[0].pred_track, "syn.w0");
  EXPECT_EQ(b.top_gaps[0].succ_track, "syn.w1");
  EXPECT_EQ(b.top_gaps[1].gap_ns, 10);
  EXPECT_FALSE(b.top_gaps[1].cross_worker);

  // Per-worker attribution sums back to the totals; incoming-edge gaps are
  // charged to the successor's track (both gaps precede w1 tasks).
  ASSERT_EQ(b.workers.size(), 2u);
  long worker_tasks = 0;
  std::int64_t worker_work = 0, worker_gap = 0;
  for (const auto& w : b.workers) {
    worker_tasks += w.tasks;
    worker_work += w.work_ns;
    worker_gap += w.gap_ns;
    if (w.track == "syn.w1") {
      EXPECT_EQ(w.tasks, 2);
      EXPECT_EQ(w.work_ns, 240);
      EXPECT_EQ(w.gap_ns, 60);
    }
  }
  EXPECT_EQ(worker_tasks, b.path_tasks);
  EXPECT_EQ(worker_work, b.work_ns);
  EXPECT_EQ(worker_gap, b.gap_ns);

  // log2 histogram: 50 ns -> bucket 5 [32, 64), 10 ns -> bucket 3 [8, 16).
  EXPECT_EQ(b.gap_hist[5], 1);
  EXPECT_EQ(b.gap_hist[3], 1);

  EXPECT_LT(b.model_cp_seconds, 0.0);  // with_model = false
  EXPECT_FALSE(obs::format_critical_path_breakdown(b).empty());
}

TEST(CriticalPath, GatingPredecessorIsTheLatestFinisher) {
  // Diamond 0 -> {1, 2} -> 3 where task 1 finishes after task 2: the walk
  // from task 3 must follow the dependency that actually gated its start.
  dag::TaskGraph g;
  g.p = 4;
  g.q = 1;
  g.tasks.push_back(dag::Task{kernels::KernelKind::GEQRT, 0, -1, 0, -1, 0, {1, 2}});
  g.tasks.push_back(dag::Task{kernels::KernelKind::TSQRT, 1, 0, 0, -1, 1, {3}});
  g.tasks.push_back(dag::Task{kernels::KernelKind::TSQRT, 2, 0, 0, -1, 1, {3}});
  g.tasks.push_back(dag::Task{kernels::KernelKind::TSQRT, 3, 0, 0, -1, 2, {}});

  std::vector<obs::TrackSnapshot> tracks(1);
  tracks[0].name = "dia.w0";
  tracks[0].events.push_back(task_event(1000, 1010, 0, 0));
  tracks[0].events.push_back(task_event(1020, 1050, 2, 1));  // the late pred
  tracks[0].events.push_back(task_event(1015, 1030, 2, 2));
  tracks[0].events.push_back(task_event(1055, 1070, 2, 3));

  obs::BreakdownOptions opt;
  opt.with_model = false;
  const auto b = obs::build_critical_path_breakdown(tracks, g, opt);
  ASSERT_TRUE(b.valid);
  EXPECT_EQ(b.events_matched, 4);
  EXPECT_EQ(b.path_tasks, 3);  // 0, 1, 3 — not through task 2
  EXPECT_EQ(b.realized_ns, 70);
  EXPECT_EQ(b.work_ns, 55);  // 10 + 30 + 15
  EXPECT_EQ(b.gap_ns, 15);   // 10 (0 -> 1) + 5 (1 -> 3)
  EXPECT_EQ(b.dispatch_gap_ns, 15);
  EXPECT_EQ(b.cross_gap_ns, 0);
  ASSERT_FALSE(b.top_gaps.empty());
  EXPECT_EQ(b.top_gaps[0].pred, 0);
  EXPECT_EQ(b.top_gaps[0].succ, 1);
}

TEST(CriticalPath, TracerMarkScopesBreakdown) {
  TracerGuard guard;
  guard.tracer.enable();
  guard.tracer.set_thread_track_name("mark.w0");

  // Batch A: a chain run safely in the past (steady clock, so well below
  // any mark taken now). realized would be 900 ns.
  const std::int64_t past = obs::now_ns() - 1'000'000;
  guard.tracer.record(past + 0, past + 100, 0, 0, -1, 0, -1, 0, 1, false);
  guard.tracer.record(past + 200, past + 500, 2, 1, 0, 0, -1, 1, 1, false);
  guard.tracer.record(past + 600, past + 900, 2, 2, 0, 0, -1, 2, 1, false);

  // Batch B after the mark: the same tasks re-run, realized 400 ns.
  const std::int64_t m = guard.tracer.mark();
  guard.tracer.record(m + 1000, m + 1100, 0, 0, -1, 0, -1, 0, 1, false);
  guard.tracer.record(m + 1150, m + 1250, 2, 1, 0, 0, -1, 1, 1, false);
  guard.tracer.record(m + 1260, m + 1400, 2, 2, 0, 0, -1, 2, 1, false);

  // All six events are still in the ring for the exporter...
  EXPECT_EQ(guard.tracer.event_count(), 6u);
  // ...but mark-aware analyses see only batch B.
  obs::BreakdownOptions opt;
  opt.with_model = false;
  const auto b = obs::build_critical_path_breakdown(guard.tracer, chain_graph(), opt);
  ASSERT_TRUE(b.valid);
  EXPECT_EQ(b.events_matched, 3);
  EXPECT_EQ(b.realized_ns, 400);
  const auto report = obs::build_schedule_report(guard.tracer);
  EXPECT_EQ(report.tasks, 3);
}

TEST(CriticalPath, ImportRoundTripMatchesDirectAnalysis) {
  TracerGuard guard;
  guard.tracer.enable();

  // Record the synthetic chain on two real threads (distinct tracks; the
  // barrier keeps the first lease from being reused by the second thread).
  std::atomic<int> bound{0};
  std::thread w0([&guard, &bound] {
    guard.tracer.set_thread_track_name("rt.w0");
    bound.fetch_add(1);
    while (bound.load() < 2) std::this_thread::yield();
    guard.tracer.record(1000, 1100, 0, 0, -1, 0, -1, 0, 1, false);
  });
  std::thread w1([&guard, &bound] {
    guard.tracer.set_thread_track_name("rt.w1");
    bound.fetch_add(1);
    while (bound.load() < 2) std::this_thread::yield();
    guard.tracer.record(1150, 1250, 2, 1, 0, 0, -1, 1, 1, true);
    guard.tracer.record(1260, 1400, 2, 2, 0, 0, -1, 2, 1, false);
  });
  w0.join();
  w1.join();

  obs::BreakdownOptions opt;
  opt.with_model = false;
  const auto graph = chain_graph();
  const auto direct = obs::build_critical_path_breakdown(guard.tracer.collect(), graph, opt);
  ASSERT_TRUE(direct.valid);

  // Export to Chrome JSON, re-import, re-analyze: the offline analyzer must
  // reproduce the in-process breakdown exactly (timestamps are integral
  // nanoseconds, which survive the microsecond-format round trip).
  std::ostringstream out;
  guard.tracer.export_chrome_json(out);
  std::istringstream in(out.str());
  const auto imported = obs::import_chrome_json(in);
  const auto offline = obs::build_critical_path_breakdown(imported, graph, opt);
  ASSERT_TRUE(offline.valid);
  EXPECT_EQ(offline.path_tasks, direct.path_tasks);
  EXPECT_EQ(offline.events_matched, direct.events_matched);
  EXPECT_EQ(offline.realized_ns, direct.realized_ns);
  EXPECT_EQ(offline.work_ns, direct.work_ns);
  EXPECT_EQ(offline.gap_ns, direct.gap_ns);
  EXPECT_EQ(offline.dispatch_gap_ns, direct.dispatch_gap_ns);
  EXPECT_EQ(offline.cross_gap_ns, direct.cross_gap_ns);
  EXPECT_EQ(offline.stolen_edges, direct.stolen_edges);
  EXPECT_EQ(offline.work_by_kind, direct.work_by_kind);
  ASSERT_EQ(offline.top_gaps.size(), direct.top_gaps.size());
  for (std::size_t i = 0; i < direct.top_gaps.size(); ++i) {
    EXPECT_EQ(offline.top_gaps[i].pred, direct.top_gaps[i].pred);
    EXPECT_EQ(offline.top_gaps[i].succ, direct.top_gaps[i].succ);
    EXPECT_EQ(offline.top_gaps[i].gap_ns, direct.top_gaps[i].gap_ns);
    EXPECT_EQ(offline.top_gaps[i].stolen, direct.top_gaps[i].stolen);
    EXPECT_EQ(offline.top_gaps[i].pred_track, direct.top_gaps[i].pred_track);
  }

  // A trace file written before the exporter dropped the per-slice
  // "component" arg still loads: the importer ignores the arg, and the
  // analysis is the same.
  std::string legacy = out.str();
  for (std::size_t pos = 0; (pos = legacy.find(",\"stolen\":", pos)) != std::string::npos;
       pos += 24)
    legacy.insert(pos, ",\"component\":1");
  const std::string path = testing::TempDir() + "tiledqr_legacy_trace_" +
                           std::to_string(::getpid()) + ".json";
  std::ofstream(path) << legacy;
  const auto legacy_tracks = obs::import_chrome_json(path);
  std::remove(path.c_str());
  const auto from_legacy = obs::build_critical_path_breakdown(legacy_tracks, graph, opt);
  ASSERT_TRUE(from_legacy.valid);
  EXPECT_EQ(from_legacy.events_matched, direct.events_matched);
  EXPECT_EQ(from_legacy.path_tasks, direct.path_tasks);
  EXPECT_EQ(from_legacy.realized_ns, direct.realized_ns);
  EXPECT_EQ(from_legacy.work_ns, direct.work_ns);
  EXPECT_EQ(from_legacy.gap_ns, direct.gap_ns);
  EXPECT_EQ(from_legacy.stolen_edges, direct.stolen_edges);
}

// ------------------------------------------------------------------------
// Health: the live watchdog layer. Real pools, real sleeps — thresholds are
// chosen with wide margins so shared/TSan runners don't flake.

TEST(Health, ConstructorRejectsOutOfRangeOptions) {
  // A poll under 1 ms spins the monitor thread over every worker's ready
  // set; one huge enough overflows the nanosecond conversions. Each bad
  // value throws before the monitor starts.
  runtime::ThreadPool pool(2);
  using std::chrono::milliseconds;
  const auto bad = [&](auto&& set) {
    obs::HealthMonitor::Options o;
    set(o);
    EXPECT_THROW(obs::HealthMonitor monitor(pool, o), Error);
  };
  for (const milliseconds d : {milliseconds(-5), milliseconds(0), milliseconds(86'400'001),
                               milliseconds::max()}) {
    bad([&](auto& o) { o.poll = d; });
    bad([&](auto& o) { o.stall_after = d; });
  }
  for (const double f : {0.5, -1.0, std::nan(""), std::numeric_limits<double>::infinity()})
    bad([&](auto& o) { o.overrun_factor = f; });
  bad([](auto& o) { o.overrun_floor_ns = -1; });

  obs::HealthMonitor::Options edge;  // the bounds themselves are accepted
  edge.poll = milliseconds(1);
  edge.stall_after = std::chrono::hours(24);
  edge.overrun_factor = 1.0;
  edge.overrun_floor_ns = 0;
  EXPECT_NO_THROW(obs::HealthMonitor monitor(pool, edge));
}

TEST(Health, EnvOutOfRangeValuesKeepTheirDefaults) {
  const char* names[] = {"TILEDQR_HEALTH", "TILEDQR_HEALTH_POLL_MS", "TILEDQR_HEALTH_STALL_MS",
                         "TILEDQR_HEALTH_OVERRUN_FACTOR"};
  std::vector<std::optional<std::string>> saved;
  for (const char* n : names) {
    const char* v = std::getenv(n);
    saved.push_back(v ? std::optional<std::string>(v) : std::nullopt);
  }
  setenv("TILEDQR_HEALTH", "1", 1);
  setenv("TILEDQR_HEALTH_POLL_MS", "-5", 1);
  setenv("TILEDQR_HEALTH_STALL_MS", "99999999999999", 1);
  setenv("TILEDQR_HEALTH_OVERRUN_FACTOR", "nan", 1);
  {
    runtime::ThreadPool pool(2);
    EXPECT_NE(obs::HealthMonitor::maybe_from_env(pool), nullptr);
  }
  for (std::size_t i = 0; i < saved.size(); ++i)
    saved[i] ? setenv(names[i], saved[i]->c_str(), 1) : unsetenv(names[i]);
}

TEST(Health, OverrunWatchdogFlagsLongRunningTask) {
  runtime::ThreadPool pool(2);
  // Make sure GEQRT has a live-profile mean (isolated gtest_filter runs may
  // reach here with an empty profiler); 0.5 ms keeps the 2x threshold far
  // below the 150 ms the task actually takes.
  obs::KernelProfiler::global().record(0, 500'000);

  obs::HealthMonitor::Options hopt;
  hopt.poll = std::chrono::milliseconds(10);
  hopt.stall_after = std::chrono::seconds(10);  // not under test here
  hopt.overrun_factor = 2.0;
  hopt.overrun_floor_ns = 1'000'000;
  obs::HealthMonitor mon(pool, hopt);

  dag::TaskGraph g;
  g.p = 1;
  g.q = 1;
  g.tasks.push_back(dag::Task{kernels::KernelKind::GEQRT, 0, -1, 0, -1, 0, {}});
  pool.run(g, [](std::int32_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  });

  EXPECT_GE(mon.stats().overruns, 1);
  EXPECT_EQ(mon.stats().stalls, 0);
}

TEST(Health, StallWatchdogFlagsIdleWorkerWithReadyWork) {
  runtime::ThreadPool pool(2);
  obs::HealthMonitor::Options hopt;
  hopt.poll = std::chrono::milliseconds(10);
  hopt.stall_after = std::chrono::milliseconds(25);
  hopt.overrun_factor = 1e9;  // not under test here
  obs::HealthMonitor mon(pool, hopt);

  // Fan-out confined to one worker of a two-worker pool: while it grinds
  // through the successors sequentially, ready work queues up and the other
  // worker idles — the exact pathology the stall watchdog exists for.
  dag::TaskGraph g;
  g.p = 4;
  g.q = 1;
  g.tasks.push_back(dag::Task{kernels::KernelKind::GEQRT, 0, -1, 0, -1, 0, {1, 2, 3}});
  for (int t = 1; t <= 3; ++t)
    g.tasks.push_back(dag::Task{kernels::KernelKind::TSQRT, t, 0, 0, -1, 1, {}});
  pool.run(
      g, [](std::int32_t) { std::this_thread::sleep_for(std::chrono::milliseconds(60)); },
      runtime::SchedulePriority::CriticalPath, /*max_workers=*/1);

  EXPECT_GE(mon.stats().stalls, 1);
}

TEST(Health, SnapshotsAreOnDemandAppendSafeAndSignalDriven) {
  runtime::ThreadPool pool(2);
  obs::HealthMonitor::Options hopt;
  hopt.poll = std::chrono::milliseconds(5);
  const std::string stem = process_stem("health_snapshot");
  hopt.snapshot_path = stem + ".txt";
  hopt.report = [] { return std::string("REPORT_MARKER\n"); };
  std::remove((stem + ".txt").c_str());
  std::remove((stem + "-1.txt").c_str());
  obs::HealthMonitor mon(pool, hopt);

  // API path: a direct dump, synchronously.
  const std::string p1 = mon.dump_snapshot();
  EXPECT_EQ(p1, stem + ".txt");
  {
    std::ifstream in(p1);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("tiledqr health snapshot"), std::string::npos);
    EXPECT_NE(buf.str().find("metrics:"), std::string::npos);
    EXPECT_NE(buf.str().find("REPORT_MARKER"), std::string::npos);
  }
  EXPECT_EQ(mon.stats().snapshots, 1);

  // Operator path: SIGUSR1 -> atomic counter bump -> the monitor thread
  // writes the next snapshot, append-safe, without the process exiting.
  obs::HealthMonitor::install_sigusr1();
  std::raise(SIGUSR1);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (mon.stats().snapshots < 2 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(mon.stats().snapshots, 2);
  std::ifstream second(stem + "-1.txt");
  EXPECT_TRUE(second.good());

  std::remove((stem + ".txt").c_str());
  std::remove((stem + "-1.txt").c_str());
}

// ------------------------------------------------------------------------
// ObsSmoke: the CI smoke (also part of the plain test run). Traces a real
// pool factorization, validates the export with the test-side parser, and
// leaves trace_ci.json in the working directory (the build dir under ctest)
// for the workflow artifact.

TEST(ObsSmoke, TracedFactorizationExportsLoadableChromeTrace) {
  TracerGuard guard;
  guard.tracer.enable();

  constexpr int kWorkers = 2;
  core::QrSession session(core::QrSession::Config{.threads = kWorkers});
  auto a = random_matrix<double>(128, 64, 0x51);
  core::Options opt;
  opt.nb = 16;
  opt.ib = 8;
  (void)session.submit(ConstMatrixView<double>(a.view()), opt).get();
  guard.tracer.disable();

  const std::size_t recorded = guard.tracer.event_count();
  EXPECT_GT(recorded, 0u);

  // Exported under a per-process name and renamed onto trace_ci.json only
  // once validated: a same-directory rename replaces the file atomically, so
  // concurrent test_obs runs never read each other's half-written trace.
  const std::string path = "trace_ci.json." + std::to_string(getpid());
  guard.tracer.export_chrome_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  Value doc = json::parse(buf.str(), "exported JSON");

  // One track per pool worker, named by the instrumentation.
  auto names = thread_names(doc);
  int pool_tracks = 0;
  for (const auto& [tid, name] : names)
    if (name.rfind("pool", 0) == 0 && name.find(".w") != std::string::npos) ++pool_tracks;
  EXPECT_GE(pool_tracks, kWorkers);

  // Every recorded task appears as a named kernel slice on a named track.
  auto slices = slice_events(doc);
  EXPECT_EQ(slices.size(), recorded);
  static const std::set<std::string> kKernels{"GEQRT", "UNMQR", "TSQRT",
                                             "TSMQR", "TTQRT", "TTMQR"};
  std::set<std::string> seen;
  for (const Value& e : slices) {
    ASSERT_TRUE(names.count(int(at(e, "tid").number)));
    ASSERT_TRUE(kKernels.count(at(e, "name").string)) << at(e, "name").string;
    seen.insert(at(e, "name").string);
    EXPECT_GE(at(e, "dur").number, 0.0);
  }
  // An 8x4 tile grid exercises the panel kernel and its updates at minimum.
  EXPECT_GE(seen.size(), 2u);

  // The schedule report built from the same trace is coherent with it.
  auto report = obs::build_schedule_report(guard.tracer);
  EXPECT_EQ(report.tasks, long(recorded));
  EXPECT_GT(report.span_ns, 0);
  EXPECT_GT(report.utilization, 0.0);
  EXPECT_LE(report.utilization, 1.0 + 1e-9);
  EXPECT_FALSE(obs::format_schedule_report(report).empty());
  std::filesystem::rename(path, "trace_ci.json");
}

TEST(ObsSmoke, LiveKernelProfileFeedsScheduleReportModel) {
  TracerGuard guard;
  guard.tracer.enable();

  core::QrSession session(core::QrSession::Config{.threads = 2});
  auto a = random_matrix<double>(96, 48, 0x52);
  core::Options opt;
  opt.nb = 16;
  opt.ib = 8;
  opt.tree = trees::TreeConfig{trees::TreeKind::Greedy, trees::KernelFamily::TT, 1, 1};
  auto qr = session.submit(ConstMatrixView<double>(a.view()), opt).get();
  guard.tracer.disable();

  // The run fed the global kernel profiler, so live_profile() is measured.
  EXPECT_GT(obs::KernelProfiler::global().total_samples(), 0);
  auto live = obs::KernelProfiler::global().live_profile();
  EXPECT_EQ(live.id, "live");
  for (double w : live.weight) EXPECT_GT(w, 0.0);

  // Model comparison: achieved span vs bounded-sim makespan under the live
  // weights, for the plan this run actually executed.
  auto plan = session.plan_cache().get(6, 3, *opt.tree);
  (void)qr;
  auto report = obs::build_schedule_report(guard.tracer, plan->graph, 2);
  EXPECT_GT(report.model_seconds, 0.0);
  EXPECT_GT(report.model_ratio, 0.0);
}

TEST(ObsSmoke, CriticalPathBreakdownReconcilesWithReport) {
  TracerGuard guard;
  guard.tracer.enable();

  core::QrSession session(core::QrSession::Config{.threads = 2});
  core::Options opt;
  opt.nb = 16;
  opt.ib = 8;
  opt.tree = trees::TreeConfig{trees::TreeKind::Greedy, trees::KernelFamily::TT, 1, 1};

  // Warmup run: warms the plan and the pool before the measured run.
  auto warm = random_matrix<double>(96, 48, 0x53);
  (void)session.submit(ConstMatrixView<double>(warm.view()), opt).get();

  // Measured run, scoped by the mark: the breakdown and report must see
  // only this factorization. The profiler is cleared too, so the model
  // critical path uses this run's own kernel means, not the warm-up's or
  // samples earlier tests in the process recorded.
  guard.tracer.mark();
  obs::KernelProfiler::global().reset();
  auto a = random_matrix<double>(96, 48, 0x54);
  (void)session.submit(ConstMatrixView<double>(a.view()), opt).get();

  // The live health snapshot carries the schedule report while tracing.
  const std::string health = session.health_report();
  EXPECT_NE(health.find("critical path ("), std::string::npos);
  guard.tracer.disable();

  auto plan = session.plan_cache().get(6, 3, *opt.tree);
  const auto report = obs::build_schedule_report(guard.tracer, plan->graph, 2);
  const obs::CriticalPathBreakdown& b = report.breakdown;
  ASSERT_TRUE(b.valid);

  // Every traced task of the measured run joined against the plan's graph.
  EXPECT_EQ(b.dropped, 0);
  EXPECT_EQ(b.events_matched, long(plan->graph.tasks.size()));
  EXPECT_EQ(report.tasks, long(plan->graph.tasks.size()));

  // Reconciliation: work + gap == realized exactly, and the realized chain
  // fits inside the report's span (equal when the chain's head/tail are the
  // first/last events, which is typical but not guaranteed).
  EXPECT_GT(b.path_tasks, 0);
  EXPECT_GT(b.realized_ns, 0);
  EXPECT_EQ(b.work_ns + b.gap_ns, b.realized_ns);
  EXPECT_EQ(b.dispatch_gap_ns + b.cross_gap_ns, b.gap_ns);
  EXPECT_LE(b.realized_ns, report.span_ns);

  // Aggregations sum back to the totals.
  std::int64_t kind_work = 0;
  long kind_tasks = 0;
  for (int k = 0; k < obs::CriticalPathBreakdown::kKinds; ++k) {
    kind_work += b.work_by_kind[std::size_t(k)];
    kind_tasks += b.tasks_by_kind[std::size_t(k)];
  }
  EXPECT_EQ(kind_work, b.work_ns);
  EXPECT_EQ(kind_tasks, b.path_tasks);
  std::int64_t worker_work = 0, worker_gap = 0;
  for (const auto& w : b.workers) {
    worker_work += w.work_ns;
    worker_gap += w.gap_ns;
  }
  EXPECT_EQ(worker_work, b.work_ns);
  EXPECT_EQ(worker_gap, b.gap_ns);

  // Model comparison under the run's own profile: the realized chain carries
  // real durations plus scheduler gaps, so it sits at or above the model path
  // (0.9 slack absorbs the spread of single samples around their means).
  EXPECT_GT(b.model_cp_seconds, 0.0);
  EXPECT_GE(double(b.realized_ns) / 1e9, 0.9 * b.model_cp_seconds);
  EXPECT_GT(b.realized_over_model, 0.0);

  EXPECT_FALSE(obs::format_critical_path_breakdown(b).empty());
  EXPECT_NE(obs::format_schedule_report(report).find("critical path ("), std::string::npos);
}

}  // namespace
}  // namespace tiledqr
