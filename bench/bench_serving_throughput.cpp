// Serving throughput: the regime the persistent runtime exists for.
//
// Three execution strategies over the same work:
//   pool-sequential  — persistent pool + plan cache, one factorization at a
//                      time (submit, wait, repeat)
//   pool-batch       — per-matrix submissions: all DAGs in flight at once,
//                      interleaved on the shared pool
//   pool-fused       — QrSession::factorize_batch: the whole batch fused
//                      into ONE DAG submission (cached fused plan + cached
//                      scheduling ranks, per-subgraph completion sentinels)
//
// A dedicated overhead section isolates the per-graph dispatch cost of the
// pool and the per-submission cost of fused vs per-matrix batches with empty
// task bodies, and the fused results are checked bitwise against the
// sequential per-matrix replay.
//
// Workloads: a batch of small QRs (default 64 x 512x512, nb = 128 — tiny
// 4x4-tile DAGs where scheduling overhead dominates) and one large QR
// (default 2048x2048; TILEDQR_LARGE_N=4096 for the paper-scale point).
//
// Emits a table and, unless TILEDQR_BENCH_JSON is empty, a JSON blob with
// the raw numbers (fact/sec, speedups over pool-sequential, plan-cache hit
// rate) so CI and later PRs have a perf trajectory to compare against.
//
// Env knobs: TILEDQR_SERVE_COUNT, TILEDQR_SERVE_N, TILEDQR_SERVE_NB,
// TILEDQR_LARGE_N, TILEDQR_THREADS, TILEDQR_REPS, TILEDQR_QUICK,
// TILEDQR_BENCH_JSON (output path, default BENCH_serving.json).
#include <cstdlib>
#include <fstream>
#include <thread>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "core/qr_session.hpp"
#include "matrix/generate.hpp"
#include "obs/schedule_report.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

using namespace tiledqr;

namespace {

struct ModeResult {
  double seconds = 0.0;
  double per_sec = 0.0;
};

/// Pre-tiled inputs; every mode starts from a fresh copy of the same tiles,
/// so layout conversion cost is identical (and outside the timer).
struct Workload {
  std::vector<TileMatrix<double>> tiles;
  core::Options opt;
};

Workload make_workload(int count, std::int64_t n, int nb, int ib) {
  Workload w;
  // Pin the tree explicitly: the session batch paths autotune a disengaged
  // tree, and this bench compares execution strategies, not algorithms.
  w.opt.tree = trees::TreeConfig{};
  w.opt.nb = nb;
  w.opt.ib = std::min(ib, nb);
  w.tiles.reserve(size_t(count));
  for (int i = 0; i < count; ++i) {
    auto dense = random_matrix<double>(n, n, 0xBEEF + unsigned(i));
    w.tiles.push_back(TileMatrix<double>::from_dense(dense.view(), nb));
  }
  return w;
}

/// Persistent pool + plan cache, one factorization at a time.
ModeResult run_pool_sequential(core::QrSession& session, const Workload& w, int reps) {
  ModeResult out;
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    for (const auto& t0 : w.tiles) {
      auto qr = session.submit(TileMatrix<double>(t0), w.opt).get();
      (void)qr;
    }
    double sec = timer.seconds();
    if (best < 0.0 || sec < best) best = sec;
  }
  out.seconds = best;
  out.per_sec = double(w.tiles.size()) / best;
  return out;
}

/// Persistent pool + plan cache, all DAGs in flight at once.
ModeResult run_pool_batch(core::QrSession& session, const Workload& w, int reps) {
  ModeResult out;
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    std::vector<std::future<core::TiledQr<double>>> futures;
    futures.reserve(w.tiles.size());
    for (const auto& t0 : w.tiles) futures.push_back(session.submit(TileMatrix<double>(t0), w.opt));
    for (auto& f : futures) (void)f.get();
    double sec = timer.seconds();
    if (best < 0.0 || sec < best) best = sec;
  }
  out.seconds = best;
  out.per_sec = double(w.tiles.size()) / best;
  return out;
}

/// The whole batch fused into one DAG submission.
ModeResult run_pool_fused(core::QrSession& session, const Workload& w, int reps) {
  ModeResult out;
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    std::vector<TileMatrix<double>> copies(w.tiles.begin(), w.tiles.end());
    auto qrs = session.factorize_batch(std::move(copies), w.opt);
    (void)qrs;
    double sec = timer.seconds();
    if (best < 0.0 || sec < best) best = sec;
  }
  out.seconds = best;
  out.per_sec = double(w.tiles.size()) / best;
  return out;
}

/// Fused results must be bitwise identical to the sequential per-matrix
/// replay (the acceptance bar for DAG fusion).
bool verify_fused_bitwise(core::QrSession& session, const Workload& w, int check_count) {
  std::vector<TileMatrix<double>> copies(w.tiles.begin(), w.tiles.end());
  auto qrs = session.factorize_batch(std::move(copies), w.opt);
  const int limit = std::min<int>(check_count, int(qrs.size()));
  for (int i = 0; i < limit; ++i) {
    TileMatrix<double> a = w.tiles[size_t(i)];
    auto plan = core::make_plan(a.mt(), a.nt(), *w.opt.tree);
    core::TStore<double> ts(a.mt(), a.nt(), w.opt.ib, a.nb());
    core::TStore<double> t2s(a.mt(), a.nt(), w.opt.ib, a.nb());
    runtime::execute(
        plan.graph,
        [&](std::int32_t idx) {
          core::run_task_kernels(plan.graph.tasks[size_t(idx)], a, ts, t2s, w.opt.ib);
        },
        1);
    auto want = a.to_dense();
    auto got = qrs[size_t(i)].factors().to_dense();
    for (std::int64_t j = 0; j < want.cols(); ++j)
      for (std::int64_t r = 0; r < want.rows(); ++r)
        if (got(r, j) != want(r, j)) return false;
  }
  return true;
}

void add_mode_row(TextTable& t, const char* mode, const ModeResult& r, const ModeResult& base) {
  t.add_row({mode, stringf("%.4f", r.seconds), stringf("%.2f", r.per_sec),
             stringf("%.2fx", base.seconds / r.seconds)});
}

/// Pure scheduling overhead (paper fig. 2-3 style): drive the small-QR DAG
/// with empty task bodies, so the only cost is plan lookup + dispatch. This
/// is the quantity the persistent pool + plan cache exist to shrink, and it
/// is hardware-independent enough to compare across hosts. Returns us/graph.
double run_overhead(int p, int q, int threads, int calls) {
  auto noop = [](std::int32_t) {};
  const trees::TreeConfig tree{};
  core::PlanCache cache;
  runtime::ThreadPool pool(threads);
  WallTimer timer;
  for (int c = 0; c < calls; ++c) {
    auto plan = cache.get(p, q, tree);
    pool.run(plan->graph, noop);
  }
  return timer.seconds() * 1e6 / calls;
}

/// Per-submission scheduling overhead of a fused batch vs per-matrix DAGs:
/// the same K empty-body graphs dispatched as K submissions (cached plan +
/// cached ranks each) or as one cached fused submission. Both numbers are
/// us per graph, so fused < per-matrix means fusion saves real scheduler
/// work at that batch size.
struct FusedOverheadResult {
  int batch = 0;
  double per_matrix_us_per_graph = 0.0;
  double fused_us_per_graph = 0.0;
};

FusedOverheadResult run_fused_overhead(int p, int q, int threads, int batch, int calls) {
  FusedOverheadResult out;
  out.batch = batch;
  auto noop = [](std::int32_t) {};
  const trees::TreeConfig tree{};
  core::PlanCache cache;
  runtime::ThreadPool pool(threads);
  auto plan = cache.get(p, q, tree);
  auto fused = cache.get_fused(p, q, tree, batch);  // both warmed outside the timers
  {
    WallTimer timer;
    std::vector<std::future<void>> futures;
    futures.reserve(size_t(batch));
    for (int c = 0; c < calls; ++c) {
      futures.clear();
      for (int b = 0; b < batch; ++b)
        futures.push_back(pool.submit(plan->graph, noop, runtime::SchedulePriority::CriticalPath,
                                      0, nullptr, &plan->ranks));
      for (auto& f : futures) f.get();
    }
    out.per_matrix_us_per_graph = timer.seconds() * 1e6 / double(calls) / double(batch);
  }
  {
    WallTimer timer;
    for (int c = 0; c < calls; ++c) {
      auto f = pool.submit(fused->component_graph(), noop,
                           runtime::SchedulePriority::CriticalPath, 0, nullptr,
                           &fused->component_ranks(), fused->copies());
      f.get();
    }
    out.fused_us_per_graph = timer.seconds() * 1e6 / double(calls) / double(batch);
  }
  return out;
}

// ------------------------------------------------------ multicore scaling --

/// One point of the multicore scaling sweep: the pool-batch workload on
/// `threads` workers with pinning on/off, plus the scheduler's contention
/// and locality counters for that run. TILEDQR_PIN is read at pool
/// construction, so each point builds a fresh session.
struct ScalingRow {
  int threads = 0;
  bool pinned = false;
  double per_sec = 0.0;
  double speedup_vs_1t = 0.0;
  long tasks_stolen = 0;
  long steal_cas_retries = 0;
  long empty_steal_probes = 0;
  long tasks_home = 0;
  long tasks_foreign = 0;
  std::int64_t steal_lat_p50_ns = 0;  ///< successful-steal scan latency, bucket upper bound
  std::int64_t steal_lat_p95_ns = 0;
};

ScalingRow run_scaling_point(const Workload& w, int threads, bool pinned, int reps) {
  setenv("TILEDQR_PIN", pinned ? "1" : "0", 1);
  core::QrSession session(core::QrSession::Config{threads});
  ScalingRow row;
  row.threads = threads;
  row.pinned = pinned;
  row.per_sec = run_pool_batch(session, w, reps).per_sec;
  const auto stats = session.pool_stats();
  row.tasks_stolen = stats.tasks_stolen;
  row.steal_cas_retries = stats.steal_cas_retries;
  row.empty_steal_probes = stats.empty_steal_probes;
  row.tasks_home = stats.tasks_home;
  row.tasks_foreign = stats.tasks_foreign;
  row.steal_lat_p50_ns = stats.steal_latency_quantile_ns(0.50);
  row.steal_lat_p95_ns = stats.steal_latency_quantile_ns(0.95);
  return row;
}

}  // namespace

int main() {
  bench::Knobs knobs;
  const int threads = knobs.threads > 0 ? knobs.threads : default_thread_count();
  const int count = int(env_long("TILEDQR_SERVE_COUNT", knobs.quick ? 16 : 64));
  const std::int64_t small_n = env_long("TILEDQR_SERVE_N", knobs.quick ? 256 : 512);
  const int small_nb = int(env_long("TILEDQR_SERVE_NB", 128));
  const std::int64_t large_n = env_long("TILEDQR_LARGE_N", knobs.quick ? 1024 : 2048);

  std::printf("=== Serving throughput: persistent pool, per-matrix vs fused ===\n");
  std::printf("threads=%d small=%dx %lldx%lld (nb=%d) large=%lldx%lld (nb=%d) reps=%d\n\n",
              threads, count, (long long)small_n, (long long)small_n, small_nb,
              (long long)large_n, (long long)large_n, small_nb, knobs.reps);

  // ---- batch of small QRs --------------------------------------------- --
  auto small = make_workload(count, small_n, small_nb, knobs.ib);
  core::QrSession session(core::QrSession::Config{threads});
  auto seq_small = run_pool_sequential(session, small, knobs.reps);
  auto batch_small = run_pool_batch(session, small, knobs.reps);
  auto fused_small = run_pool_fused(session, small, knobs.reps);
  // Snapshot stats before the correctness pass so they reflect only the
  // benchmarked modes.
  auto cache_stats = session.plan_cache_stats();
  auto pool_stats = session.pool_stats();
  const bool fused_bitwise = verify_fused_bitwise(session, small, knobs.quick ? 2 : 4);

  TextTable ts(stringf("%d x %lldx%lld QRs (nb=%d, %d threads)", count, (long long)small_n,
                       (long long)small_n, small_nb, threads));
  ts.set_header({"mode", "seconds", "fact/s", "speedup"});
  add_mode_row(ts, "pool-sequential", seq_small, seq_small);
  add_mode_row(ts, "pool-batch", batch_small, seq_small);
  add_mode_row(ts, "pool-fused", fused_small, seq_small);
  bench::emit(ts, "serving_small", knobs);
  std::printf("fused batch bitwise identical to sequential replay: %s\n",
              fused_bitwise ? "yes" : "NO (BUG)");
  std::printf("plan cache: %ld hits / %ld misses (hit rate %.3f), %zu entries; "
              "fused: %ld hits / %ld misses, %zu entries\n",
              cache_stats.hits, cache_stats.misses, cache_stats.hit_rate(), cache_stats.entries,
              cache_stats.fused_hits, cache_stats.fused_misses, cache_stats.fused_entries);
  std::printf("pool: %ld graphs, %ld tasks executed, %ld stolen (%ld lost CAS, %ld empty "
              "probes), locality %ld home / %ld foreign\n\n",
              pool_stats.graphs_completed, pool_stats.tasks_executed, pool_stats.tasks_stolen,
              pool_stats.steal_cas_retries, pool_stats.empty_steal_probes,
              pool_stats.tasks_home, pool_stats.tasks_foreign);

  // ---- pure scheduling overhead ----------------------------------------- --
  const int tile_p = int((small_n + small_nb - 1) / small_nb);
  const int overhead_calls = knobs.quick ? 100 : 400;
  const double pool_us_per_graph = run_overhead(tile_p, tile_p, threads, overhead_calls);
  std::printf("scheduling overhead on the %dx%d-tile DAG (empty bodies, %d calls):\n", tile_p,
              tile_p, overhead_calls);
  std::printf("  persistent pool + cache  : %9.1f us/graph\n\n", pool_us_per_graph);

  // ---- fused vs per-matrix submission overhead -------------------------- --
  std::vector<FusedOverheadResult> fused_overheads;
  std::printf("fused vs per-matrix submission overhead (same %dx%d-tile DAG, empty bodies):\n",
              tile_p, tile_p);
  for (int batch : {4, 16, 64}) {
    auto fo = run_fused_overhead(tile_p, tile_p, threads, batch,
                                 std::max(8, overhead_calls / batch));
    fused_overheads.push_back(fo);
    std::printf("  batch %2d: per-matrix %8.1f us/graph, fused %8.1f us/graph  (%.2fx)\n",
                fo.batch, fo.per_matrix_us_per_graph, fo.fused_us_per_graph,
                fo.per_matrix_us_per_graph / fo.fused_us_per_graph);
  }
  std::printf("\n");

  // ---- multicore scaling ------------------------------------------------ --
  // The same small-QR batch swept across worker counts, pinned and unpinned
  // (TILEDQR_PIN), in pool-batch mode — per-matrix submissions in flight at
  // once, the shape that exercises dealing and stealing hardest. Steal
  // contention (lost top-CAS races, empty sweep probes) and the
  // home-vs-foreign locality split land next to each throughput point so
  // scaling claims carry their scheduler evidence. Results above
  // hardware_threads worker counts are oversubscribed — recorded anyway so
  // the curve is honest about the host.
  const char* saved_pin = std::getenv("TILEDQR_PIN");
  std::vector<ScalingRow> scaling;
  const int scaling_reps = std::max(2, knobs.reps);
  std::printf("multicore scaling (pool-batch, %d x %lldx%lld nb=%d, best of %d):\n", count,
              (long long)small_n, (long long)small_n, small_nb, scaling_reps);
  std::printf("  %7s %6s %10s %9s %8s %8s %8s %9s %9s %9s %9s\n", "threads", "pinned", "fact/s",
              "speedup", "stolen", "cas_ret", "empty", "home", "foreign", "st_p50us", "st_p95us");
  for (int t : {1, 2, 4, 8}) {
    for (bool pinned : {false, true}) {
      auto row = run_scaling_point(small, t, pinned, scaling_reps);
      const double base =
          scaling.empty() ? row.per_sec : scaling.front().per_sec;  // 1t unpinned
      row.speedup_vs_1t = row.per_sec / base;
      std::printf("  %7d %6s %10.1f %8.2fx %8ld %8ld %8ld %9ld %9ld %9.1f %9.1f\n", row.threads,
                  row.pinned ? "yes" : "no", row.per_sec, row.speedup_vs_1t, row.tasks_stolen,
                  row.steal_cas_retries, row.empty_steal_probes, row.tasks_home,
                  row.tasks_foreign, double(row.steal_lat_p50_ns) / 1e3,
                  double(row.steal_lat_p95_ns) / 1e3);
      scaling.push_back(row);
    }
  }
  saved_pin ? setenv("TILEDQR_PIN", saved_pin, 1) : unsetenv("TILEDQR_PIN");
  std::printf("\n");

  // ---- observability overhead ------------------------------------------- --
  // The same real-kernel pool-sequential pass, untraced then traced (best of
  // >= 3 reps each). The disabled path is one relaxed atomic load per task,
  // so tracing must be free when off and cheap when on; the smoke assert
  // (TILEDQR_OBS_ASSERT, on by default) enforces a < 5% ratio.
  auto& tracer = obs::Tracer::instance();
  const bool was_tracing = tracer.enabled();
  const int obs_reps = std::max(3, knobs.reps);
  tracer.disable();
  auto untraced = run_pool_sequential(session, small, obs_reps);
  tracer.enable();
  tracer.mark();  // scope the report + critical-path forensics to this pass
  auto traced = run_pool_sequential(session, small, obs_reps);
  if (!was_tracing) tracer.disable();
  const double obs_ratio = traced.seconds / untraced.seconds;
  std::printf("observability overhead (pool-sequential, best of %d):\n", obs_reps);
  std::printf("  untraced %.4f s, traced %.4f s -> ratio %.4f (%+.2f%%)\n", untraced.seconds,
              traced.seconds, obs_ratio, (obs_ratio - 1.0) * 100.0);

  // Critical-path forensics: join the traced pass against the cached plan's
  // DAG and decompose the dominant factorization's realized chain into work
  // vs scheduler gap. Reconstruction must itself be cheap — asserted < 1% of
  // the traced pass it explains (enforced with the overhead budget below).
  auto small_plan = session.plan_cache().get(tile_p, tile_p, *small.opt.tree);
  WallTimer analysis_timer;
  const auto sched = obs::build_schedule_report(tracer, small_plan->graph, threads);
  const double analysis_seconds = analysis_timer.seconds();
  const obs::CriticalPathBreakdown& bd = sched.breakdown;
  std::string sched_report = obs::format_schedule_report(sched);
  if (!sched_report.empty()) std::printf("%s", sched_report.c_str());
  std::printf("  (report + breakdown built in %.3f ms, %.3f%% of the traced pass)\n\n",
              analysis_seconds * 1e3, 100.0 * analysis_seconds / traced.seconds);

  // ---- one large QR ---------------------------------------------------- --
  auto large = make_workload(1, large_n, small_nb, knobs.ib);
  core::QrSession large_session(core::QrSession::Config{threads});
  auto pool_large = run_pool_sequential(large_session, large, knobs.reps);

  TextTable tl(stringf("one %lldx%lld QR (nb=%d, %d threads)", (long long)large_n,
                       (long long)large_n, small_nb, threads));
  tl.set_header({"mode", "seconds", "fact/s"});
  tl.add_row({"pool", stringf("%.4f", pool_large.seconds), stringf("%.2f", pool_large.per_sec)});
  bench::emit(tl, "serving_large", knobs);

  // ---- JSON record ----------------------------------------------------- --
  auto json_path = env_string("TILEDQR_BENCH_JSON").value_or("BENCH_serving.json");
  if (!json_path.empty()) {
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"bench\": \"serving_throughput\",\n"
         << stringf("  \"host\": {\"hardware_threads\": %u, \"bench_threads\": %d},\n",
                    std::thread::hardware_concurrency(), threads)
         << stringf("  \"small\": {\"count\": %d, \"n\": %lld, \"nb\": %d,\n", count,
                    (long long)small_n, small_nb)
         << stringf("    \"pool_sequential\": {\"seconds\": %.6f, \"per_sec\": %.3f},\n",
                    seq_small.seconds, seq_small.per_sec)
         << stringf("    \"pool_batch\": {\"seconds\": %.6f, \"per_sec\": %.3f},\n",
                    batch_small.seconds, batch_small.per_sec)
         << stringf("    \"pool_fused\": {\"seconds\": %.6f, \"per_sec\": %.3f},\n",
                    fused_small.seconds, fused_small.per_sec)
         << stringf("    \"speedup_pool_batch_vs_sequential\": %.3f,\n",
                    seq_small.seconds / batch_small.seconds)
         << stringf("    \"speedup_pool_fused_vs_sequential\": %.3f,\n",
                    seq_small.seconds / fused_small.seconds)
         << stringf("    \"fused_bitwise_identical\": %s,\n", fused_bitwise ? "true" : "false")
         << stringf("    \"plan_cache\": {\"hits\": %ld, \"misses\": %ld, \"hit_rate\": %.4f, "
                    "\"fused_hits\": %ld, \"fused_misses\": %ld}},\n",
                    cache_stats.hits, cache_stats.misses, cache_stats.hit_rate(),
                    cache_stats.fused_hits, cache_stats.fused_misses)
         << stringf("  \"scheduling_overhead_us_per_graph\": {\"persistent_pool\": %.1f},\n",
                    pool_us_per_graph);
    json << "  \"fused_overhead_us_per_graph\": [";
    for (size_t i = 0; i < fused_overheads.size(); ++i) {
      const auto& fo = fused_overheads[i];
      json << stringf("%s{\"batch\": %d, \"per_matrix\": %.1f, \"fused\": %.1f, "
                      "\"ratio\": %.2f}",
                      i ? ", " : "", fo.batch, fo.per_matrix_us_per_graph,
                      fo.fused_us_per_graph,
                      fo.per_matrix_us_per_graph / fo.fused_us_per_graph);
    }
    json << "],\n";
    json << "  \"multicore_scaling\": [";
    for (size_t i = 0; i < scaling.size(); ++i) {
      const auto& r = scaling[i];
      json << stringf("%s\n    {\"threads\": %d, \"pinned\": %s, \"per_sec\": %.3f, "
                      "\"speedup_vs_1t\": %.3f, \"tasks_stolen\": %ld, "
                      "\"steal_cas_retries\": %ld, \"empty_steal_probes\": %ld, "
                      "\"tasks_home\": %ld, \"tasks_foreign\": %ld, "
                      "\"steal_latency_p50_ns\": %lld, \"steal_latency_p95_ns\": %lld}",
                      i ? "," : "", r.threads, r.pinned ? "true" : "false", r.per_sec,
                      r.speedup_vs_1t, r.tasks_stolen, r.steal_cas_retries,
                      r.empty_steal_probes, r.tasks_home, r.tasks_foreign,
                      (long long)r.steal_lat_p50_ns, (long long)r.steal_lat_p95_ns);
    }
    json << "],\n";
    json << stringf("  \"observability\": {\"untraced_seconds\": %.6f, "
                    "\"traced_seconds\": %.6f, \"overhead_ratio\": %.4f,\n",
                    untraced.seconds, traced.seconds, obs_ratio)
         << stringf("    \"analysis_seconds\": %.6f,\n", analysis_seconds)
         << stringf("    \"critical_path\": {\"valid\": %s, \"tasks\": %ld, "
                    "\"realized_ms\": %.4f, \"work_ms\": %.4f, \"gap_ms\": %.4f, "
                    "\"dispatch_gap_ms\": %.4f, \"cross_gap_ms\": %.4f, "
                    "\"stolen_edges\": %ld, \"model_cp_ms\": %.4f, "
                    "\"realized_over_model\": %.3f}},\n",
                    bd.valid ? "true" : "false", bd.path_tasks, double(bd.realized_ns) / 1e6,
                    double(bd.work_ns) / 1e6, double(bd.gap_ns) / 1e6,
                    double(bd.dispatch_gap_ns) / 1e6, double(bd.cross_gap_ns) / 1e6,
                    bd.stolen_edges, bd.model_cp_seconds * 1e3, bd.realized_over_model);
    json
         << stringf("  \"large\": {\"n\": %lld, \"nb\": %d,\n", (long long)large_n, small_nb)
         << stringf("    \"pool\": {\"seconds\": %.6f}}\n", pool_large.seconds)
         << "}\n";
    std::printf("(json written to %s)\n", json_path.c_str());
  }

  // Enforced last so the table and JSON record land even on failure.
  if (env_flag("TILEDQR_OBS_ASSERT", true) && obs_ratio > 1.05) {
    std::fprintf(stderr,
                 "FAIL: traced run is %.2f%% slower than untraced (budget 5%%); set "
                 "TILEDQR_OBS_ASSERT=0 to report without enforcing\n",
                 (obs_ratio - 1.0) * 100.0);
    return 1;
  }
  if (env_flag("TILEDQR_OBS_ASSERT", true) && analysis_seconds > 0.01 * traced.seconds) {
    std::fprintf(stderr,
                 "FAIL: critical-path analysis took %.3f ms, over 1%% of the traced pass "
                 "(%.3f s); set TILEDQR_OBS_ASSERT=0 to report without enforcing\n",
                 analysis_seconds * 1e3, traced.seconds);
    return 1;
  }
  return 0;
}
