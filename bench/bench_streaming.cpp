// Streaming fusion: the regime FactorStream exists for.
//
// A continuous server sees requests one at a time. Three ways to run them:
//   per-matrix   — one pool submission per request (PR 1's serving shape):
//                  pays the full per-submission scheduling cost every time
//   fixed-fused  — group every `depth` requests into a submit_batch fusion:
//                  one submission per batch, but the caller must hold
//                  requests back to form batches
//   streamed     — push each request into a FactorStream the moment it
//                  arrives (corked per burst of `depth`, like a server that
//                  drains its accept queue): pushes coalesce into fused
//                  grafts appended to ONE live submission
//
// Two sections:
//   1. Scheduling overhead (empty bodies): the per-graph dispatch cost of
//      the three modes at several burst depths, hardware-independent enough
//      to compare across hosts. This is the headline: streamed grafts must
//      be within 10% of fixed-batch fusion (they ride the same cached
//      FusedPlans) and >= 1.3x cheaper than per-matrix submissions at
//      depth >= 4.
//   2. Real kernels through the session API (submit / factorize_batch /
//      FactorStream), with the streamed results checked bitwise against the
//      sequential replay.
//
// Assertions are enforced unless TILEDQR_STREAM_ASSERT=0 (the ctest smoke
// disables them: it shares a runner with the rest of the suite and also
// runs under TSan, where wall-clock margins are meaningless).
//
// Env knobs: TILEDQR_STREAM_COUNT (graphs per empty-body mode),
// TILEDQR_STREAM_N, TILEDQR_STREAM_NB, TILEDQR_THREADS, TILEDQR_REPS,
// TILEDQR_QUICK, TILEDQR_STREAM_ASSERT, TILEDQR_BENCH_JSON (output path,
// default BENCH_streaming.json).
#include <algorithm>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "core/qr_session.hpp"
#include "matrix/generate.hpp"
#include "obs/schedule_report.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

using namespace tiledqr;

namespace {

// ------------------------------------------- empty-body scheduling overhead --

struct OverheadRow {
  int depth = 0;
  double per_matrix_us = 0.0;  ///< us per graph, one submission per graph
  double fused_us = 0.0;       ///< us per graph, one submission per depth-burst
  double streamed_us = 0.0;    ///< us per graph, one graft per depth-burst
};

/// Per-request promise machinery of one fused burst — exactly what
/// submit_batch / FactorStream do per component: noop "kernels" plus the
/// per-part sentinel decrement, with the last task of each part fulfilling
/// that request's promise. Keeping the promises in the measurement mirrors
/// the serving API: every mode hands its caller one future per request.
struct SentinelBurst {
  explicit SentinelBurst(const core::FusedPlan& fused) : fused(&fused) {
    const size_t parts = size_t(fused.part_count());
    remaining = std::vector<std::atomic<std::int32_t>>(parts);
    promises.resize(parts);
    for (size_t i = 0; i < parts; ++i)
      remaining[i].store(fused.part_size(int(i)), std::memory_order_relaxed);
  }
  void body(std::int32_t idx) {
    const size_t part = size_t(fused->part_of(idx));
    if (remaining[part].fetch_sub(1, std::memory_order_acq_rel) == 1)
      promises[part].set_value();
  }
  const core::FusedPlan* fused;
  std::vector<std::atomic<std::int32_t>> remaining;
  std::vector<std::promise<void>> promises;
};

/// All three modes serve the same `count` noop requests arriving in bursts
/// of `depth`, each request observed through its own future (the serving-API
/// contract). The batch server shapes — per-matrix and fixed-fused — must
/// drain each burst before accepting the next (that boundary is what bounds
/// a batch server's queue, and is exactly PR 2's measurement protocol); the
/// streamed mode grafts every burst onto the live submission and never
/// waits until the end. The measured difference is therefore scheduling
/// machinery plus the batch-boundary drains the stream exists to remove.
/// Best-of-`reps`: min is the stable statistic on a shared host.
OverheadRow run_overhead(core::PlanCache& cache, runtime::ThreadPool& pool, int p, int q,
                         int depth, int count, int reps) {
  OverheadRow row;
  row.depth = depth;
  auto noop = [](std::int32_t) {};
  const trees::TreeConfig tree{};
  auto plan = cache.get(p, q, tree);
  auto fused = cache.get_fused(p, q, tree, depth);  // warmed outside the timers
  const int bursts = std::max(1, count / depth);

  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    std::vector<std::future<void>> futures;
    futures.reserve(size_t(depth));
    WallTimer timer;
    for (int b = 0; b < bursts; ++b) {
      futures.clear();
      for (int d = 0; d < depth; ++d)
        futures.push_back(pool.submit(plan->graph, noop,
                                      runtime::SchedulePriority::CriticalPath, 0, nullptr,
                                      &plan->ranks));
      for (auto& f : futures) f.get();  // batch boundary: drain before the next burst
    }
    best = best < 0 ? timer.seconds() : std::min(best, timer.seconds());
  }
  row.per_matrix_us = best * 1e6 / double(bursts * depth);

  best = -1.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    for (int b = 0; b < bursts; ++b) {
      SentinelBurst state(*fused);
      std::vector<std::future<void>> futures;
      for (auto& p2 : state.promises) futures.push_back(p2.get_future());
      pool.submit(
          fused->component_graph(), [&state](std::int32_t idx) { state.body(idx); },
          [](std::exception_ptr) {}, runtime::SchedulePriority::CriticalPath, 0, nullptr,
          &fused->component_ranks(), fused->copies());
      for (auto& f : futures) f.get();  // batch boundary: drain before the next burst
    }
    best = best < 0 ? timer.seconds() : std::min(best, timer.seconds());
  }
  row.fused_us = best * 1e6 / double(bursts * depth);

  best = -1.0;
  for (int r = 0; r < reps; ++r) {
    std::vector<std::unique_ptr<SentinelBurst>> states;
    std::vector<std::future<void>> futures;
    futures.reserve(size_t(bursts) * size_t(depth));
    auto stream = pool.open_stream();
    WallTimer timer;
    // One live submission for the whole run; each burst grafts one fused
    // component onto it and the server thread moves straight on — no drain
    // until everything has been accepted (the stream's backpressure is its
    // pending bound, not a batch boundary).
    for (int b = 0; b < bursts; ++b) {
      states.push_back(std::make_unique<SentinelBurst>(*fused));
      auto* state = states.back().get();
      for (auto& p2 : state->promises) futures.push_back(p2.get_future());
      stream.append(
          fused->component_graph(), [state](std::int32_t idx) { state->body(idx); }, nullptr,
          nullptr, &fused->component_ranks(), fused->copies());
    }
    for (auto& f : futures) f.get();
    best = best < 0 ? timer.seconds() : std::min(best, timer.seconds());
    stream.close();
    stream.wait();
  }
  row.streamed_us = best * 1e6 / double(bursts * depth);
  return row;
}

// ------------------------------------------------- real kernels, session API --

struct ModeResult {
  double seconds = 0.0;
  double per_sec = 0.0;
};

struct Workload {
  std::vector<TileMatrix<double>> tiles;
  core::Options opt;
};

Workload make_workload(int count, std::int64_t n, int nb, int ib) {
  Workload w;
  w.opt.tree = trees::TreeConfig{};  // pinned: comparing execution, not trees
  w.opt.nb = nb;
  w.opt.ib = std::min(ib, nb);
  w.tiles.reserve(size_t(count));
  for (int i = 0; i < count; ++i) {
    auto dense = random_matrix<double>(n, n, 0xF00D + unsigned(i));
    w.tiles.push_back(TileMatrix<double>::from_dense(dense.view(), nb));
  }
  return w;
}

/// Batch-server baseline: requests arrive in bursts of `depth`; each burst
/// is submitted per-matrix and drained before the next (same boundary rule
/// as the overhead section — a batch server bounds its queue that way).
ModeResult run_per_matrix(core::QrSession& session, const Workload& w, int depth, int reps) {
  ModeResult out;
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    for (size_t begin = 0; begin < w.tiles.size(); begin += size_t(depth)) {
      const size_t end = std::min(w.tiles.size(), begin + size_t(depth));
      std::vector<std::future<core::TiledQr<double>>> futures;
      for (size_t i = begin; i < end; ++i)
        futures.push_back(session.submit(TileMatrix<double>(w.tiles[i]), w.opt));
      for (auto& f : futures) (void)f.get();
    }
    double sec = timer.seconds();
    if (best < 0.0 || sec < best) best = sec;
  }
  out.seconds = best;
  out.per_sec = double(w.tiles.size()) / best;
  return out;
}

/// Fixed-batch fusion with the same per-burst drain.
ModeResult run_fixed_batches(core::QrSession& session, const Workload& w, int depth, int reps) {
  ModeResult out;
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    for (size_t begin = 0; begin < w.tiles.size(); begin += size_t(depth)) {
      const size_t end = std::min(w.tiles.size(), begin + size_t(depth));
      std::vector<TileMatrix<double>> chunk(w.tiles.begin() + long(begin),
                                            w.tiles.begin() + long(end));
      auto qrs = session.factorize_batch(std::move(chunk), w.opt);
      (void)qrs;
    }
    double sec = timer.seconds();
    if (best < 0.0 || sec < best) best = sec;
  }
  out.seconds = best;
  out.per_sec = double(w.tiles.size()) / best;
  return out;
}

ModeResult run_streamed(core::QrSession& session, const Workload& w, int depth, int reps) {
  ModeResult out;
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    core::QrSession::StreamOptions sopt;
    sopt.nb = w.opt.nb;
    sopt.ib = w.opt.ib;
    sopt.tree = w.opt.tree;
    sopt.max_pending = std::max(32, depth);
    auto stream = session.stream<double>(sopt);
    WallTimer timer;
    std::vector<std::future<core::TiledQr<double>>> futures;
    futures.reserve(w.tiles.size());
    // Corked per burst of `depth` (a server draining its accept queue), but
    // the stream never waits between bursts: grafts land on the live
    // submission while earlier generations still drain.
    for (size_t begin = 0; begin < w.tiles.size(); begin += size_t(depth)) {
      const size_t end = std::min(w.tiles.size(), begin + size_t(depth));
      stream.cork();
      for (size_t i = begin; i < end; ++i)
        futures.push_back(stream.push(TileMatrix<double>(w.tiles[i])));
      stream.uncork();
    }
    for (auto& f : futures) (void)f.get();
    double sec = timer.seconds();
    stream.close();
    if (best < 0.0 || sec < best) best = sec;
  }
  out.seconds = best;
  out.per_sec = double(w.tiles.size()) / best;
  return out;
}

// ------------------------------------------------------ multicore scaling --

/// One point of the streamed scaling sweep: the real-kernel workload pushed
/// through a FactorStream on a fresh session with `threads` workers. Stream
/// components are dealt whole to a home worker, which is why this sweep
/// lives here and the pinning sweep lives in bench_serving_throughput. Steal
/// contention and the home/foreign locality split ride along so every
/// throughput point carries its scheduler evidence.
struct StreamScalingRow {
  int threads = 0;
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

StreamScalingRow run_stream_scaling_point(const Workload& w, int threads, int depth, int reps) {
  core::QrSession session(core::QrSession::Config{threads});
  StreamScalingRow row;
  row.threads = threads;
  row.per_sec = run_streamed(session, w, depth, reps).per_sec;
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

// ---------------------------------------------------------- serving QoS ----

/// Backpressure: one producer pushes the whole workload through a stream
/// whose admission is bounded at `max_queued` (Block overflow: the producer
/// parks on the retirement condvar when the bound is hit). Reports the
/// throughput cost of the bound and the observed high-water mark — which
/// must never exceed the bound, the memory-safety contract of Block.
struct BackpressureRow {
  int max_queued = 0;  ///< 0 = unbounded (the pre-QoS admission policy)
  double seconds = 0.0;
  double per_sec = 0.0;
  long peak_unresolved = 0;
};

BackpressureRow run_backpressure(core::QrSession& session, const Workload& w, int max_queued,
                                 int reps) {
  BackpressureRow row;
  row.max_queued = max_queued;
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    core::QrSession::StreamOptions sopt;
    sopt.nb = w.opt.nb;
    sopt.ib = w.opt.ib;
    sopt.tree = w.opt.tree;
    sopt.max_queued = max_queued;
    sopt.overflow = core::QrSession::StreamOverflow::Block;
    auto stream = session.stream<double>(sopt);
    WallTimer timer;
    std::vector<std::future<core::TiledQr<double>>> futures;
    futures.reserve(w.tiles.size());
    for (const auto& tiles : w.tiles) futures.push_back(stream.push(TileMatrix<double>(tiles)));
    for (auto& f : futures) (void)f.get();
    double sec = timer.seconds();
    row.peak_unresolved = std::max(row.peak_unresolved, stream.stats().peak_unresolved);
    stream.close();
    if (best < 0.0 || sec < best) best = sec;
  }
  row.seconds = best;
  row.per_sec = double(w.tiles.size()) / best;
  return row;
}

/// Fairness: two clients race equal workloads through their own streams on
/// ONE session pool. With the pool-level graft rotation and per-submission
/// worker queues, neither client's backlog can monopolize the workers, so
/// both finish at about the same time — `imbalance` (slower/faster makespan)
/// near 1.0. A FIFO-piling scheduler would let one client finish in roughly
/// half the wall clock of the other (imbalance near 2).
struct FairnessResult {
  double client_seconds[2] = {0.0, 0.0};
  double imbalance = 0.0;
};

FairnessResult run_fairness(core::QrSession& session, const Workload& w, int per_client,
                            int reps) {
  FairnessResult out;
  double best_imbalance = -1.0;
  for (int r = 0; r < reps; ++r) {
    double seconds[2] = {0.0, 0.0};
    std::vector<std::thread> clients;
    for (int cid = 0; cid < 2; ++cid) {
      clients.emplace_back([&, cid] {
        core::QrSession::StreamOptions sopt;
        sopt.nb = w.opt.nb;
        sopt.ib = w.opt.ib;
        sopt.tree = w.opt.tree;
        auto stream = session.stream<double>(sopt);
        WallTimer timer;
        std::vector<std::future<core::TiledQr<double>>> futures;
        for (int i = 0; i < per_client; ++i)
          futures.push_back(
              stream.push(TileMatrix<double>(w.tiles[size_t(i) % w.tiles.size()])));
        for (auto& f : futures) (void)f.get();
        seconds[cid] = timer.seconds();
        stream.close();
      });
    }
    for (auto& th : clients) th.join();
    const double imbalance =
        std::max(seconds[0], seconds[1]) / std::max(1e-12, std::min(seconds[0], seconds[1]));
    if (best_imbalance < 0.0 || imbalance < best_imbalance) {
      best_imbalance = imbalance;
      out.client_seconds[0] = seconds[0];
      out.client_seconds[1] = seconds[1];
    }
  }
  out.imbalance = best_imbalance;
  return out;
}

/// Streamed results must be bitwise identical to the sequential replay (the
/// acceptance bar for streaming fusion, same as batch fusion).
bool verify_streamed_bitwise(core::QrSession& session, const Workload& w, int check_count) {
  core::QrSession::StreamOptions sopt;
  sopt.nb = w.opt.nb;
  sopt.ib = w.opt.ib;
  sopt.tree = w.opt.tree;
  auto stream = session.stream<double>(sopt);
  stream.cork();
  std::vector<std::future<core::TiledQr<double>>> futures;
  const int limit = std::min<int>(check_count, int(w.tiles.size()));
  for (int i = 0; i < limit; ++i) futures.push_back(stream.push(TileMatrix<double>(w.tiles[size_t(i)])));
  stream.uncork();
  stream.close();
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
    auto got = futures[size_t(i)].get().factors().to_dense();
    for (std::int64_t j = 0; j < want.cols(); ++j)
      for (std::int64_t r = 0; r < want.rows(); ++r)
        if (got(r, j) != want(r, j)) return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::Knobs knobs;
  const int threads = knobs.threads > 0 ? knobs.threads : default_thread_count();
  const int count = int(env_long("TILEDQR_STREAM_COUNT", knobs.quick ? 128 : 512));
  const std::int64_t small_n = env_long("TILEDQR_STREAM_N", knobs.quick ? 256 : 512);
  const int nb = int(env_long("TILEDQR_STREAM_NB", 128));
  const bool enforce = env_flag("TILEDQR_STREAM_ASSERT", true);
  const std::vector<int> depths = {1, 4, 16, 64};

  std::printf("=== Streaming fusion: grafts vs fixed batches vs per-matrix ===\n");
  std::printf("threads=%d overhead-graphs=%d real=%dx %lldx%lld (nb=%d) reps=%d\n\n", threads,
              count, knobs.quick ? 16 : 64, (long long)small_n, (long long)small_n, nb,
              knobs.reps);

  // ---- 1. empty-body scheduling overhead -------------------------------- --
  // Two DAG sizes: the tiny 2x2-tile grid is the overhead-bound regime the
  // streaming machinery targets (per-graph scheduling cost dominates the
  // handful of tasks) and carries the acceptance assertions; the workload's
  // own grid is reported alongside so the amortized regime is visible too.
  const int tile_p = int((small_n + nb - 1) / nb);
  core::PlanCache cache;
  runtime::ThreadPool pool(threads);
  std::vector<int> grids{2};
  if (tile_p != 2) grids.push_back(tile_p);
  std::vector<OverheadRow> rows;       // acceptance grid (2x2)
  std::vector<OverheadRow> big_rows;   // workload grid
  for (int grid : grids) {
    TextTable to(stringf("scheduling overhead, %dx%d-tile DAG, empty bodies (us/graph)%s", grid,
                         grid, grid == 2 ? " [acceptance grid]" : ""));
    to.set_header({"depth", "per-matrix", "fixed-fused", "streamed", "pm/st", "st/fu"});
    for (int depth : depths) {
      auto row = run_overhead(cache, pool, grid, grid, depth, count, std::max(6, knobs.reps));
      (grid == 2 ? rows : big_rows).push_back(row);
      to.add_row({stringf("%d", row.depth), stringf("%.1f", row.per_matrix_us),
                  stringf("%.1f", row.fused_us), stringf("%.1f", row.streamed_us),
                  stringf("%.2fx", row.per_matrix_us / row.streamed_us),
                  stringf("%.2f", row.streamed_us / row.fused_us)});
    }
    bench::emit(to, stringf("streaming_overhead_p%d", grid), knobs);
  }

  // ---- 2. real kernels through the session API -------------------------- --
  auto w = make_workload(knobs.quick ? 16 : 64, small_n, nb, knobs.ib);
  const int real_depth = 8;
  core::QrSession session(core::QrSession::Config{threads});
  auto per_matrix = run_per_matrix(session, w, real_depth, knobs.reps);
  auto fixed = run_fixed_batches(session, w, real_depth, knobs.reps);
  auto streamed = run_streamed(session, w, real_depth, knobs.reps);
  const bool bitwise = verify_streamed_bitwise(session, w, knobs.quick ? 2 : 4);

  TextTable tr(stringf("%zu x %lldx%lld QRs (nb=%d, %d threads, burst depth %d)",
                       w.tiles.size(), (long long)small_n, (long long)small_n, nb, threads,
                       real_depth));
  tr.set_header({"mode", "seconds", "fact/s", "vs per-matrix"});
  tr.add_row({"per-matrix", stringf("%.4f", per_matrix.seconds),
              stringf("%.2f", per_matrix.per_sec), "1.00x"});
  tr.add_row({"fixed-fused", stringf("%.4f", fixed.seconds), stringf("%.2f", fixed.per_sec),
              stringf("%.2fx", per_matrix.seconds / fixed.seconds)});
  tr.add_row({"streamed", stringf("%.4f", streamed.seconds), stringf("%.2f", streamed.per_sec),
              stringf("%.2fx", per_matrix.seconds / streamed.seconds)});
  bench::emit(tr, "streaming_real", knobs);
  std::printf("streamed results bitwise identical to sequential replay: %s\n\n",
              bitwise ? "yes" : "NO (BUG)");

  // ---- 3. serving QoS: backpressure ------------------------------------- --
  // Small-matrix workload (the overhead-bound regime QoS matters for): how
  // much throughput a bounded admission window costs, and proof the Block
  // bound holds. max_queued=0 is the pre-QoS unbounded baseline.
  auto wq = make_workload(knobs.quick ? 24 : 64, 2 * nb, nb, knobs.ib);
  std::vector<BackpressureRow> bp_rows;
  bool bounds_hold = true;
  {
    TextTable tb(stringf("backpressure: %zu x %dx%d QRs, Block overflow (threads=%d)",
                         wq.tiles.size(), int(2 * nb), int(2 * nb), threads));
    tb.set_header({"max_queued", "seconds", "fact/s", "peak unresolved", "bound held"});
    for (int max_queued : {0, 8, 2}) {
      auto row = run_backpressure(session, wq, max_queued, knobs.reps);
      bp_rows.push_back(row);
      const bool held = max_queued == 0 || row.peak_unresolved <= max_queued;
      bounds_hold = bounds_hold && held;
      tb.add_row({max_queued == 0 ? "unbounded" : stringf("%d", max_queued),
                  stringf("%.4f", row.seconds), stringf("%.2f", row.per_sec),
                  stringf("%ld", row.peak_unresolved), held ? "yes" : "NO (BUG)"});
    }
    bench::emit(tb, "streaming_backpressure", knobs);
  }

  // ---- 4. serving QoS: multi-stream fairness ----------------------------- --
  auto fair = run_fairness(session, wq, knobs.quick ? 16 : 48, std::max(2, knobs.reps));
  {
    TextTable tf(stringf("fairness: 2 clients x %d QRs, own streams, one pool (threads=%d)",
                         knobs.quick ? 16 : 48, threads));
    tf.set_header({"client", "seconds"});
    tf.add_row({"A", stringf("%.4f", fair.client_seconds[0])});
    tf.add_row({"B", stringf("%.4f", fair.client_seconds[1])});
    tf.add_row({"imbalance", stringf("%.2fx", fair.imbalance)});
    bench::emit(tf, "streaming_fairness", knobs);
  }
  std::printf("\n");

  // ---- 5. multicore scaling ------------------------------------------- --
  // The real-kernel workload streamed across worker counts; each graft is
  // dealt whole to a home worker and stolen only when others run dry.
  // Worker counts above hardware_threads are oversubscribed — recorded
  // anyway so the curve is honest about the host.
  std::vector<StreamScalingRow> scaling;
  {
    const int scaling_reps = std::max(2, knobs.reps);
    std::printf("multicore scaling (streamed, %zu x %lldx%lld nb=%d, depth %d, best of %d):\n",
                w.tiles.size(), (long long)small_n, (long long)small_n, nb, real_depth,
                scaling_reps);
    std::printf("  %7s %10s %9s %8s %8s %8s %9s %9s %9s %9s\n", "threads", "fact/s", "speedup",
                "stolen", "cas_ret", "empty", "home", "foreign", "st_p50us", "st_p95us");
    for (int t : {1, 2, 4, 8}) {
      auto row = run_stream_scaling_point(w, t, real_depth, scaling_reps);
      row.speedup_vs_1t = row.per_sec / (scaling.empty() ? row.per_sec : scaling.front().per_sec);
      std::printf("  %7d %10.1f %8.2fx %8ld %8ld %8ld %9ld %9ld %9.1f %9.1f\n", row.threads,
                  row.per_sec, row.speedup_vs_1t, row.tasks_stolen, row.steal_cas_retries,
                  row.empty_steal_probes, row.tasks_home, row.tasks_foreign,
                  double(row.steal_lat_p50_ns) / 1e3, double(row.steal_lat_p95_ns) / 1e3);
      scaling.push_back(row);
    }
  }
  std::printf("\n");

  // ---- schedule report (when traced) ------------------------------------ --
  // Under TILEDQR_TRACE the whole run above was recorded; summarize where
  // the workers spent their time before the exporter writes the raw events.
  {
    auto& tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
      auto report = obs::format_schedule_report(obs::build_schedule_report(tracer));
      if (!report.empty()) std::printf("%s\n", report.c_str());
    }
  }

  // ---- acceptance ------------------------------------------------------- --
  // On the overhead-bound grid, at burst depth >= 4: streamed grafts ride
  // the same cached FusedPlans as fixed batches but skip the batch-boundary
  // drains, so they must be within 10% of fused dispatch cost (they are in
  // fact cheaper) and >= 1.3x cheaper than per-matrix submissions.
  bool ok = bitwise && bounds_hold;
  for (const auto& row : rows) {
    if (row.depth < 4) continue;
    const bool near_fused = row.streamed_us <= 1.10 * row.fused_us;
    const bool beats_per_matrix = row.per_matrix_us >= 1.3 * row.streamed_us;
    std::printf("depth %2d: streamed within 10%% of fused: %s; >=1.3x vs per-matrix: %s\n",
                row.depth, near_fused ? "yes" : "NO", beats_per_matrix ? "yes" : "NO");
    ok = ok && near_fused && beats_per_matrix;
  }
  std::printf("Block backpressure bound held at every max_queued: %s\n",
              bounds_hold ? "yes" : "NO (BUG)");
  std::printf("%s\n\n", ok ? "ACCEPTANCE: pass" : enforce ? "ACCEPTANCE: FAIL"
                                                          : "ACCEPTANCE: fail (not enforced)");

  // ---- JSON record ------------------------------------------------------ --
  auto json_path = env_string("TILEDQR_BENCH_JSON").value_or("BENCH_streaming.json");
  if (!json_path.empty()) {
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"bench\": \"streaming\",\n"
         << stringf("  \"host\": {\"hardware_threads\": %u, \"bench_threads\": %d},\n",
                    std::thread::hardware_concurrency(), threads)
         << stringf("  \"overhead_graphs\": %d,\n", count);
    auto emit_rows = [&json](const char* key, int grid, const std::vector<OverheadRow>& rs) {
      json << stringf("  \"%s\": {\"p\": %d, \"q\": %d, \"us_per_graph\": [", key, grid, grid);
      for (size_t i = 0; i < rs.size(); ++i) {
        const auto& row = rs[i];
        json << stringf("%s{\"depth\": %d, \"per_matrix\": %.1f, \"fused\": %.1f, "
                        "\"streamed\": %.1f, \"per_matrix_over_streamed\": %.2f, "
                        "\"streamed_over_fused\": %.2f}",
                        i ? ", " : "", row.depth, row.per_matrix_us, row.fused_us,
                        row.streamed_us, row.per_matrix_us / row.streamed_us,
                        row.streamed_us / row.fused_us);
      }
      json << "]},\n";
    };
    emit_rows("overhead_acceptance_grid", 2, rows);
    if (!big_rows.empty()) emit_rows("overhead_workload_grid", tile_p, big_rows);
    json
         << stringf("  \"real\": {\"count\": %zu, \"n\": %lld, \"nb\": %d, \"depth\": %d,\n",
                    w.tiles.size(), (long long)small_n, nb, real_depth)
         << stringf("    \"per_matrix\": {\"seconds\": %.6f, \"per_sec\": %.3f},\n",
                    per_matrix.seconds, per_matrix.per_sec)
         << stringf("    \"fixed_fused\": {\"seconds\": %.6f, \"per_sec\": %.3f},\n",
                    fixed.seconds, fixed.per_sec)
         << stringf("    \"streamed\": {\"seconds\": %.6f, \"per_sec\": %.3f},\n",
                    streamed.seconds, streamed.per_sec)
         << stringf("    \"streamed_bitwise_identical\": %s},\n", bitwise ? "true" : "false");
    json << stringf("  \"backpressure\": {\"count\": %zu, \"n\": %d, \"overflow\": \"block\", "
                    "\"rows\": [",
                    wq.tiles.size(), int(2 * nb));
    for (size_t i = 0; i < bp_rows.size(); ++i) {
      const auto& row = bp_rows[i];
      json << stringf("%s{\"max_queued\": %d, \"seconds\": %.6f, \"per_sec\": %.3f, "
                      "\"peak_unresolved\": %ld}",
                      i ? ", " : "", row.max_queued, row.seconds, row.per_sec,
                      row.peak_unresolved);
    }
    json << stringf("], \"bounds_held\": %s},\n", bounds_hold ? "true" : "false")
         << stringf("  \"fairness\": {\"clients\": 2, \"per_client\": %d, "
                    "\"client_seconds\": [%.6f, %.6f], \"imbalance\": %.3f},\n",
                    knobs.quick ? 16 : 48, fair.client_seconds[0], fair.client_seconds[1],
                    fair.imbalance);
    json << "  \"multicore_scaling\": [";
    for (size_t i = 0; i < scaling.size(); ++i) {
      const auto& r = scaling[i];
      json << stringf("%s\n    {\"threads\": %d, \"per_sec\": %.3f, "
                      "\"speedup_vs_1t\": %.3f, \"tasks_stolen\": %ld, "
                      "\"steal_cas_retries\": %ld, \"empty_steal_probes\": %ld, "
                      "\"tasks_home\": %ld, \"tasks_foreign\": %ld, "
                      "\"steal_latency_p50_ns\": %lld, \"steal_latency_p95_ns\": %lld}",
                      i ? "," : "", r.threads, r.per_sec,
                      r.speedup_vs_1t, r.tasks_stolen, r.steal_cas_retries,
                      r.empty_steal_probes, r.tasks_home, r.tasks_foreign,
                      (long long)r.steal_lat_p50_ns, (long long)r.steal_lat_p95_ns);
    }
    json << "],\n";
    json << stringf("  \"acceptance_pass\": %s\n", ok ? "true" : "false") << "}\n";
    std::printf("(json written to %s)\n", json_path.c_str());
  }
  return ok || !enforce ? 0 : 1;
}
