// Serving: two competing clients share one long-lived QrSession — the
// production shape the serving-QoS layer exists for. A *bulk* client floods
// its own FactorStream with least-squares requests as fast as it can push;
// an *interactive* client issues one request at a time on a second stream
// and cares about tail latency, not throughput. The session pool deals both
// streams' grafts through the pool-level fairness rotation, so the bulk
// backlog cannot starve the interactive client, and each stream's QoS knobs
// protect the server:
//
//   bulk        max_queued=16, overflow=Block  — bounded request memory: the
//               producer parks when it outruns the pool instead of growing
//               an unbounded queue;
//   interactive low_watermark=1, flush_deadline=2ms — a graft stays queued
//               behind the live one and no request coalesces for longer than
//               the deadline, trading fusion depth for tail latency.
//
// Shapes are mixed on purpose: every pushed shape is routed through the tree
// autotuner (TILEDQR_TREE=auto|flat|binary|fibonacci|greedy|plasma bypasses
// it for A/B runs).
//
//   ./serving [requests] [m] [n] [nb]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include <cmath>

#include "common/timer.hpp"
#include "core/qr_session.hpp"
#include "matrix/generate.hpp"
#include "matrix/norms.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/schedule_report.hpp"
#include "obs/trace.hpp"

using namespace tiledqr;

namespace {

struct RequestData {
  Matrix<double> a;
  Matrix<double> b;
};

std::vector<RequestData> make_problems(int count, std::int64_t m, std::int64_t n, int nb,
                                       unsigned seed) {
  std::vector<RequestData> problems;
  problems.reserve(size_t(count));
  for (int i = 0; i < count; ++i) {
    const std::int64_t mi = i % 3 == 1 ? m + m / 2 : m;
    const std::int64_t ni = i % 3 == 2 ? std::max<std::int64_t>(nb, n / 2) : n;
    problems.push_back(RequestData{random_matrix<double>(mi, ni, seed + unsigned(i)),
                                   random_matrix<double>(mi, 1, seed + 2000 + unsigned(i))});
  }
  return problems;
}

/// Residual of the normal equations: ‖Aᵀ(Ax − b)‖ / ‖b‖ ~ 0 at the minimizer.
double residual(const RequestData& req, const Matrix<double>& x) {
  Matrix<double> ax(req.a.rows(), 1);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0, req.a.view(), x.view(), 0.0, ax.view());
  for (std::int64_t r = 0; r < req.a.rows(); ++r) ax(r, 0) -= req.b(r, 0);
  Matrix<double> atr(req.a.cols(), 1);
  blas::gemm(blas::Op::ConjTrans, blas::Op::NoTrans, 1.0, req.a.view(), ax.view(), 0.0,
             atr.view());
  return double(frobenius_norm<double>(atr.view())) / double(frobenius_norm<double>(req.b.view()));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(v.size() - 1, size_t(p * double(v.size() - 1) + 0.5));
  return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const int requests = argc > 1 ? std::atoi(argv[1]) : 32;
  const std::int64_t m = argc > 2 ? std::atoll(argv[2]) : 768;
  const std::int64_t n = argc > 3 ? std::atoll(argv[3]) : 256;
  const int nb = argc > 4 ? std::atoi(argv[4]) : 128;
  const int interactive_count = std::max(4, requests / 4);

  std::printf("tiledqr serving demo: bulk client (%d least-squares requests, flooded) vs "
              "interactive client (%d requests, one at a time) around %lld x %lld (nb = %d)\n",
              requests, interactive_count, (long long)m, (long long)n, nb);

  // One session for the lifetime of the "server": a persistent worker pool,
  // a plan cache, and a tree autotuner shared by every client.
  core::QrSession session;

  // TILEDQR_HEALTH=1 attaches the live health layer: `kill -USR1 <pid>`
  // (or HealthMonitor::request_snapshot from code) writes an append-safe
  // snapshot of the metrics registry plus the session's schedule report —
  // with the critical-path breakdown when tracing — while the server keeps
  // serving, and the stall/overrun watchdog runs in the background. Knobs:
  // TILEDQR_HEALTH_PATH, _POLL_MS, _STALL_MS, _OVERRUN_FACTOR.
  auto health = obs::HealthMonitor::maybe_from_env(
      session.pool(), [&session] { return session.health_report(); });
  if (health)
    std::printf("health monitor live (pid %d): SIGUSR1 dumps a snapshot without stopping\n",
                int(::getpid()));

  auto bulk_problems = make_problems(requests, m, n, nb, 7000);
  auto interactive_problems = make_problems(interactive_count, m, n, nb, 31000);

  // Each client labels its stream, so its counters and request-latency
  // histogram export from the global metrics registry as "stream.bulk.*" /
  // "stream.interactive.*" — the per-client report below reads the registry
  // snapshot instead of aggregating by hand.
  core::QrSession::StreamOptions bulk_opt;
  bulk_opt.label = "bulk";
  bulk_opt.nb = nb;
  bulk_opt.ib = std::min(32, nb);
  bulk_opt.max_queued = 16;  // backpressure: the flood cannot outgrow the pool
  bulk_opt.overflow = core::QrSession::StreamOverflow::Block;

  core::QrSession::StreamOptions inter_opt;
  inter_opt.label = "interactive";
  inter_opt.nb = nb;
  inter_opt.ib = std::min(32, nb);
  inter_opt.low_watermark = 1;  // keep a graft queued behind the live one
  inter_opt.flush_deadline = std::chrono::milliseconds(2);  // cap coalescing latency

  double bulk_seconds = 0.0;
  std::vector<Matrix<double>> bulk_solutions(size_t(requests), Matrix<double>(0, 0));
  std::vector<Matrix<double>> inter_solutions(size_t(interactive_count), Matrix<double>(0, 0));
  std::vector<double> inter_latencies_ms;

  WallTimer wall;
  std::thread bulk_client([&] {
    auto stream = session.stream<double>(bulk_opt);
    WallTimer timer;
    std::vector<std::future<Matrix<double>>> inflight;
    inflight.reserve(size_t(requests));
    for (auto& req : bulk_problems)
      inflight.push_back(stream.push_solve(ConstMatrixView<double>(req.a.view()),
                                           ConstMatrixView<double>(req.b.view())));
    for (int i = 0; i < requests; ++i) bulk_solutions[size_t(i)] = inflight[size_t(i)].get();
    bulk_seconds = timer.seconds();
    stream.close();
  });
  std::thread interactive_client([&] {
    auto stream = session.stream<double>(inter_opt);
    inter_latencies_ms.reserve(size_t(interactive_count));
    for (int i = 0; i < interactive_count; ++i) {
      auto& req = interactive_problems[size_t(i)];
      WallTimer timer;
      inter_solutions[size_t(i)] = stream
                                       .push_solve(ConstMatrixView<double>(req.a.view()),
                                                   ConstMatrixView<double>(req.b.view()))
                                       .get();
      inter_latencies_ms.push_back(timer.seconds() * 1e3);
    }
    stream.close();
  });
  bulk_client.join();
  interactive_client.join();
  const double seconds = wall.seconds();

  double worst_residual = 0.0;
  for (int i = 0; i < requests; ++i)
    worst_residual = std::max(worst_residual, residual(bulk_problems[size_t(i)],
                                                       bulk_solutions[size_t(i)]));
  for (int i = 0; i < interactive_count; ++i)
    worst_residual = std::max(worst_residual, residual(interactive_problems[size_t(i)],
                                                       inter_solutions[size_t(i)]));

  double mean_ms = 0.0;
  for (double v : inter_latencies_ms) mean_ms += v;
  mean_ms /= double(std::max<size_t>(1, inter_latencies_ms.size()));

  // Per-client stats come from the unified metrics registry: both streams
  // are closed by now, so their final counters live on as retired samples
  // under the labels chosen above ("stream.bulk.*", "stream.interactive.*").
  const auto snap = obs::MetricsRegistry::global().snapshot();
  auto metric = [&snap](const std::string& name) {
    const double v = snap.value(name);
    return std::isnan(v) ? 0.0 : v;
  };
  auto cache = session.plan_cache_stats();
  auto pool = session.pool_stats();
  auto tuning = session.tuning_stats();
  std::printf("served %d requests from 2 competing clients in %.3f s (%.1f req/s overall)\n",
              requests + interactive_count, seconds,
              double(requests + interactive_count) / seconds);
  std::printf("worst normal-equation residual: %.3e\n", worst_residual);
  std::printf("bulk client:        %d requests in %.3f s (%.1f req/s); "
              "peak unresolved %.0f (max_queued=16, Block)\n",
              requests, bulk_seconds, requests / bulk_seconds,
              metric("stream.bulk.peak_unresolved"));
  std::printf("  stream: %.0f pushes -> %.0f grafts (%.0f rode fused grafts); "
              "admit-to-resolve p50 %.1f ms, p95 %.1f ms\n",
              metric("stream.bulk.pushed"), metric("stream.bulk.components"),
              metric("stream.bulk.fused_requests"),
              metric("stream.bulk.latency.p50_us") * 1e-3,
              metric("stream.bulk.latency.p95_us") * 1e-3);
  std::printf("interactive client: %d requests, latency mean %.1f ms, p50 %.1f ms, "
              "p95 %.1f ms (low_watermark=1, flush_deadline=2ms, %.0f deadline flushes)\n",
              interactive_count, mean_ms, percentile(inter_latencies_ms, 0.50),
              percentile(inter_latencies_ms, 0.95),
              metric("stream.interactive.deadline_flushes"));
  std::printf("  stream: admit-to-resolve p50 %.1f ms, p95 %.1f ms\n",
              metric("stream.interactive.latency.p50_us") * 1e-3,
              metric("stream.interactive.latency.p95_us") * 1e-3);
  std::printf("autotuner: %ld hits / %ld misses, %zu shape decisions\n", tuning.hits,
              tuning.misses, tuning.entries);
  std::printf("plan cache: %ld hits / %ld misses (hit rate %.3f), fused: %ld hits / %ld misses\n",
              cache.hits, cache.misses, cache.hit_rate(), cache.fused_hits, cache.fused_misses);
  std::printf("pool: %ld tasks executed, %ld stolen, %ld graphs (stream grafts: %.0f bulk, "
              "%.0f interactive)\n",
              pool.tasks_executed, pool.tasks_stolen, pool.graphs_completed,
              metric("stream.bulk.components"), metric("stream.interactive.components"));

  // Under TILEDQR_TRACE the whole run was recorded; summarize where the
  // workers spent their time (the raw events export at process exit).
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    auto report = obs::format_schedule_report(obs::build_schedule_report(tracer));
    if (!report.empty()) std::printf("\n%s", report.c_str());
  }
  if (health) {
    const auto hs = health->stats();
    std::printf("health watchdog: %ld stalls, %ld overruns, %ld snapshots written\n",
                hs.stalls, hs.overruns, hs.snapshots);
  }
  return worst_residual < 1e-8 ? 0 : 1;
}
