#include "obs/health.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/stringf.hpp"
#include "common/timer.hpp"
#include "kernels/kernels.hpp"
#include "obs/kernel_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace tiledqr::obs {

namespace {

// Snapshot requests are a single monotone counter: the SIGUSR1 handler (and
// request_snapshot()) bumps it — a lock-free atomic add, async-signal-safe —
// and every monitor thread compares it against the value it last served.
// All I/O happens on monitor threads.
std::atomic<long> g_snapshot_requests{0};

// Live monitors maintain the kObsTaskHealth observation bit: set on 0 -> 1,
// cleared on 1 -> 0, so worker stamping is on exactly while someone watches.
std::atomic<int> g_live_monitors{0};

extern "C" void tiledqr_health_sigusr1(int) { HealthMonitor::request_snapshot(); }

const char* kind_name(std::uint8_t kind) {
  return kind < kernels::kNumKernelKinds
             ? kernels::kernel_name(static_cast<kernels::KernelKind>(kind))
             : "task";
}

// The ranges HealthMonitor::Options documents. A period below 1 ms spins the
// monitor thread, which locks every worker's ready set twice per pass; one
// past a day is no watchdog, and far enough out overflows the nanosecond
// conversions and the condition variable's deadline.
bool period_ok(std::chrono::milliseconds d) {
  return d >= std::chrono::milliseconds(1) && d <= std::chrono::hours(24);
}
bool factor_ok(double f) { return std::isfinite(f) && f >= 1.0; }

HealthMonitor::Options checked(HealthMonitor::Options o) {
  TILEDQR_CHECK(period_ok(o.poll),
                stringf("HealthMonitor: poll must be in [1 ms, 1 day] (got %lld ms)",
                        static_cast<long long>(o.poll.count())));
  TILEDQR_CHECK(period_ok(o.stall_after),
                stringf("HealthMonitor: stall_after must be in [1 ms, 1 day] (got %lld ms)",
                        static_cast<long long>(o.stall_after.count())));
  TILEDQR_CHECK(factor_ok(o.overrun_factor),
                stringf("HealthMonitor: overrun_factor must be finite and >= 1 (got %g)",
                        o.overrun_factor));
  TILEDQR_CHECK(o.overrun_floor_ns >= 0,
                stringf("HealthMonitor: overrun_floor_ns must be >= 0 (got %lld)",
                        static_cast<long long>(o.overrun_floor_ns)));
  return o;
}

}  // namespace

struct HealthMonitor::Impl {
  runtime::ThreadPool& pool;
  Options opt;

  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;

  std::atomic<long> stalls{0};
  std::atomic<long> overruns{0};
  std::atomic<long> snapshots{0};
  long served_requests = 0;  ///< g_snapshot_requests value already handled
  std::int64_t start_ns = 0;

  // Episode tracking so each pathology is flagged once, not once per poll.
  std::vector<bool> stall_flagged;          ///< per worker: current idle episode flagged
  std::vector<std::int64_t> overrun_flagged;  ///< per worker: running_since already flagged

  std::thread thread;

  Impl(runtime::ThreadPool& p, Options o) : pool(p), opt(std::move(o)) {}

  void watchdog_pass() {
    auto& reg = MetricsRegistry::global();
    const std::int64_t now = now_ns();
    const long ready = pool.ready_depth();
    reg.gauge("health.ready_depth").set(ready);
    const auto probes = pool.probe_workers();
    if (stall_flagged.size() != probes.size()) {
      stall_flagged.assign(probes.size(), false);
      overrun_flagged.assign(probes.size(), 0);
    }
    const std::int64_t stall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(opt.stall_after).count();
    for (const auto& p : probes) {
      const std::size_t w = std::size_t(p.worker);
      if (p.running_since_ns != 0) {
        // Occupied: any stall episode is over; check for an overrun.
        stall_flagged[w] = false;
        const std::int64_t elapsed = now - p.running_since_ns;
        if (overrun_flagged[w] != p.running_since_ns && elapsed > opt.overrun_floor_ns) {
          const double mean_s = KernelProfiler::global().mean_seconds(int(p.running_kind));
          const double limit_ns = opt.overrun_factor * mean_s * 1e9;
          if (mean_s > 0.0 && double(elapsed) > limit_ns) {
            overrun_flagged[w] = p.running_since_ns;
            overruns.fetch_add(1, std::memory_order_relaxed);
            reg.counter("health.task_overruns").add(1);
            reg.gauge("health.last_overrun_task").set(p.running_task);
            reg.gauge("health.last_overrun_kind").set(long(p.running_kind));
            reg.gauge("health.last_overrun_ms").set(long(elapsed / 1'000'000));
          }
        }
        continue;
      }
      overrun_flagged[w] = 0;
      // Idle. Stalled = idle past the threshold while ready work exists.
      // A worker that never finished anything is idle since monitor start.
      const std::int64_t idle_since = std::max(p.last_finish_ns, start_ns);
      if (ready > 0 && now - idle_since > stall_ns) {
        if (!stall_flagged[w]) {
          stall_flagged[w] = true;
          stalls.fetch_add(1, std::memory_order_relaxed);
          reg.counter("health.stalls").add(1);
          reg.gauge("health.last_stall_worker").set(p.worker);
        }
      } else {
        stall_flagged[w] = false;
      }
    }
  }

  void run() {
    std::unique_lock<std::mutex> lock(mu);
    while (!stop) {
      cv.wait_for(lock, opt.poll, [&] { return stop; });
      if (stop) break;
      lock.unlock();
      const long requested = g_snapshot_requests.load(std::memory_order_acquire);
      if (requested != served_requests) {
        served_requests = requested;
        try {
          dump(snapshot_text());
        } catch (...) {
          // Snapshot I/O failure must never take down the server.
        }
      }
      watchdog_pass();
      lock.lock();
    }
  }

  [[nodiscard]] std::string snapshot_text() const {
    std::string out = "tiledqr health snapshot\n";
    char line[192];
    std::snprintf(line, sizeof(line),
                  "  watchdog: %ld stalls, %ld overruns, %ld snapshots, ready depth %ld\n",
                  stalls.load(std::memory_order_relaxed),
                  overruns.load(std::memory_order_relaxed),
                  snapshots.load(std::memory_order_relaxed), pool.ready_depth());
    out += line;
    const std::int64_t now = now_ns();
    for (const auto& p : pool.probe_workers()) {
      if (p.running_since_ns != 0) {
        std::snprintf(line, sizeof(line), "  w%-3d running %s #%d for %.3f ms, %zu ready\n",
                      p.worker, kind_name(p.running_kind), p.running_task,
                      double(now - p.running_since_ns) / 1e6, p.ready);
      } else {
        std::snprintf(line, sizeof(line), "  w%-3d idle %.3f ms, %zu ready\n", p.worker,
                      p.last_finish_ns != 0 ? double(now - p.last_finish_ns) / 1e6 : 0.0,
                      p.ready);
      }
      out += line;
    }
    out += "metrics:\n";
    out += MetricsRegistry::global().snapshot().to_text();
    if (opt.report) {
      try {
        out += opt.report();
      } catch (...) {
        out += "(report callback threw)\n";
      }
    }
    return out;
  }

  std::string dump(const std::string& text) {
    const std::string target = unique_export_path(opt.snapshot_path);
    std::ofstream f(target);
    TILEDQR_CHECK(f.good(), "cannot open health snapshot file: " + target);
    f << text;
    f.flush();
    TILEDQR_CHECK(f.good(), "failed writing health snapshot file: " + target);
    snapshots.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter("health.snapshots").add(1);
    return target;
  }
};

HealthMonitor::HealthMonitor(runtime::ThreadPool& pool) : HealthMonitor(pool, Options{}) {}

HealthMonitor::HealthMonitor(runtime::ThreadPool& pool, Options options)
    : impl_(std::make_unique<Impl>(pool, checked(std::move(options)))) {
  if (g_live_monitors.fetch_add(1, std::memory_order_acq_rel) == 0) {
    task_observation_flags().fetch_or(kObsTaskHealth, std::memory_order_relaxed);
  }
  impl_->start_ns = now_ns();
  impl_->served_requests = g_snapshot_requests.load(std::memory_order_acquire);
  impl_->thread = std::thread([this] { impl_->run(); });
}

HealthMonitor::~HealthMonitor() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  impl_->thread.join();
  if (g_live_monitors.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    task_observation_flags().fetch_and(~unsigned(kObsTaskHealth), std::memory_order_relaxed);
  }
}

std::string HealthMonitor::snapshot_text() const { return impl_->snapshot_text(); }

std::string HealthMonitor::dump_snapshot() { return impl_->dump(impl_->snapshot_text()); }

void HealthMonitor::request_snapshot() noexcept {
  g_snapshot_requests.fetch_add(1, std::memory_order_release);
}

void HealthMonitor::install_sigusr1() {
#ifdef SIGUSR1
  std::signal(SIGUSR1, tiledqr_health_sigusr1);
#endif
}

std::unique_ptr<HealthMonitor> HealthMonitor::maybe_from_env(
    runtime::ThreadPool& pool, std::function<std::string()> report) {
  if (!env_flag("TILEDQR_HEALTH")) return nullptr;
  Options opt;
  if (auto path = env_string("TILEDQR_HEALTH_PATH")) opt.snapshot_path = *path;
  // An out-of-range value keeps the default, as TILEDQR_THREADS does.
  const auto period = [](const char* name, std::chrono::milliseconds fallback) {
    const std::chrono::milliseconds v(env_long(name, long(fallback.count())));
    return period_ok(v) ? v : fallback;
  };
  opt.poll = period("TILEDQR_HEALTH_POLL_MS", opt.poll);
  opt.stall_after = period("TILEDQR_HEALTH_STALL_MS", opt.stall_after);
  if (const double f = env_double("TILEDQR_HEALTH_OVERRUN_FACTOR", opt.overrun_factor);
      factor_ok(f))
    opt.overrun_factor = f;
  opt.report = std::move(report);
  install_sigusr1();
  return std::make_unique<HealthMonitor>(pool, std::move(opt));
}

HealthMonitor::Stats HealthMonitor::stats() const noexcept {
  return Stats{impl_->stalls.load(std::memory_order_relaxed),
               impl_->overruns.load(std::memory_order_relaxed),
               impl_->snapshots.load(std::memory_order_relaxed)};
}

}  // namespace tiledqr::obs
