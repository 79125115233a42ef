// Live health layer for a serving process: on-demand observability
// snapshots without exiting, plus a stall/overrun watchdog.
//
// A server that only dumps metrics at process exit is blind exactly when it
// matters — while it is stuck. HealthMonitor is a handle a serving process
// keeps open next to its ThreadPool:
//
//   * Snapshots on demand. dump_snapshot() (the API path) or SIGUSR1 (the
//     operator path, install_sigusr1()) writes the current metrics-registry
//     snapshot and a caller-supplied report (typically the schedule report
//     with critical-path breakdown) to disk, append-safe via
//     obs::unique_export_path — repeated snapshots of one process never
//     overwrite each other. The signal handler itself only bumps an atomic
//     counter (async-signal-safe); the monitor thread does all I/O.
//
//   * Stall watchdog. A worker that has been idle longer than
//     `stall_after` while the pool holds ready work is flagged: counter
//     `health.stalls` plus gauge `health.last_stall_worker` in the global
//     registry. Flagged once per idle episode, never a crash — lost wakeups
//     and scheduling pathologies become a metric, not a hang you diagnose
//     post-mortem.
//
//   * Overrun watchdog. A task running longer than `overrun_factor` times
//     its kind's live-profile mean (and past `overrun_floor`) bumps
//     `health.task_overruns` and records the offender (task index, kind,
//     elapsed ms) in gauges. Flagged once per occupancy.
//
// Cost discipline: worker stamping rides the same combined flag word as
// tracing (obs::task_observation_flags()), so a process with no live
// monitor still pays exactly one relaxed load per task; the watchdog's own
// polling runs on the monitor thread at `poll` granularity.
//
// `TILEDQR_HEALTH=1` wires the whole layer from the environment (see
// maybe_from_env); the serving example and README document the knobs.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace tiledqr::runtime {
class ThreadPool;
}

namespace tiledqr::obs {

class HealthMonitor {
 public:
  struct Options {
    /// Watchdog / snapshot-request polling period, in [1 ms, 1 day].
    std::chrono::milliseconds poll{100};
    /// Idle-with-ready-work threshold before a worker counts as stalled, in
    /// [1 ms, 1 day].
    std::chrono::milliseconds stall_after{500};
    /// A task is an overrun when elapsed > overrun_factor x its kind's
    /// live-profile mean — and past overrun_floor_ns, so sub-microsecond
    /// kernel means don't flag every scheduling hiccup. The factor is finite
    /// and >= 1, the floor >= 0.
    double overrun_factor = 8.0;
    std::int64_t overrun_floor_ns = 1'000'000;  // 1 ms
    /// Snapshot destination stem; metrics go to "<stem>", the report (when a
    /// `report` callback is set) to "<stem>.report", both append-safe.
    std::string snapshot_path = "tiledqr_health.txt";
    /// Extra text appended to every snapshot — typically a closure building
    /// the schedule report + critical-path breakdown. Runs on the monitor
    /// thread; may allocate/lock, must not throw (exceptions are swallowed).
    std::function<std::string()> report;
  };

  struct Stats {
    long stalls = 0;        ///< idle-with-ready-work episodes flagged
    long overruns = 0;      ///< long-running-task episodes flagged
    long snapshots = 0;     ///< snapshot files written
  };

  /// Starts the monitor thread watching `pool`. Construction sets the
  /// kObsTaskHealth observation bit (workers start stamping); destruction
  /// clears it when the last monitor dies and joins the thread. Throws
  /// tiledqr::Error, before starting anything, when an option is out of
  /// the range its comment gives. (Two
  /// overloads rather than `Options = {}`: GCC defers a nested class's
  /// default member initializers past the enclosing class, rejecting the
  /// brace default argument.)
  HealthMonitor(runtime::ThreadPool& pool, Options options);
  explicit HealthMonitor(runtime::ThreadPool& pool);
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// The snapshot body: current registry metrics, worker table, watchdog
  /// totals, and the `report` callback's text. Safe from any thread.
  [[nodiscard]] std::string snapshot_text() const;

  /// Writes snapshot_text() to the configured path now, append-safe.
  /// Returns the path written; throws tiledqr::Error on I/O failure.
  std::string dump_snapshot();

  /// Asks every live monitor to dump a snapshot from its own thread, without
  /// doing any I/O here: this is the async-signal-safe core of the SIGUSR1
  /// path, also callable directly from application code.
  static void request_snapshot() noexcept;

  /// Installs request_snapshot() as the process's SIGUSR1 handler
  /// (idempotent). Kept separate from construction: signal disposition is
  /// process-global state the application must opt into.
  static void install_sigusr1();

  /// The env-var wiring: returns a live monitor watching `pool` with
  /// SIGUSR1 installed when TILEDQR_HEALTH=1 (nullptr otherwise), honoring
  /// TILEDQR_HEALTH_PATH, TILEDQR_HEALTH_POLL_MS, TILEDQR_HEALTH_STALL_MS,
  /// and TILEDQR_HEALTH_OVERRUN_FACTOR; an unparsable or out-of-range value
  /// keeps its default. `report` becomes the snapshot's report callback.
  static std::unique_ptr<HealthMonitor> maybe_from_env(
      runtime::ThreadPool& pool, std::function<std::string()> report = nullptr);

  [[nodiscard]] Stats stats() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tiledqr::obs
