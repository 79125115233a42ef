// Per-task trace collector: lock-free per-thread ring buffers of task
// begin/end events, exported as Chrome trace_event JSON (loadable in
// chrome://tracing and Perfetto).
//
// Design constraints, in priority order:
//
//   1. The disabled path costs one relaxed atomic load per task
//      (Tracer::enabled()). Nothing else — no timestamp, no branch on
//      per-thread state.
//   2. Recording never blocks and never allocates on the hot path. Each
//      thread owns a single-producer ring (a Track); a full ring counts the
//      drop and returns — newest events are dropped, the buffer is never
//      corrupted.
//   3. The exporter may run concurrently with recording: a Track's element
//      is fully written before its `size` is advanced with a release store,
//      and readers load `size` with acquire, so every event below the loaded
//      size is complete.
//
// Tracks are leased to threads: a thread's first record() (or an explicit
// set_thread_track_name()) binds it to a Track; when the thread exits, the
// Track returns to a free list and the next new thread reuses it — so the
// number of Tracks is bounded by the peak concurrent thread count, not by
// how many threads ever existed (a scaling sweep that builds a pool per
// call creates many). Reuse clears the previous thread's events, drops, and
// name: a report built mid-process must never mix a dead thread's stale
// events into the current run's span or critical path. For reports over a
// window narrower than "since the last clear", mark() stamps a begin-mark
// and collect_since() filters on it.
//
// `TILEDQR_TRACE=<path>` enables collection at startup and writes the
// Chrome JSON at process exit; `TILEDQR_TRACE_CAPACITY=<events>` sizes the
// per-track rings (default 65536 events, 48 bytes each).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tiledqr::obs {

/// One completed task: a begin/end pair on one thread. Timestamps are
/// obs::now_ns() (steady_clock) so they compare directly with WallTimer.
struct TraceEvent {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t task = -1;        ///< task index within its submission's graph
  std::uint32_t submission = 0;  ///< ThreadPool submission id (0 = none)
  std::int32_t i = -1;           ///< tile coordinates of the kernel, -1 = n/a
  std::int32_t piv = -1;
  std::int32_t k = -1;
  std::int32_t j = -1;
  std::uint8_t kind = kNonKernel;  ///< kernels::KernelKind, or kNonKernel
  std::uint8_t flags = 0;          ///< FlagStolen if the task ran off a steal

  static constexpr std::uint8_t kNonKernel = 0xFF;
  static constexpr std::uint8_t kFlagStolen = 0x1;
};

/// A finished copy of one thread's ring, for reports and tests.
struct TrackSnapshot {
  std::string name;
  int tid = 0;  ///< stable per-track id, the exporter's Chrome `tid`
  std::vector<TraceEvent> events;
  long dropped = 0;  ///< events lost to ring overflow
};

/// Process-wide trace collector; use Tracer::instance().
class Tracer {
 public:
  /// The per-task guard. Relaxed load — this is the whole disabled path.
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Start collecting. `capacity` sizes rings allocated from now on; rings
  /// that already exist keep their size. 0 keeps the current capacity.
  void enable(std::size_t capacity = 0);
  void disable();

  /// Drop all recorded events and drop counts (rings stay allocated), and
  /// reset the begin-mark. Callers must quiesce recording threads first — a
  /// record() racing a clear() may land in the cleared region or be lost,
  /// but the buffer stays well-formed.
  void clear();

  /// Stamp the begin-mark at now_ns(): schedule reports and critical-path
  /// analyses built afterwards (via collect_since(mark_ns())) consider only
  /// events that *start* at or after the mark, so one long-lived tracer can
  /// scope its reports to "the run since mark()" without clearing the rings
  /// the exporter still wants in full. Returns the mark.
  std::int64_t mark();
  /// The current begin-mark; 0 = never marked (or cleared since).
  [[nodiscard]] std::int64_t mark_ns() const noexcept {
    return mark_ns_.load(std::memory_order_relaxed);
  }

  /// Record one completed task on the calling thread's track. No-op when
  /// disabled. `kind` is kernels::KernelKind or TraceEvent::kNonKernel.
  void record(std::int64_t start_ns, std::int64_t end_ns, std::uint8_t kind, std::int32_t i,
              std::int32_t piv, std::int32_t k, std::int32_t j, std::int32_t task,
              std::uint32_t submission, bool stolen);

  /// Name the calling thread's track ("pool0.w3", ...). Binds a track to the
  /// thread if it has none yet (cheap; safe to call when disabled).
  void set_thread_track_name(const std::string& name);

  /// Copy every track's events (concurrent-safe: sees a prefix of any
  /// in-flight recording). Tracks with no events and no name are skipped.
  [[nodiscard]] std::vector<TrackSnapshot> collect() const;

  /// collect(), keeping only events with start_ns >= since_ns (0 = keep
  /// everything). Drop counts are reported unchanged — a ring overflow loses
  /// events regardless of which window a report asks for.
  [[nodiscard]] std::vector<TrackSnapshot> collect_since(std::int64_t since_ns) const;

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] long dropped_count() const;

  /// Chrome trace_event JSON ("X" complete events on one pid, one tid per
  /// track, thread_name metadata). Timestamps are microseconds relative to
  /// the earliest event. The file flavor throws tiledqr::Error on I/O
  /// failure.
  void export_chrome_json(std::ostream& out) const;
  void export_chrome_json(const std::string& path) const;

  /// Mid-process export for the health/SIGUSR1 path: writes the Chrome JSON
  /// to `path`, made append-safe — when a file already exists there, a
  /// unique "-N" suffix is inserted before the extension instead of
  /// overwriting. Returns the path actually written. Throws tiledqr::Error
  /// on I/O failure.
  std::string export_now(const std::string& path) const;

  /// The process-wide collector. First call reads TILEDQR_TRACE /
  /// TILEDQR_TRACE_CAPACITY; when TILEDQR_TRACE names a path, collection is
  /// enabled immediately and the JSON is written there at process exit.
  static Tracer& instance();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  friend struct TrackLease;

  struct Track {
    std::string name;
    int tid = 0;
    std::unique_ptr<TraceEvent[]> buf;  ///< allocated before enabled_ is set
    std::size_t capacity = 0;
    std::atomic<std::size_t> size{0};
    std::atomic<long> dropped{0};
  };

  Tracer();
  ~Tracer();

  /// The calling thread's track, binding one (reusing a free track or
  /// registering a new one) on first use.
  Track* this_thread_track();
  void release_track(Track* t);
  void allocate_locked(Track& t);

  mutable std::mutex mu_;            // guards tracks_/free_/capacity_ changes
  std::deque<Track> tracks_;         // deque: stable addresses for lessees
  std::vector<Track*> free_;         // tracks whose thread has exited
  std::size_t capacity_ = kDefaultCapacity;
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> mark_ns_{0};
  std::string exit_path_;  // TILEDQR_TRACE destination, "" = none

  static constexpr std::size_t kDefaultCapacity = 65536;
};

/// Monotonic id source for trace submission ids, shared by the ThreadPool's
/// submissions and the sequential replay so ids are unique across both.
[[nodiscard]] std::uint32_t next_trace_submission_id() noexcept;

/// Bits of task_observation_flags(): which observers want the runtime's
/// per-task hook to take timestamps.
enum ObsTaskFlag : unsigned {
  kObsTaskTrace = 1u,   ///< Tracer enabled (trace ring + kernel profiler)
  kObsTaskHealth = 2u,  ///< a HealthMonitor is live (worker running-task slots)
};

/// The single word the runtime's task hook loads (relaxed) per task — the
/// whole disabled path, shared by tracing and the health layer so adding the
/// watchdog did not add a second load. Tracer::enable/disable maintain
/// kObsTaskTrace; HealthMonitor construction/destruction maintains
/// kObsTaskHealth.
[[nodiscard]] std::atomic<unsigned>& task_observation_flags() noexcept;

/// `path`, or — when a file already exists there — the first available
/// variant with "-N" inserted before the extension ("trace.json" →
/// "trace-1.json"). The append-safety rule behind Tracer::export_now and
/// MetricsRegistry::dump_now: repeated snapshots of a live server never
/// overwrite each other.
[[nodiscard]] std::string unique_export_path(const std::string& path);

}  // namespace tiledqr::obs
