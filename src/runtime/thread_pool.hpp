// Persistent worker pool: the library's one DAG executor.
//
// Workers stay alive across factorizations, so the "many repeated small
// factorizations" serving regime pays no thread create/join per DAG
// (runtime::execute builds a pool for one call only when asked for more
// workers than the default pool has):
//
//   * each worker owns one ready set: a mutex guarding one *lane* (a
//     deque) per live submission it holds work for. Dealers (submit/append
//     from any thread) and the owner push there; the owner pops LIFO
//     (locality: the task just enabled has the hottest tiles) and idle
//     workers steal the oldest item. Tasks are whole tile kernels, so one
//     short lock per hand-off costs little next to the work;
//   * the initial ready set of a one-shot DAG is dealt round-robin across
//     workers in descending critical-path priority (the paper's scheduling
//     rule), so every worker starts on the most urgent task it holds;
//   * several DAGs can be in flight at once (the batched serving API
//     interleaves them); each submission can be capped to a subset of
//     workers so `execute(g, body, threads)` keeps its exact-concurrency
//     semantics for the scaling ablations.
//
// Locality (component-affine dealing): a *stream* component is dealt whole
// to one home worker, rotating across the worker set per component, so one
// request's tiles stay in one core's cache; siblings steal across
// components only when their own lanes run dry. One-shot submissions keep
// the round-robin source spread: a single DAG's parallelism *is* the spread.
// TILEDQR_PIN=1 additionally pins worker threads to cores
// (pthread_setaffinity_np; a graceful no-op off Linux).
//
// A submission is a set of DAG *components*. The one-shot submit() carries
// exactly one and closes immediately; a Stream (open_stream) stays open and
// grafts new components onto the live submission's ready set while workers
// are still draining earlier ones — no stop-the-world barrier. Components
// are generation-counted: each append bumps the submission's generation, the
// component records the generation it was born in, and the component list is
// append-only with stable addresses, so workers racing on items of an older
// generation never observe a ready set being rebuilt under them. A component
// may be *replicated* (`copies`): the same base graph scheduled copies times
// with task ids offset by the graph size — how a homogeneous fused batch is
// scheduled without ever materializing count x base-plan bytes. Completion
// is per component (its own sentinel counter and callback); the submission
// itself retires when it is closed and every generation has drained.
//
// Fairness (serving QoS): several live streams share the pool, and with one
// LIFO deque per worker a chatty client's continuous grafts would keep
// landing on top, starving a quieter stream's items at the bottom. Two
// mechanisms keep concurrent streams interleaved: (1) stream components are
// dealt from a pool-level round-robin anchor shared by all streams, so one
// client's burst shifts the next client's graft past the workers it just
// loaded; (2) each worker keeps one lane per live submission and rotates
// round-robin across lanes when popping, so every submission visible to a
// worker makes progress regardless of graft arrival order.
//
// Tasks only write their declared outputs, so results are bitwise identical
// to the sequential replay for any worker count, steal order, or pinning.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/executor.hpp"

namespace tiledqr::runtime {

class ThreadPool {
  // Scheduling internals, declared up front so the public Stream handle can
  // name them (definitions live in the .cpp).
  struct Component;
  struct Submission;
  struct Worker;

 public:
  /// Counters since construction. stats() returns a *coherent* snapshot:
  /// every underlying counter is monotone and the reader re-reads until two
  /// consecutive passes agree, so the returned struct reflects one instant
  /// (e.g. tasks_stolen never exceeds tasks_executed by a torn read).
  /// Power-of-two steal-latency buckets: bucket b counts successful steals
  /// whose scan latency (entering the steal scan -> item acquired) fell in
  /// [2^b, 2^(b+1)) ns; the last bucket absorbs the tail (>= 8ms).
  static constexpr int kStealLatencyBuckets = 24;

  struct Stats {
    long graphs_completed = 0;  ///< DAG components fully retired
    long tasks_executed = 0;    ///< task bodies actually run
    long tasks_stolen = 0;      ///< tasks taken from another worker's ready set
    long streams_opened = 0;    ///< streaming submissions created
    long streams_live = 0;  ///< gauge: streams opened and neither closed nor
                            ///< abandoned (all handles dropped without close)
    // Steal-path contention and locality attribution (summed over workers).
    long steal_cas_retries = 0;   ///< steals that found the victim's lock held
    long empty_steal_probes = 0;  ///< full victim sweeps that found nothing
    long tasks_home = 0;     ///< tasks run on their component's home worker
                             ///< (spread components: run un-stolen)
    long tasks_foreign = 0;  ///< tasks run off-home (lost locality)
    /// Latency distribution per successful steal, summed over workers.
    std::array<long, kStealLatencyBuckets> steal_latency_hist{};

    /// Bucket-resolution quantile of the steal-latency distribution: the
    /// upper bound (ns) of the bucket holding the q-quantile sample, 0 when
    /// no steal was recorded. q in [0, 1].
    [[nodiscard]] std::int64_t steal_latency_quantile_ns(double q) const noexcept;
  };

  /// `threads == 0` resolves to default_thread_count() (TILEDQR_THREADS or
  /// hardware concurrency), the same rule the rest of the library uses.
  /// TILEDQR_PIN is read here, once.
  explicit ThreadPool(int threads = 0);

  /// Drains outstanding submissions, then stops and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] int size() const noexcept { return int(workers_.size()); }

  /// Asynchronous DAG submission. `on_complete` runs on the worker that
  /// retires the last task, with the first task exception (or nullptr on
  /// success). `g` and everything `body` touches must stay alive until then;
  /// `keepalive` is held by the submission for exactly that purpose and
  /// released after `on_complete` returns. `max_workers <= 0` means all
  /// workers; otherwise the submission is confined to that many workers.
  /// `keys`, when non-null, supplies precomputed scheduling keys (one per
  /// task of `g`, higher runs first) borrowed for the submission's lifetime —
  /// the same contract as `g` — and the priority rule is not consulted;
  /// cached plans pass their rank vector here to skip the per-submission
  /// rank sweep. `copies > 1` schedules `copies` independent replicas of `g`
  /// as ONE component: the body receives global indices
  /// `copy * g.tasks.size() + local`, dependencies and keys replicate per
  /// copy, and a task failure cancels the whole replicated component — the
  /// scheduling contract of a homogeneous fused batch, at O(1) extra memory.
  void submit(const dag::TaskGraph& g, std::function<void(std::int32_t)> body,
              std::function<void(std::exception_ptr)> on_complete,
              SchedulePriority priority = SchedulePriority::CriticalPath, int max_workers = 0,
              std::shared_ptr<const void> keepalive = nullptr,
              const std::vector<long>* keys = nullptr, int copies = 1);

  /// Future-returning flavor of submit().
  [[nodiscard]] std::future<void> submit(const dag::TaskGraph& g,
                                         std::function<void(std::int32_t)> body,
                                         SchedulePriority priority = SchedulePriority::CriticalPath,
                                         int max_workers = 0,
                                         std::shared_ptr<const void> keepalive = nullptr,
                                         const std::vector<long>* keys = nullptr, int copies = 1);

  /// Blocking convenience: submit and wait; rethrows the first task
  /// exception. Safe to call from inside a task body running on this pool —
  /// the calling worker helps execute instead of deadlocking.
  void run(const dag::TaskGraph& g, const std::function<void(std::int32_t)>& body,
           SchedulePriority priority = SchedulePriority::CriticalPath, int max_workers = 0,
           const std::vector<long>* keys = nullptr);

  /// Handle to a live streaming submission (open_stream). append() grafts a
  /// new DAG component onto the in-flight ready set; each component has its
  /// own completion callback and error state (one component's failure does
  /// not cancel its siblings — they are independent requests). The handle is
  /// movable and shares state: copies of the underlying submission survive
  /// until the last worker retires it. append()/wait()/generation() are
  /// thread-safe; close() may race with append() — the append that loses
  /// throws, like any append after close.
  ///
  /// Lifetime: every graph/body/keys passed to append() must stay alive
  /// until that component's on_complete has run (use `keepalive`). The pool
  /// must outlive the stream's last append; an open, idle stream does not
  /// block the pool destructor.
  class Stream {
   public:
    Stream() = default;  ///< empty handle; only moved-into handles are valid

    /// Grafts `g` onto the live submission as a new component of the next
    /// generation and wakes workers; same argument contract as
    /// ThreadPool::submit (including `copies` replication). Throws Error if
    /// the stream is closed or empty. Appending from a task body or
    /// completion callback running on the pool is safe (the tail of a solve
    /// pipeline chains its next stage this way).
    void append(const dag::TaskGraph& g, std::function<void(std::int32_t)> body,
                std::function<void(std::exception_ptr)> on_complete = nullptr,
                std::shared_ptr<const void> keepalive = nullptr,
                const std::vector<long>* keys = nullptr, int copies = 1);

    /// No further appends; idempotent. Does not block — pair with wait().
    void close();

    /// Blocks until every component appended before this call has retired
    /// and its completion callback has returned. Callable with the stream
    /// still open (drain-and-continue) or after close(). Safe from a pool
    /// worker: the caller helps execute.
    void wait();

    /// Components appended so far — the ready set's generation count.
    [[nodiscard]] long generation() const noexcept;
    /// Components fully retired so far (counted before their completion
    /// callbacks run, so a callback observes its own component retired).
    [[nodiscard]] long retired() const noexcept;
    [[nodiscard]] bool closed() const noexcept;

    [[nodiscard]] bool valid() const noexcept { return pool_ != nullptr; }
    explicit operator bool() const noexcept { return valid(); }

   private:
    friend class ThreadPool;
    ThreadPool* pool_ = nullptr;
    std::shared_ptr<Submission> sub_;
  };

  /// Opens a streaming submission confined to `max_workers` workers
  /// (<= 0 = all), anchored like any submission. Components appended later
  /// all share this worker set; each is dealt whole to a home worker that
  /// rotates across the set per component.
  [[nodiscard]] Stream open_stream(int max_workers = 0);

  [[nodiscard]] Stats stats() const noexcept;

  /// Point-in-time view of one worker, for the health layer's stall and
  /// overrun watchdogs. The running_* slots are stamped by the per-task hook
  /// only while a HealthMonitor is live (obs::kObsTaskHealth) — otherwise
  /// they read as idle — so probing costs the runtime nothing when nobody
  /// watches.
  struct WorkerProbe {
    int worker = 0;
    std::size_t ready = 0;  ///< items queued on this worker right now
    std::int64_t running_since_ns = 0;  ///< start of the in-flight task; 0 = idle
    std::int32_t running_task = -1;     ///< its task index (valid while running)
    std::uint8_t running_kind = 0xFF;   ///< its KernelKind, 0xFF = non-kernel
    std::int64_t last_finish_ns = 0;    ///< end of the last retired task; 0 = never
  };

  /// Probes every worker: `ready` under each worker's ready-set lock, held
  /// for one sum; the running slots are relaxed atomic reads. Safe from any
  /// thread.
  [[nodiscard]] std::vector<WorkerProbe> probe_workers() const;

  /// Total ready items across all workers — "is there runnable work a
  /// stalled worker should be taking?". Locks each ready set in turn, like
  /// probe_workers().
  [[nodiscard]] long ready_depth() const;

  /// Process-wide shared pool, lazily created with default_thread_count()
  /// workers; what runtime::execute() submits to.
  static ThreadPool& default_pool();

 private:
  friend class Stream;

  /// POD queue entry: {component, global task id}. Component lifetime is
  /// guaranteed by its submission's self-reference (see Submission) while
  /// any of its tasks is queued or running, so no shared_ptr rides along.
  struct Item {
    Component* comp = nullptr;
    std::int32_t task = 0;
  };

  std::shared_ptr<Submission> make_submission(int max_workers, bool closed);
  /// Appends one component (generation = current + 1) and deals its sources.
  Component& append_component(const std::shared_ptr<Submission>& sub, const dag::TaskGraph& g,
                              std::function<void(std::int32_t)> body,
                              std::function<void(std::exception_ptr)> on_complete,
                              SchedulePriority priority,
                              std::shared_ptr<const void> keepalive,
                              const std::vector<long>* keys, bool check_closed, int copies);
  std::shared_ptr<Submission> submit_impl(const dag::TaskGraph& g,
                                          std::function<void(std::int32_t)> body,
                                          std::function<void(std::exception_ptr)> on_complete,
                                          SchedulePriority priority, int max_workers,
                                          std::shared_ptr<const void> keepalive,
                                          const std::vector<long>* keys, int copies);
  void finalize_if_drained(Submission& sub);
  void wait_stream(const std::shared_ptr<Submission>& sub, long up_to_generation);
  /// Re-entrant wait from one of this pool's workers: runs work (parking on
  /// the epoch/cv machinery when none is admissible) until `done()` holds.
  template <typename Pred>
  void help_until(Pred done);
  /// Worker loop; counts `named` down once the thread has named its trace
  /// track.
  void worker_main(int wid, std::latch& named);
  bool try_run_one(int wid);
  void run_item(int wid, Item item, bool stolen);
  void signal_work();

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Sleep/wake machinery: epoch_ bumps on every push; idle workers sleep on
  // sleep_cv_ until the epoch moves past the value they last scanned at.
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<long> epoch_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};

  /// TILEDQR_PIN: pin worker threads to cores (worker w -> core w mod ncpu).
  bool pin_workers_ = false;

  /// In-flight *components*: a stream counts one per appended component, so
  /// an open-but-idle stream does not block the draining destructor.
  std::atomic<long> active_submissions_{0};
  /// Rotates the worker-set anchor (unsigned: wraps harmlessly in
  /// long-lived serving processes).
  std::atomic<unsigned> next_start_{0};
  /// Pool-level home rotation shared by ALL stream grafts: advances by one
  /// per component, so concurrent streams interleave across the worker set
  /// instead of each independently rotating from its own anchor.
  std::atomic<unsigned> stream_deal_round_{0};
  /// Streams closed or abandoned, monotone (streams_live is derived as
  /// streams_opened_ − this, keeping every stats() input monotone so the
  /// coherent-snapshot re-read works). Shared with each stream Submission so
  /// a handle dropped without close() still counts from ~Submission — which
  /// can outlive the pool (an open idle stream does not block the pool
  /// destructor), so the counter cannot live in the pool object itself.
  std::shared_ptr<std::atomic<long>> streams_closed_{std::make_shared<std::atomic<long>>(0)};

  // Stats (relaxed counters; per-worker counters live on the Worker).
  std::atomic<long> graphs_completed_{0};
  std::atomic<long> tasks_executed_{0};
  std::atomic<long> tasks_stolen_{0};
  std::atomic<long> streams_opened_{0};

  /// Registry label ("pool0", ...); worker trace tracks are "<label>.w<i>".
  std::string label_;
  /// Declared last: deregistered (freezing final stats into the registry)
  /// before any counter it reads is destroyed.
  obs::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace tiledqr::runtime
