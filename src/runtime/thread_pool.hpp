// Persistent worker pool: the library's one DAG executor.
//
// Workers stay alive across factorizations, so the "many repeated small
// factorizations" serving regime pays no thread create/join per DAG
// (runtime::execute builds a pool for one call only when asked for more
// workers than the default pool has):
//
//   * each worker owns one ready set: a mutex guarding one *lane* (a
//     deque) per live submission it holds work for. Submitters (from any
//     thread) and the owner push there; the owner pops LIFO (locality: the
//     task just enabled has the hottest tiles) and idle workers steal the
//     oldest item. Tasks are whole tile kernels, so one short lock per
//     hand-off costs little next to the work;
//   * a submission's initial ready set is dealt round-robin across its
//     workers in descending critical-path priority (the paper's scheduling
//     rule), so every worker starts on the most urgent task it holds;
//   * several DAGs can be in flight at once (the session's batches, solve
//     stages and stream grafts interleave); each submission can be capped
//     to a subset of workers so `execute(g, body, threads)` keeps its
//     exact-concurrency semantics for the scaling ablations.
//
// A submission is one DAG. It retires when its last task has run, and its
// completion callback fires on that worker. It may be *replicated*
// (`copies`): the same base graph scheduled copies times with task ids
// offset by the graph size — how a homogeneous fused batch is scheduled
// without ever materializing count x base-plan bytes.
//
// Fairness: the owner rotates round-robin across its lanes when popping and
// thieves rotate the same way, so a submission queued behind another's
// backlog still makes progress (how concurrent FactorStreams share the
// pool). TILEDQR_PIN=1 additionally pins worker threads to cores
// (pthread_setaffinity_np; a graceful no-op off Linux).
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
    long graphs_completed = 0;  ///< submissions fully retired
    long tasks_executed = 0;    ///< task bodies actually run
    long tasks_stolen = 0;      ///< tasks taken from another worker's ready set
    // Steal-path contention and locality attribution (summed over workers).
    long steal_cas_retries = 0;   ///< steals that found the victim's lock held
    long empty_steal_probes = 0;  ///< full victim sweeps that found nothing
    long tasks_home = 0;     ///< tasks run on the worker that queued them
    long tasks_foreign = 0;  ///< tasks run off a steal (lost locality)
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
  /// success); a failing submission cancels only its own remaining tasks.
  /// It may submit further work to this pool. `g` and everything `body`
  /// touches must stay alive until then; `keepalive` is held by the
  /// submission for exactly that purpose and released after `on_complete`
  /// returns. `max_workers <= 0` means all workers; otherwise the submission
  /// is confined to that many workers.
  /// `keys`, when non-null, supplies precomputed scheduling keys (one per
  /// task of `g`, higher runs first) borrowed for the submission's lifetime —
  /// the same contract as `g` — and the priority rule is not consulted;
  /// cached plans pass their rank vector here to skip the per-submission
  /// rank sweep. `copies > 1` schedules `copies` independent replicas of `g`
  /// as ONE submission: the body receives global indices
  /// `copy * g.tasks.size() + local`, dependencies and keys replicate per
  /// copy, and a task failure cancels every replica — the scheduling
  /// contract of a homogeneous fused batch, at O(1) extra memory.
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
  struct Component;
  struct Worker;

  /// POD queue entry: {submission, global task id}. A submission is freed by
  /// the worker that retires its last task, so it outlives every queued or
  /// running item of its own and no shared_ptr rides along.
  struct Item {
    Component* comp = nullptr;
    std::int32_t task = 0;
  };

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

  /// Submissions not yet retired; the draining destructor waits for zero.
  std::atomic<long> active_submissions_{0};
  /// Rotates the worker-set anchor (unsigned: wraps harmlessly in
  /// long-lived serving processes).
  std::atomic<unsigned> next_start_{0};

  // Stats (relaxed counters; per-worker counters live on the Worker).
  std::atomic<long> graphs_completed_{0};
  std::atomic<long> tasks_executed_{0};
  std::atomic<long> tasks_stolen_{0};

  /// Registry label ("pool0", ...); worker trace tracks are "<label>.w<i>".
  std::string label_;
  /// Declared last: deregistered (freezing final stats into the registry)
  /// before any counter it reads is destroyed.
  obs::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace tiledqr::runtime
