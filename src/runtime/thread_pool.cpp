#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <deque>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/kernel_profile.hpp"
#include "obs/trace.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace tiledqr::runtime {

namespace {
// Which pool (and worker slot) the current thread belongs to; lets run()
// detect re-entrant use from a task body and help instead of deadlocking.
thread_local ThreadPool* tl_pool = nullptr;
thread_local int tl_worker = -1;

// Resolved at load time so the per-task hook in run_item is one relaxed
// load of the observation flag word when observability is off — no
// function-local-static guard on the hot path. Also pins the singletons'
// construction before any static-storage pool, so they are destroyed after
// it.
obs::Tracer& g_tracer = obs::Tracer::instance();
obs::KernelProfiler& g_kernel_profiler = obs::KernelProfiler::global();

/// Best-effort worker->core pinning (TILEDQR_PIN). Linux-only; everywhere
/// else it is a documented no-op, and even on Linux a failed setaffinity
/// (cgroup cpuset, restricted mask) is ignored — pinning is an optimization,
/// never a correctness requirement.
void pin_to_core(int wid) {
#if defined(__linux__)
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(unsigned(wid) % ncpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)wid;
#endif
}
}  // namespace

/// One in-flight submission. Tasks retire exactly once each — executed
/// normally, or cancelled (skipped) once a task body has thrown — so
/// `remaining` always drains to zero and the completion fires even on
/// failure. The worker that retires the last task runs the completion and
/// deletes the submission.
///
/// A submission may be *replicated* (`copies > 1`): the scheduler runs
/// `copies` independent instances of the base graph, with global task id
/// = copy * stride + local (stride = base graph size). Dependencies never
/// cross copies, graph/key lookups index by `local`, and the body receives
/// the global id — exactly the task-id contract a materialized homogeneous
/// fused graph had, without the count x graph memory.
struct ThreadPool::Component {
  Component(const dag::TaskGraph& g, int copies, std::function<void(std::int32_t)> b,
            std::function<void(std::exception_ptr)> done_cb,
            const std::vector<long>* borrowed_keys, std::vector<long> owned,
            std::shared_ptr<const void> keep)
      : graph(&g), body(std::move(b)), on_complete(std::move(done_cb)),
        keys_owned(std::move(owned)),
        keys(borrowed_keys ? borrowed_keys->data() : keys_owned.data()),
        keepalive(std::move(keep)), stride(std::int32_t(g.tasks.size())),
        npred(g.tasks.size() * std::size_t(copies)), remaining(long(g.tasks.size()) * copies) {
    for (int c = 0; c < copies; ++c)
      for (std::size_t t = 0; t < g.tasks.size(); ++t)
        npred[std::size_t(c) * g.tasks.size() + t].store(g.tasks[t].npred,
                                                         std::memory_order_relaxed);
  }

  [[nodiscard]] bool worker_in_set(int w, int pool_size) const noexcept {
    if (worker_count >= pool_size) return true;
    int rel = w - first_worker;
    if (rel < 0) rel += pool_size;
    return rel < worker_count;
  }

  const dag::TaskGraph* graph;
  std::function<void(std::int32_t)> body;
  std::function<void(std::exception_ptr)> on_complete;
  std::vector<long> keys_owned;
  /// One scheduling key per *base-graph* task (borrowed or keys_owned);
  /// replicated copies share it — index with `task % stride`.
  const long* keys;
  std::shared_ptr<const void> keepalive;
  std::int32_t stride;  ///< tasks per copy (= base graph size)
  std::vector<std::atomic<std::int32_t>> npred;  ///< copies x stride
  std::atomic<long> remaining;
  /// Trace id: which submission an event belongs to (unique across pools and
  /// the sequential replay).
  std::uint32_t id = 0;
  /// Worker set: worker_count workers from first_worker on, wrapping.
  int first_worker = 0;
  int worker_count = 0;
  /// Set by the first task that throws; later tasks are cancelled.
  std::atomic<bool> failed{false};
  /// The first task exception, written only by the task that set `failed`
  /// and read by the retiring worker (ordered by `remaining`).
  std::exception_ptr error;

  /// Orders global task ids by descending key, ties by ascending id — the
  /// order Worker::push takes.
  void sort_most_urgent_first(std::vector<std::int32_t>& tasks) const {
    std::sort(tasks.begin(), tasks.end(), [&](std::int32_t a, std::int32_t b) {
      const long ka = keys[size_t(a % stride)];
      const long kb = keys[size_t(b % stride)];
      return ka != kb ? ka > kb : a < b;
    });
  }
};

/// Per-worker ready set: one lane per live submission the worker holds work
/// for, all behind one mutex. Submitters (from any thread), the owner
/// pushing ready successors, the owner's pop and thieves' steals all take
/// `mu`.
///
/// Every push appends in ascending priority, so the owner pops LIFO from a
/// lane's back — the most urgent item, whose inputs were just written — and
/// thieves take the oldest from its front. The owner rotates round-robin
/// across lanes, so one submission's backlog cannot bury another's items. A
/// thief checks a lane's submission admits it before removing anything, so a
/// capped submission's items only ever run inside its worker set.
struct ThreadPool::Worker {
  struct Lane {
    /// Compared only, except while `items` holds its tasks (which keep the
    /// submission alive).
    Component* comp = nullptr;
    std::deque<Item> items;  ///< empty = free for any submission
  };

  std::mutex mu;  ///< guards lanes, rr and steal_rr
  /// Grows to the most submissions this worker has held at once; a drained
  /// lane is reused, keeping its deque's storage.
  std::vector<Lane> lanes;
  std::size_t rr = 0;  ///< owner's rotation cursor over lanes
  /// Thieves' rotation cursor: a successful steal advances it, so heavy
  /// stealing serves submissions round-robin instead of draining one lane.
  std::size_t steal_rr = 0;

  // Per-worker relaxed counters, summed by stats().
  std::atomic<long> tasks_home{0};
  std::atomic<long> tasks_foreign{0};
  std::atomic<long> steal_cas_retries{0};
  std::atomic<long> empty_steal_probes{0};
  /// Successful-steal latency, power-of-two ns buckets (kStealLatencyBuckets).
  std::array<std::atomic<long>, ThreadPool::kStealLatencyBuckets> steal_latency_hist{};

  void record_steal_latency(std::int64_t ns) noexcept {
    int b = ns <= 0 ? 0 : std::bit_width(static_cast<std::uint64_t>(ns)) - 1;
    b = std::min(b, ThreadPool::kStealLatencyBuckets - 1);
    steal_latency_hist[std::size_t(b)].fetch_add(1, std::memory_order_relaxed);
  }

  // Health slots, stamped by run_item only while a HealthMonitor is live
  // (obs::kObsTaskHealth): what this worker is executing right now and when
  // it last finished anything. release on the *_since/last_finish stores so
  // a prober that sees the timestamp also sees the matching task/kind.
  std::atomic<std::int64_t> running_since{0};  ///< 0 = idle
  std::atomic<std::int64_t> last_finish{0};
  std::atomic<std::int32_t> running_task{-1};
  std::atomic<std::uint8_t> running_kind{0xFF};

  /// Queues `tasks` of `comp`, given most urgent first, on the lane of its
  /// submission, claiming a free lane if it has none. Takes `mu`; pop() and
  /// steal() require it held.
  void push(Component* comp, const std::vector<std::int32_t>& tasks) {
    std::lock_guard<std::mutex> lock(mu);
    Lane* lane = nullptr;
    for (auto& l : lanes) {
      if (l.comp == comp) {
        lane = &l;
        break;
      }
      if (l.items.empty() && lane == nullptr) lane = &l;
    }
    if (lane == nullptr) lane = &lanes.emplace_back();
    lane->comp = comp;
    for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) lane->items.push_back(Item{comp, *it});
  }

  /// Owner: LIFO pop from the next non-empty lane in the rotation.
  bool pop(Item& out) {
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      std::deque<Item>& items = lanes[(rr + k) % lanes.size()].items;
      if (items.empty()) continue;
      out = items.back();
      items.pop_back();
      rr = (rr + k + 1) % lanes.size();
      return true;
    }
    return false;
  }

  /// Thief: the oldest item of the next lane in the steal rotation whose
  /// submission admits worker `thief`.
  bool steal(int thief, int pool_size, Item& out) {
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      Lane& lane = lanes[(steal_rr + k) % lanes.size()];
      if (lane.items.empty() || !lane.comp->worker_in_set(thief, pool_size)) continue;
      out = lane.items.front();
      lane.items.pop_front();
      steal_rr = (steal_rr + k + 1) % lanes.size();
      return true;
    }
    return false;
  }
};

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = default_thread_count();
  pin_workers_ = env_flag("TILEDQR_PIN", false);
  label_ = obs::MetricsRegistry::global().unique_label("pool");
  workers_.reserve(size_t(threads));
  for (int w = 0; w < threads; ++w) workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(size_t(threads));
  // Return only once every worker has named its trace track, so a trace
  // exported right after construction already lists all of them. The
  // workers share the latch: wait() can return while the last count_down()
  // is still notifying.
  auto named = std::make_shared<std::latch>(threads);
  for (int w = 0; w < threads; ++w)
    threads_.emplace_back([this, w, named] { worker_main(w, *named); });
  named->wait();
  // Registered after the workers exist: a snapshot taken from another thread
  // must never observe the pool half-constructed.
  metrics_source_ = obs::MetricsRegistry::global().register_source(
      label_, [this](std::vector<obs::Sample>& out) {
        Stats s = stats();
        out.push_back({"workers", double(size())});
        out.push_back({"graphs_completed", double(s.graphs_completed)});
        out.push_back({"tasks_executed", double(s.tasks_executed)});
        out.push_back({"tasks_stolen", double(s.tasks_stolen)});
        out.push_back({"steal_cas_retries", double(s.steal_cas_retries)});
        out.push_back({"empty_steal_probes", double(s.empty_steal_probes)});
        out.push_back({"tasks_home", double(s.tasks_home)});
        out.push_back({"tasks_foreign", double(s.tasks_foreign)});
        out.push_back({"steal_latency_p50_ns", double(s.steal_latency_quantile_ns(0.50))});
        out.push_back({"steal_latency_p95_ns", double(s.steal_latency_quantile_ns(0.95))});
      });
}

ThreadPool::~ThreadPool() {
  {
    // Drain: finish everything already submitted before stopping.
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    sleep_cv_.wait(lock, [&] { return active_submissions_.load(std::memory_order_acquire) == 0; });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    stop_.store(true, std::memory_order_seq_cst);
  }
  sleep_cv_.notify_all();
  for (auto& th : threads_) th.join();
}

ThreadPool::Stats ThreadPool::stats() const noexcept {
  // Coherent snapshot of monotone counters: re-read until two consecutive
  // passes agree. If every counter reads the same value twice, each held
  // that value for the whole window between the reads (monotonicity), so
  // all values coexisted at one instant. Workers mutating mid-read just
  // trigger another pass; the retry bound keeps this wait-free in practice
  // (a torn-but-monotone final pass is still a valid *approximate* read,
  // the same guarantee the old field-by-field code gave). The per-worker
  // counters are summed per pass; a sum of monotone counters is monotone,
  // so the agreement argument covers them too.
  constexpr int kN = 7 + kStealLatencyBuckets;
  long a[kN];
  long b[kN];
  auto read = [&](long v[kN]) {
    v[0] = graphs_completed_.load(std::memory_order_acquire);
    v[1] = tasks_executed_.load(std::memory_order_acquire);
    v[2] = tasks_stolen_.load(std::memory_order_acquire);
    std::fill(v + 3, v + kN, 0L);
    for (const auto& w : workers_) {
      v[3] += w->steal_cas_retries.load(std::memory_order_acquire);
      v[4] += w->empty_steal_probes.load(std::memory_order_acquire);
      v[5] += w->tasks_home.load(std::memory_order_acquire);
      v[6] += w->tasks_foreign.load(std::memory_order_acquire);
      for (int k = 0; k < kStealLatencyBuckets; ++k)
        v[7 + k] += w->steal_latency_hist[std::size_t(k)].load(std::memory_order_acquire);
    }
  };
  read(a);
  for (int attempt = 0; attempt < 64; ++attempt) {
    read(b);
    if (std::equal(std::begin(a), std::end(a), std::begin(b))) break;
    std::copy(std::begin(b), std::end(b), std::begin(a));
  }
  Stats s;
  s.graphs_completed = b[0];
  s.tasks_executed = b[1];
  s.tasks_stolen = b[2];
  s.steal_cas_retries = b[3];
  s.empty_steal_probes = b[4];
  s.tasks_home = b[5];
  s.tasks_foreign = b[6];
  for (int k = 0; k < kStealLatencyBuckets; ++k) s.steal_latency_hist[std::size_t(k)] = b[7 + k];
  return s;
}

std::int64_t ThreadPool::Stats::steal_latency_quantile_ns(double q) const noexcept {
  long total = 0;
  for (long c : steal_latency_hist) total += c;
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const long target = std::max(1L, long(q * double(total) + 0.5));
  long seen = 0;
  for (int b = 0; b < kStealLatencyBuckets; ++b) {
    seen += steal_latency_hist[std::size_t(b)];
    if (seen >= target) return std::int64_t(1) << (b + 1);  // bucket upper bound
  }
  return std::int64_t(1) << kStealLatencyBuckets;
}

std::vector<ThreadPool::WorkerProbe> ThreadPool::probe_workers() const {
  std::vector<WorkerProbe> out;
  out.reserve(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    Worker& wk = *workers_[w];
    WorkerProbe p;
    p.worker = int(w);
    {
      std::lock_guard<std::mutex> lock(wk.mu);
      for (const auto& lane : wk.lanes) p.ready += lane.items.size();
    }
    p.running_since_ns = wk.running_since.load(std::memory_order_acquire);
    p.running_task = wk.running_task.load(std::memory_order_relaxed);
    p.running_kind = wk.running_kind.load(std::memory_order_relaxed);
    p.last_finish_ns = wk.last_finish.load(std::memory_order_acquire);
    out.push_back(p);
  }
  return out;
}

long ThreadPool::ready_depth() const {
  long n = 0;
  for (const auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mu);
    for (const auto& lane : w->lanes) n += long(lane.items.size());
  }
  return n;
}

ThreadPool& ThreadPool::default_pool() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

void ThreadPool::signal_work() {
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    // Touch the mutex so the wakeup cannot slip between a sleeper's predicate
    // check and its wait.
    { std::lock_guard<std::mutex> lock(sleep_mu_); }
    sleep_cv_.notify_all();
  }
}

void ThreadPool::submit(const dag::TaskGraph& g, std::function<void(std::int32_t)> body,
                        std::function<void(std::exception_ptr)> on_complete,
                        SchedulePriority priority, int max_workers,
                        std::shared_ptr<const void> keepalive, const std::vector<long>* keys,
                        int copies) {
  if (g.tasks.empty()) {
    if (on_complete) on_complete(nullptr);
    return;
  }
  TILEDQR_CHECK(copies >= 1, "ThreadPool: copies must be >= 1");
  TILEDQR_CHECK(!keys || keys->size() == g.tasks.size(),
                "ThreadPool: keys must have one entry per task");
  auto owned = std::make_unique<Component>(
      g, copies, std::move(body), std::move(on_complete), keys,
      keys ? std::vector<long>() : make_priority_keys(g, priority), std::move(keepalive));
  owned->id = obs::next_trace_submission_id();
  const int pool_size = size();
  const int count = max_workers <= 0 ? pool_size : std::min(max_workers, pool_size);
  const int first = int(next_start_.fetch_add(1, std::memory_order_relaxed) % unsigned(pool_size));
  owned->worker_count = count;
  owned->first_worker = first;

  // Initial ready set: global source ids across all copies, most urgent
  // first (ties ascending by id), dealt round-robin across the worker set
  // from first_worker on (which rotates per submission).
  const std::int32_t stride = owned->stride;
  std::vector<std::int32_t> sources;
  for (size_t t = 0; t < g.tasks.size(); ++t)
    if (g.tasks[t].npred == 0)
      for (int c = 0; c < copies; ++c)
        sources.push_back(std::int32_t(c) * stride + std::int32_t(t));
  owned->sort_most_urgent_first(sources);
  std::vector<std::vector<std::int32_t>> dealt(static_cast<size_t>(count));
  for (size_t i = 0; i < sources.size(); ++i) dealt[i % size_t(count)].push_back(sources[i]);

  // From here on the submission belongs to its queue items: the worker that
  // retires its last task deletes it, which can happen as soon as the last
  // source is queued, so this loop reads only locals.
  active_submissions_.fetch_add(1, std::memory_order_acq_rel);
  Component* comp = owned.release();
  for (int d = 0; d < count; ++d)
    if (!dealt[size_t(d)].empty())
      workers_[size_t((first + d) % pool_size)]->push(comp, dealt[size_t(d)]);
  signal_work();
}

std::future<void> ThreadPool::submit(const dag::TaskGraph& g,
                                     std::function<void(std::int32_t)> body,
                                     SchedulePriority priority, int max_workers,
                                     std::shared_ptr<const void> keepalive,
                                     const std::vector<long>* keys, int copies) {
  auto promise = std::make_shared<std::promise<void>>();
  std::future<void> future = promise->get_future();
  submit(
      g, std::move(body),
      [promise](std::exception_ptr e) {
        if (e)
          promise->set_exception(e);
        else
          promise->set_value();
      },
      priority, max_workers, std::move(keepalive), keys, copies);
  return future;
}

void ThreadPool::run(const dag::TaskGraph& g, const std::function<void(std::int32_t)>& body,
                     SchedulePriority priority, int max_workers, const std::vector<long>* keys) {
  if (g.tasks.empty()) return;
  if (tl_pool != this) {
    submit(g, body, priority, max_workers, nullptr, keys).get();
    return;
  }
  // Re-entrant call from a task body: the calling worker helps execute until
  // this submission retires (blocking would deadlock the pool). Retirement
  // bumps the epoch via signal_work, so a parked helper wakes for it as well
  // as for new work.
  std::atomic<bool> done{false};
  std::exception_ptr error;
  submit(
      g, body,
      [&](std::exception_ptr e) {
        error = e;
        done.store(true, std::memory_order_release);
      },
      priority, max_workers, nullptr, keys);
  while (!done.load(std::memory_order_acquire)) {
    const long epoch = epoch_.load(std::memory_order_seq_cst);
    if (try_run_one(tl_worker)) continue;
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    sleep_cv_.wait(lock, [&] {
      return done.load(std::memory_order_acquire) ||
             epoch_.load(std::memory_order_seq_cst) != epoch;
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
  if (error) std::rethrow_exception(error);
}

// ----------------------------------------------------------------- workers --

void ThreadPool::worker_main(int wid, std::latch& named) {
  tl_pool = this;
  tl_worker = wid;
  if (pin_workers_) pin_to_core(wid);
  g_tracer.set_thread_track_name(label_ + ".w" + std::to_string(wid));
  named.count_down();
  for (;;) {
    const long epoch = epoch_.load(std::memory_order_seq_cst);
    if (try_run_one(wid)) continue;
    if (stop_.load(std::memory_order_seq_cst)) return;
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    sleep_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_seq_cst) ||
             epoch_.load(std::memory_order_seq_cst) != epoch;
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

bool ThreadPool::try_run_one(int wid) {
  Worker& self = *workers_[size_t(wid)];
  Item item;
  bool popped = false;
  {
    std::lock_guard<std::mutex> lock(self.mu);
    popped = self.pop(item);
  }
  if (popped) {
    run_item(wid, item, /*stolen=*/false);
    return true;
  }
  // Steal: scan victims round-robin. A thief that finds the victim's lock
  // held counts it and waits: every holder keeps it for a few deque
  // operations, never across a task. The scan is timed so successful steals
  // feed the per-worker latency histogram; one clock read per scan, paid
  // only once local work ran dry.
  const int pool_size = size();
  const std::int64_t steal_t0 = pool_size > 1 ? obs::now_ns() : 0;
  for (int d = 1; d < pool_size; ++d) {
    Worker& victim = *workers_[size_t((wid + d) % pool_size)];
    std::unique_lock<std::mutex> lock(victim.mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      self.steal_cas_retries.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
    }
    if (!victim.steal(wid, pool_size, item)) continue;
    lock.unlock();
    tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
    self.record_steal_latency(obs::now_ns() - steal_t0);
    run_item(wid, item, /*stolen=*/true);
    return true;
  }
  if (pool_size > 1) self.empty_steal_probes.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void ThreadPool::run_item(int wid, Item item, bool stolen) {
  Component& comp = *item.comp;
  // Replication: global id = copy * stride + local; graph/key lookups use
  // the local index, dependency bookkeeping the global one.
  const std::int32_t stride = comp.stride;
  const std::int32_t local = item.task % stride;
  const std::int32_t copy_base = item.task - local;
  Worker& self = *workers_[size_t(wid)];
  if (!comp.failed.load(std::memory_order_acquire)) {
    // Observability hook: one relaxed load of the combined flag word is the
    // entire cost of the disabled path — tracing and the health layer share
    // it, so the watchdog did not add a second load. When tracing is on,
    // the task's begin/end lands in this thread's trace ring and its
    // duration in the per-kernel histograms; when a HealthMonitor is live,
    // the worker's running-task slots are stamped for the watchdog.
    const unsigned obs_flags = obs::task_observation_flags().load(std::memory_order_relaxed);
    const std::int64_t t0 = obs_flags != 0 ? obs::now_ns() : 0;
    if (obs_flags & obs::kObsTaskHealth) {
      const dag::Task& t = comp.graph->tasks[size_t(local)];
      self.running_task.store(item.task, std::memory_order_relaxed);
      self.running_kind.store(std::uint8_t(t.kind), std::memory_order_relaxed);
      self.running_since.store(t0, std::memory_order_release);
    }
    try {
      comp.body(item.task);
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      // Locality attribution (executed bodies only — cancelled tasks carry
      // no cache traffic): an un-stolen item ran where it was queued.
      (stolen ? self.tasks_foreign : self.tasks_home).fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      // The first failure wins; every later task of the submission is
      // cancelled.
      if (!comp.failed.exchange(true, std::memory_order_acq_rel))
        comp.error = std::current_exception();
    }
    if (obs_flags != 0) {
      const std::int64_t t1 = obs::now_ns();
      if (obs_flags & obs::kObsTaskTrace) {
        const dag::Task& t = comp.graph->tasks[size_t(local)];
        g_tracer.record(t0, t1, std::uint8_t(t.kind), t.i, t.piv, t.k, t.j, item.task, comp.id,
                        stolen);
        g_kernel_profiler.record(std::uint8_t(t.kind), t1 - t0);
      }
      if (obs_flags & obs::kObsTaskHealth) {
        self.running_since.store(0, std::memory_order_relaxed);
        self.last_finish.store(t1, std::memory_order_release);
      }
    }
  }
  // Propagate readiness even for cancelled tasks so the submission drains
  // and completion still fires after a failure. Successors stay within the
  // same copy: global successor = copy_base + local successor.
  std::vector<std::int32_t> ready;
  for (std::int32_t s : comp.graph->tasks[size_t(local)].succ)
    if (comp.npred[size_t(copy_base + s)].fetch_sub(1, std::memory_order_acq_rel) == 1)
      ready.push_back(copy_base + s);
  if (!ready.empty()) {
    comp.sort_most_urgent_first(ready);
    self.push(item.comp, ready);
    signal_work();
  }
  if (comp.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // The submission retired (the acq_rel chain on `remaining` makes every
    // task's writes, `error` included, visible here). Free it, and with it
    // everything its closures captured, while the draining destructor still
    // waits on active_submissions_.
    graphs_completed_.fetch_add(1, std::memory_order_relaxed);
    if (comp.on_complete) comp.on_complete(comp.error);
    delete item.comp;
    active_submissions_.fetch_sub(1, std::memory_order_acq_rel);
    signal_work();  // wake re-entrant run()s and a draining destructor
  }
}

}  // namespace tiledqr::runtime
