#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <ostream>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/timer.hpp"
#include "kernels/kernels.hpp"

namespace tiledqr::obs {

// RAII lease binding a thread to its Track: the dtor (thread exit) returns
// the Track to the Tracer's free list for the next thread. Worker threads
// are joined before any pool is destroyed, and pools touch
// Tracer::instance() in their constructor, so the Tracer outlives every
// lessee.
struct TrackLease {
  Tracer::Track* track = nullptr;
  ~TrackLease() {
    if (track != nullptr) Tracer::instance().release_track(track);
  }
};

namespace {

thread_local TrackLease tl_lease;

// Microseconds with nanosecond fraction, printed without float formatting
// state on the stream.
void write_us(std::ostream& out, std::int64_t ns) {
  if (ns < 0) {
    out << '-';
    ns = -ns;
  }
  out << (ns / 1000) << '.' << char('0' + (ns / 100) % 10) << char('0' + (ns / 10) % 10)
      << char('0' + ns % 10);
}

}  // namespace

Tracer::Tracer() {
  if (long cap = env_long("TILEDQR_TRACE_CAPACITY", 0); cap > 0) {
    capacity_ = static_cast<std::size_t>(cap);
  }
  if (auto path = env_string("TILEDQR_TRACE")) {
    exit_path_ = *path;
    enable();
  }
}

Tracer::~Tracer() {
  if (!exit_path_.empty()) {
    try {
      export_chrome_json(exit_path_);
    } catch (...) {
      // Destructor at process exit: losing the trace beats aborting.
    }
  }
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::allocate_locked(Track& t) {
  t.buf = std::make_unique<TraceEvent[]>(capacity_);
  t.capacity = capacity_;
}

void Tracer::enable(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity != 0) capacity_ = capacity;
  // Every registered track must have a ring before enabled_ flips: record()
  // acquires enabled_ and may immediately write into its track's buffer.
  for (auto& t : tracks_) {
    if (!t.buf) allocate_locked(t);
  }
  enabled_.store(true, std::memory_order_release);
  task_observation_flags().fetch_or(kObsTaskTrace, std::memory_order_relaxed);
}

void Tracer::disable() {
  enabled_.store(false, std::memory_order_relaxed);
  task_observation_flags().fetch_and(~unsigned(kObsTaskTrace), std::memory_order_relaxed);
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& t : tracks_) {
    t.size.store(0, std::memory_order_relaxed);
    t.dropped.store(0, std::memory_order_relaxed);
  }
  mark_ns_.store(0, std::memory_order_relaxed);
}

std::int64_t Tracer::mark() {
  const std::int64_t now = now_ns();
  mark_ns_.store(now, std::memory_order_relaxed);
  return now;
}

Tracer::Track* Tracer::this_thread_track() {
  if (tl_lease.track != nullptr) return tl_lease.track;
  std::lock_guard<std::mutex> lock(mu_);
  Track* t;
  if (!free_.empty()) {
    t = free_.back();
    free_.pop_back();
    // Clear-on-reuse: the previous lessee is dead; keeping its events would
    // let a mid-process report mix a stale thread's run into the live one.
    t->size.store(0, std::memory_order_relaxed);
    t->dropped.store(0, std::memory_order_relaxed);
    t->name.clear();
  } else {
    tracks_.emplace_back();
    t = &tracks_.back();
    t->tid = static_cast<int>(tracks_.size()) - 1;
  }
  if (enabled_.load(std::memory_order_relaxed) && !t->buf) allocate_locked(*t);
  tl_lease.track = t;
  return t;
}

void Tracer::release_track(Track* t) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(t);
}

void Tracer::set_thread_track_name(const std::string& name) {
  Track* t = this_thread_track();
  std::lock_guard<std::mutex> lock(mu_);
  t->name = name;
}

void Tracer::record(std::int64_t start_ns, std::int64_t end_ns, std::uint8_t kind,
                    std::int32_t i, std::int32_t piv, std::int32_t k, std::int32_t j,
                    std::int32_t task, std::uint32_t submission, bool stolen) {
  if (!enabled()) return;
  Track* t = this_thread_track();
  std::size_t n = t->size.load(std::memory_order_relaxed);
  if (!t->buf || n >= t->capacity) {
    t->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent& e = t->buf[n];
  e.start_ns = start_ns;
  e.end_ns = end_ns;
  e.task = task;
  e.submission = submission;
  e.i = i;
  e.piv = piv;
  e.k = k;
  e.j = j;
  e.kind = kind;
  e.flags = stolen ? TraceEvent::kFlagStolen : std::uint8_t(0);
  t->size.store(n + 1, std::memory_order_release);
}

std::vector<TrackSnapshot> Tracer::collect() const { return collect_since(0); }

std::vector<TrackSnapshot> Tracer::collect_since(std::int64_t since_ns) const {
  std::vector<TrackSnapshot> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : tracks_) {
    std::size_t n = t.size.load(std::memory_order_acquire);
    long dropped = t.dropped.load(std::memory_order_relaxed);
    if (n == 0 && dropped == 0 && t.name.empty()) continue;
    TrackSnapshot snap;
    snap.name = t.name.empty() ? ("thread" + std::to_string(t.tid)) : t.name;
    snap.tid = t.tid;
    snap.dropped = dropped;
    // A thread records in start order, so the kept window is a suffix.
    std::size_t first = 0;
    if (since_ns > 0) {
      while (first < n && t.buf[first].start_ns < since_ns) ++first;
    }
    snap.events.assign(t.buf.get() + first, t.buf.get() + n);
    out.push_back(std::move(snap));
  }
  return out;
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : tracks_) n += t.size.load(std::memory_order_acquire);
  return n;
}

long Tracer::dropped_count() const {
  long n = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : tracks_) n += t.dropped.load(std::memory_order_relaxed);
  return n;
}

void Tracer::export_chrome_json(std::ostream& out) const {
  auto tracks = collect();

  std::int64_t base = std::numeric_limits<std::int64_t>::max();
  for (const auto& t : tracks) {
    for (const auto& e : t.events) base = std::min(base, e.start_ns);
  }
  if (base == std::numeric_limits<std::int64_t>::max()) base = 0;

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"tiledqr\"}}";
  for (const auto& t : tracks) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << t.tid
        << ",\"args\":{\"name\":";
    out << json::quote(t.name) << "}}";
    for (const auto& e : t.events) {
      const char* name = e.kind < kernels::kNumKernelKinds
                             ? kernels::kernel_name(static_cast<kernels::KernelKind>(e.kind))
                             : "task";
      out << ",\n{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << t.tid
          << ",\"ts\":";
      write_us(out, e.start_ns - base);
      out << ",\"dur\":";
      write_us(out, e.end_ns - e.start_ns);
      out << ",\"args\":{\"i\":" << e.i << ",\"piv\":" << e.piv << ",\"k\":" << e.k
          << ",\"j\":" << e.j << ",\"task\":" << e.task << ",\"sub\":" << e.submission
          << ",\"stolen\":" << ((e.flags & TraceEvent::kFlagStolen) ? 1 : 0) << "}}";
    }
  }
  out << "\n]}\n";
}

void Tracer::export_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  TILEDQR_CHECK(f.good(), "cannot open trace output file: " + path);
  export_chrome_json(static_cast<std::ostream&>(f));
  f.flush();
  TILEDQR_CHECK(f.good(), "failed writing trace output file: " + path);
}

std::string Tracer::export_now(const std::string& path) const {
  const std::string target = unique_export_path(path);
  export_chrome_json(target);
  return target;
}

std::uint32_t next_trace_submission_id() noexcept {
  static std::atomic<std::uint32_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::atomic<unsigned>& task_observation_flags() noexcept {
  static std::atomic<unsigned> flags{0};
  return flags;
}

std::string unique_export_path(const std::string& path) {
  auto exists = [](const std::string& p) { return std::ifstream(p).good(); };
  if (!exists(path)) return path;
  // Insert "-N" before the extension (the final '.' of the basename).
  const std::size_t slash = path.find_last_of('/');
  std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    dot = path.size();
  }
  for (int n = 1; n < 100000; ++n) {
    std::string candidate =
        path.substr(0, dot) + "-" + std::to_string(n) + path.substr(dot);
    if (!exists(candidate)) return candidate;
  }
  return path;  // pathological directory: fall back to overwriting
}

}  // namespace tiledqr::obs
