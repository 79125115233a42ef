// Unified metrics registry: one snapshot API over every component's
// counters, gauges, and latency histograms.
//
// Two kinds of metric feed a snapshot:
//
//   * Named metrics owned by the registry (counter()/gauge()/histogram()):
//     ad-hoc instrumentation points that don't belong to a component.
//   * Sources: components that already keep their own atomics (ThreadPool,
//     PlanCache, Tuner, FactorStream) register a callback that flattens
//     their Stats into Samples at snapshot time. Registration is RAII
//     (SourceHandle); when a source dies, its final samples are retained so
//     e.g. a closed stream's totals still appear in the end-of-run dump.
//
// Histograms are fixed-bucket (one bucket per power of two nanoseconds, 64
// buckets), all-atomic: record() is two relaxed fetch_adds plus a bit scan,
// safe from any thread, and quantiles are read from the bucket boundaries
// (bounded relative error ~2x, plenty for p50/p95 latency reporting).
//
// `TILEDQR_METRICS=<path>` dumps the final snapshot at process exit
// (".json" extension → JSON, anything else → the text table).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tiledqr::obs {

/// One flattened metric value at snapshot time.
struct Sample {
  std::string name;
  double value = 0.0;
};

/// Monotone counter.
class Counter {
 public:
  void add(long n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] long value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long> v_{0};
};

/// Instantaneous value.
class Gauge {
 public:
  void set(long n) noexcept { v_.store(n, std::memory_order_relaxed); }
  void add(long n) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] long value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<long> v_{0};
};

/// Fixed-bucket latency histogram over nanosecond durations. Bucket b holds
/// durations in [2^b, 2^(b+1)) ns (bucket 0 also takes 0 and negatives).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record_ns(std::int64_t ns) noexcept;

  [[nodiscard]] long count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean_ns() const noexcept;
  /// Upper bound of the bucket holding the q-quantile (q in [0,1]); 0 when
  /// empty.
  [[nodiscard]] double quantile_ns(double q) const noexcept;
  [[nodiscard]] std::int64_t max_ns() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  void reset() noexcept;

  /// Flattens to `<prefix>.count`, `.mean_us`, `.p50_us`, `.p95_us`,
  /// `.max_us`. Emits nothing when empty.
  void append_samples(const std::string& prefix, std::vector<Sample>& out) const;

 private:
  std::atomic<long> count_{0};
  std::atomic<std::int64_t> sum_ns_{0};
  std::atomic<std::int64_t> max_{0};
  std::atomic<long> bucket_[kBuckets]{};
};

class MetricsRegistry {
 public:
  /// Appends the component's current samples (names relative to the source;
  /// the registry prefixes "<source>."). Called with the registry lock held:
  /// must not call back into the registry.
  using Source = std::function<void(std::vector<Sample>&)>;

  /// RAII registration; destruction retires the source, freezing its last
  /// samples into the registry.
  class SourceHandle {
   public:
    SourceHandle() = default;
    SourceHandle(SourceHandle&& other) noexcept
        : reg_(std::exchange(other.reg_, nullptr)), id_(other.id_) {}
    SourceHandle& operator=(SourceHandle&& other) noexcept {
      if (this != &other) {
        release();
        reg_ = std::exchange(other.reg_, nullptr);
        id_ = other.id_;
      }
      return *this;
    }
    SourceHandle(const SourceHandle&) = delete;
    SourceHandle& operator=(const SourceHandle&) = delete;
    ~SourceHandle() { release(); }

   private:
    friend class MetricsRegistry;
    SourceHandle(MetricsRegistry* reg, long id) : reg_(reg), id_(id) {}
    void release();
    MetricsRegistry* reg_ = nullptr;
    long id_ = 0;
  };

  struct Snapshot {
    std::vector<Sample> samples;
    [[nodiscard]] std::string to_text() const;
    [[nodiscard]] std::string to_json() const;
    /// First sample whose name matches exactly; NaN when absent.
    [[nodiscard]] double value(const std::string& name) const;
  };

  [[nodiscard]] SourceHandle register_source(std::string name, Source source);

  /// Named ad-hoc metrics, created on first use; references stay valid for
  /// the registry's lifetime.
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// "pool0", "pool1", ... — process-unique instance labels per prefix.
  [[nodiscard]] std::string unique_label(const std::string& prefix);

  [[nodiscard]] Snapshot snapshot() const;

  /// Mid-process dump for the health/SIGUSR1 path: writes snapshot() to
  /// `path` (".json" extension → JSON, anything else → the text table),
  /// append-safe — an existing file gets a unique "-N" suffix instead of
  /// being overwritten (obs::unique_export_path). Returns the path actually
  /// written; throws tiledqr::Error on I/O failure.
  std::string dump_now(const std::string& path) const;

  /// Drop retained (dead-source) samples; live sources are unaffected.
  void clear_retired();

  static MetricsRegistry& global();

  MetricsRegistry() = default;
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  friend class SourceHandle;
  void deregister(long id);

  struct Entry {
    long id = 0;
    std::string name;
    Source source;
  };

  mutable std::mutex mu_;
  std::vector<Entry> sources_;
  // Final samples of dead sources, already prefixed; bounded so a long-lived
  // server opening many streams cannot grow the registry without bound.
  std::deque<Sample> retired_;
  long next_id_ = 1;
  std::string dump_path_;  // TILEDQR_METRICS exit dump, global() only
  std::map<std::string, long> label_counts_;
  // std::map nodes give named metrics stable addresses.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;

  static constexpr std::size_t kMaxRetired = 4096;
};

}  // namespace tiledqr::obs
