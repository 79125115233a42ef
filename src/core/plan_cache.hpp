// PlanCache: memoized planning for the serving regime.
//
// A Plan (elimination list + task DAG + critical path + scheduling ranks)
// depends only on the tile grid shape and the algorithm selection — never on
// matrix values — and planning is deterministic even for the "dynamic" trees
// (Asap/Grasap), whose lists come from the deterministic weighted simulator.
// Repeated factorizations of the same shape can therefore share one immutable
// Plan: the cache turns per-call elimination-list generation + DAG
// construction into a hash lookup, which is what makes many small repeated
// QRs cheap (scheduling overhead, not flops, dominates there — paper §2.3 /
// ROADMAP).
//
// The cache also memoizes *fused* plans for homogeneous batches: a thin
// {base plan, count} descriptor that the pool schedules as `count` replicas
// of the base graph (ThreadPool::submit's `copies`), so no count x base
// graph is ever built and every batch of a cached shape is a single hash
// lookup + one pool submission.
//
// Entries are LRU-ordered and can be bounded by a byte budget
// (set_byte_budget), sized by an estimate of each plan's heap footprint.
// The budget defaults to unbounded, which is fine for realistic shape
// diversity; bound it before exposing the cache to untrusted shape streams.
#pragma once

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/plan.hpp"
#include "obs/metrics.hpp"

namespace tiledqr::core {

/// Thread-safe memoizing cache of Plans keyed on (factor, p, q, TreeConfig)
/// and of FusedPlans keyed on (factor, p, q, TreeConfig, count) — QR and LQ
/// plans of the same reduction grid never collide. Returned plans are shared
/// and immutable; entries live until clear() or LRU eviction under a byte
/// budget.
class PlanCache {
 public:
  struct Stats {
    long hits = 0;          ///< base-plan lookups served from the cache
    long misses = 0;        ///< base-plan lookups that had to plan
    size_t entries = 0;     ///< live base-plan entries
    long fused_hits = 0;    ///< fused-plan lookups served from the cache
    long fused_misses = 0;  ///< fused-plan lookups that had to build one
    size_t fused_entries = 0;  ///< live fused-plan entries
    long evictions = 0;     ///< entries dropped to fit the byte budget
    size_t bytes = 0;       ///< estimated heap footprint of live entries

    [[nodiscard]] double hit_rate() const noexcept {
      long total = hits + misses;
      return total == 0 ? 0.0 : double(hits) / double(total);
    }
  };

  /// `byte_budget == 0` (the default) means unbounded. Registers the cache
  /// as a metrics source ("plan_cache<N>") in the global registry.
  explicit PlanCache(size_t byte_budget = 0);

  /// Returns the cached plan for the shape, planning on first use. Safe to
  /// call concurrently; on a concurrent miss of the same key one plan wins
  /// and the others are discarded (planning is outside the lock). (p, q) is
  /// the reduction grid for LQ plans.
  [[nodiscard]] std::shared_ptr<const Plan> get(
      int p, int q, const trees::TreeConfig& config,
      kernels::FactorKind factor = kernels::FactorKind::QR);

  /// Returns the cached fusion of `count` copies of the (p, q, config) base
  /// plan — the scheduling object for a homogeneous batch. count >= 1.
  [[nodiscard]] std::shared_ptr<const FusedPlan> get_fused(
      int p, int q, const trees::TreeConfig& config, int count,
      kernels::FactorKind factor = kernels::FactorKind::QR);

  /// Caps the estimated heap footprint of cached entries; least-recently-
  /// used entries are evicted (immediately, and on later inserts) until the
  /// cache fits. The most recently inserted entry is never evicted, so a
  /// single over-budget plan still caches. 0 = unbounded.
  void set_byte_budget(size_t bytes);
  [[nodiscard]] size_t byte_budget() const;

  [[nodiscard]] Stats stats() const;
  void clear();

  /// Process-wide cache consulted by TiledQr<T>::factorize.
  static PlanCache& default_cache();

 private:
  struct Key {
    int p;
    int q;
    trees::TreeConfig config;
    int fused_count;  ///< 0 = base plan, >= 1 = fused plan of that many parts
    kernels::FactorKind factor;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    std::shared_ptr<const Plan> plan;        ///< set iff key.fused_count == 0
    std::shared_ptr<const FusedPlan> fused;  ///< set iff key.fused_count >= 1
    size_t bytes = 0;
    std::list<Key>::iterator lru;  ///< position in lru_ (front = most recent)
  };

  using Map = std::unordered_map<Key, Entry, KeyHash>;

  void touch_locked(Entry& entry);
  Map::iterator insert_locked(const Key& key, Entry entry);
  void evict_over_budget_locked(const Key* keep);
  /// Base-plan lookup; `count_stats == false` for internal fetches (e.g.
  /// building a fused plan) so client-facing hit/miss accounting only
  /// reflects client calls.
  [[nodiscard]] std::shared_ptr<const Plan> get_impl(int p, int q,
                                                     const trees::TreeConfig& config,
                                                     kernels::FactorKind factor,
                                                     bool count_stats);

  mutable std::mutex mu_;
  Map map_;
  std::list<Key> lru_;
  size_t budget_ = 0;
  size_t bytes_ = 0;
  size_t base_entries_ = 0;
  size_t fused_entries_ = 0;
  long hits_ = 0;
  long misses_ = 0;
  long fused_hits_ = 0;
  long fused_misses_ = 0;
  long evictions_ = 0;
  /// Wall time spent planning on misses (make_plan/make_fused_plan); lock-
  /// free, recorded outside mu_.
  obs::Histogram plan_time_;
  /// Declared last: deregistered before the fields its callback reads die.
  obs::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace tiledqr::core
