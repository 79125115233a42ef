// Per-kernel timing histograms fed by the runtime's task hook, aggregated
// into a perf::WeightProfile — so the tuner's "measured" profile can come
// from live serving traffic instead of a synthetic kernel bench.
//
// Recording shares the Tracer's enabled() guard: when observability is off
// the runtime pays one relaxed load per task and never reaches here. When
// on, each retired task adds its measured nanoseconds to the histogram of
// its KernelKind (atomic, lock-free, any thread).
//
// live_profile() turns the observed means into the same shape
// perf::measured_profile() produces: seconds-per-call weights by
// KernelKind, under the stable id "live". Kernel kinds the traffic never
// exercised are filled from a fallback profile, rescaled by the mean
// observed/fallback ratio of the kinds that were seen — a tree the traffic
// never chose still gets a comparable (if approximate) weight.
#pragma once

#include <cstdint>

#include "kernels/kernels.hpp"
#include "obs/metrics.hpp"
#include "perf/kernel_bench.hpp"

namespace tiledqr::obs {

class KernelProfiler {
 public:
  /// One histogram per KernelKind — QR and LQ kinds are tracked separately
  /// (an LQ kind runs its QR dual on Aᴴ's tiles, so the two split a
  /// workload by factorization, not by kernel), then folded into the dual's
  /// slot when a 6-kernel WeightProfile is produced.
  static constexpr int kKinds = kernels::kNumKernelKinds;

  /// Record one task of `kind` (kernels::KernelKind) taking `ns`. Kinds
  /// outside [0, kKinds) are ignored.
  void record(std::uint8_t kind, std::int64_t ns) noexcept {
    if (kind < kKinds) hist_[kind].record_ns(ns);
  }

  [[nodiscard]] long samples(int kind) const noexcept {
    return kind >= 0 && kind < kKinds ? hist_[kind].count() : 0;
  }
  [[nodiscard]] long total_samples() const noexcept;
  [[nodiscard]] double mean_seconds(int kind) const noexcept {
    return kind >= 0 && kind < kKinds ? hist_[kind].mean_ns() / 1e9 : 0.0;
  }
  [[nodiscard]] const Histogram& histogram(int kind) const noexcept { return hist_[kind]; }

  /// WeightProfile (id "live") from the observed means; see file comment for
  /// the fallback fill. LQ samples aggregate into their QR dual's slot (the
  /// profile is 6-wide). Returns `fallback` unchanged when nothing was
  /// recorded, so callers can pass the result to the tuner unconditionally.
  [[nodiscard]] perf::WeightProfile live_profile(
      const perf::WeightProfile& fallback = perf::sc11_profile()) const;

  void reset() noexcept;

  /// The process-wide profiler the runtime's task hook feeds; registered as
  /// metrics source "kernels" in the global registry.
  static KernelProfiler& global();

 private:
  Histogram hist_[kKinds];
};

}  // namespace tiledqr::obs
