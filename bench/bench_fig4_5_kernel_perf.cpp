// Figures 4 and 5: sequential kernel performance, in cache and out of cache,
// for double complex (Fig. 4) and double (Fig. 5). The paper's headline
// numbers are the ratios TSQRT / (GEQRT + TTQRT) and TSMQR / (UNMQR + TTMQR),
// both ~1.3 on its testbed: TS kernels run faster per flop than the TT pairs
// doing the same job.
//
// Also sweeps the SIMD dispatch tiers (scalar baseline vs each vector tier
// this binary and CPU support) at nb = 128 double and records the per-tier
// rates plus speedups over scalar as JSON (TILEDQR_BENCH_JSON, default
// BENCH_kernels.json) — the recorded evidence for the >= 2x microkernel
// acceptance target and the rates the tuner's measured/live profiles see.
#include <complex>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "bench_common.hpp"
#include "blas/simd/simd.hpp"
#include "perf/kernel_bench.hpp"

using namespace tiledqr;
using kernels::KernelKind;

namespace {

template <typename T>
void kernel_figure(const char* precision, const bench::Knobs& knobs) {
  for (auto mode : {perf::CacheMode::InCache, perf::CacheMode::OutOfCache}) {
    const char* mode_name = mode == perf::CacheMode::InCache ? "in_cache" : "out_of_cache";
    TextTable t(stringf("kernel GFLOP/s, %s, %s", precision, mode_name));
    t.set_header({"nb", "GEQRT", "TSQRT", "TTQRT", "GEQRT+TTQRT", "UNMQR", "TSMQR", "TTMQR",
                  "UNMQR+TTMQR", "GEMM", "TS/TT factor", "TS/TT update"});
    for (int nb : {60, 120, 200, 300}) {
      if (knobs.quick && nb > 120) continue;
      const int reps = nb >= 200 ? std::max(2, knobs.reps) : knobs.reps + 3;
      auto r = perf::measure_kernel_rates<T>(nb, std::min(knobs.ib, nb), mode, reps);
      auto f = [&](double v) { return stringf("%.3f", v); };
      // Per-flop speed ratio of the TS kernel over the TT pair doing the
      // same 6 (resp. 12+6... 18) units of work: time ratio at equal work.
      double factor_ratio = r.geqrt_plus_ttqrt > 0 ? r.of(KernelKind::TSQRT) / r.geqrt_plus_ttqrt : 0;
      double update_ratio = r.unmqr_plus_ttmqr > 0 ? r.of(KernelKind::TSMQR) / r.unmqr_plus_ttmqr : 0;
      t.add_row({std::to_string(nb), f(r.of(KernelKind::GEQRT)), f(r.of(KernelKind::TSQRT)),
                 f(r.of(KernelKind::TTQRT)), f(r.geqrt_plus_ttqrt), f(r.of(KernelKind::UNMQR)),
                 f(r.of(KernelKind::TSMQR)), f(r.of(KernelKind::TTMQR)), f(r.unmqr_plus_ttmqr),
                 f(r.gemm), f(factor_ratio), f(update_ratio)});
    }
    bench::emit(t, stringf("fig4_5_kernels_%s_%s", precision, mode_name), knobs);
  }
}

// Per-dispatch-tier kernel rates at a fixed tile size, double precision.
// Restores the auto-selected tier before returning.
void simd_tier_section(const bench::Knobs& knobs) {
  namespace simd = blas::simd;
  const int nb = int(env_long("TILEDQR_SIMD_NB", 128));
  const int ib = std::min(knobs.ib, nb);
  const int reps = knobs.reps + 3;
  const simd::Tier saved = simd::active_tier();

  struct Row {
    simd::Tier tier;
    perf::KernelRates rates;
  };
  std::vector<Row> rows;
  for (simd::Tier t : simd::available_tiers()) {
    simd::set_tier(t);
    rows.push_back({t, perf::measure_kernel_rates<double>(nb, ib, perf::CacheMode::InCache, reps)});
  }
  simd::set_tier(saved);

  const perf::KernelRates& base = rows.front().rates;
  TextTable t(stringf("SIMD dispatch tiers, double, in cache, nb=%d ib=%d", nb, ib));
  t.set_header({"tier", "GEQRT", "TSQRT", "TSMQR", "TTMQR", "GEMM", "GEQRT x", "TSMQR x"});
  for (const Row& row : rows) {
    const perf::KernelRates& r = row.rates;
    auto f = [&](double v) { return stringf("%.3f", v); };
    t.add_row({simd::tier_name(row.tier), f(r.of(KernelKind::GEQRT)), f(r.of(KernelKind::TSQRT)),
               f(r.of(KernelKind::TSMQR)), f(r.of(KernelKind::TTMQR)), f(r.gemm),
               f(r.of(KernelKind::GEQRT) / base.of(KernelKind::GEQRT)),
               f(r.of(KernelKind::TSMQR) / base.of(KernelKind::TSMQR))});
  }
  bench::emit(t, "fig4_5_simd_tiers", knobs);

  // JSON record: per-tier rates and speedups over scalar; the best tier's
  // speedups are the >= 2x acceptance evidence.
  const char* json_env = std::getenv("TILEDQR_BENCH_JSON");
  const std::string json_path =
      json_env ? std::string(json_env) : std::string("BENCH_kernels.json");
  if (json_path.empty()) return;
  // "Best" is the best-measured tier, not the widest: wider vectors do not
  // always win the panel kernels, and a run-to-run wobble in the last row
  // should not decide the recorded speedup.
  size_t best_i = 0;
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].rates.of(KernelKind::GEQRT) + rows[i].rates.of(KernelKind::TSMQR) >
        rows[best_i].rates.of(KernelKind::GEQRT) + rows[best_i].rates.of(KernelKind::TSMQR))
      best_i = i;
  }
  const perf::KernelRates& best = rows[best_i].rates;
  const double geqrt_x = best.of(KernelKind::GEQRT) / base.of(KernelKind::GEQRT);
  const double tsmqr_x = best.of(KernelKind::TSMQR) / base.of(KernelKind::TSMQR);
  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"fig4_5_simd_tiers\",\n";
  // The host: each kernel call runs on one worker thread.
  out << stringf("  \"host\": {\"hardware_threads\": %u, \"worker_threads\": 1, "
                 "\"widest_tier\": \"%s\"},\n",
                 std::thread::hardware_concurrency(),
                 simd::tier_name(simd::best_available_tier()));
  out << stringf("  \"precision\": \"double\", \"nb\": %d, \"ib\": %d, \"reps\": %d,\n", nb, ib,
                 reps);
  out << "  \"tiers\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const perf::KernelRates& r = rows[i].rates;
    out << stringf("    {\"tier\": \"%s\", \"geqrt\": %.3f, \"tsqrt\": %.3f, \"ttqrt\": %.3f, "
                   "\"unmqr\": %.3f, \"tsmqr\": %.3f, \"ttmqr\": %.3f, \"gemm\": %.3f, "
                   "\"geqrt_speedup\": %.3f, \"tsmqr_speedup\": %.3f}%s\n",
                   simd::tier_name(rows[i].tier), r.of(KernelKind::GEQRT),
                   r.of(KernelKind::TSQRT), r.of(KernelKind::TTQRT), r.of(KernelKind::UNMQR),
                   r.of(KernelKind::TSMQR), r.of(KernelKind::TTMQR), r.gemm,
                   r.of(KernelKind::GEQRT) / base.of(KernelKind::GEQRT),
                   r.of(KernelKind::TSMQR) / base.of(KernelKind::TSMQR),
                   i + 1 < rows.size() ? "," : "");
  }
  out << "  ],\n";
  out << stringf("  \"best_tier\": \"%s\",\n", simd::tier_name(rows[best_i].tier));
  out << stringf("  \"geqrt_speedup\": %.3f, \"tsmqr_speedup\": %.3f,\n", geqrt_x, tsmqr_x);
  out << stringf("  \"meets_2x_target\": %s\n",
                 geqrt_x >= 2.0 && tsmqr_x >= 2.0 ? "true" : "false");
  out << "}\n";
  std::printf("(json written to %s)\n\n", json_path.c_str());
}

}  // namespace

int main() {
  bench::Knobs knobs;
  bench::banner("Figures 4/5: kernel performance (in/out of cache)", knobs);
  kernel_figure<std::complex<double>>("double_complex", knobs);
  kernel_figure<double>("double", knobs);
  simd_tier_section(knobs);
  return 0;
}
