// Tests for the roofline prediction model and the perf harness plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "blas/simd/simd.hpp"
#include "core/experiment.hpp"
#include "core/roofline.hpp"
#include "perf/cache_flush.hpp"
#include "perf/kernel_bench.hpp"
#include "sim/critical_path.hpp"
#include "trees/generators.hpp"

namespace tiledqr {
namespace {

TEST(Roofline, TotalWeightFormula) {
  EXPECT_EQ(core::total_weight_units(40, 10), 6L * 40 * 100 - 2L * 1000);
  EXPECT_EQ(core::total_weight_units(4, 4), 6L * 4 * 16 - 2L * 64);
}

TEST(Roofline, TotalWeightTransposeAgreement) {
  // A wide grid factorizes as the LQ dual of its transpose, so the roofline
  // work of (p, q) and (q, p) must agree in both orientations.
  for (auto [p, q] : std::vector<std::pair<int, int>>{{3, 4}, {10, 40}, {1, 7}}) {
    EXPECT_EQ(core::total_weight_units(p, q), core::total_weight_units(q, p));
    EXPECT_EQ(core::total_weight_units(p, q), 6L * q * p * p - 2L * p * p * p);
  }
}

TEST(Roofline, TotalWeightMatchesDag) {
  for (auto [p, q] : std::vector<std::pair<int, int>>{{6, 2}, {15, 6}, {9, 9}})
    EXPECT_EQ(dag::build_task_graph(p, q, trees::greedy_tree(p, q)).total_weight(),
              core::total_weight_units(p, q));
}

TEST(Roofline, FlopFormula) {
  EXPECT_NEAR(core::factorization_flops(100, 50, false),
              2.0 * 100 * 2500 - 2.0 / 3.0 * 125000, 1e-6);
  EXPECT_NEAR(core::factorization_flops(100, 50, true),
              4.0 * (2.0 * 100 * 2500 - 2.0 / 3.0 * 125000), 1e-6);
}

TEST(Roofline, WorkBoundRegime) {
  // Plenty of parallelism: limited by T / P.
  double g = core::predicted_rate(2.0, 1000.0, 10.0, 4);
  EXPECT_DOUBLE_EQ(g, 2.0 * 1000.0 / 250.0);  // = gamma * P when work-bound
}

TEST(Roofline, CriticalPathBoundRegime) {
  // cp dominates: gamma_pred = gamma * T / cp.
  double g = core::predicted_rate(2.0, 100.0, 80.0, 64);
  EXPECT_DOUBLE_EQ(g, 2.0 * 100.0 / 80.0);
}

TEST(Roofline, SingleProcessorGivesGammaSeq) {
  // With P = 1, T/P >= cp always, so gamma_pred = gamma_seq.
  EXPECT_DOUBLE_EQ(core::predicted_rate(3.5, 500.0, 80.0, 1), 3.5);
}

TEST(Roofline, PredictedGflopsMonotoneInProcessors) {
  long cp = sim::critical_path_units(40, 10, trees::greedy_tree(40, 10));
  double prev = 0;
  for (int p : {1, 2, 4, 8, 16, 32, 64}) {
    double g = core::predicted_gflops(3.0, 40, 10, cp, p);
    EXPECT_GE(g, prev);
    prev = g;
  }
  // Saturates at gamma * T / cp.
  double sat = 3.0 * double(core::total_weight_units(40, 10)) / double(cp);
  EXPECT_NEAR(core::predicted_gflops(3.0, 40, 10, cp, 4096), sat, 1e-9);
}

TEST(Roofline, LowerCriticalPathNeverPredictsSlower) {
  long cp_greedy = sim::critical_path_units(40, 6, trees::greedy_tree(40, 6));
  long cp_flat = sim::critical_path_units(
      40, 6, trees::flat_tree(40, 6, trees::KernelFamily::TT));
  ASSERT_LT(cp_greedy, cp_flat);
  for (int p : {8, 16, 48})
    EXPECT_GE(core::predicted_gflops(3.0, 40, 6, cp_greedy, p),
              core::predicted_gflops(3.0, 40, 6, cp_flat, p));
}

TEST(PerfHarness, CacheFlusherRuns) {
  perf::CacheFlusher flusher(size_t(1) << 20);
  flusher.flush();
  flusher.flush();
  SUCCEED();
}

TEST(PerfHarness, KernelRatesArePositiveAndFinite) {
  auto rates = perf::measure_kernel_rates<double>(32, 8, perf::CacheMode::InCache, 3);
  for (int k = 0; k < 6; ++k) {
    EXPECT_GT(rates.kernel[size_t(k)], 0.0) << k;
    EXPECT_TRUE(std::isfinite(rates.kernel[size_t(k)])) << k;
  }
  EXPECT_GT(rates.gemm, 0.0);
  EXPECT_GT(rates.geqrt_plus_ttqrt, 0.0);
  EXPECT_GT(rates.unmqr_plus_ttmqr, 0.0);
}

TEST(PerfHarness, KernelSecondsOrdering) {
  // At equal tile size, TSMQR does ~2x the flops of TTMQR and must take
  // longer; same for TSQRT vs TTQRT. (Loose sanity, not a perf assertion.)
  // Pinned to the scalar dispatch tier, where seconds track flops most
  // closely. Every block apply is GEMM-shaped now, the TT kernels included:
  // a TT tail's closing triangle runs as a zero-padded sb x sb GEMM, whose
  // padding costs flops the triangle did not, so TT's 2x flop advantage
  // shrinks at small ib but stays clear of the bound.
  // Paired: one measure_kernel_seconds call times both kernels of a ratio a
  // few milliseconds apart, so a slow phase of the host stretches both; the
  // bound applies to the median of the per-round ratios.
  using kernels::KernelKind;
  const auto saved = blas::simd::active_tier();
  blas::simd::set_tier(blas::simd::Tier::Scalar);
  std::vector<double> mqr, qrt;  // TSMQR / TTMQR and TSQRT / TTQRT per round
  for (int round = 0; round < 9; ++round) {
    auto sec = perf::measure_kernel_seconds<double>(48, 8, perf::CacheMode::InCache, 5);
    mqr.push_back(sec[size_t(KernelKind::TSMQR)] / sec[size_t(KernelKind::TTMQR)]);
    qrt.push_back(sec[size_t(KernelKind::TSQRT)] / sec[size_t(KernelKind::TTQRT)]);
  }
  blas::simd::set_tier(saved);
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  EXPECT_GT(median(mqr), 0.9) << "TSMQR / TTMQR";
  EXPECT_GT(median(qrt), 0.9) << "TSQRT / TTQRT";
}

TEST(Experiment, RunFactorizationProducesSaneRecord) {
  core::RunConfig cfg;
  cfg.p = 6;
  cfg.q = 3;
  cfg.nb = 16;
  cfg.ib = 8;
  cfg.threads = 2;
  cfg.reps = 1;
  auto rec = core::run_factorization<double>(cfg);
  EXPECT_GT(rec.seconds, 0.0);
  EXPECT_GT(rec.gflops, 0.0);
  EXPECT_EQ(rec.cp_units, sim::critical_path_units(6, 3, trees::greedy_tree(6, 3)));
  EXPECT_EQ(rec.algorithm, "Greedy");
}

TEST(Experiment, GammaSeqPositive) {
  EXPECT_GT(core::measure_gamma_seq<double>(16, 8), 0.0);
}

}  // namespace
}  // namespace tiledqr
