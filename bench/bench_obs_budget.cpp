// Observability budget gate: tracing may cost at most 5% of a pass, and the
// in-process schedule report with its critical-path breakdown at most 1% of
// the traced pass it explains. Exits 1 when either budget is missed.
//
// A pass factorizes 16 random 256 x 256 matrices (Greedy tree, nb 128,
// ib 32) submitted one at a time to a FactorSession: submit, wait, next.
// After one warm-up pass the gate times 63 pairs of passes, one untraced and
// one traced, and holds the median per-pair ratio to each budget. The two
// passes of a pair are interleaved matrix by matrix, and which side goes
// first alternates from pair to pair, so a slow or fast phase of the host
// stretches both alike; two blocks timed one after the other would each
// catch a different phase.
//
// Reads TILEDQR_THREADS (worker count, default the hardware threads) and no
// other setting; writes no file.
//
//   TILEDQR_THREADS=4 ./build/bench_obs_budget
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/env.hpp"
#include "common/timer.hpp"
#include "core/qr_session.hpp"
#include "matrix/generate.hpp"
#include "obs/schedule_report.hpp"
#include "obs/trace.hpp"

using namespace tiledqr;

namespace {

constexpr int kMatrices = 16;
constexpr std::int64_t kN = 256;
constexpr int kPairs = 63;
constexpr double kTraceBudget = 1.05;     ///< traced / untraced pass
constexpr double kAnalysisBudget = 0.01;  ///< report + breakdown / traced pass

struct Spread {
  double min, median, max;
};

Spread spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {v.front(), v[v.size() / 2], v.back()};
}

}  // namespace

int main() {
  const int threads = default_thread_count();
  core::Options opt;
  opt.tree = trees::TreeConfig{};  // Greedy, pinned: a disengaged tree would autotune
  opt.nb = 128;
  opt.ib = 32;
  std::vector<TileMatrix<double>> inputs;
  for (int i = 0; i < kMatrices; ++i) {
    auto dense = random_matrix<double>(kN, kN, 0xBEEF + unsigned(i));
    inputs.push_back(TileMatrix<double>::from_dense(dense.view(), opt.nb));
  }

  core::FactorSession session(core::FactorSession::Config{threads});
  auto factorize = [&](const TileMatrix<double>& a) {
    WallTimer timer;
    (void)session.submit(TileMatrix<double>(a), opt).get();
    return timer.seconds();
  };
  auto& tracer = obs::Tracer::instance();
  tracer.disable();
  for (const auto& a : inputs) factorize(a);  // warm-up pass: plan cache, pool, allocator
  const int tiles = int(inputs.front().mt());
  const auto plan = session.plan_cache().get(tiles, tiles, *opt.tree);
  const long tasks_per_pass = kMatrices * long(plan->graph.tasks.size());

  std::vector<double> untraced_seconds, ratios, shares;
  for (int pair = 0; pair < kPairs; ++pair) {
    const bool traced_first = pair % 2 == 1;
    double untraced = 0.0, traced = 0.0;
    tracer.mark();  // the report below covers this pair's traced pass only
    for (const auto& a : inputs) {
      for (const bool trace : {traced_first, !traced_first}) {
        if (!trace) {
          untraced += factorize(a);
          continue;
        }
        tracer.enable();
        traced += factorize(a);
        tracer.disable();
      }
    }

    WallTimer analysis;
    const auto report = obs::build_schedule_report(tracer, plan->graph, threads);
    const double analysis_seconds = analysis.seconds();
    if (report.tasks != tasks_per_pass || !report.breakdown.valid) {
      std::fprintf(stderr,
                   "FAIL: the schedule report saw %ld of the traced pass's %ld tasks "
                   "(breakdown %s)\n",
                   report.tasks, tasks_per_pass, report.breakdown.valid ? "valid" : "invalid");
      return 1;
    }
    untraced_seconds.push_back(untraced);
    ratios.push_back(traced / untraced);
    shares.push_back(analysis_seconds / traced);
  }

  const Spread ratio = spread(ratios);
  const Spread share = spread(shares);
  std::printf("=== Observability budget: tracing < 5%%, analysis < 1%% ===\n");
  std::printf("threads=%d, pass = %d x %lldx%lld Greedy QRs (nb %d, ib %d), median untraced "
              "pass %.2f ms\n",
              threads, kMatrices, (long long)kN, (long long)kN, opt.nb, opt.ib,
              spread(untraced_seconds).median * 1e3);
  std::printf("%d pairs, traced / untraced: min %.4f, median %.4f, max %.4f (budget %.2f)\n",
              kPairs, ratio.min, ratio.median, ratio.max, kTraceBudget);
  std::printf("report + breakdown / traced pass: min %.3f%%, median %.3f%%, max %.3f%% "
              "(budget %.0f%%)\n",
              100.0 * share.min, 100.0 * share.median, 100.0 * share.max,
              100.0 * kAnalysisBudget);
  std::fflush(stdout);
  bool ok = true;
  if (ratio.median > kTraceBudget) {
    std::fprintf(stderr, "FAIL: tracing adds %.2f%% to a pass (budget 5%%)\n",
                 (ratio.median - 1.0) * 100.0);
    ok = false;
  }
  if (share.median > kAnalysisBudget) {
    std::fprintf(stderr, "FAIL: the analysis takes %.3f%% of the traced pass (budget 1%%)\n",
                 100.0 * share.median);
    ok = false;
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
