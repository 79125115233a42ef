// Per-layer probes of the traced run: each reports one module's number on
// the workload's own request shapes (kernel rates are host-level and read
// the same on every workload).
#include <array>
#include <cstring>
#include <functional>

#include "bench.hpp"
#include "core/plan.hpp"
#include "core/roofline.hpp"
#include "matrix/generate.hpp"
#include "perf/kernel_bench.hpp"
#include "sim/bounded.hpp"
#include "sim/critical_path.hpp"

namespace perfbench {

namespace {

using tiledqr::core::TStore;
using tiledqr::kernels::FactorKind;
using tiledqr::kernels::KernelKind;
namespace kn = tiledqr::kernels;

constexpr const char* kQrNames[6] = {"geqrt", "unmqr", "tsqrt", "tsmqr", "ttqrt", "ttmqr"};
constexpr const char* kLqNames[6] = {"gelqt", "unmlq", "tslqt", "tsmlq", "ttlqt", "ttmlq"};

/// Tile state of a 2x2 grid the task kernels run on.
struct TileState {
  TileMatrix<double> a;
  TStore<double> t, t2;
};

/// Median seconds per call of every task kind (QR and LQ) through
/// core::run_task_kernels — the call the DAG executes, LQ adjoint copies
/// included — each from a state where its operands hold real reflectors.
std::array<double, kn::kNumKernelKinds> task_kernel_seconds(int reps) {
  std::array<double, kn::kNumKernelKinds> sec{};
  for (FactorKind factor : {FactorKind::QR, FactorKind::LQ}) {
    auto kind = [&](KernelKind k) { return factor == FactorKind::LQ ? kn::lq_dual(k) : k; };
    auto run = [&](TileState& s, KernelKind k, int i, int piv, int kk, int j) {
      const tiledqr::dag::Task task{kind(k), i, piv, kk, j, 0, {}};
      tiledqr::core::run_task_kernels(task, s.a, s.t, s.t2, kIb);
    };
    TileState fresh{TileMatrix<double>::from_dense(
                        tiledqr::random_matrix<double>(2 * kNb, 2 * kNb, 7).view(), kNb),
                    TStore<double>(2, 2, kIb, kNb), TStore<double>(2, 2, kIb, kNb)};
    TileState panel = fresh;  // GEQRT on (0,0)
    run(panel, KernelKind::GEQRT, 0, -1, 0, -1);
    TileState ts = panel;  // TS-eliminated (1,0)
    run(ts, KernelKind::TSQRT, 1, 0, 0, -1);
    TileState two = panel;  // both panel tiles triangular
    run(two, KernelKind::GEQRT, 1, -1, 0, -1);
    TileState tt = two;  // TT-eliminated (1,0)
    run(tt, KernelKind::TTQRT, 1, 0, 0, -1);

    struct Probe {
      KernelKind k;
      const TileState* from;
      int i, piv, kk, j;
    };
    const Probe probes[6] = {{KernelKind::GEQRT, &fresh, 0, -1, 0, -1},
                             {KernelKind::UNMQR, &panel, 0, -1, 0, 1},
                             {KernelKind::TSQRT, &panel, 1, 0, 0, -1},
                             {KernelKind::TSMQR, &ts, 1, 0, 0, 1},
                             {KernelKind::TTQRT, &two, 1, 0, 0, -1},
                             {KernelKind::TTMQR, &tt, 1, 0, 0, 1}};
    for (const Probe& p : probes) {
      std::vector<double> t;
      TileState s = *p.from;
      run(s, p.k, p.i, p.piv, p.kk, p.j);  // warm
      for (int r = 0; r < reps; ++r) {
        s = *p.from;
        const std::int64_t t0 = now_ns();
        run(s, p.k, p.i, p.piv, p.kk, p.j);
        t.push_back(double(now_ns() - t0) * 1e-9);
      }
      sec[std::size_t(kind(p.k))] = median(std::move(t));
    }
  }
  return sec;
}

/// The tuned tree, reduction grid and cached plan of one probe shape.
struct ShapeInfo {
  const Input* input;
  Options opt;
  int p, q;
  FactorKind factor;
  std::shared_ptr<const tiledqr::core::Plan> plan;
};

ShapeInfo shape_info(Session& session, const Input& in) {
  ShapeInfo s{&in, tuned_options(session, in), 0, 0, FactorKind::QR, nullptr};
  const int mt = int((in.a.rows() + kNb - 1) / kNb), nt = int((in.a.cols() + kNb - 1) / kNb);
  const bool wide = in.a.rows() < in.a.cols();
  s.p = wide ? nt : mt;
  s.q = wide ? mt : nt;
  s.factor = wide ? FactorKind::LQ : FactorKind::QR;
  s.plan = session.plan_cache().get(s.p, s.q, *s.opt.tree, s.factor);
  return s;
}

/// Per-slot kernel seconds for the simulator, which indexes LQ tasks by
/// their QR dual's slot.
std::array<double, 6> sim_weights(const std::array<double, kn::kNumKernelKinds>& sec,
                                  FactorKind factor) {
  std::array<double, 6> w{};
  const int first = factor == FactorKind::LQ ? kn::kNumQrKernelKinds : 0;
  for (int k = 0; k < 6; ++k) w[std::size_t(k)] = sec[std::size_t(first + k)];
  return w;
}

double kernel_sum_seconds(const tiledqr::dag::TaskGraph& g,
                          const std::array<double, kn::kNumKernelKinds>& sec) {
  double total = 0;
  for (const auto& t : g.tasks) total += sec[std::size_t(t.kind)];
  return total;
}

/// Wall time (s) of `fn`, median over `reps` calls.
double median_seconds(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    t.push_back(double(now_ns() - t0) * 1e-9);
  }
  return median(std::move(t));
}

double factor_seconds(Session& session, const TileMatrix<double>& tiles, const Options& opt) {
  TileMatrix<double> copy = tiles;
  const std::int64_t t0 = now_ns();
  (void)session.submit(std::move(copy), opt).get();
  return double(now_ns() - t0) * 1e-9;
}

/// Interpolated q-quantile (µs) of a power-of-two steal-latency histogram
/// (bucket b holds [2^b, 2^(b+1)) ns); log-linear inside the bucket so the
/// number is not pinned to bucket edges. Keeps the percentile discipline.
double steal_quantile_us(const tiledqr::runtime::ThreadPool::Stats& s, double q, const char* what) {
  long total = 0;
  for (long c : s.steal_latency_hist) total += c;
  const double target = q * double(total);
  if (total == 0 || double(total) - target < 10)
    throw BenchError(std::string(what) + ": " + std::to_string(total) +
                     " steals give fewer than 10 beyond the quantile");
  double seen = 0;
  for (std::size_t b = 0; b < s.steal_latency_hist.size(); ++b) {
    const double c = double(s.steal_latency_hist[b]);
    if (c > 0 && seen + c >= target)
      return std::ldexp(1.0, int(b)) * std::exp2((target - seen) / c) * 1e-3;
    seen += c;
  }
  return std::ldexp(1.0, int(s.steal_latency_hist.size())) * 1e-3;
}

}  // namespace

const char* layer_unit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_gflops")) return "GFLOP/s";
  if (ends("_ms") || ends("_ms_max")) return "ms";
  if (ends("_us") || ends("_us_p50") || ends("_us_per_graph")) return "us";
  if (ends("_req_per_s")) return "1/s";
  if (ends(".bytes")) return "bytes";
  if (ends("_units")) return "nb3/3";
  if (ends("_per_request") || ends("_per_graft") || ends("peak_unresolved") || ends("_per_ktask"))
    return "count";
  return "ratio";
}

std::map<std::string, double> measure_layers(Session& session, Workload& workload, Checker& check,
                                             const Passes& passes, int workers, std::uint64_t seed,
                                             long& attempted) {
  std::map<std::string, double> m;
  const Session::Config cfg{workers, {}};

  // blas + kernels: host-level, one thread.
  const auto rates =
      tiledqr::perf::measure_kernel_rates<double>(kNb, kIb, tiledqr::perf::CacheMode::InCache, 60);
  m["blas.gemm_gflops"] = rates.gemm;
  for (int k = 0; k < 6; ++k)
    m[std::string("kernels.") + kQrNames[k] + "_gflops"] = rates.kernel[std::size_t(k)];
  m["kernels.tsmqr_over_gemm"] = rates.of(KernelKind::TSMQR) / rates.gemm;
  m["kernels.ttmqr_over_gemm"] = rates.of(KernelKind::TTMQR) / rates.gemm;
  const auto sec = task_kernel_seconds(100);
  for (int k = 0; k < 6; ++k)
    m[std::string("kernels.") + kLqNames[k] + "_gflops"] =
        kn::kernel_flops(KernelKind(k + 6), kNb, false) / sec[std::size_t(k + 6)] * 1e-9;

  // Shape probes, averaged over the workload's request shapes.
  std::vector<ShapeInfo> shapes;
  for (const Input* in : workload.probe_inputs()) shapes.push_back(shape_info(session, *in));
  const double ns = double(shapes.size());
  auto& pool = session.pool();
  for (const ShapeInfo& s : shapes) {
    const auto& g = s.plan->graph;
    double lq = 0, qr = 0;
    for (const auto& t : g.tasks) {
      const auto d = std::size_t(kn::qr_dual(t.kind));
      lq += sec[d + 6];
      qr += sec[d];
    }
    m["kernels.lq_over_qr"] += lq / qr / ns;
    m["plan.build_ms"] += 1e3 / ns * median_seconds(7, [&] {
      (void)tiledqr::core::make_plan(s.p, s.q, *s.opt.tree, s.factor);
    });
    m["dag.tasks_per_request"] += double(g.tasks.size()) / ns;
    m["dag.cp_units"] += double(s.plan->critical_path) / ns;
    m["dag.work_units"] += double(g.total_weight()) / ns;

    std::vector<double> decide;
    for (int r = 0; r < 3; ++r) {
      Session fresh(cfg);
      const std::int64_t t0 = now_ns();
      (void)fresh.decide_tree(s.p, s.q, 0, s.factor);
      decide.push_back(ms(now_ns() - t0));
    }
    m["tuner.decide_ms"] += median(std::move(decide)) / ns;

    const auto tiles = TileMatrix<double>::from_dense(s.input->a.view(), kNb);
    Options greedy = s.opt;
    greedy.tree = tiledqr::trees::TreeConfig{};
    std::vector<double> t_auto, t_greedy;
    for (int r = 0; r < 5; ++r) {
      t_auto.push_back(factor_seconds(session, tiles, s.opt));
      t_greedy.push_back(factor_seconds(session, tiles, greedy));
    }
    m["tuner.auto_over_greedy"] += median(t_auto) / median(t_greedy) / ns;

    const double kernel_sum = kernel_sum_seconds(g, sec);
    {
      Session one(Session::Config{1, {}});
      std::vector<double> t;
      for (int r = 0; r < 3; ++r) t.push_back(factor_seconds(one, tiles, s.opt));
      m["core.one_worker_over_kernel_sum"] += median(std::move(t)) / kernel_sum / ns;
    }
    std::vector<double> factor_ms;
    for (const auto& [in, f] : passes.staged.factor_ms)
      if (in == s.input) factor_ms.push_back(f);
    const double factor_s = median(std::move(factor_ms)) * 1e-3;
    const auto w = sim_weights(sec, s.factor);
    const double sim_s = tiledqr::sim::simulate_bounded_weighted(
                             g, workers, w, tiledqr::sim::SimPriority::CriticalPath)
                             .makespan;
    const double cp_s = tiledqr::sim::critical_path_weighted(g, w);
    const double roofline_s =
        kernel_sum / tiledqr::core::predicted_rate(1.0, kernel_sum, cp_s, workers);
    m["core.factor_over_sim"] += factor_s / sim_s / ns;
    m["core.factor_over_roofline"] += factor_s / roofline_s / ns;

    // Dispatch: the factor graph (or the fused batch) with an empty body.
    const int copies = workload.fused_copies();
    std::shared_ptr<const tiledqr::core::FusedPlan> fused;
    if (copies > 1) fused = session.plan_cache().get_fused(s.p, s.q, *s.opt.tree, copies, s.factor);
    const auto& dg = fused ? fused->component_graph() : g;
    const auto* keys = fused ? &fused->component_ranks() : &s.plan->ranks;
    m["runtime.dispatch_us_per_graph"] += 1e6 / ns * median_seconds(200, [&] {
      pool.submit(dg, [](std::int32_t) {}, tiledqr::runtime::SchedulePriority::CriticalPath, 0,
                  nullptr, keys, copies)
          .get();
    });
  }

  // Session stages and tiling, from the traced staged requests' spans.
  m["session.factor_ms"] = passes.spans.median_self_ms("FactorSession::submit");
  m["session.solve_tail_ms"] =
      passes.spans.median_self_ms("FactorSession::solve_least_squares_async");
  m["matrix.tile_ms"] = passes.spans.median_self_ms("TileMatrix::from_dense");
  m["matrix.untile_ms"] = passes.spans.median_self_ms("TileMatrix::to_dense");

  // Plan cache and pool: deltas over both passes of the workload's traffic.
  const auto& c0 = passes.cache_before;
  const auto& c1 = passes.cache_after;
  const long hits = c1.hits - c0.hits, misses = c1.misses - c0.misses;
  const long fhits = c1.fused_hits - c0.fused_hits, fmisses = c1.fused_misses - c0.fused_misses;
  m["plan_cache.hit_rate"] = hits + misses ? double(hits) / double(hits + misses) : 0.0;
  m["plan_cache.fused_hit_rate"] = fhits + fmisses ? double(fhits) / double(fhits + fmisses) : 0.0;
  m["plan_cache.bytes"] = double(c1.bytes);
  tiledqr::runtime::ThreadPool::Stats d = passes.pool_after;
  const auto& p0 = passes.pool_before;
  d.tasks_executed -= p0.tasks_executed;
  d.tasks_stolen -= p0.tasks_stolen;
  d.tasks_home -= p0.tasks_home;
  d.tasks_foreign -= p0.tasks_foreign;
  d.empty_steal_probes -= p0.empty_steal_probes;
  d.steal_cas_retries -= p0.steal_cas_retries;
  for (std::size_t b = 0; b < d.steal_latency_hist.size(); ++b)
    d.steal_latency_hist[b] -= p0.steal_latency_hist[b];
  const double tasks = double(std::max(1L, d.tasks_executed));
  m["runtime.steal_share"] = double(d.tasks_stolen) / tasks;
  m["runtime.foreign_share"] =
      double(d.tasks_foreign) / double(std::max(1L, d.tasks_home + d.tasks_foreign));
  m["runtime.empty_probes_per_ktask"] = 1e3 * double(d.empty_steal_probes) / tasks;
  m["runtime.cas_retries_per_ktask"] = 1e3 * double(d.steal_cas_retries) / tasks;
  m["runtime.steal_latency_p50_us"] = steal_quantile_us(d, 0.50, "runtime.steal_latency_p50_us");
  m["runtime.steal_latency_p90_us"] = steal_quantile_us(d, 0.90, "runtime.steal_latency_p90_us");

  // Stream: serve_mixed's own pass; other workloads run a 1 s serve_mixed
  // pass on the same session, so the stream layer reads on every workload.
  std::unique_ptr<Workload> serve;
  Workload* serving = &workload;
  PassResult probe;
  const PassResult* stream_pass = &passes.untraced;
  if (std::string(workload.name()) != "serve_mixed") {
    serve = make_workload("serve_mixed", seed);
    serve->prepare(session, check);
    serve->first_requests(session, check);
    probe = serve->run(session, 1.0, false, nullptr, check, seed);
    attempted += probe.attempted + 3;  // + first_requests
    serving = serve.get();
    stream_pass = &probe;
  }
  m["stream.push_us_p50"] = percentile(stream_pass->call_us, 0.5, "stream.push_us_p50").value;
  m["stream.requests_per_graft"] =
      double(stream_pass->stream_pushed) / double(std::max(1L, stream_pass->stream_components));
  m["stream.peak_unresolved"] = double(stream_pass->stream_peak_unresolved);
  m["stream.saturation_req_per_s"] = saturation_probe(*serving, session, 1.5, check, attempted);

  double late = 0;
  for (double l : passes.untraced.late_ms) late = std::max(late, l);
  m["gen.late_ms_max"] = late;

  m["obs.trace_overhead"] = percentile(passes.traced.latency_ms, 0.5, "traced p50").value /
                            percentile(passes.untraced.latency_ms, 0.5, "untraced p50").value;
  m["obs.cp_gap_share"] = median(passes.staged.cp_gap_share);
  m["obs.realized_over_model"] = median(passes.staged.realized_over_model);
  m["numerics.backward_error_max"] = check.worst();
  return m;
}

}  // namespace perfbench
