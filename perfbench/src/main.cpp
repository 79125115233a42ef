// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// an untraced and a traced pass plus the per-layer probes, and writes the
// spans. The last stdout line is the JSON result; nothing is printed there
// when the run cannot report honestly (exit code != 0 instead).
#include <malloc.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "blas/simd/simd.hpp"
#include "common/stringf.hpp"
#include "obs/trace.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// Library knobs that change the measured program: a run under any of them
/// would not measure what the parent commit measured.
constexpr const char* kRefusedKnobs[] = {"THREADS", "TREE", "SIMD", "PIN", "AFFINE_STEAL",
                                         "TRACE", "HEALTH", "METRICS"};

std::string refused_knob() {
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("TILEDQR_", 0) != 0) continue;
    const std::string name = kv.substr(0, kv.find('='));
    for (const char* k : kRefusedKnobs)
      if (name.rfind(std::string("TILEDQR_") + k, 0) == 0) return name;
  }
  return "";
}

/// Sets up several fresh sessions per run: one cold start is one sample.
constexpr int kSetupSessions = 7;
/// Length of the memory pass that follows the timed one.
constexpr double kMemoryPassSeconds = 3.0;
/// Share of --seconds each pass of the traced run takes (untraced + traced).
constexpr double kTracedPassShare = 0.4;
/// Rounds of staged requests per probe shape on serve_mixed and batch_small.
constexpr int kStagedRounds = 12;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out = ".bench_build/perfbench-out";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw BenchError("missing value after " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else {
      throw BenchError("unknown argument " + k);
    }
  }
  if (!have_workload) throw BenchError("--workload is required");
  if (!(a.seconds > 0)) throw BenchError("--seconds must be positive");
  return a;
}

/// The allocator policy of the memory pass: fixed 128 KiB mmap threshold.
void map_large_buffers() { mallopt(M_MMAP_THRESHOLD, 128 * 1024); }

/// The allocator policy of the timed passes: buffers up to 32 MiB (glibc's
/// adaptive ceiling) come from the heap, which keeps twice that before
/// trimming — glibc's steady state after its first large frees, made fixed.
void recycle_large_buffers() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
void reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool ok = f && std::fputs("5", f) >= 0;
  if (f && std::fclose(f) != 0) throw BenchError("cannot reset the peak RSS");
  if (!ok) throw BenchError("cannot reset the peak RSS (/proc/self/clear_refs)");
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) throw BenchError("cannot read /proc/self/status");
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof line, f))
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtol(line + 6, nullptr, 10);
  std::fclose(f);
  if (kib < 0) throw BenchError("no VmHWM in /proc/self/status");
  return double(kib) / 1024.0;
}

/// Peak memory of the workload, from a short pass run before any timing.
/// glibc adapts its mmap threshold to past frees, so a high-water mark taken
/// under the default policy depends on allocator history (ls_tall read
/// 170-330 MiB across identical runs on a 4-vCPU VM). Until this pass ends,
/// every buffer of at least 128 KiB (glibc's initial threshold) is its own
/// mapping, returned on free, so the peak is the memory the workload keeps
/// live. The pass replays one fixed schedule (pool order, arrivals), so
/// serve_mixed's backlog does not vary with the seed, and runs on a session
/// of its own, so the timed session's caches hold only what its warm-up put
/// there. The timed passes then recycle large buffers from the heap, as
/// glibc settles to in a long-running process.
double measure_peak_rss(Workload& workload, const Session::Config& cfg, Checker& check,
                        long& attempted) {
  Session session(cfg);
  reset_peak_rss();
  workload.first_requests(session, check);
  attempted += workload.run(session, kMemoryPassSeconds, false, nullptr, check, 1).attempted;
  const double peak = peak_rss_mib();
  recycle_large_buffers();
  return peak;
}

void print_percentile(const char* name, const Percentile& p) {
  std::printf("  %-22s %12.4f ms   (n=%zu, %zu beyond)\n", name, p.value, p.n, p.beyond);
}

std::string json_metric(const std::string& name, double value, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", name.c_str(),
                value, unit);
  return buf;
}

int run(const Args& args) {
  map_large_buffers();
  auto workload = make_workload(args.workload, args.seed);
  if (!workload) throw BenchError("unknown workload " + args.workload);
  const int nproc = int(std::max(1u, std::thread::hardware_concurrency()));
  const int workers = std::max(1, nproc - 1);
  const std::string host = tiledqr::stringf(
      "{\"nproc\": %d, \"workers\": %d, \"simd\": \"%s\", \"compiler\": \"%s\", \"build\": \"%s\"}",
      nproc, workers, tiledqr::blas::simd::tier_name(tiledqr::blas::simd::active_tier()),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\nhost %s\n", args.workload.c_str(),
              (unsigned long long)args.seed, args.seconds, int(args.trace), host.c_str());

  Checker check(args.workload);
  const Session::Config cfg{workers, {}};
  Session session(cfg);
  workload->prepare(session, check);
  const std::uint64_t pass_seed = args.seed * 1000003ull + 17;
  std::vector<std::string> metrics;
  long attempted = 0;

  if (!args.trace) {
    const double rss = measure_peak_rss(*workload, cfg, check, attempted);
    std::vector<double> setup;
    for (int i = 0; i < kSetupSessions; ++i) {
      const std::int64_t t0 = now_ns();
      Session fresh(cfg);
      workload->first_requests(fresh, check);
      setup.push_back(double(now_ns() - t0) * 1e-9);
    }
    workload->first_requests(session, check);  // warm-up, untimed
    const PassResult r = workload->run(session, args.seconds, false, nullptr, check, pass_seed);
    attempted += r.attempted;
    const Percentile p50 = percentile(r.latency_ms, 0.50, "latency_ms_p50");
    const Percentile p90 = percentile(r.latency_ms, 0.90, "latency_ms_p90");
    const double completed = double(r.latency_ms.size());
    std::printf("end-to-end (%ld attempted, %ld failed, %.3f s timed)\n", r.attempted, r.failed,
                r.wall_s);
    std::printf("  p50 by tenth of the run:");
    const long tenth = long(r.latency_ms.size() / 10);
    for (long b = 0; b < 10; ++b) {
      const auto first = r.latency_ms.begin() + b * tenth;
      std::printf(" %.2f", median(std::vector<double>(first, first + tenth)));
    }
    std::printf("\n");
    print_percentile("latency_ms_p50", p50);
    print_percentile("latency_ms_p90", p90);
    // A p99 is printed where a run gives the thousand samples it needs; it is
    // not a metric: on a shared host it spreads wider than any allowed bound.
    if (r.latency_ms.size() >= 1000)
      print_percentile("p99 (not a metric)", percentile(r.latency_ms, 0.99, "p99"));
    const double setup_s = median(setup);
    const double rps = completed / r.wall_s;
    const double gflops = r.flops / r.wall_s * 1e-9;
    std::printf("  %-22s %12.4f s    (median of %d fresh sessions)\n", "setup_s", setup_s,
                kSetupSessions);
    std::printf("  %-22s %12.4f 1/s\n  %-22s %12.4f GFLOP/s\n", "req_per_s", rps, "gflops",
                gflops);
    std::printf("  %-22s %12.4f MiB  (peak of the %g s memory pass)\n", "peak_rss_mb", rss,
                kMemoryPassSeconds);
    metrics = {json_metric("setup_s", setup_s, "s"),
               json_metric("latency_ms_p50", p50.value, "ms"),
               json_metric("latency_ms_p90", p90.value, "ms"),
               json_metric("req_per_s", rps, "1/s"),
               json_metric("gflops", gflops, "GFLOP/s"),
               json_metric("peak_rss_mb", rss, "MiB")};
  } else {
    recycle_large_buffers();
    workload->first_requests(session, check);
    Passes passes;
    const double pass_s = args.seconds * kTracedPassShare;
    passes.cache_before = session.plan_cache_stats();
    passes.pool_before = session.pool_stats();
    passes.untraced = workload->run(session, pass_s, true, nullptr, check, pass_seed);
    auto& tracer = tiledqr::obs::Tracer::instance();
    tracer.clear();
    tracer.enable();
    passes.traced = workload->run(session, pass_s, true, &passes.spans, check, pass_seed);
    passes.cache_after = session.plan_cache_stats();
    passes.pool_after = session.pool_stats();
    const std::size_t traffic_spans = passes.spans.spans().size();
    const bool staged_traffic = workload->name() == std::string("ls_tall") ||
                                workload->name() == std::string("minnorm_wide");
    if (staged_traffic) {
      passes.staged = passes.traced;
    } else {
      long req = 1'000'000;
      for (int r = 0; r < kStagedRounds; ++r)
        for (const Input* in : workload->probe_inputs())
          (void)staged_request(session, *in, &passes.spans, req++, check, &passes.staged);
    }
    tracer.disable();
    std::filesystem::create_directories(args.out);
    const std::string stem = args.out + "/" + args.workload;
    passes.spans.write_chrome_json(stem + "-spans.json");
    tracer.export_chrome_json(stem + "-tasks.json");
    {
      std::FILE* f = std::fopen((stem + "-host.json").c_str(), "w");
      if (!f) throw BenchError("cannot write " + stem + "-host.json");
      std::fprintf(f, "%s\n", host.c_str());
      std::fclose(f);
    }
    attempted = passes.untraced.attempted + passes.traced.attempted +
                (staged_traffic ? 0 : passes.staged.attempted);

    // Module self time per request of the traced traffic, and how much of a
    // staged request its stage spans account for.
    std::map<std::string, double> module_ms;
    const auto self = passes.spans.self_ns();
    const auto& spans = passes.spans.spans();
    long requests = 0;
    std::vector<double> coverage;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const bool request =
          !std::strcmp(spans[i].name, "request") || !std::strcmp(spans[i].name, "matrix");
      if (!std::strcmp(spans[i].name, "request") && !std::strcmp(spans[i].module, "bench"))
        coverage.push_back(1.0 - double(self[i]) / double(spans[i].end_ns - spans[i].start_ns));
      if (i >= traffic_spans) continue;
      module_ms[spans[i].module] += ms(self[i]);
      requests += request ? 1 : 0;
    }
    std::printf("traced traffic: self time per request by module (%ld requests; spans in "
                "%s-spans.json, tasks in %s-tasks.json)\n",
                requests, stem.c_str(), stem.c_str());
    for (const auto& [mod, t] : module_ms)
      std::printf("  %-10s %12.4f ms\n", mod.c_str(), t / double(std::max(1L, requests)));
    if (!coverage.empty())
      std::printf("staged requests: stage spans cover %.4f%% of the request latency "
                  "(median of %zu)\n",
                  100.0 * median(coverage), coverage.size());

    const auto layers =
        measure_layers(session, *workload, check, passes, workers, args.seed, attempted);
    std::printf("per-layer\n");
    for (const auto& [name, v] : layers) {
      std::printf("  %-36s %.6g\n", name.c_str(), v);
      metrics.push_back(json_metric(name, v, layer_unit(name)));
    }
  }

  const long failed = check.failures();
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              failed == 0 ? "true" : "false", std::max(1L, attempted), failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s%s", i ? ", " : "", metrics[i].c_str());
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string knob = refused_knob();
  if (!knob.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set: it changes the measured program, so "
                 "the numbers would not compare with other runs. Unset it and rerun.\n",
                 knob.c_str());
    return 2;
  }
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
