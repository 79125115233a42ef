// Declarations shared by the benchmark's translation units: pooled inputs, the
// result checker, workload passes and the per-layer probes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/qr_session.hpp"

namespace perfbench {

using Session = tiledqr::core::FactorSession;
using tiledqr::core::Options;
using tiledqr::core::TiledQr;

/// Double precision with the library defaults, as every workload runs.
inline constexpr int kNb = 128;
inline constexpr int kIb = 32;

/// One pooled request: A, a single right-hand side, and what its check
/// needs, all computed before any timing.
struct Input {
  Matrix<double> a;
  Matrix<double> b;  ///< m x 1
  double a_norm = 0;
  std::vector<double> x_ref;  ///< wide inputs: Aᵀ(AAᵀ)⁻¹b
  std::uint64_t oracle = 0;   ///< factor-only inputs: fingerprint of the sequential replay
  std::uint64_t seed = 0;
};

Input make_input(std::int64_t m, std::int64_t n, std::uint64_t seed);

/// Counts checks and failures of one run and keeps the worst backward error.
/// Failures are printed with the shape and seed that reproduce them.
class Checker {
 public:
  explicit Checker(std::string workload) : workload_(std::move(workload)) {}
  /// Checks a solution of `in` (least squares when tall or square, minimum
  /// norm when wide).
  void solution(const Input& in, const Matrix<double>& x);
  /// Checks factored tiles against the input's oracle fingerprint.
  void factors(const Input& in, const TiledQr<double>& qr);
  void fail(const Input& in, const std::string& why);
  void record_error(double e) { worst_ = std::max(worst_, e); }

  [[nodiscard]] long failures() const noexcept { return failures_; }
  [[nodiscard]] double worst() const noexcept { return worst_; }

 private:
  std::string workload_;
  long failures_ = 0;
  double worst_ = 0;
};

/// Tolerance of the scaled residual tests (observed values are ~1e-16).
inline constexpr double kTolerance = 1e-12;

/// Which tree the session's tuner picks for `in` — the tree every path that
/// leaves the choice to the tuner uses.
Options tuned_options(Session& session, const Input& in);

/// Fingerprint of TiledQr<double>::factorize on one thread with `opt`'s tree:
/// the repository's determinism oracle.
std::uint64_t oracle_fingerprint(const Input& in, const Options& opt);

/// Compares the session's factorization of `in` bitwise against the oracle
/// (once per shape, before timing).
void verify_shape(Session& session, const Input& in, Checker& check);

/// What one pass measured. Latencies are per request, in ms.
struct PassResult {
  std::vector<double> latency_ms;
  long attempted = 0;
  long failed = 0;
  double wall_s = 0;
  double flops = 0;
  std::vector<double> call_us;   ///< time inside the call that sends a request
  std::vector<double> late_ms;   ///< how late each request was sent against its due time
  long stream_pushed = 0;
  long stream_components = 0;
  long stream_peak_unresolved = 0;
  /// Staged requests only: factorization wall per request, by input.
  std::vector<std::pair<const Input*, double>> factor_ms;
  std::vector<double> cp_gap_share;         ///< traced staged requests only
  std::vector<double> realized_over_model;  ///< traced staged requests only
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Computes the oracles that need the tuned trees (main session).
  virtual void prepare(Session& session, Checker& check) = 0;
  /// One request of every workload shape (set-up time and warm-up).
  virtual void first_requests(Session& session, Checker& check) = 0;
  /// One timed pass of the workload's traffic. `staged` sends ls_tall and
  /// minnorm_wide requests through the staged public calls (the traced
  /// pass and its untraced twin); `spans` non-null records spans.
  virtual PassResult run(Session& session, double seconds, bool staged, SpanLog* spans,
                         Checker& check, std::uint64_t pass_seed) = 0;
  /// The shapes the per-layer probes run (one per request shape of the
  /// main traffic).
  [[nodiscard]] virtual std::vector<const Input*> probe_inputs() const = 0;
  /// Matrices per fused submission (the dispatch probe's copies).
  [[nodiscard]] virtual int fused_copies() const { return 1; }
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

/// Flops of one request on the tall orientation (2mn² − 2n³/3).
double request_flops(const Input& in);

/// One request through the staged public calls: from_dense → submit →
/// solve_least_squares_async(qr, b) → to_dense, each in its own span.
/// Returns the request latency (ms). With the library tracer on and `out`
/// given, also records the factorization's critical-path breakdown.
std::optional<double> staged_request(Session& session, const Input& in, SpanLog* spans,
                                     long request, Checker& check, PassResult* out);

/// serve_mixed's main mix pushed closed-loop into a stream bounded by
/// max_queued: completed requests per second (`workload` is serve_mixed).
/// Requests sent are added to `attempted`.
double saturation_probe(Workload& workload, Session& session, double seconds, Checker& check,
                        long& attempted);

/// What the traced run's passes recorded: the untraced and the traced pass
/// with the plan cache and pool counters around both, the traced staged
/// requests (the traced pass itself on ls_tall and minnorm_wide) and the
/// spans.
struct Passes {
  PassResult untraced;
  PassResult traced;
  PassResult staged;
  SpanLog spans;
  tiledqr::core::PlanCache::Stats cache_before, cache_after;
  tiledqr::runtime::ThreadPool::Stats pool_before, pool_after;
};

/// Unit of a per-layer metric, from its name's suffix.
const char* layer_unit(const std::string& name);

/// Per-layer probes: every per_layer metric, by name. Requests the probes
/// send are added to `attempted`.
std::map<std::string, double> measure_layers(Session& session, Workload& workload, Checker& check,
                                             const Passes& passes, int workers, std::uint64_t seed,
                                             long& attempted);

}  // namespace perfbench
