// The four workloads. Every request goes through the library's public API;
// inputs come from small seeded pools built before any timing, and every
// result is checked outside the request's timed window.
#include <chrono>
#include <deque>
#include <future>
#include <random>
#include <thread>

#include "bench.hpp"
#include "core/roofline.hpp"
#include "matrix/generate.hpp"
#include "obs/schedule_report.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// A request whose completion is observed by polling: std::future has no
/// completion callback, and out-of-order completions must be stamped too.
struct Outstanding {
  std::future<TiledQr<double>> factor;
  std::future<Matrix<double>> solve;
  const Input* input = nullptr;
  std::int64_t origin_ns = 0;  ///< latency origin: due time or call time
  int span = -1;
  std::size_t slot = 0;

  [[nodiscard]] bool ready() const {
    return (factor.valid() ? factor.wait_for(std::chrono::seconds(0))
                           : solve.wait_for(std::chrono::seconds(0))) ==
           std::future_status::ready;
  }
  void wait_until(std::int64_t t_ns) const {
    const Clock::time_point t{std::chrono::nanoseconds(t_ns)};
    if (factor.valid())
      (void)factor.wait_until(t);
    else
      (void)solve.wait_until(t);
  }
};

/// Poll period for out-of-order completions: bounds the stamping error.
constexpr std::int64_t kPollNs = 200'000;
/// A request that has not completed this long after the pass ends is a hang.
constexpr std::int64_t kHangNs = 60'000'000'000;

/// Stamps every finished request until `until_ns` (or, with INT64_MAX, until
/// none is outstanding), then hands each to `done(req, stamp_ns)` — after
/// stamping all that finished together, so a slow check never delays a
/// sibling's stamp.
template <typename Done>
void harvest(std::deque<Outstanding>& out, std::int64_t until_ns, Done&& done) {
  const std::int64_t hang = now_ns() + kHangNs;
  std::vector<std::pair<Outstanding, std::int64_t>> finished;
  for (;;) {
    for (auto it = out.begin(); it != out.end();) {
      if (it->ready()) {
        finished.emplace_back(std::move(*it), now_ns());
        it = out.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& [req, stamp] : finished) done(req, stamp);
    finished.clear();
    const std::int64_t now = now_ns();
    if (out.empty()) {
      if (until_ns == INT64_MAX || now >= until_ns) return;
      std::this_thread::sleep_until(Clock::time_point{std::chrono::nanoseconds(until_ns)});
      return;
    }
    if (now >= until_ns) return;
    if (now > hang) throw BenchError("a request did not complete within 60 s");
    out.front().wait_until(std::min(until_ns, now + kPollNs));
  }
}

Options base_options() {
  Options opt;
  opt.nb = kNb;
  opt.ib = kIb;
  return opt;
}

Matrix<double> transpose(const Matrix<double>& a) {
  Matrix<double> t(a.cols(), a.rows());
  for (std::int64_t j = 0; j < a.cols(); ++j)
    for (std::int64_t i = 0; i < a.rows(); ++i) t(j, i) = a(i, j);
  return t;
}

/// Closed loop, one client: least squares on A 4096x512 (ls_tall) or the
/// minimum-norm solution on its exact transpose (minnorm_wide).
class LeastSquaresLoop final : public Workload {
 public:
  LeastSquaresLoop(bool wide, std::uint64_t seed) : wide_(wide) {
    for (std::uint64_t k = 0; k < kPool; ++k) {
      Input tall = make_input(4096, 512, mix_seed(seed, k));
      if (!wide_) {
        pool_.push_back(std::move(tall));
        continue;
      }
      Input in;
      in.seed = tall.seed;
      in.a = transpose(tall.a);
      in.b = tiledqr::random_matrix<double>(512, 1, mix_seed(in.seed, 99));
      in.a_norm = tall.a_norm;
      in.x_ref = minimum_norm_reference(in.a.view(), in.b.data());
      pool_.push_back(std::move(in));
    }
  }

  const char* name() const override { return wide_ ? "minnorm_wide" : "ls_tall"; }

  void prepare(Session& session, Checker& check) override {
    verify_shape(session, pool_[0], check);
  }

  void first_requests(Session& session, Checker& check) override {
    solve(session, pool_[0], check);
  }

  PassResult run(Session& session, double seconds, bool staged, SpanLog* spans, Checker& check,
                 std::uint64_t pass_seed) override {
    PassResult r;
    const long failed0 = check.failures();
    std::vector<std::pair<const Input*, Matrix<double>>> results;
    std::size_t next = std::size_t(pass_seed % kPool);
    const std::int64_t t0 = now_ns();
    const std::int64_t end = t0 + std::int64_t(seconds * 1e9);
    std::int64_t prev_done = t0;
    while (now_ns() < end) {
      const Input& in = pool_[next++ % kPool];
      ++r.attempted;
      const std::int64_t sent = now_ns();
      r.late_ms.push_back(ms(sent - prev_done));
      if (staged) {
        if (auto lat = staged_request(session, in, spans, r.attempted, check, &r)) {
          r.latency_ms.push_back(*lat);
          r.flops += request_flops(in);
        }
        prev_done = now_ns();
        continue;
      }
      try {
        auto fut = session.solve_least_squares_async<double>(in.a.view(), in.b.view(),
                                                             base_options());
        r.call_us.push_back(double(now_ns() - sent) * 1e-3);
        Matrix<double> x = fut.get();
        prev_done = now_ns();
        r.latency_ms.push_back(ms(prev_done - sent));
        r.flops += request_flops(in);
        results.emplace_back(&in, std::move(x));
      } catch (const std::exception& e) {
        prev_done = now_ns();
        check.fail(in, e.what());
      }
    }
    r.wall_s = double(now_ns() - t0) * 1e-9;
    for (const auto& [in, x] : results) check.solution(*in, x);
    r.failed = check.failures() - failed0;
    return r;
  }

  std::vector<const Input*> probe_inputs() const override { return {&pool_[0]}; }

 private:
  static constexpr std::uint64_t kPool = 4;

  void solve(Session& session, const Input& in, Checker& check) {
    try {
      check.solution(in, session.solve_least_squares_async<double>(in.a.view(), in.b.view(),
                                                                   base_options())
                             .get());
    } catch (const std::exception& e) {
      check.fail(in, e.what());
    }
  }

  bool wide_;
  std::vector<Input> pool_;
};

/// Open loop into one FactorStream (default StreamOptions): Poisson arrivals
/// at kServeRate, equal thirds of push_solve 512x256, push_solve 256x512 and
/// push 256x256, plus ~5% push_solve of other small tall and wide tile grids
/// the plan cache and tuner have not seen.
class ServeMixed final : public Workload {
 public:
  static constexpr double kServeRate = 60.0;

  explicit ServeMixed(std::uint64_t seed) {
    const std::int64_t shapes[3][2] = {{512, 256}, {256, 512}, {256, 256}};
    for (int s = 0; s < 3; ++s)
      for (std::uint64_t k = 0; k < kPool; ++k)
        main_[s].push_back(make_input(shapes[s][0], shapes[s][1], mix_seed(seed, 100 * s + k)));
    // Other grids: every tall and wide p x q tile grid with q <= 3, p <= 6
    // that the main shapes do not use; partial edge tiles exercise padding.
    for (int q = 1; q <= 3; ++q)
      for (int p = q; p <= 6; ++p)
        for (bool wide : {false, true}) {
          if (wide && p == q) continue;
          if ((p == 4 && q == 2) || (p == 2 && q == 2)) continue;
          const std::int64_t m = 128 * p - 32, n = 128 * q - 32;
          others_.push_back(wide ? make_input(n, m, mix_seed(seed, 1000 + others_.size()))
                                 : make_input(m, n, mix_seed(seed, 1000 + others_.size())));
        }
  }

  const char* name() const override { return "serve_mixed"; }

  void prepare(Session& session, Checker& check) override {
    verify_shape(session, main_[0][0], check);
    verify_shape(session, main_[1][0], check);
    const Options opt = tuned_options(session, main_[2][0]);
    for (Input& in : main_[2]) in.oracle = oracle_fingerprint(in, opt);
  }

  void first_requests(Session& session, Checker& check) override {
    auto stream = session.stream<double>();
    std::deque<Outstanding> out;
    for (int s = 0; s < 3; ++s) out.push_back(send(stream, main_[s][0], s == 2));
    harvest(out, INT64_MAX, [&](Outstanding& req, std::int64_t) { finish(req, check); });
    stream.close();
  }

  PassResult run(Session& session, double seconds, bool, SpanLog* spans, Checker& check,
                 std::uint64_t pass_seed) override {
    // Exactly round(rate x seconds) arrivals, uniform order statistics over
    // the pass (a Poisson process conditioned on its count), with exact
    // traffic shares, so a run's offered load does not depend on the seed.
    std::mt19937_64 rng(pass_seed);
    const std::size_t n = std::size_t(std::lround(kServeRate * seconds));
    const std::size_t n_other = std::size_t(std::lround(0.05 * double(n)));
    std::vector<int> kinds(n);
    for (std::size_t i = 0; i < n; ++i) kinds[i] = i < n_other ? 3 : int((i - n_other) % 3);
    std::shuffle(kinds.begin(), kinds.end(), rng);
    std::vector<double> at(n);
    std::uniform_real_distribution<double> uni(0.0, seconds);
    for (double& t : at) t = uni(rng);
    std::sort(at.begin(), at.end());

    PassResult r;
    const long failed0 = check.failures();
    auto stream = session.stream<double>();
    std::deque<Outstanding> out;
    std::int64_t first_send = 0, last_done = 0;
    auto done = [&](Outstanding& req, std::int64_t stamp) {
      if (spans) spans->close_at(req.span, stamp);
      if (finish(req, check)) {
        r.latency_ms.push_back(ms(stamp - req.origin_ns));
        r.flops += request_flops(*req.input);
      }
      last_done = std::max(last_done, stamp);
    };
    const std::int64_t t0 = now_ns() + 1'000'000;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t due = t0 + std::int64_t(at[i] * 1e9);
      harvest(out, due, done);
      const Input& in = kinds[i] == 3 ? others_[rng() % others_.size()]
                                      : main_[kinds[i]][rng() % kPool];
      const std::int64_t t_send = now_ns();
      if (i == 0) first_send = t_send;
      r.late_ms.push_back(ms(t_send - due));
      // The request span's own time is the library working asynchronously.
      const int span = spans ? spans->open("request", "core", -1, long(i)) : -1;
      {
        ScopedSpan push(spans, kinds[i] == 2 ? "FactorStream::push" : "FactorStream::push_solve",
                        "core", span, long(i));
        out.push_back(send(stream, in, kinds[i] == 2));
      }
      r.call_us.push_back(double(now_ns() - t_send) * 1e-3);
      out.back().origin_ns = due;
      out.back().span = span;
      ++r.attempted;
    }
    harvest(out, INT64_MAX, done);
    const auto st = stream.stats();
    r.stream_pushed = st.pushed;
    r.stream_components = st.components;
    r.stream_peak_unresolved = st.peak_unresolved;
    stream.close();
    r.wall_s = double(last_done - first_send) * 1e-9;
    r.failed = check.failures() - failed0;
    return r;
  }

  std::vector<const Input*> probe_inputs() const override {
    return {&main_[0][0], &main_[1][0], &main_[2][0]};
  }

  /// Highest completion rate of the main mix: pushed closed-loop into a
  /// stream bounded by max_queued (Block), so the pool never runs dry.
  double saturation(Session& session, double seconds, Checker& check, long& attempted) {
    Session::StreamOptions so;
    so.max_queued = 16;
    auto stream = session.stream<double>(so);
    std::deque<Outstanding> out;
    long completed = 0;
    auto done = [&](Outstanding& req, std::int64_t) { completed += finish(req, check) ? 1 : 0; };
    const std::int64_t t0 = now_ns();
    const std::int64_t end = t0 + std::int64_t(seconds * 1e9);
    for (std::size_t i = 0; now_ns() < end; ++i) {
      out.push_back(send(stream, main_[i % 3][(i / 3) % kPool], i % 3 == 2));
      ++attempted;
      harvest(out, 0, done);
    }
    harvest(out, INT64_MAX, done);
    const double wall = double(now_ns() - t0) * 1e-9;
    stream.close();
    return double(completed) / wall;
  }

 private:
  static constexpr std::uint64_t kPool = 8;

  static Outstanding send(tiledqr::core::FactorStream<double>& stream, const Input& in,
                           bool factor_only) {
    Outstanding o;
    o.input = &in;
    o.origin_ns = now_ns();
    if (factor_only)
      o.factor = stream.push(in.a.view());
    else
      o.solve = stream.push_solve(in.a.view(), in.b.view());
    return o;
  }

  /// Collects and checks one finished request; false when it failed.
  static bool finish(Outstanding& req, Checker& check) {
    const long before = check.failures();
    try {
      if (req.factor.valid())
        check.factors(*req.input, req.factor.get());
      else
        check.solution(*req.input, req.solve.get());
    } catch (const std::exception& e) {
      check.fail(*req.input, e.what());
    }
    return check.failures() == before;
  }

  std::vector<Input> main_[3];
  std::vector<Input> others_;
};

/// Closed loop of one fused batch: 16 distinct 512x512 matrices per
/// FactorSession::submit_batch call — factorize_batch's own path — each
/// matrix a request timed from the batch call to its own future. 16, not
/// 64: a 64-matrix batch (128 MiB of input, above a 105 MiB L3) followed the
/// host's memory bandwidth, reading p50 296-411 ms across runs of the same
/// code on a shared 4-vCPU VM; 16 matrices (32 MiB) keep the fused path.
class BatchSmall final : public Workload {
 public:
  explicit BatchSmall(std::uint64_t seed) {
    for (std::uint64_t k = 0; k < kBatch; ++k)
      pool_.push_back(make_input(512, 512, mix_seed(seed, k)));
  }

  const char* name() const override { return "batch_small"; }

  void prepare(Session& session, Checker&) override {
    const Options opt = tuned_options(session, pool_[0]);
    for (Input& in : pool_) in.oracle = oracle_fingerprint(in, opt);
  }

  void first_requests(Session& session, Checker& check) override {
    PassResult ignored;
    batch(session, 0, nullptr, check, ignored);
  }

  PassResult run(Session& session, double seconds, bool, SpanLog* spans, Checker& check,
                 std::uint64_t pass_seed) override {
    PassResult r;
    const long failed0 = check.failures();
    std::mt19937_64 rng(pass_seed);
    double timed = 0;
    std::int64_t prev_done = now_ns();
    while (timed < seconds) {
      r.late_ms.push_back(ms(now_ns() - prev_done));
      timed += batch(session, std::size_t(rng() % kBatch), spans, check, r);
      prev_done = now_ns();
    }
    r.wall_s = timed;
    r.failed = check.failures() - failed0;
    return r;
  }

  std::vector<const Input*> probe_inputs() const override { return {&pool_[0]}; }
  int fused_copies() const override { return int(kBatch); }

 private:
  static constexpr std::size_t kBatch = 16;

  /// One batch, rotated by `offset`; returns its window (s). Results are
  /// held until the batch window closes — factorize_batch's footprint — and
  /// checked after it.
  double batch(Session& session, std::size_t offset, SpanLog* spans, Checker& check,
               PassResult& r) {
    std::vector<ConstMatrixView<double>> views;
    std::vector<const Input*> inputs;
    for (std::size_t i = 0; i < kBatch; ++i) {
      inputs.push_back(&pool_[(offset + i) % kBatch]);
      views.push_back(inputs.back()->a.view());
    }
    const long request0 = r.attempted;
    const int span = spans ? spans->open("batch", "bench", -1, request0) : -1;
    const std::int64_t t0 = now_ns();
    std::vector<std::future<TiledQr<double>>> futures;
    {
      ScopedSpan call(spans, "FactorSession::submit_batch", "core", span, request0);
      futures = session.submit_batch<double>(views, base_options());
    }
    r.call_us.push_back(double(now_ns() - t0) * 1e-3);
    std::deque<Outstanding> out;
    for (std::size_t i = 0; i < kBatch; ++i) {
      Outstanding o;
      o.factor = std::move(futures[i]);
      o.input = inputs[i];
      o.origin_ns = t0;
      o.slot = i;
      out.push_back(std::move(o));
    }
    std::vector<std::optional<TiledQr<double>>> results(kBatch);
    std::int64_t t1 = t0;
    harvest(out, INT64_MAX, [&](Outstanding& req, std::int64_t stamp) {
      ++r.attempted;
      t1 = std::max(t1, stamp);
      if (spans) spans->add("matrix", "core", span, request0 + long(req.slot), t0, stamp);
      try {
        results[req.slot].emplace(req.factor.get());
        r.latency_ms.push_back(ms(stamp - t0));
        r.flops += request_flops(*req.input);
      } catch (const std::exception& e) {
        check.fail(*req.input, e.what());
      }
    });
    if (spans) spans->close_at(span, t1);
    for (std::size_t i = 0; i < kBatch; ++i)
      if (results[i]) check.factors(*inputs[i], *results[i]);
    return double(t1 - t0) * 1e-9;
  }

  std::vector<Input> pool_;
};

}  // namespace

Input make_input(std::int64_t m, std::int64_t n, std::uint64_t seed) {
  Input in;
  in.seed = seed;
  in.a = tiledqr::random_matrix<double>(m, n, seed);
  in.b = tiledqr::random_matrix<double>(m, 1, mix_seed(seed, 99));
  in.a_norm = tiledqr::frobenius_norm(ConstMatrixView<double>(in.a.view()));
  if (m < n) in.x_ref = minimum_norm_reference(in.a.view(), in.b.data());
  return in;
}

void Checker::fail(const Input& in, const std::string& why) {
  ++failures_;
  std::printf("FAILED %s shape=%lldx%lld input_seed=%llu: %s\n", workload_.c_str(),
              (long long)in.a.rows(), (long long)in.a.cols(), (unsigned long long)in.seed,
              why.c_str());
}

void Checker::solution(const Input& in, const Matrix<double>& x) {
  if (x.rows() != in.a.cols() || x.cols() != 1) return fail(in, "solution has the wrong shape");
  const double e =
      in.a.rows() >= in.a.cols()
          ? least_squares_error(in.a.view(), in.b.data(), x.data(), in.a_norm)
          : minimum_norm_error(in.a.view(), in.b.data(), x.data(), in.x_ref, in.a_norm);
  record_error(e);
  if (!(e <= kTolerance)) fail(in, "scaled error " + std::to_string(e));
}

void Checker::factors(const Input& in, const TiledQr<double>& qr) {
  if (fingerprint(qr.factors()) != in.oracle)
    fail(in, "factored tiles differ from the sequential replay");
}

Options tuned_options(Session& session, const Input& in) {
  Options opt = base_options();
  opt.tree = session.choose_tree_for(TileMatrix<double>::from_dense(in.a.view(), kNb));
  return opt;
}

std::uint64_t oracle_fingerprint(const Input& in, const Options& opt) {
  Options one = opt;
  one.threads = 1;
  return fingerprint(TiledQr<double>::factorize(in.a.view(), one).factors());
}

void verify_shape(Session& session, const Input& in, Checker& check) {
  const Options opt = tuned_options(session, in);
  try {
    const auto qr = session.submit<double>(in.a.view(), opt).get();
    if (fingerprint(qr.factors()) != oracle_fingerprint(in, opt))
      check.fail(in, "session factorization differs from the sequential replay");
  } catch (const std::exception& e) {
    check.fail(in, e.what());
  }
}

double request_flops(const Input& in) {
  const long m = long(std::max(in.a.rows(), in.a.cols()));
  const long n = long(std::min(in.a.rows(), in.a.cols()));
  return tiledqr::core::factorization_flops(m, n, false);
}

std::optional<double> staged_request(Session& session, const Input& in, SpanLog* spans,
                                     long request, Checker& check, PassResult* out) {
  auto& tracer = tiledqr::obs::Tracer::instance();
  std::optional<TiledQr<double>> qr;
  Matrix<double> x;
  std::int64_t factor_ns = 0;
  const std::int64_t t0 = now_ns();
  try {
    // Staged requests are the "request" spans booked to "bench": their own
    // time is the benchmark's between calls.
    ScopedSpan whole(spans, "request", "bench", -1, request);
    TileMatrix<double> tiles;
    {
      ScopedSpan s(spans, "TileMatrix::from_dense", "matrix", whole.id(), request);
      tiles = TileMatrix<double>::from_dense(in.a.view(), kNb);
    }
    Options opt = base_options();
    {
      ScopedSpan s(spans, "FactorSession::choose_tree_for", "tuner", whole.id(), request);
      opt.tree = session.choose_tree_for(tiles);
    }
    if (tracer.enabled()) tracer.mark();
    {
      ScopedSpan s(spans, "FactorSession::submit", "core", whole.id(), request);
      const std::int64_t f0 = now_ns();
      qr.emplace(session.submit(std::move(tiles), opt).get());
      factor_ns = now_ns() - f0;
    }
    {
      ScopedSpan s(spans, "FactorSession::solve_least_squares_async", "core", whole.id(), request);
      x = session.solve_least_squares_async(*qr, in.b.view()).get();
    }
    {
      ScopedSpan s(spans, "TileMatrix::to_dense", "matrix", whole.id(), request);
      Matrix<double> dense = qr->factors().to_dense();
      if (dense.rows() != in.a.rows()) check.fail(in, "to_dense returned the wrong shape");
    }
  } catch (const std::exception& e) {
    check.fail(in, e.what());
    return std::nullopt;
  }
  const double latency = ms(now_ns() - t0);
  check.solution(in, x);
  if (out) {
    out->factor_ms.emplace_back(&in, ms(factor_ns));
    if (tracer.enabled()) {
      const auto report =
          tiledqr::obs::build_schedule_report(tracer, qr->plan().graph, session.pool().size());
      const auto& b = report.breakdown;
      if (b.valid && b.realized_ns > 0) {
        out->cp_gap_share.push_back(double(b.gap_ns) / double(b.realized_ns));
        if (b.realized_over_model > 0) out->realized_over_model.push_back(b.realized_over_model);
      }
    }
  }
  return latency;
}

double saturation_probe(Workload& workload, Session& session, double seconds, Checker& check,
                        long& attempted) {
  return static_cast<ServeMixed&>(workload).saturation(session, seconds, check, attempted);
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "ls_tall") return std::make_unique<LeastSquaresLoop>(false, seed);
  if (name == "minnorm_wide") return std::make_unique<LeastSquaresLoop>(true, seed);
  if (name == "serve_mixed") return std::make_unique<ServeMixed>(seed);
  if (name == "batch_small") return std::make_unique<BatchSmall>(seed);
  return nullptr;
}


}  // namespace perfbench
