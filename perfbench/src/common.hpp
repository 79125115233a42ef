// Shared plumbing of the benchmark binary: clock, percentiles with their
// sample discipline, benchmark-side spans, result fingerprints and the
// numerical checks every timed result goes through.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "blas/blas.hpp"
#include "common/timer.hpp"
#include "matrix/matrix.hpp"
#include "matrix/norms.hpp"
#include "matrix/tile_matrix.hpp"

namespace perfbench {

using tiledqr::ConstMatrixView;
using tiledqr::Matrix;
using tiledqr::TileMatrix;

inline std::int64_t now_ns() { return tiledqr::obs::now_ns(); }
inline double ms(std::int64_t ns) { return double(ns) * 1e-6; }

/// A workload that cannot report honestly (a percentile without enough
/// samples behind it, a result that failed to arrive) throws this; main()
/// prints it and exits non-zero without a result line.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One percentile with the evidence behind it: nearest-rank value, sample
/// count, and how many samples lie beyond it.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank q-quantile. Refuses (BenchError) when fewer than ten samples
/// lie beyond it: such a number is one outlier, not a percentile.
inline Percentile percentile(std::vector<double> v, double q, const char* what) {
  Percentile p;
  p.n = v.size();
  const std::size_t rank = std::size_t(std::ceil(q * double(p.n)));
  if (p.n == 0 || rank == 0 || p.n - rank < 10)
    throw BenchError(std::string(what) + ": " + std::to_string(p.n) +
                     " samples give fewer than 10 beyond p" +
                     std::to_string(int(std::lround(q * 100))));
  std::nth_element(v.begin(), v.begin() + long(rank - 1), v.end());
  p.value = v[rank - 1];
  p.beyond = p.n - rank;
  return p;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Benchmark-side spans around every public call the benchmark makes. Kept in
/// memory (one producer: the client thread) and written when a pass ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    const char* module;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< index of the enclosing span, -1 = none
    long request;
  };

  int open(const char* name, const char* module, int parent, long request) {
    spans_.push_back({name, module, now_ns(), -1, parent, request});
    return int(spans_.size()) - 1;
  }
  void close(int id) { close_at(id, now_ns()); }
  /// Closes a span at a time stamped earlier (a request whose completion
  /// was observed by polling).
  void close_at(int id, std::int64_t end_ns) { spans_[std::size_t(id)].end_ns = end_ns; }
  int add(const char* name, const char* module, int parent, long request, std::int64_t start,
          std::int64_t end) {
    spans_.push_back({name, module, start, end, parent, request});
    return int(spans_.size()) - 1;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time of every span: its duration minus the union of its children's
  /// intervals (children may overlap, e.g. the matrices of one batch).
  [[nodiscard]] std::vector<std::int64_t> self_ns() const {
    std::vector<std::vector<int>> kids(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent >= 0) kids[std::size_t(spans_[i].parent)].push_back(int(i));
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      for (int k : kids[i])
        iv.emplace_back(std::max(s.start_ns, spans_[std::size_t(k)].start_ns),
                        std::min(s.end_ns, spans_[std::size_t(k)].end_ns));
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0, lo = s.start_ns, hi = s.start_ns;
      for (auto [a, b] : iv) {
        if (b <= a) continue;
        if (a > hi) {
          covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += hi - lo;
      self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
  }

  /// Median self time (ms) of the spans with this name; 0 when none.
  [[nodiscard]] double median_self_ms(const char* name) const {
    auto self = self_ns();
    std::vector<double> v;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (std::strcmp(spans_[i].name, name) == 0) v.push_back(ms(self[i]));
    return median(std::move(v));
  }

  /// Chrome trace_event JSON: one "X" event per span; the span tree and the
  /// request id ride in args.
  void write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) throw BenchError("cannot write " + path);
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%ld}}",
                   i ? ",\n" : "", s.name, s.module, double(s.start_ns - t0) * 1e-3,
                   double(s.end_ns - s.start_ns) * 1e-3, i, s.parent, s.request);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on scope exit; a null log
/// records nothing (the untimed and untraced paths).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* module, int parent, long request)
      : log_(log), id_(log ? log->open(name, module, parent, request) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// 64-bit fingerprint of the factored tiles (padding included): equal
/// fingerprints stand for the bitwise comparison against the sequential
/// replay without keeping every oracle factorization in memory.
inline std::uint64_t fingerprint(const TileMatrix<double>& t) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ std::uint64_t(t.m()) ^ (std::uint64_t(t.n()) << 32);
  for (int j = 0; j < t.nt(); ++j)
    for (int i = 0; i < t.mt(); ++i) {
      auto tile = t.tile(i, j);
      const std::size_t words = std::size_t(tile.rows() * tile.cols());
      const double* d = tile.data();
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t x;
        std::memcpy(&x, d + w, sizeof x);
        h = (h ^ x) * 0x100000001B3ull;
        h ^= h >> 29;
      }
    }
  return h;
}

inline double norm2(const double* x, std::int64_t n) {
  double s = 0;
  for (std::int64_t i = 0; i < n; ++i) s += x[i] * x[i];
  return std::sqrt(s);
}

/// Normal-equations test of a least-squares solution (tall A, one rhs):
/// ||Aᵀ(b − Ax)|| / (||A||_F (||A||_F ||x|| + ||b||)).
inline double least_squares_error(ConstMatrixView<double> a, const double* b, const double* x,
                                  double a_norm) {
  const std::int64_t m = a.rows(), n = a.cols();
  std::vector<double> r(b, b + m), g(std::size_t(n), 0.0);
  tiledqr::blas::gemv(tiledqr::blas::Op::NoTrans, -1.0, a, x, 1.0, r.data());
  tiledqr::blas::gemv(tiledqr::blas::Op::Trans, 1.0, a, r.data(), 0.0, g.data());
  return norm2(g.data(), n) / (a_norm * (a_norm * norm2(x, n) + norm2(b, m)));
}

/// Minimum-norm test (wide A, one rhs): the larger of the scaled residual
/// ||Ax − b|| / (||A||_F ||x|| + ||b||) and the relative distance to the
/// reference solution Aᵀ(AAᵀ)⁻¹b.
inline double minimum_norm_error(ConstMatrixView<double> a, const double* b, const double* x,
                                 const std::vector<double>& x_ref, double a_norm) {
  const std::int64_t m = a.rows(), n = a.cols();
  std::vector<double> r(b, b + m);
  tiledqr::blas::gemv(tiledqr::blas::Op::NoTrans, -1.0, a, x, 1.0, r.data());
  const double res = norm2(r.data(), m) / (a_norm * norm2(x, n) + norm2(b, m));
  double d = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double e = x[i] - x_ref[std::size_t(i)];
    d += e * e;
  }
  return std::max(res, std::sqrt(d) / norm2(x_ref.data(), n));
}

/// Aᵀ(AAᵀ)⁻¹b for wide A by a Cholesky solve of the m x m Gram system —
/// computed once per pooled input, outside any timing.
inline std::vector<double> minimum_norm_reference(ConstMatrixView<double> a, const double* b) {
  const std::int64_t m = a.rows(), n = a.cols();
  Matrix<double> g(m, m);
  tiledqr::blas::gemm(tiledqr::blas::Op::NoTrans, tiledqr::blas::Op::Trans, 1.0, a, a, 0.0,
                      g.view());
  for (std::int64_t j = 0; j < m; ++j) {  // g = L Lᵀ, L in the lower triangle
    double d = g(j, j);
    for (std::int64_t k = 0; k < j; ++k) d -= g(j, k) * g(j, k);
    if (!(d > 0)) throw BenchError("minimum-norm reference: Gram matrix not positive definite");
    g(j, j) = std::sqrt(d);
    for (std::int64_t i = j + 1; i < m; ++i) {
      double s = g(i, j);
      for (std::int64_t k = 0; k < j; ++k) s -= g(i, k) * g(j, k);
      g(i, j) = s / g(j, j);
    }
  }
  std::vector<double> y(b, b + m);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t k = 0; k < i; ++k) y[std::size_t(i)] -= g(i, k) * y[std::size_t(k)];
    y[std::size_t(i)] /= g(i, i);
  }
  for (std::int64_t i = m - 1; i >= 0; --i) {
    for (std::int64_t k = i + 1; k < m; ++k) y[std::size_t(i)] -= g(k, i) * y[std::size_t(k)];
    y[std::size_t(i)] /= g(i, i);
  }
  std::vector<double> x(std::size_t(n), 0.0);
  tiledqr::blas::gemv(tiledqr::blas::Op::Trans, 1.0, a, y.data(), 0.0, x.data());
  return x;
}

}  // namespace perfbench
