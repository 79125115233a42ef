#include "perf/kernel_bench.hpp"

#include <algorithm>
#include <complex>
#include <vector>

#include "common/stringf.hpp"
#include "common/timer.hpp"
#include "matrix/generate.hpp"
#include "perf/cache_flush.hpp"

namespace tiledqr::perf {

namespace {

using kernels::ApplyTrans;
using kernels::KernelKind;

/// One operand set: enough tiles + T storage for any kernel.
template <typename T>
struct OperandSet {
  Matrix<T> a1, a2, a2tri, c1, c2, t;

  OperandSet(int nb, int ib, std::uint64_t seed)
      : a1(nb, nb), a2(nb, nb), a2tri(nb, nb), c1(nb, nb), c2(nb, nb), t(ib, nb) {
    reset(seed);
  }

  void reset(std::uint64_t seed) {
    randomize(a1.view(), seed * 8 + 0);
    randomize(a2.view(), seed * 8 + 1);
    randomize(a2tri.view(), seed * 8 + 2);
    randomize(c1.view(), seed * 8 + 3);
    randomize(c2.view(), seed * 8 + 4);
    // TTQRT expects triangular operands.
    auto clear_lower = [](Matrix<T>& m) {
      for (std::int64_t j = 0; j < m.cols(); ++j)
        for (std::int64_t i = j + 1; i < m.rows(); ++i) m(i, j) = T(0);
    };
    clear_lower(a1);
    clear_lower(a2tri);
  }
};

/// Times `body(set)` over rotating operand sets and returns the median
/// per-call seconds. Operand sets are refreshed from fresh random data every
/// cycle so repeated factorizations never feed on their own output.
template <typename T, typename Body>
double time_kernel(int nb, int ib, CacheMode mode, int reps, Body&& body) {
  const size_t set_bytes = size_t(nb) * size_t(nb) * sizeof(T) * 4;
  const size_t want_sets =
      mode == CacheMode::OutOfCache
          ? std::max<size_t>(size_t(reps), (size_t(96) << 20) / std::max<size_t>(set_bytes, 1))
          : 1;
  const size_t nsets = std::clamp<size_t>(want_sets, 1, 64);

  std::vector<OperandSet<T>> sets;
  sets.reserve(nsets);
  for (size_t s = 0; s < nsets; ++s) sets.emplace_back(nb, ib, 1000 + s);

  // Pristine copies to restore mutated operands cheaply.
  std::vector<OperandSet<T>> pristine = sets;

  // Warmup (not timed).
  body(sets[0]);
  sets[0] = pristine[0];
  if (mode == CacheMode::OutOfCache) {
    static CacheFlusher flusher;
    flusher.flush();
  }

  std::vector<double> times;
  times.reserve(size_t(reps));
  for (int r = 0; r < reps; ++r) {
    auto& set = sets[size_t(r) % nsets];
    WallTimer timer;
    body(set);
    times.push_back(timer.seconds());
    // Restore outside the timed region; for in-cache runs this also keeps
    // the operands resident.
    set = pristine[size_t(r) % nsets];
  }
  std::nth_element(times.begin(), times.begin() + long(times.size()) / 2, times.end());
  return times[times.size() / 2];
}

}  // namespace

template <typename T>
std::array<double, 6> measure_kernel_seconds(int nb, int ib, CacheMode mode, int reps) {
  std::array<double, 6> sec{};
  sec[size_t(KernelKind::GEQRT)] = time_kernel<T>(nb, ib, mode, reps, [&](OperandSet<T>& s) {
    kernels::geqrt(ib, s.a2.view(), s.t.view());
  });
  sec[size_t(KernelKind::UNMQR)] = time_kernel<T>(nb, ib, mode, reps, [&](OperandSet<T>& s) {
    kernels::unmqr(ApplyTrans::ConjTrans, ib, s.a2.view(), s.t.view(), s.c1.view());
  });
  sec[size_t(KernelKind::TSQRT)] = time_kernel<T>(nb, ib, mode, reps, [&](OperandSet<T>& s) {
    kernels::tsqrt(ib, s.a1.view(), s.a2.view(), s.t.view());
  });
  sec[size_t(KernelKind::TSMQR)] = time_kernel<T>(nb, ib, mode, reps, [&](OperandSet<T>& s) {
    kernels::tsmqr(ApplyTrans::ConjTrans, ib, s.a2.view(), s.t.view(), s.c1.view(), s.c2.view());
  });
  sec[size_t(KernelKind::TTQRT)] = time_kernel<T>(nb, ib, mode, reps, [&](OperandSet<T>& s) {
    kernels::ttqrt(ib, s.a1.view(), s.a2tri.view(), s.t.view());
  });
  sec[size_t(KernelKind::TTMQR)] = time_kernel<T>(nb, ib, mode, reps, [&](OperandSet<T>& s) {
    kernels::ttmqr(ApplyTrans::ConjTrans, ib, s.a1.view(), s.t.view(), s.c1.view(), s.c2.view());
  });
  return sec;
}

template <typename T>
KernelRates measure_kernel_rates(int nb, int ib, CacheMode mode, int reps) {
  KernelRates rates;
  auto sec = measure_kernel_seconds<T>(nb, ib, mode, reps);
  constexpr bool cplx = is_complex_v<T>;
  // Rates are per QR kernel; an LQ kind runs its dual and shares its slot.
  for (int k = 0; k < kernels::kNumQrKernelKinds; ++k) {
    double flops = kernels::kernel_flops(KernelKind(k), nb, cplx);
    rates.kernel[size_t(k)] = flops / sec[size_t(k)] * 1e-9;
  }
  auto combo = [&](KernelKind x, KernelKind y) {
    double flops = kernels::kernel_flops(x, nb, cplx) + kernels::kernel_flops(y, nb, cplx);
    return flops / (sec[size_t(x)] + sec[size_t(y)]) * 1e-9;
  };
  rates.geqrt_plus_ttqrt = combo(KernelKind::GEQRT, KernelKind::TTQRT);
  rates.unmqr_plus_ttmqr = combo(KernelKind::UNMQR, KernelKind::TTMQR);

  // GEMM baseline: C -= A * B on nb tiles.
  double gemm_sec = time_kernel<T>(nb, ib, mode, reps, [&](OperandSet<T>& s) {
    blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(-1), s.a2.view(), s.c1.view(), T(1),
               s.c2.view());
  });
  rates.gemm = blas::gemm_flops(nb, nb, nb, cplx) / gemm_sec * 1e-9;
  return rates;
}

WeightProfile table1_profile() {
  WeightProfile p;
  p.id = "table1";
  for (int k = 0; k < kernels::kNumQrKernelKinds; ++k)
    p.weight[size_t(k)] = double(kernels::kernel_weight(KernelKind(k)));
  return p;
}

WeightProfile sc11_profile() {
  // §5 kernel study, distilled to one knob: the TS kernels run at the
  // reference rate, every other kernel at 70% of it (the TT kernels and the
  // panel kernels work on triangles / skinny blocks and lose granularity).
  constexpr double kNonTsRate = 0.7;
  WeightProfile p = table1_profile();
  p.id = "sc11";
  for (int k = 0; k < kernels::kNumQrKernelKinds; ++k) {
    auto kind = KernelKind(k);
    if (kind != KernelKind::TSQRT && kind != KernelKind::TSMQR)
      p.weight[size_t(k)] /= kNonTsRate;
  }
  return p;
}

namespace {

template <typename T>
const char* scalar_tag() {
  if constexpr (is_complex_v<T>) return sizeof(T) == 8 ? "c64" : "c128";
  else return sizeof(T) == 4 ? "f32" : "f64";
}

}  // namespace

template <typename T>
WeightProfile measured_profile(int nb, int ib, CacheMode mode, int reps) {
  WeightProfile p;
  p.id = stringf("measured-%s(nb=%d,ib=%d,%s)", scalar_tag<T>(), nb, ib,
                 mode == CacheMode::InCache ? "in" : "out");
  p.weight = measure_kernel_seconds<T>(nb, ib, mode, reps);
  return p;
}

template WeightProfile measured_profile<float>(int, int, CacheMode, int);
template WeightProfile measured_profile<double>(int, int, CacheMode, int);
template WeightProfile measured_profile<std::complex<float>>(int, int, CacheMode, int);
template WeightProfile measured_profile<std::complex<double>>(int, int, CacheMode, int);

template std::array<double, 6> measure_kernel_seconds<float>(int, int, CacheMode, int);
template std::array<double, 6> measure_kernel_seconds<double>(int, int, CacheMode, int);
template std::array<double, 6> measure_kernel_seconds<std::complex<float>>(int, int, CacheMode,
                                                                           int);
template std::array<double, 6> measure_kernel_seconds<std::complex<double>>(int, int, CacheMode,
                                                                            int);
template KernelRates measure_kernel_rates<float>(int, int, CacheMode, int);
template KernelRates measure_kernel_rates<double>(int, int, CacheMode, int);
template KernelRates measure_kernel_rates<std::complex<float>>(int, int, CacheMode, int);
template KernelRates measure_kernel_rates<std::complex<double>>(int, int, CacheMode, int);

}  // namespace tiledqr::perf
