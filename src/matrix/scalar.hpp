// Scalar traits shared by the BLAS substrate and the tile kernels.
//
// Kernels are templated over Scalar in {float, double, std::complex<float>,
// std::complex<double>}; these traits provide the associated real type, the
// conjugation that degenerates to identity for real types, and flop weights.
#pragma once

#include <cmath>
#include <complex>
#include <type_traits>

namespace tiledqr {

template <typename T>
struct ScalarTraits {
  using real_type = T;
  static constexpr bool is_complex = false;
  static constexpr T conj(T x) noexcept { return x; }
  static constexpr real_type real(T x) noexcept { return x; }
  static constexpr real_type imag(T) noexcept { return real_type(0); }
  static constexpr real_type abs_sq(T x) noexcept { return x * x; }
  /// Flops per fused multiply-add (used by the performance model): a real FMA
  /// is 2 flops, a complex one 8.
  static constexpr double flops_per_fma = 2.0;
};

template <typename R>
struct ScalarTraits<std::complex<R>> {
  using real_type = R;
  static constexpr bool is_complex = true;
  static std::complex<R> conj(std::complex<R> x) noexcept { return std::conj(x); }
  static constexpr real_type real(std::complex<R> x) noexcept { return x.real(); }
  static constexpr real_type imag(std::complex<R> x) noexcept { return x.imag(); }
  static constexpr real_type abs_sq(std::complex<R> x) noexcept {
    return x.real() * x.real() + x.imag() * x.imag();
  }
  static constexpr double flops_per_fma = 8.0;
};

template <typename T>
using RealType = typename ScalarTraits<T>::real_type;

template <typename T>
inline constexpr bool is_complex_v = ScalarTraits<T>::is_complex;

/// conj() that is the identity for real scalars.
template <typename T>
[[nodiscard]] inline T conj_if_complex(T x) noexcept {
  return ScalarTraits<T>::conj(x);
}

/// acc += op(a) * b, op conjugating when Conj. For complex scalars the
/// product is written out in real arithmetic: the same products and sums as
/// std::complex's operator*, without its C99 Annex G NaN recovery, a branch
/// (and a rare library call) per product that keeps the loops scalar.
template <bool Conj = false, typename T>
inline void madd(T& acc, T a, T b) noexcept {
  acc += a * b;
}
template <bool Conj = false, typename R>
inline void madd(std::complex<R>& acc, std::complex<R> a, std::complex<R> b) noexcept {
  const R ar = a.real(), ai = a.imag(), br = b.real(), bi = b.imag();
  const R re = Conj ? ar * br + ai * bi : ar * br - ai * bi;
  const R im = Conj ? ar * bi - ai * br : ar * bi + ai * br;
  acc = std::complex<R>(acc.real() + re, acc.imag() + im);
}

}  // namespace tiledqr
