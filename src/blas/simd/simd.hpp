// Runtime-dispatched SIMD microkernels for the real-scalar BLAS hot loops.
//
// The templated BLAS layer (gemm_impl.hpp, vector.hpp, trmm_impl.hpp) stays
// generic over real and complex scalars; for float and double it routes its
// inner loops through the function table returned by `ops()`. The table is
// resolved once per process from (a) the instruction sets this binary was
// compiled with, (b) what the CPU actually supports, and (c) the
// TILEDQR_SIMD environment override (scalar|neon|avx2|avx512|auto).
//
// Each tier lives in its own translation unit compiled with that ISA's flags
// (see CMakeLists.txt), so the library binary stays portable: nothing outside
// the tier TU emits AVX instructions, and the scalar tier is always present.
//
// Tests and benches may switch the live table with `set_tier()` to compare
// dispatch paths inside one process. Results are deterministic per tier;
// across tiers they differ by documented rounding (FMA contraction and
// vector-lane reduction order), never by semantics.
#pragma once

#include <cstdint>
#include <vector>

namespace tiledqr::blas::simd {

/// Dispatch tiers, ordered from portable baseline to widest vectors. Ordering
/// is meaningful: the best available tier is the numerically largest one.
enum class Tier : int { Scalar = 0, Neon = 1, Avx2 = 2, Avx512 = 3 };

inline constexpr int kNumTiers = 4;

/// The microkernel function table one tier exports. Raw-pointer, column-major
/// contracts (ld = leading dimension); alpha is folded into the update.
struct Ops {
  const char* name;

  /// y[i] += alpha * x[i]
  void (*daxpy)(std::int64_t n, double alpha, const double* x, double* y) noexcept;
  void (*saxpy)(std::int64_t n, float alpha, const float* x, float* y) noexcept;

  /// sum_i x[i] * y[i] (real dot; conjugation is a no-op for real scalars)
  double (*ddot)(std::int64_t n, const double* x, const double* y) noexcept;
  float (*sdot)(std::int64_t n, const float* x, const float* y) noexcept;

  /// C(m x n) += alpha * A(m x k) * B(k x n); register-blocked with
  /// cache-blocked packing of A into row panels. The vector tiers run this
  /// and dgemm_tn through one packed body.
  void (*dgemm_nn)(std::int64_t m, std::int64_t n, std::int64_t k, double alpha,
                   const double* a, std::int64_t lda, const double* b, std::int64_t ldb,
                   double* c, std::int64_t ldc);
  void (*sgemm_nn)(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                   const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                   float* c, std::int64_t ldc);

  /// C(m x n) += alpha * A(k x m)^T * B(k x n), the V^H C phase of the block
  /// reflectors; the vector tiers pack A^T into the same row panels as
  /// dgemm_nn and run the same microkernels.
  void (*dgemm_tn)(std::int64_t m, std::int64_t n, std::int64_t k, double alpha,
                   const double* a, std::int64_t lda, const double* b, std::int64_t ldb,
                   double* c, std::int64_t ldc);
  void (*sgemm_tn)(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                   const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                   float* c, std::int64_t ldc);

  /// y[j] += alpha * dot(a(:,j), x) over n columns of length m: transposed
  /// gemv with x shared across every column, so the vector tiers load x once
  /// per four columns. The unblocked panel factorizations (geqr2, the
  /// TSQRT/TTQRT column step, larft and TSQRT's T columns) are sequences of
  /// exactly this shape.
  void (*dgemv_t)(std::int64_t m, std::int64_t n, double alpha, const double* a,
                  std::int64_t lda, const double* x, double* y) noexcept;
  void (*sgemv_t)(std::int64_t m, std::int64_t n, float alpha, const float* a,
                  std::int64_t lda, const float* x, float* y) noexcept;

  /// c(:,j) += alpha * y[j] * x over n columns: rank-1 update with x shared
  /// across every column (the reflector-application half of geqr2 and of the
  /// TSQRT/TTQRT column step).
  void (*dger)(std::int64_t m, std::int64_t n, double alpha, const double* x, const double* y,
               double* c, std::int64_t ldc) noexcept;
  void (*sger)(std::int64_t m, std::int64_t n, float alpha, const float* x, const float* y,
               float* c, std::int64_t ldc) noexcept;
};

/// The live table. First call resolves the tier (CPU detection + env
/// override); afterwards this is one relaxed atomic load.
[[nodiscard]] const Ops& ops() noexcept;

/// Tier the live table belongs to.
[[nodiscard]] Tier active_tier() noexcept;

/// Whether `t` was compiled into this binary AND is supported by this CPU.
[[nodiscard]] bool tier_available(Tier t) noexcept;

/// Highest available tier (what auto-dispatch picks absent an override).
[[nodiscard]] Tier best_available_tier() noexcept;

/// All available tiers, ascending (always contains Tier::Scalar).
[[nodiscard]] std::vector<Tier> available_tiers();

/// Swaps the live table; returns false (and leaves the table untouched) if
/// the tier is unavailable. Test/bench hook: flipping tiers mid-flight is
/// safe (atomic pointer swap) but concurrent callers may briefly mix tiers.
bool set_tier(Tier t) noexcept;

/// "scalar", "neon", "avx2", "avx512".
[[nodiscard]] const char* tier_name(Tier t) noexcept;

/// Parses a TILEDQR_SIMD value ("scalar"/"neon"/"avx2"/"avx512", case
/// sensitive); returns false for "auto", empty, or unrecognized values.
[[nodiscard]] bool parse_tier(const char* s, Tier& out) noexcept;

}  // namespace tiledqr::blas::simd
