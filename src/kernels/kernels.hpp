// Umbrella header for the kernel layer + kernel metadata (names, weights,
// flop counts) shared with the DAG/simulation layers.
#pragma once

#include <cstdint>

#include "kernels/householder.hpp"
#include "kernels/tile_kernels.hpp"

namespace tiledqr::kernels {

/// Which factorization a plan/graph/kernel belongs to. QR reduces below the
/// diagonal by columns (the paper's algorithm); LQ reduces right of the
/// diagonal by rows, run as the QR of Aᴴ on Aᴴ's tiles.
enum class FactorKind : std::uint8_t { QR, LQ };

[[nodiscard]] const char* factor_kind_name(FactorKind k) noexcept;

/// The six tile kernels of Table 1, plus their LQ duals. The LQ kinds are
/// ordered so that `kind - kNumQrKernelKinds` is the QR dual: a GELQT task
/// runs GEQRT in place on a tile of Aᴴ, an UNMLQ task UNMQR, and so on. They
/// label an LQ factorization's tasks (its plan, tuning key and trace), not
/// separate code.
enum class KernelKind : std::uint8_t {
  GEQRT,
  UNMQR,
  TSQRT,
  TSMQR,
  TTQRT,
  TTMQR,
  GELQT,
  UNMLQ,
  TSLQT,
  TSMLQ,
  TTLQT,
  TTMLQ,
};

/// Distinct QR kernel shapes — the size of per-kernel weight/rate profiles.
/// An LQ kernel shares its dual's profile slot (it is the same kernel call),
/// so profile arrays stay 6-wide.
inline constexpr int kNumQrKernelKinds = 6;

/// Total enum size (QR + LQ), for name tables and per-kind histograms.
inline constexpr int kNumKernelKinds = 12;

[[nodiscard]] constexpr bool is_lq_kernel(KernelKind k) noexcept {
  return int(k) >= kNumQrKernelKinds;
}

/// The QR kernel an LQ kind runs (identity on QR kinds).
[[nodiscard]] constexpr KernelKind qr_dual(KernelKind k) noexcept {
  return is_lq_kernel(k) ? KernelKind(int(k) - kNumQrKernelKinds) : k;
}

/// The LQ kind of a QR kernel (identity on LQ kinds).
[[nodiscard]] constexpr KernelKind lq_dual(KernelKind k) noexcept {
  return is_lq_kernel(k) ? k : KernelKind(int(k) + kNumQrKernelKinds);
}

/// Task weight in units of nb^3/3 flops (paper Table 1). An LQ kind is its
/// dual's kernel, with its dual's flops.
[[nodiscard]] constexpr int kernel_weight(KernelKind k) noexcept {
  switch (qr_dual(k)) {
    case KernelKind::GEQRT: return 4;
    case KernelKind::UNMQR: return 6;
    case KernelKind::TSQRT: return 6;
    case KernelKind::TSMQR: return 12;
    case KernelKind::TTQRT: return 2;
    case KernelKind::TTMQR: return 6;
    default: break;
  }
  return 0;
}

/// Human-readable kernel name.
[[nodiscard]] const char* kernel_name(KernelKind k) noexcept;

/// Nominal flop count of a kernel on nb x nb tiles: weight * nb^3 / 3,
/// multiplied by 4 for complex scalars.
[[nodiscard]] double kernel_flops(KernelKind k, int nb, bool complex_scalar) noexcept;

}  // namespace tiledqr::kernels
