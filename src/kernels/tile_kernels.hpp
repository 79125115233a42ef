// The six sequential tile kernels of the tiled QR factorization (paper §2.1,
// Table 1), modeled on the PLASMA core_blas kernels:
//
//   GEQRT  factor a square tile into a triangle            (weight 4)
//   UNMQR  apply a GEQRT transformation to a tile          (weight 6)
//   TSQRT  zero a square tile against a triangle on top    (weight 6)
//   TSMQR  apply a TSQRT transformation to a tile pair     (weight 12)
//   TTQRT  zero a triangular tile against a triangle       (weight 2)
//   TTMQR  apply a TTQRT transformation to a tile pair     (weight 6)
//
// Weights are in units of nb^3/3 flops. One block-apply body,
// detail::apply_block, serves all three reflector shapes: it applies
// [c1; c2] := op(I - V T V^H) [c1; c2] for V = [V1; V2], with V1 the identity
// (TS, TT) or GEQRT's unit-lower triangle, and V2 dense or, for TT, ending in
// an upper triangle. Every product is a packed blas::gemm: each triangle is
// first copied into one sb x sb zero-padded scratch, and T, read in place as
// a dense block, multiplies into a second work block. UNMQR, TSMQR and TTMQR
// loop it over the ib-blocks; GEQRT, TSQRT and TTQRT call it on their
// trailing columns after each panel. The TS and TT pairs run one elimination
// (LAPACK's triangular-pentagonal xTPQRT/xTPMQRT) and differ only in the
// support rule: the tail of reflector c reaches all m2 rows of the zeroed
// tile for TS, and rows 0..c for TT, whose tails stopping at a triangle are
// the TT kernels' 2x flop advantage. detail::tpqrt factors both pairs.
//
// What each kernel reads is region-exact, which lets the DAG run kernels on
// disjoint parts of one tile at once (an LQ factorization runs these same
// kernels on Aᴴ's tiles, so the rule covers it too):
//  * UNMQR and GEQRT's trailing update read only the reflectors strictly
//    below the tile diagonal, never R on and above it;
//  * TTMQR reads only the zeroed tile's upper triangle (its tails), never
//    the GEQRT reflectors below;
//  * every apply reads sb x sb T blocks whole: larft and tpqrt write zeros
//    below each block's diagonal, storage nothing else uses.
//
// Storage conventions (per tile, matching PLASMA):
//  * after GEQRT, the tile holds R in its upper triangle and the unit-lower
//    reflectors V strictly below the diagonal; T factors go to a separate
//    ib x nb array.
//  * after TSQRT, the zeroed tile holds the dense reflector tails V2; its own
//    T goes to another ib x nb array.
//  * after TTQRT, the zeroed (triangular) tile holds the upper-trapezoidal
//    reflector tails V2 in its upper triangle — the strictly-lower part (the
//    GEQRT reflectors of that tile) is preserved, so a factorization can
//    later replay both transformations (apply_q).
#pragma once

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "common/aligned.hpp"
#include "kernels/householder.hpp"

namespace tiledqr::kernels {

namespace detail {
/// Kernel scratch: aligned and left uninitialized (each user writes what it
/// reads).
template <typename T>
using WorkVec = std::vector<T, DefaultInitAllocator<T>>;

/// Entries of apply_block's work for ib-blocks over nn columns: W = V^H C and
/// op(T) W, both sb x nn, then the sb x sb triangle pad.
inline std::size_t block_work(int ib, std::int64_t nn) noexcept {
  return std::size_t(ib) * std::size_t(2 * nn + ib);
}

/// One kernel call's scratch, its only allocation: block_work(ib, nn) for
/// apply_block (the factor kernels' panel steps borrow its head), then
/// `ntau` entries for a factor kernel's reflector scalars.
template <typename T>
WorkVec<T> kernel_scratch(int ib, std::int64_t nn, std::int64_t ntau = 0) {
  return WorkVec<T>(block_work(ib, nn) + std::size_t(ntau));
}

/// Calls f(i, sb) for each ib-wide block [i, i + sb) of k reflectors:
/// ascending when applying Q^H, descending when applying Q
/// (Q = B_1 B_2 ... B_l, so Q C applies B_l first).
template <typename F>
void for_each_block(ApplyTrans trans, std::int64_t k, int ib, F&& f) {
  const std::int64_t last = (k - 1) / ib * ib;
  for (std::int64_t s = 0; s < k; s += ib) {
    const std::int64_t i = trans == ApplyTrans::ConjTrans ? s : last - s;
    f(i, std::min<std::int64_t>(ib, k - i));
  }
}

/// The reflector tails a TS or TT kernel leaves in its zeroed tile.
enum class Tails { Dense, Trapezoid };

/// The support rule: how many leading rows of an m2-row zeroed tile the tail
/// of reflector c reaches.
inline std::int64_t tail_rows(Tails tails, std::int64_t m2, std::int64_t c) noexcept {
  return tails == Tails::Dense ? m2 : c + 1;
}

/// The one block-apply body: [c1; c2] := op(I - V tblk V^H) [c1; c2] for an
/// sb-column block reflector V = [V1; V2], every product a blas::gemm.
///  - V1 (sb x sb) is GEQRT's unit-lower head, of which only the part
///    strictly below v1's diagonal is read; an empty v1 stands for I (TS and
///    TT, whose identity rows are implicit).
///  - V2 = v2 is dense, except that for Tails::Trapezoid its last sb rows are
///    an upper triangle (a TT tail) whose strictly-lower part is not read.
///  - tblk is the sb x sb block factor, read as a dense block: upper
///    triangular with explicit zeros below the diagonal, as larft and tpqrt
///    write it.
/// Each triangle is first copied into one zero-padded sb x sb scratch,
/// reading only the elements the kernel owns; T and the dense rows of V2 are
/// read in place. `work` holds block_work(sb, c1.cols()) entries.
template <typename T>
void apply_block(ApplyTrans trans, Tails tails, ConstMatrixView<std::type_identity_t<T>> v1,
                 ConstMatrixView<std::type_identity_t<T>> v2,
                 ConstMatrixView<std::type_identity_t<T>> tblk, MatrixView<T> c1,
                 MatrixView<T> c2, T* work) {
  using blas::Op;
  const std::int64_t sb = v2.cols();
  const std::int64_t nn = c1.cols();
  const bool head = !v1.empty();
  const bool trapezoid = tails == Tails::Trapezoid;
  TILEDQR_ASSERT(!(head && trapezoid));
  const std::int64_t dense = trapezoid ? v2.rows() - sb : v2.rows();
  const auto vd = v2.sub(0, 0, dense, sb);
  const auto c2d = c2.sub(0, 0, dense, nn);
  MatrixView<T> w(work, sb, nn, sb);
  MatrixView<T> y(work + sb * nn, sb, nn, sb);
  MatrixView<T> pad(work + 2 * sb * nn, sb, sb, sb);
  // The triangle: V1's strictly-lower part, or the TT tail's upper triangle.
  const auto tri = trapezoid ? v2.sub(dense, 0, sb, sb) : v1;
  const auto c2t = c2.sub(dense, 0, trapezoid ? sb : 0, nn);
  if (head || trapezoid) {
    for (std::int64_t c = 0; c < sb; ++c) {
      T* pc = pad.col(c);
      const T* tc = tri.col(c);
      if (trapezoid) {
        for (std::int64_t r = 0; r <= c; ++r) pc[r] = tc[r];
        for (std::int64_t r = c + 1; r < sb; ++r) pc[r] = T(0);
      } else {
        for (std::int64_t r = 0; r <= c; ++r) pc[r] = T(0);
        for (std::int64_t r = c + 1; r < sb; ++r) pc[r] = tc[r];
      }
    }
  }
  // W := V^H C = V1^H c1 + V2^H c2, with V1 = I + pad for GEQRT's head, and
  // for a TT tail V2's last sb rows in pad.
  copy(ConstMatrixView<T>(c1), w);
  if (head) blas::gemm(Op::ConjTrans, Op::NoTrans, T(1), pad, c1, T(1), w);
  if (dense > 0) blas::gemm(Op::ConjTrans, Op::NoTrans, T(1), vd, c2d, T(1), w);
  if (trapezoid) blas::gemm(Op::ConjTrans, Op::NoTrans, T(1), pad, c2t, T(1), w);
  // Y := op(tblk) W
  blas::gemm(trans == ApplyTrans::ConjTrans ? Op::ConjTrans : Op::NoTrans, Op::NoTrans, T(1),
             tblk, w, T(0), y);
  // C -= V Y
  blas::add(T(-1), y, c1);
  if (head) blas::gemm(Op::NoTrans, Op::NoTrans, T(-1), pad, y, T(1), c1);
  if (dense > 0) blas::gemm(Op::NoTrans, Op::NoTrans, T(-1), vd, y, T(1), c2d);
  if (trapezoid) blas::gemm(Op::NoTrans, Op::NoTrans, T(-1), pad, y, T(1), c2t);
}

/// TSQRT/TTQRT: QR of [R1; A2], where R1 is a1's upper triangle and column c
/// of A2 is reduced over its first tail_rows(tails, m2, c) rows. On return
/// a1's upper triangle holds the updated R, those rows of a2 the reflector
/// tails, and t the block factors; no other element is touched.
template <typename T>
void tpqrt(Tails tails, int ib, MatrixView<T> a1, MatrixView<T> a2, MatrixView<T> t) {
  const char* name = tails == Tails::Dense ? "tsqrt" : "ttqrt";
  const std::int64_t n = a1.cols();
  const std::int64_t m2 = a2.rows();
  TILEDQR_CHECK(ib >= 1, std::string(name) + ": ib must be >= 1");
  TILEDQR_CHECK(a1.rows() >= n,
                std::string(name) + ": a1 has fewer rows than columns (R1 must be n x n)");
  TILEDQR_CHECK(a2.cols() == n, std::string(name) + ": a2 col mismatch");
  TILEDQR_CHECK(tail_rows(tails, m2, n - 1) <= m2,
                std::string(name) + ": a2 has fewer rows than columns (R2 must be n x n)");
  TILEDQR_CHECK(t.rows() >= std::min<std::int64_t>(ib, n) && t.cols() >= n,
                std::string(name) + ": T too small");

  WorkVec<T> scratch = kernel_scratch<T>(ib, n, n);
  T* const work = scratch.data();
  T* const tau = work + block_work(ib, n);

  for (std::int64_t i = 0; i < n; i += ib) {
    const std::int64_t sb = std::min<std::int64_t>(ib, n - i);
    // Factor the panel columns one by one; each reflector updates the
    // panel's later columns over the rows it reaches, which every later
    // column's support covers.
    for (std::int64_t j = 0; j < sb; ++j) {
      const std::int64_t ci = i + j;
      const std::int64_t len = tail_rows(tails, m2, ci);
      const std::int64_t nc = sb - j - 1;
      larfg(a1(ci, ci), a2.col(ci), len, tau[ci]);
      if (nc == 0) continue;
      // w_jj = a1(ci, jj) + v2^H a2(0:len, jj); then a1(ci, jj) -= tau' w_jj
      // and a2(0:len, jj) -= tau' w_jj v2 (tau' = conj(tau)), in geqr2's
      // shared-x form (v2 loaded once per four columns). gemv_t_acc
      // conjugates a2's columns, so it sums conj(w_jj) from conj(a1(ci, jj)).
      const T* v2 = a2.col(ci);
      T* const c2 = a2.col(ci + 1);
      for (std::int64_t c = 0; c < nc; ++c) work[c] = conj_if_complex(a1(ci, ci + 1 + c));
      blas::gemv_t_acc(len, nc, T(1), c2, a2.ld(), v2, work);
      for (std::int64_t c = 0; c < nc; ++c) {
        work[c] = conj_if_complex(work[c]) * conj_if_complex(tau[ci]);
        a1(ci, ci + 1 + c) -= work[c];
      }
      blas::ger_acc(len, nc, T(-1), v2, work, c2, a2.ld());
    }
    // Form the sb x sb block factor, zeros below its diagonal: the identity
    // parts of distinct reflectors are orthogonal, so only the tails
    // contribute to V^H v_j. TS tails all span m2 rows, one shared-x gemv;
    // a TT dot stops at the shorter tail, since below a TT tail the tile
    // holds unrelated data (the GEQRT reflectors).
    auto tblk = t.sub(0, i, sb, sb);
    for (std::int64_t j = 0; j < sb; ++j) {
      T* const tj = tblk.col(j);
      const T* vj = a2.col(i + j);
      if (tails == Tails::Dense) {
        for (std::int64_t l = 0; l < j; ++l) tj[l] = T(0);
        blas::gemv_t_acc(m2, j, T(1), a2.col(i), a2.ld(), vj, tj);
        for (std::int64_t l = 0; l < j; ++l) tj[l] *= -tau[i + j];
      } else {
        for (std::int64_t l = 0; l < j; ++l)
          tj[l] = -tau[i + j] * blas::dotc(tail_rows(tails, m2, i + l), a2.col(i + l), vj);
      }
      // tj(0:j) = tblk(0:j, 0:j) tj(0:j), axpy form as in larft.
      for (std::int64_t l = 0; l < j; ++l) {
        const T coef = tj[l];
        blas::axpy(l, coef, tblk.col(l), tj);
        tj[l] = tblk(l, l) * coef;
      }
      tj[j] = tau[i + j];
      for (std::int64_t l = j + 1; l < sb; ++l) tj[l] = T(0);
    }
    // Apply the panel's block reflector (Q^H) to the trailing columns.
    if (i + sb < n) {
      const std::int64_t rows = tail_rows(tails, m2, i + sb - 1);
      const std::int64_t nn = n - i - sb;
      apply_block(ApplyTrans::ConjTrans, tails, ConstMatrixView<T>(), a2.sub(0, i, rows, sb),
                  tblk, a1.sub(i, i + sb, sb, nn), a2.sub(0, i + sb, rows, nn), work);
    }
  }
}

/// TSMQR/TTMQR: [a1; a2] := op(Q) [a1; a2] for the Q whose tails tpqrt left
/// in v2 and whose block factors it left in t.
template <typename T>
void tpmqr(Tails tails, ApplyTrans trans, int ib, ConstMatrixView<std::type_identity_t<T>> v2,
           ConstMatrixView<std::type_identity_t<T>> t, MatrixView<T> a1, MatrixView<T> a2) {
  const char* name = tails == Tails::Dense ? "tsmqr" : "ttmqr";
  const std::int64_t k = v2.cols();
  const std::int64_t m2 = v2.rows();
  const std::int64_t nn = a1.cols();
  TILEDQR_CHECK(ib >= 1, std::string(name) + ": ib must be >= 1");
  TILEDQR_CHECK(a1.rows() >= k,
                std::string(name) + ": a1 has fewer rows than V2 has reflectors");
  TILEDQR_CHECK(a2.rows() == m2 && a2.cols() == nn && tail_rows(tails, m2, k - 1) <= m2,
                std::string(name) + ": shape mismatch");
  TILEDQR_CHECK(t.rows() >= std::min<std::int64_t>(ib, k) && t.cols() >= k,
                std::string(name) + ": T too small");

  WorkVec<T> work = kernel_scratch<T>(ib, nn);
  for_each_block(trans, k, ib, [&](std::int64_t i, std::int64_t sb) {
    const std::int64_t rows = tail_rows(tails, m2, i + sb - 1);
    apply_block(trans, tails, ConstMatrixView<T>(), v2.sub(0, i, rows, sb), t.sub(0, i, sb, sb),
                a1.sub(i, 0, sb, nn), a2.sub(0, 0, rows, nn), work.data());
  });
}
}  // namespace detail

// ---------------------------------------------------------------------------
// GEQRT: blocked QR of an m x n tile. t must be ib x n (only the leading
// min(ib, remaining) x sb block per panel is written).
template <typename T>
void geqrt(int ib, MatrixView<T> a, MatrixView<T> t) {
  const std::int64_t m = a.rows();
  const std::int64_t n = a.cols();
  const std::int64_t k = std::min(m, n);
  TILEDQR_CHECK(ib >= 1, "geqrt: ib must be >= 1");
  TILEDQR_CHECK(t.rows() >= std::min<std::int64_t>(ib, k) && t.cols() >= k,
                "geqrt: T too small");

  detail::WorkVec<T> scratch = detail::kernel_scratch<T>(ib, n, k);
  T* const work = scratch.data();
  T* const tau = work + detail::block_work(ib, n);

  for (std::int64_t i = 0; i < k; i += ib) {
    const std::int64_t sb = std::min<std::int64_t>(ib, k - i);
    auto panel = a.sub(i, i, m - i, sb);
    geqr2(panel, tau + i, work);
    auto tblk = t.sub(0, i, sb, sb);
    larft(ConstMatrixView<T>(panel), tau + i, tblk);
    if (i + sb < n) {
      const std::int64_t nn = n - i - sb;
      detail::apply_block(ApplyTrans::ConjTrans, detail::Tails::Dense, panel.sub(0, 0, sb, sb),
                          panel.sub(sb, 0, m - i - sb, sb), tblk, a.sub(i, i + sb, sb, nn),
                          a.sub(i + sb, i + sb, m - i - sb, nn), work);
    }
  }
}

// ---------------------------------------------------------------------------
// UNMQR: applies the transformation computed by geqrt (v = factored tile,
// t = its block factors) to an m x nn tile c: c := op(Q) c.
template <typename T>
void unmqr(ApplyTrans trans, int ib, ConstMatrixView<std::type_identity_t<T>> v,
           ConstMatrixView<std::type_identity_t<T>> t, MatrixView<T> c) {
  const std::int64_t m = v.rows();
  const std::int64_t k = std::min(m, v.cols());
  TILEDQR_CHECK(ib >= 1, "unmqr: ib must be >= 1");
  TILEDQR_CHECK(c.rows() == m, "unmqr: C row mismatch");
  const std::int64_t nn = c.cols();
  detail::WorkVec<T> work = detail::kernel_scratch<T>(ib, nn);
  detail::for_each_block(trans, k, ib, [&](std::int64_t i, std::int64_t sb) {
    const std::int64_t rest = m - i - sb;
    detail::apply_block(trans, detail::Tails::Dense, v.sub(i, i, sb, sb),
                        v.sub(i + sb, i, rest, sb), t.sub(0, i, sb, sb), c.sub(i, 0, sb, nn),
                        c.sub(i + sb, 0, rest, nn), work.data());
  });
}

// ---------------------------------------------------------------------------
// TSQRT: QR of the stacked pair [R1; A2] where a1's upper triangle holds R1
// and a2 is a full m2 x n tile. On return a1's upper triangle holds the
// updated R, a2 holds the dense reflector tails V2, and t the block factors.
// a1's strictly-lower part is never touched.
template <typename T>
void tsqrt(int ib, MatrixView<T> a1, MatrixView<T> a2, MatrixView<T> t) {
  detail::tpqrt(detail::Tails::Dense, ib, a1, a2, t);
}

// ---------------------------------------------------------------------------
// TSMQR: applies a TSQRT transformation (v2 = zeroed tile holding dense
// reflector tails, t = its block factors) to the stacked pair [a1; a2]:
//   [a1; a2] := op(Q) [a1; a2].
template <typename T>
void tsmqr(ApplyTrans trans, int ib, ConstMatrixView<std::type_identity_t<T>> v2,
           ConstMatrixView<std::type_identity_t<T>> t, MatrixView<T> a1, MatrixView<T> a2) {
  detail::tpmqr(detail::Tails::Dense, trans, ib, v2, t, a1, a2);
}

// ---------------------------------------------------------------------------
// TTQRT: QR of the stacked pair [R1; R2] with both tiles upper triangular.
// On return a1's upper triangle holds the updated R, a2's upper triangle the
// upper-trapezoidal reflector tails V2, and t the block factors. The strictly
// lower parts of both tiles are preserved.
template <typename T>
void ttqrt(int ib, MatrixView<T> a1, MatrixView<T> a2, MatrixView<T> t) {
  detail::tpqrt(detail::Tails::Trapezoid, ib, a1, a2, t);
}

// ---------------------------------------------------------------------------
// TTMQR: applies a TTQRT transformation (v2 = zeroed tile holding the upper
// trapezoidal reflector tails in its upper triangle) to the pair [a1; a2].
template <typename T>
void ttmqr(ApplyTrans trans, int ib, ConstMatrixView<std::type_identity_t<T>> v2,
           ConstMatrixView<std::type_identity_t<T>> t, MatrixView<T> a1, MatrixView<T> a2) {
  detail::tpmqr(detail::Tails::Trapezoid, trans, ib, v2, t, a1, a2);
}

}  // namespace tiledqr::kernels
