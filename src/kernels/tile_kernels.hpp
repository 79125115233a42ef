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
// Weights are in units of nb^3/3 flops. Two block-apply bodies serve the
// three reflector shapes: larfb_left (householder.hpp) for GEQRT's unit-lower
// tiles, and detail::tp_apply_block for the TS and TT pairs. Those pairs run
// one elimination (LAPACK's triangular-pentagonal xTPQRT/xTPMQRT) and differ
// only in the support rule: the tail of reflector c reaches all m2 rows of
// the zeroed tile for TS, and rows 0..c for TT, whose tails stopping at a
// triangle are the TT kernels' 2x flop advantage. detail::tpqrt factors both
// pairs; TSMQR and TTMQR loop tp_apply_block over the ib-blocks, and TSQRT
// and TTQRT call it on their trailing columns after each panel.
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
template <typename T>
using WorkVec = std::vector<T, AlignedAllocator<T>>;

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

/// One ib-block of a TS/TT update: [c1; c2] := op(I - V tblk V^H) [c1; c2]
/// with V = [I; v]. v holds the block's sb tails over the rows the last one
/// reaches, and c2 the same rows of the lower tile. For trapezoidal tails the
/// last sb rows of v are an upper triangle; all other rows are dense. `work`
/// must hold sb * c1.cols() entries.
template <typename T>
void tp_apply_block(ApplyTrans trans, Tails tails, ConstMatrixView<std::type_identity_t<T>> v,
                    ConstMatrixView<std::type_identity_t<T>> tblk, MatrixView<T> c1,
                    MatrixView<T> c2, T* work) {
  const std::int64_t sb = v.cols();
  const std::int64_t nn = c1.cols();
  const std::int64_t dense = tails == Tails::Dense ? v.rows() : v.rows() - sb;
  const auto vd = v.sub(0, 0, dense, sb);
  const auto c2d = c2.sub(0, 0, dense, nn);
  MatrixView<T> w(work, sb, nn, sb);
  // W := c1 + v^H c2
  copy(c1, w);
  if (dense > 0) blas::gemm(blas::Op::ConjTrans, blas::Op::NoTrans, T(1), vd, c2d, T(1), w);
  if (tails == Tails::Trapezoid)
    blas::trmm_acc(blas::Uplo::Upper, blas::Op::ConjTrans, blas::Diag::NonUnit, T(1),
                   v.sub(dense, 0, sb, sb), c2.sub(dense, 0, sb, nn), w);
  // W := op(tblk) W
  blas::trmm(blas::Uplo::Upper,
             trans == ApplyTrans::ConjTrans ? blas::Op::ConjTrans : blas::Op::NoTrans,
             blas::Diag::NonUnit, T(1), tblk, w);
  // c1 -= W, c2 -= v W
  blas::add(T(-1), w, c1);
  if (dense > 0) blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(-1), vd, w, T(1), c2d);
  if (tails == Tails::Trapezoid)
    blas::trmm_acc(blas::Uplo::Upper, blas::Op::NoTrans, blas::Diag::NonUnit, T(-1),
                   v.sub(dense, 0, sb, sb), w, c2.sub(dense, 0, sb, nn));
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

  WorkVec<T> tau(static_cast<size_t>(n));
  WorkVec<T> work(size_t(ib) * size_t(n));

  for (std::int64_t i = 0; i < n; i += ib) {
    const std::int64_t sb = std::min<std::int64_t>(ib, n - i);
    // Factor the panel columns one by one.
    for (std::int64_t j = 0; j < sb; ++j) {
      const std::int64_t ci = i + j;
      const std::int64_t len = tail_rows(tails, m2, ci);
      larfg(a1(ci, ci), a2.col(ci), len, tau[ci]);
      const T* v2 = a2.col(ci);
      for (std::int64_t jj = ci + 1; jj < i + sb; ++jj) {
        // w = a1(ci,jj) + v2^H a2(0:len,jj)
        T w = a1(ci, jj) + blas::dotc(len, v2, a2.col(jj));
        w *= conj_if_complex(tau[ci]);
        a1(ci, jj) -= w;
        blas::axpy(len, -w, v2, a2.col(jj));
      }
    }
    // Form the sb x sb block factor: the identity parts of distinct
    // reflectors are orthogonal, so only the tails contribute to V^H v_j.
    // The dot product stops at the shorter tail: below a TT tail the tile
    // holds unrelated data (the GEQRT reflectors).
    auto tblk = t.sub(0, i, sb, sb);
    for (std::int64_t j = 0; j < sb; ++j) {
      for (std::int64_t l = 0; l < j; ++l)
        tblk(l, j) = -tau[i + j] *
                     blas::dotc(tail_rows(tails, m2, i + l), a2.col(i + l), a2.col(i + j));
      if (j > 0) {
        auto tcol = MatrixView<T>(&tblk(0, j), j, 1, tblk.ld());
        blas::trmm(blas::Uplo::Upper, blas::Op::NoTrans, blas::Diag::NonUnit, T(1),
                   tblk.sub(0, 0, j, j), tcol);
      }
      tblk(j, j) = tau[i + j];
    }
    // Apply the panel's block reflector (Q^H) to the trailing columns.
    if (i + sb < n) {
      const std::int64_t rows = tail_rows(tails, m2, i + sb - 1);
      const std::int64_t nn = n - i - sb;
      tp_apply_block(ApplyTrans::ConjTrans, tails, a2.sub(0, i, rows, sb), tblk,
                     a1.sub(i, i + sb, sb, nn), a2.sub(0, i + sb, rows, nn), work.data());
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

  WorkVec<T> work(size_t(ib) * size_t(nn));
  for_each_block(trans, k, ib, [&](std::int64_t i, std::int64_t sb) {
    const std::int64_t rows = tail_rows(tails, m2, i + sb - 1);
    tp_apply_block(trans, tails, v2.sub(0, i, rows, sb), t.sub(0, i, sb, sb),
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

  detail::WorkVec<T> tau(static_cast<size_t>(k));
  detail::WorkVec<T> work(size_t(ib) * size_t(n) + size_t(n));

  for (std::int64_t i = 0; i < k; i += ib) {
    const std::int64_t sb = std::min<std::int64_t>(ib, k - i);
    auto panel = a.sub(i, i, m - i, sb);
    geqr2(panel, tau.data() + i, work.data());
    auto tblk = t.sub(0, i, sb, sb);
    larft(ConstMatrixView<T>(panel), tau.data() + i, tblk);
    if (i + sb < n) {
      larfb_left(ApplyTrans::ConjTrans, ConstMatrixView<T>(panel), ConstMatrixView<T>(tblk),
                 a.sub(i, i + sb, m - i, n - i - sb), work.data());
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
  detail::WorkVec<T> work(size_t(ib) * size_t(c.cols()));
  detail::for_each_block(trans, k, ib, [&](std::int64_t i, std::int64_t sb) {
    larfb_left(trans, v.sub(i, i, m - i, sb), t.sub(0, i, sb, sb), c.sub(i, 0, m - i, c.cols()),
               work.data());
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
