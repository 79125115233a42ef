// LQ tile kernels by transpose duality (paper §2.1 footnote; PLASMA's
// core_gelqt family). An LQ factorization of A is the conjugate of a QR
// factorization of A^H: A = L Q with L = R^H and Q = Q̃^H where A^H = Q̃ R̃.
// Rather than duplicating PR 7's SIMD-dispatched microkernels for the row
// direction, each LQ kernel adjoints its nb x nb tile operands into scratch,
// runs the dual QR kernel, and adjoints the result back:
//
//   GELQT = GEQRT on A^H     TSLQT = TSQRT on A^H     TTLQT = TTQRT on A^H
//   UNMLQ = UNMQR w/ V^H     TSMLQ = TSMQR w/ V^H     TTMLQ = TTMQR w/ V^H
//
// Factor kernels adjoint every tile in and out, so the factored tile stays
// in A-layout: L in the lower triangle, the row reflectors strictly above it
// (TSLQT tails dense, TTLQT tails lower-trapezoidal). T factors are the
// transposed-world block factors and are stored as-is. Apply kernels operate
// on transposed-world operands (a C whose rows live in A's column space), so
// only the reflector tile is adjointed.
//
// The adjoint copies are O(nb^2) against the kernels' O(nb^3) work. The
// factor wrappers adjoint square nb x nb tiles (factorization inputs always
// have them); the apply wrappers adjoint only the reflector tile V, so their
// C takes any column count, like the QR apply kernels they wrap.
//
// The copies must be region-exact, not whole-tile: the DAG runs a TSLQT/TTLQT
// (which rewrites a tile's L triangle) concurrently with UNMLQ tasks (which
// read the same tile's strictly-upper row reflectors) — the same disjoint-
// region parallelism the QR kernels rely on, where tsqrt/ttqrt touch only the
// upper triangles and larft and UNMQR's apply_block read only strictly below
// the unit diagonal. A whole-tile adjoint in either wrapper would turn those disjoint
// element sets into a data race.
#pragma once

#include "kernels/tile_kernels.hpp"
#include "matrix/scalar.hpp"

namespace tiledqr::kernels {

namespace detail {

/// dst := src^H (dst must be src.cols() x src.rows(); no aliasing).
template <typename T>
void adjoint_copy(ConstMatrixView<T> src, MatrixView<T> dst) {
  TILEDQR_ASSERT(dst.rows() == src.cols() && dst.cols() == src.rows());
  for (std::int64_t j = 0; j < src.cols(); ++j)
    for (std::int64_t i = 0; i < src.rows(); ++i) dst(j, i) = conj_if_complex(src(i, j));
}

/// Which elements of the bound tile an AdjointScratch may touch.
enum class Region {
  Full,           ///< the whole tile
  LowerTriangle,  ///< i >= j only (the L / dual-R part, diagonal included)
};

/// Scratch tile bound to a live view: adjoints in on construction, back out
/// on commit(). With Region::LowerTriangle only the tile's lower triangle is
/// read and written (its image is the scratch's upper triangle — exactly the
/// elements tsqrt/ttqrt access); the rest of the scratch stays uninitialized
/// and the tile's strictly-upper reflectors are never loaded, which keeps the
/// wrapper safe against concurrent UNMLQ readers of the same tile.
template <typename T>
class AdjointScratch {
 public:
  explicit AdjointScratch(MatrixView<T> tile, Region region = Region::Full)
      : tile_(tile), region_(region), buf_(size_t(tile.rows()) * size_t(tile.cols())) {
    if (region_ == Region::Full) {
      adjoint_copy(ConstMatrixView<T>(tile_), view());
    } else {
      auto v = view();
      for (std::int64_t j = 0; j < tile_.cols(); ++j)
        for (std::int64_t i = j; i < tile_.rows(); ++i) v(j, i) = conj_if_complex(tile_(i, j));
    }
  }

  [[nodiscard]] MatrixView<T> view() {
    return MatrixView<T>(buf_.data(), tile_.cols(), tile_.rows(), tile_.cols());
  }

  void commit() {
    if (region_ == Region::Full) {
      adjoint_copy(ConstMatrixView<T>(view()), tile_);
      return;
    }
    auto v = view();
    for (std::int64_t j = 0; j < tile_.cols(); ++j)
      for (std::int64_t i = j; i < tile_.rows(); ++i) tile_(i, j) = conj_if_complex(v(j, i));
  }

 private:
  MatrixView<T> tile_;
  Region region_;
  WorkVec<T> buf_;
};

/// dst's strictly-lower triangle := adjoint of src's strictly-upper triangle
/// (the row reflectors of a factored LQ tile). Nothing else is read or
/// written: the L triangle of src may be concurrently rewritten by a
/// TSLQT/TTLQT on the same tile, and the dual apply kernels only dereference
/// strictly below their unit diagonal.
template <typename T>
void adjoint_copy_reflectors(ConstMatrixView<T> src, MatrixView<T> dst) {
  TILEDQR_ASSERT(dst.rows() == src.cols() && dst.cols() == src.rows());
  for (std::int64_t j = 1; j < src.cols(); ++j)
    for (std::int64_t i = 0; i < j && i < src.rows(); ++i)
      dst(j, i) = conj_if_complex(src(i, j));
}

}  // namespace detail

// ---------------------------------------------------------------------------
// GELQT: blocked LQ of a square tile. On return the tile holds L in its
// lower triangle and the row reflectors strictly above; t holds the dual
// GEQRT's ib x nb block factors.
template <typename T>
void gelqt(int ib, MatrixView<T> a, MatrixView<T> t) {
  detail::AdjointScratch<T> s(a);
  geqrt(ib, s.view(), t);
  s.commit();
}

// ---------------------------------------------------------------------------
// TSLQT: LQ of the side-by-side pair [L1 | A2] (L1 = a1's lower triangle).
// On return a1 holds the updated L, a2 the dense row-reflector tails.
template <typename T>
void tslqt(int ib, MatrixView<T> a1, MatrixView<T> a2, MatrixView<T> t) {
  // a1's strictly-upper reflectors may be under concurrent UNMLQ reads;
  // the dual tsqrt never touches a1's strictly-lower (dual) part anyway.
  detail::AdjointScratch<T> s1(a1, detail::Region::LowerTriangle);
  detail::AdjointScratch<T> s2(a2);
  tsqrt(ib, s1.view(), s2.view(), t);
  s1.commit();
  s2.commit();
}

// ---------------------------------------------------------------------------
// TTLQT: LQ of the side-by-side pair of lower-triangular tiles [L1 | L2].
// On return a2's lower triangle holds the lower-trapezoidal reflector tails;
// the strictly-upper parts of both tiles (GELQT row reflectors) survive.
template <typename T>
void ttlqt(int ib, MatrixView<T> a1, MatrixView<T> a2, MatrixView<T> t) {
  // Both tiles carry live GELQT row reflectors strictly above the diagonal
  // that UNMLQ tasks read in parallel; the dual ttqrt only works on the
  // upper (dual) triangles, so restrict both scratches to the L region.
  detail::AdjointScratch<T> s1(a1, detail::Region::LowerTriangle);
  detail::AdjointScratch<T> s2(a2, detail::Region::LowerTriangle);
  ttqrt(ib, s1.view(), s2.view(), t);
  s1.commit();
  s2.commit();
}

// ---------------------------------------------------------------------------
// UNMLQ: applies a GELQT transformation to a transposed-world tile c
// (c's rows are indexed by A's columns): c := op(Q̃) c, where Q̃ is the dual
// QR's orthogonal factor. v is the factored tile in A-layout.
template <typename T>
void unmlq(ApplyTrans trans, int ib, ConstMatrixView<std::type_identity_t<T>> v,
           ConstMatrixView<std::type_identity_t<T>> t, MatrixView<T> c) {
  detail::WorkVec<T> buf(size_t(v.rows()) * size_t(v.cols()));
  MatrixView<T> vt(buf.data(), v.cols(), v.rows(), v.cols());
  detail::adjoint_copy_reflectors(v, vt);
  unmqr(trans, ib, vt, t, c);
}

// ---------------------------------------------------------------------------
// TSMLQ: applies a TSLQT transformation (v2 = the zeroed tile holding dense
// row-reflector tails, in A-layout) to the transposed-world pair [a1; a2].
template <typename T>
void tsmlq(ApplyTrans trans, int ib, ConstMatrixView<std::type_identity_t<T>> v2,
           ConstMatrixView<std::type_identity_t<T>> t, MatrixView<T> a1, MatrixView<T> a2) {
  detail::WorkVec<T> buf(size_t(v2.rows()) * size_t(v2.cols()));
  MatrixView<T> vt(buf.data(), v2.cols(), v2.rows(), v2.cols());
  detail::adjoint_copy(v2, vt);
  tsmqr(trans, ib, vt, t, a1, a2);
}

// ---------------------------------------------------------------------------
// TTMLQ: applies a TTLQT transformation (v2 = the zeroed tile holding the
// lower-trapezoidal row-reflector tails, in A-layout) to the transposed-world
// pair [a1; a2].
template <typename T>
void ttmlq(ApplyTrans trans, int ib, ConstMatrixView<std::type_identity_t<T>> v2,
           ConstMatrixView<std::type_identity_t<T>> t, MatrixView<T> a1, MatrixView<T> a2) {
  detail::WorkVec<T> buf(size_t(v2.rows()) * size_t(v2.cols()));
  MatrixView<T> vt(buf.data(), v2.cols(), v2.rows(), v2.cols());
  detail::adjoint_copy(v2, vt);
  ttmqr(trans, ib, vt, t, a1, a2);
}

}  // namespace tiledqr::kernels
