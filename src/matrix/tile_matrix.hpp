// Tiled matrix storage (PLASMA-style layout).
//
// A TileMatrix stores an m x n logical matrix as a p x q grid of nb x w
// tiles, each tile contiguous in memory (column-major within the tile): nb
// is the row-tile size, w the column-tile width. When m or n is not a
// multiple of the tile extent, the matrix is zero-padded up to full tiles;
// zero-padding rows/columns does not change the R factor of a QR
// factorization nor the leading Q columns.
//
// Factorization inputs have square tiles (w == nb, from_dense), so the
// factor kernels see full nb x nb tiles — exactly the model of the paper.
// The LQ of a wide A runs as the QR of Aᴴ, so a wide input is tiled as Aᴴ
// (from_dense_adjoint), and a caller-tiled one is adjointed tile by tile in
// its own storage (adjoint()).
// Operands op(Q) is applied to only need the factorization's row tiling, and
// the apply kernels take any column count: operand() tiles them
// nb x min(nb, ncols), so a single right-hand side is nb x 1 tiles rather
// than nb x nb tiles of which all but one column is padding.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "matrix/matrix.hpp"
#include "matrix/matrix_view.hpp"

namespace tiledqr {

template <typename T>
class TileMatrix {
 public:
  TileMatrix() = default;

  /// Zero-initialized tiled matrix of square nb x nb tiles holding a logical
  /// m x n dense matrix.
  TileMatrix(std::int64_t m, std::int64_t n, int nb) : TileMatrix(m, n, nb, nb) { fill(T(0)); }

  /// Logical row/column counts.
  [[nodiscard]] std::int64_t m() const noexcept { return m_; }
  [[nodiscard]] std::int64_t n() const noexcept { return n_; }
  /// Tile grid dimensions (the paper's p and q).
  [[nodiscard]] int mt() const noexcept { return mt_; }
  [[nodiscard]] int nt() const noexcept { return nt_; }
  /// Row-tile size.
  [[nodiscard]] int nb() const noexcept { return nb_; }
  /// Column-tile width: nb for factorization inputs, min(nb, n) for operand().
  [[nodiscard]] int w() const noexcept { return w_; }

  /// View of tile (i, j); always nb x w.
  [[nodiscard]] MatrixView<T> tile(int i, int j) {
    TILEDQR_ASSERT(i >= 0 && i < mt_ && j >= 0 && j < nt_);
    return MatrixView<T>(tile_data(i, j), nb_, w_, nb_);
  }
  [[nodiscard]] ConstMatrixView<T> tile(int i, int j) const {
    TILEDQR_ASSERT(i >= 0 && i < mt_ && j >= 0 && j < nt_);
    return ConstMatrixView<T>(tile_data(i, j), nb_, w_, nb_);
  }

  /// Element access through tile translation (slow; for tests and I/O).
  [[nodiscard]] T at(std::int64_t i, std::int64_t j) const {
    TILEDQR_CHECK(i >= 0 && i < m_ && j >= 0 && j < n_, "at: out of range");
    return tile(int(i / nb_), int(j / w_))(i % nb_, j % w_);
  }

  /// Builds a tiled copy of a dense matrix in square nb x nb tiles (zero-
  /// padded to full tiles): the layout factorization requires.
  [[nodiscard]] static TileMatrix from_dense(ConstMatrixView<T> a, int nb) {
    return tiled(a, nb, nb);
  }

  /// Tiles Aᴴ from dense A in square nb x nb tiles (zero-padded): each tile
  /// is one adjoint_copy of a block of A, with no A-layout intermediate.
  [[nodiscard]] static TileMatrix from_dense_adjoint(ConstMatrixView<T> a, int nb) {
    TileMatrix out(a.cols(), a.rows(), nb, nb);
    out.fill_tiles(true, [&](MatrixView<T> dst, std::int64_t i0, std::int64_t j0) {
      adjoint_copy(a.sub(j0, i0, dst.cols(), dst.rows()), dst);
    });
    return out;
  }

  /// The tiles of the adjoint matrix, in this matrix's storage (consumed;
  /// square tiles only). Slot j * mt + i holds tile (i, j), whose adjoint
  /// belongs in slot i * nt + j: each cycle of that permutation is walked
  /// backwards, adjointing every tile into the slot it fills, with one tile
  /// of scratch for the cycle's first. Padding moves with its tile, so zero
  /// padding stays zero padding. It skips the new storage adjoint() const&
  /// allocates, whose first touch costs more than the adjoint: for a
  /// 512 x 4096 double A in 128 x 128 tiles this walk took 3.5-4.4 ms and
  /// the copy 8-17 ms (one core, AVX-512 host).
  [[nodiscard]] TileMatrix adjoint() && {
    TILEDQR_CHECK(w_ == nb_, "adjoint: needs square nb x nb tiles");
    const size_t tile = size_t(nb_) * size_t(nb_), slots = size_t(mt_) * size_t(nt_);
    auto view = [&](T* p) { return MatrixView<T>(p, nb_, nb_, nb_); };
    auto slot = [&](size_t s) { return view(data_.data() + s * tile); };
    auto source = [&](size_t s) { return s % size_t(nt_) * size_t(mt_) + s / size_t(nt_); };
    std::vector<T, DefaultInitAllocator<T>> first(tile);
    std::vector<bool> done(slots);
    for (size_t start = 0; start < slots; ++start) {
      if (done[start]) continue;
      std::copy_n(slot(start).data(), tile, first.data());
      size_t to = start;
      for (size_t from = source(to); from != start; to = from, from = source(to)) {
        adjoint_copy(slot(from), slot(to));
        done[to] = true;
      }
      adjoint_copy(view(first.data()), slot(to));
      done[to] = true;
    }
    std::swap(m_, n_);
    std::swap(mt_, nt_);
    return std::move(*this);
  }

  /// The tiles of the adjoint matrix, as a new matrix (square tiles only).
  [[nodiscard]] TileMatrix adjoint() const& {
    TILEDQR_CHECK(w_ == nb_, "adjoint: needs square nb x nb tiles");
    TileMatrix out(n_, m_, nb_, nb_);
    for (int j = 0; j < nt_; ++j)
      for (int i = 0; i < mt_; ++i) adjoint_copy(tile(i, j), out.tile(j, i));
    return out;
  }

  /// Builds a tiled copy of an op(Q) operand — a right-hand side or
  /// apply_q's C — in nb x min(nb, c.cols()) tiles: the factorization's row
  /// tiling with no column padding beyond the last tile column's. Not a
  /// factorization input unless the tiles come out square.
  [[nodiscard]] static TileMatrix operand(ConstMatrixView<T> c, int nb) {
    return tiled(c, nb, int(std::min<std::int64_t>(nb, c.cols())));
  }

  /// Copies rows [i0, i1) of logical column j to dst, one contiguous tile-
  /// column segment at a time.
  void read_column(std::int64_t j, std::int64_t i0, std::int64_t i1, T* dst) const {
    TILEDQR_ASSERT(j >= 0 && j < n_ && i0 >= 0 && i0 <= i1 && i1 <= m_);
    const int jt = int(j / w_);
    const std::int64_t jj = j % w_;
    while (i0 < i1) {
      const int it = int(i0 / nb_);
      const std::int64_t r = i0 - std::int64_t(it) * nb_;
      const std::int64_t len = std::min<std::int64_t>(nb_ - r, i1 - i0);
      dst = std::copy_n(tile_data(it, jt) + jj * nb_ + r, len, dst);
      i0 += len;
    }
  }

  /// Converts back to a dense m x n matrix (dropping the padding).
  [[nodiscard]] Matrix<T> to_dense() const {
    Matrix<T> out(m_, n_);
    for (std::int64_t j = 0; j < n_; ++j) read_column(j, 0, m_, out.view().col(j));
    return out;
  }

  /// Sets every entry (including padding) to `value`.
  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

 private:
  /// m x n in nb x w tiles, storage left unwritten for the caller to fill.
  /// (The divisions must not run before the nb check: nb == 0 would be a
  /// SIGFPE in the member initializers, not a catchable Error.)
  TileMatrix(std::int64_t m, std::int64_t n, int nb, int w)
      : m_(m), n_(n), nb_(checked_nb(m, n, nb)), w_(w), mt_(int((m + nb_ - 1) / nb_)),
        nt_(int((n + w_ - 1) / w_)),
        data_(size_t(mt_) * size_t(nt_) * size_t(nb_) * size_t(w_)) {
    TILEDQR_ASSERT(w >= 1 && w <= nb);
  }

  /// Tiles `a` in nb x w tiles: each column of a tile is one copied
  /// segment of a column of `a`.
  [[nodiscard]] static TileMatrix tiled(ConstMatrixView<T> a, int nb, int w) {
    TileMatrix out(a.rows(), a.cols(), nb, w);
    out.fill_tiles(false, [&](MatrixView<T> dst, std::int64_t i0, std::int64_t j0) {
      for (std::int64_t jj = 0; jj < dst.cols(); ++jj)
        std::copy_n(a.col(j0 + jj) + i0, dst.rows(), dst.col(jj));
    });
    return out;
  }

  /// Writes every tile: `logical(dst, i0, j0)` fills the tile's part of the
  /// logical matrix, dst, whose top-left entry is (i0, j0); the padding
  /// around it is the only part zeroed. Tiles go tile column by tile column,
  /// or tile row by tile row when `by_rows` (the order that reads a source
  /// being adjointed down its columns: 10-15% faster on a 512 x 4096 A).
  template <typename F>
  void fill_tiles(bool by_rows, F&& logical) {
    for (int outer = 0; outer < (by_rows ? mt_ : nt_); ++outer)
      for (int inner = 0; inner < (by_rows ? nt_ : mt_); ++inner) {
        const int it = by_rows ? outer : inner, jt = by_rows ? inner : outer;
        const std::int64_t i0 = std::int64_t(it) * nb_, j0 = std::int64_t(jt) * w_;
        const std::int64_t rows = std::min<std::int64_t>(nb_, m_ - i0);
        const std::int64_t cols = std::min<std::int64_t>(w_, n_ - j0);
        const MatrixView<T> t = tile(it, jt);
        logical(t.sub(0, 0, rows, cols), i0, j0);
        for (std::int64_t jj = 0; jj < w_; ++jj)
          std::fill(t.col(jj) + (jj < cols ? rows : 0), t.col(jj) + nb_, T(0));
      }
  }

  [[nodiscard]] static int checked_nb(std::int64_t m, std::int64_t n, int nb) {
    TILEDQR_CHECK(m >= 1 && n >= 1, "tile matrix must be non-empty");
    TILEDQR_CHECK(nb >= 1, "tile size must be positive");
    return nb;
  }

  [[nodiscard]] T* tile_data(int i, int j) noexcept {
    return data_.data() + (size_t(j) * size_t(mt_) + size_t(i)) * size_t(nb_) * size_t(w_);
  }
  [[nodiscard]] const T* tile_data(int i, int j) const noexcept {
    return data_.data() + (size_t(j) * size_t(mt_) + size_t(i)) * size_t(nb_) * size_t(w_);
  }

  std::int64_t m_ = 0;
  std::int64_t n_ = 0;
  int nb_ = 0;
  int w_ = 0;
  int mt_ = 0;
  int nt_ = 0;
  std::vector<T, DefaultInitAllocator<T>> data_;
};

}  // namespace tiledqr
