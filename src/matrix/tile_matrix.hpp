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
// Operands op(Q) is applied to only need the factorization's row tiling, and
// the apply kernels take any column count: operand() tiles them
// nb x min(nb, ncols), so a single right-hand side is nb x 1 tiles rather
// than nb x nb tiles of which all but one column is padding.
#pragma once

#include <algorithm>
#include <cstdint>
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

  /// Tiles `a` in nb x w tiles, tile by tile in storage order: each column
  /// of a tile is one copied segment of a column of `a` followed by its
  /// padding, the only entries zeroed.
  [[nodiscard]] static TileMatrix tiled(ConstMatrixView<T> a, int nb, int w) {
    TileMatrix out(a.rows(), a.cols(), nb, w);
    for (int jt = 0; jt < out.nt_; ++jt)
      for (int it = 0; it < out.mt_; ++it) {
        const std::int64_t i0 = std::int64_t(it) * nb, j0 = std::int64_t(jt) * w;
        const std::int64_t rows = std::min<std::int64_t>(nb, out.m_ - i0);
        const std::int64_t cols = std::min<std::int64_t>(w, out.n_ - j0);
        T* dst = out.tile_data(it, jt);
        for (std::int64_t jj = 0; jj < w; ++jj, dst += nb) {
          T* pad = jj < cols ? std::copy_n(a.col(j0 + jj) + i0, rows, dst) : dst;
          std::fill(pad, dst + nb, T(0));
        }
      }
    return out;
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
