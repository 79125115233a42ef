// TiledQr<T>: the public entry point of the library.
//
//   auto qr = TiledQr<double>::factorize(a, options);   // A = Q R  (m >= n)
//   Matrix<double> r = qr.r_factor();                   //          or A = L Q
//   Matrix<double> q = qr.q_thin();                     //          (m < n)
//   Matrix<double> x = qr.solve_least_squares(b);       // min ||A x - b||,
//                                                       // min-norm when wide
//
// The factorization routes on shape: tall/square matrices run the tiled QR
// column reduction, wide matrices (m < n) the LQ row reduction by transpose
// duality — the same elimination trees and runtime on the transposed
// (reduction) grid, with each LQ kernel wrapping its QR dual on adjointed
// tiles. Either way the selected tiled algorithm (Greedy by default) runs
// through the dataflow runtime; the factored tiles retain the full
// transformation log (GEQRT reflectors below the diagonal / GELQT row
// reflectors above it, TT reflector tails on the other side, block factors
// in the T/T2 stores), so op(Q) can be applied to anything afterwards
// (LAPACK xORMQR/xORMLQ-style).
#pragma once

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "blas/blas.hpp"
#include "common/env.hpp"
#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "kernels/kernels.hpp"
#include "matrix/tile_matrix.hpp"
#include "runtime/executor.hpp"

namespace tiledqr::core {

using kernels::ApplyTrans;

/// Factorization options. `tree` left disengaged means "pick for me": the
/// FactorSession batch/pipeline/stream paths route it through the tree
/// autotuner per shape, while the direct TiledQr paths (no tuner in scope)
/// fall back to the paper's recommended default, Greedy with TT kernels. An
/// engaged tree is always honored verbatim.
struct Options {
  std::optional<trees::TreeConfig> tree{};  ///< algorithm; nullopt = auto/Greedy
  int nb = 128;                             ///< tile size
  int ib = 32;                              ///< inner blocking of the kernels
  int threads = 0;  ///< worker threads; 0 = TILEDQR_THREADS or hw concurrency
};

/// Storage for the ib x nb block factors of every tile.
template <typename T>
class TStore {
 public:
  TStore() = default;
  TStore(int p, int q, int ib, int nb)
      : q_(q), ib_(ib), nb_(nb), data_(size_t(p) * size_t(q) * size_t(ib) * size_t(nb)) {}

  [[nodiscard]] MatrixView<T> at(int i, int k) noexcept {
    return MatrixView<T>(data_.data() + (size_t(i) * size_t(q_) + size_t(k)) * size_t(ib_) *
                                            size_t(nb_),
                         ib_, nb_, ib_);
  }
  [[nodiscard]] ConstMatrixView<T> at(int i, int k) const noexcept {
    return ConstMatrixView<T>(data_.data() + (size_t(i) * size_t(q_) + size_t(k)) * size_t(ib_) *
                                                 size_t(nb_),
                              ib_, nb_, ib_);
  }

 private:
  int q_ = 0, ib_ = 0, nb_ = 0;
  std::vector<T, AlignedAllocator<T>> data_;
};

/// Runs one DAG task's kernel on the tile storage (shared by TiledQr and the
/// benchmark driver). LQ task coordinates live in the reduction grid (the
/// transposed tile grid), so reduction tile (r, c) is A-layout tile (c, r);
/// the factorization updates adjoint their C tiles through scratch because
/// the wrapped QR update kernels run in the transposed world.
template <typename T>
void run_task_kernels(const dag::Task& t, TileMatrix<T>& a, TStore<T>& ts, TStore<T>& t2s,
                      int ib) {
  switch (t.kind) {
    case kernels::KernelKind::GEQRT:
      kernels::geqrt(ib, a.tile(t.i, t.k), ts.at(t.i, t.k));
      break;
    case kernels::KernelKind::UNMQR:
      kernels::unmqr(ApplyTrans::ConjTrans, ib, a.tile(t.i, t.k), ts.at(t.i, t.k),
                     a.tile(t.i, t.j));
      break;
    case kernels::KernelKind::TSQRT:
      kernels::tsqrt(ib, a.tile(t.piv, t.k), a.tile(t.i, t.k), ts.at(t.i, t.k));
      break;
    case kernels::KernelKind::TSMQR:
      kernels::tsmqr(ApplyTrans::ConjTrans, ib, a.tile(t.i, t.k), ts.at(t.i, t.k),
                     a.tile(t.piv, t.j), a.tile(t.i, t.j));
      break;
    case kernels::KernelKind::TTQRT:
      kernels::ttqrt(ib, a.tile(t.piv, t.k), a.tile(t.i, t.k), t2s.at(t.i, t.k));
      break;
    case kernels::KernelKind::TTMQR:
      kernels::ttmqr(ApplyTrans::ConjTrans, ib, a.tile(t.i, t.k), t2s.at(t.i, t.k),
                     a.tile(t.piv, t.j), a.tile(t.i, t.j));
      break;
    case kernels::KernelKind::GELQT:
      kernels::gelqt(ib, a.tile(t.k, t.i), ts.at(t.i, t.k));
      break;
    case kernels::KernelKind::UNMLQ: {
      kernels::detail::AdjointScratch<T> c(a.tile(t.j, t.i));
      kernels::unmlq(ApplyTrans::ConjTrans, ib, a.tile(t.k, t.i), ts.at(t.i, t.k), c.view());
      c.commit();
      break;
    }
    case kernels::KernelKind::TSLQT:
      kernels::tslqt(ib, a.tile(t.k, t.piv), a.tile(t.k, t.i), ts.at(t.i, t.k));
      break;
    case kernels::KernelKind::TSMLQ: {
      kernels::detail::AdjointScratch<T> c1(a.tile(t.j, t.piv));
      kernels::detail::AdjointScratch<T> c2(a.tile(t.j, t.i));
      kernels::tsmlq(ApplyTrans::ConjTrans, ib, a.tile(t.k, t.i), ts.at(t.i, t.k), c1.view(),
                     c2.view());
      c1.commit();
      c2.commit();
      break;
    }
    case kernels::KernelKind::TTLQT:
      kernels::ttlqt(ib, a.tile(t.k, t.piv), a.tile(t.k, t.i), t2s.at(t.i, t.k));
      break;
    case kernels::KernelKind::TTMLQ: {
      kernels::detail::AdjointScratch<T> c1(a.tile(t.j, t.piv));
      kernels::detail::AdjointScratch<T> c2(a.tile(t.j, t.i));
      kernels::ttmlq(ApplyTrans::ConjTrans, ib, a.tile(t.k, t.i), t2s.at(t.i, t.k), c1.view(),
                     c2.view());
      c1.commit();
      c2.commit();
      break;
    }
  }
}

/// Executes a planned task graph over tile storage on `threads` workers.
/// `keys`, when non-null, are precomputed scheduling keys (a cached plan's
/// `ranks`), saving the per-call rank sweep.
template <typename T>
void execute_graph(const dag::TaskGraph& g, TileMatrix<T>& a, TStore<T>& ts, TStore<T>& t2s,
                   int ib, int threads, const std::vector<long>* keys = nullptr) {
  runtime::execute(
      g, [&](std::int32_t idx) { run_task_kernels(g.tasks[size_t(idx)], a, ts, t2s, ib); },
      threads, runtime::SchedulePriority::CriticalPath, keys);
}

template <typename T>
class TiledQr {
 public:
  /// Factorizes a dense matrix (copied into tiled layout).
  [[nodiscard]] static TiledQr factorize(ConstMatrixView<T> a, const Options& opt) {
    return factorize(TileMatrix<T>::from_dense(a, opt.nb), opt);
  }

  /// Factorizes a tiled matrix in place (consumed). Plans come from the
  /// process-wide PlanCache: repeated shapes skip elimination-list
  /// generation and DAG construction entirely.
  [[nodiscard]] static TiledQr factorize(TileMatrix<T> a, Options opt) {
    TiledQr qr = prepare(std::move(a), opt);
    execute_graph(qr.plan_->graph, qr.a_, qr.t_, qr.t2_, qr.opt_.ib, qr.opt_.threads,
                  &qr.plan_->ranks);
    return qr;
  }

  /// The factored tiles: R in the upper triangle of the top q tile rows
  /// (QR), or L in the lower triangle of the left tile columns (LQ);
  /// reflector data elsewhere.
  [[nodiscard]] const TileMatrix<T>& factors() const noexcept { return a_; }
  [[nodiscard]] const Plan& plan() const noexcept { return *plan_; }
  [[nodiscard]] const Options& options() const noexcept { return opt_; }

  /// Which factorization this object holds: QR for m >= n, LQ for m < n.
  [[nodiscard]] kernels::FactorKind kind() const noexcept { return kind_; }

  /// The n x n upper-triangular R factor (QR factorizations only).
  [[nodiscard]] Matrix<T> r_factor() const {
    TILEDQR_CHECK(kind_ == kernels::FactorKind::QR, "r_factor: requires a QR factorization");
    const std::int64_t k = std::min(a_.m(), a_.n());
    Matrix<T> r(k, a_.n());
    for (std::int64_t j = 0; j < a_.n(); ++j)
      a_.read_column(j, 0, std::min(j + 1, k), r.view().col(j));
    return r;
  }

  /// The m x m lower-triangular L factor (LQ factorizations only). L = R̃^H
  /// of the dual QR, stored in A-layout in the lower triangle of the left
  /// tile columns.
  [[nodiscard]] Matrix<T> l_factor() const {
    TILEDQR_CHECK(kind_ == kernels::FactorKind::LQ, "l_factor: requires an LQ factorization");
    const std::int64_t k = std::min(a_.m(), a_.n());
    Matrix<T> l(a_.m(), k);
    for (std::int64_t j = 0; j < k; ++j) a_.read_column(j, j, a_.m(), l.view().col(j) + j);
    return l;
  }

  /// Builds the op(Q)-application DAG for a conformal tiled matrix with
  /// `c_nt` tile columns: one task per (transformation-log op, C tile
  /// column), dependencies via last-writer tracking on C's tiles. The graph
  /// only references this factorization's log, so it can be submitted to any
  /// executor (QrSession submits it asynchronously to its own pool).
  [[nodiscard]] dag::TaskGraph build_apply_graph(ApplyTrans trans, int c_nt) const {
    // Transformation log in application order. For LQ factorizations C is a
    // transposed-world matrix (its rows live in A's column space), so the
    // row index of the apply grid is the reduction grid's row count.
    std::vector<const dag::Task*> ops;
    for (const auto& task : plan_->graph.tasks)
      switch (task.kind) {
        case kernels::KernelKind::GEQRT:
        case kernels::KernelKind::TSQRT:
        case kernels::KernelKind::TTQRT:
        case kernels::KernelKind::GELQT:
        case kernels::KernelKind::TSLQT:
        case kernels::KernelKind::TTLQT:
          ops.push_back(&task);
          break;
        default:
          break;
      }
    if (trans == ApplyTrans::NoTrans) std::reverse(ops.begin(), ops.end());

    dag::TaskGraph g;
    g.factor = plan_->graph.factor;
    g.p = reduction_p();
    g.q = c_nt;
    std::vector<std::int32_t> last(size_t(g.p) * size_t(c_nt), -1);
    auto touch = [&](int row, int jc, std::int32_t id) {
      auto& slot = last[size_t(row) * size_t(c_nt) + size_t(jc)];
      if (slot >= 0) {
        g.tasks[size_t(slot)].succ.push_back(id);
        ++g.tasks[size_t(id)].npred;
      }
      slot = id;
    };
    auto apply_kind = [](kernels::KernelKind k) {
      switch (k) {
        case kernels::KernelKind::GEQRT:
          return kernels::KernelKind::UNMQR;
        case kernels::KernelKind::TSQRT:
          return kernels::KernelKind::TSMQR;
        case kernels::KernelKind::TTQRT:
          return kernels::KernelKind::TTMQR;
        case kernels::KernelKind::GELQT:
          return kernels::KernelKind::UNMLQ;
        case kernels::KernelKind::TSLQT:
          return kernels::KernelKind::TSMLQ;
        default:
          return kernels::KernelKind::TTMLQ;
      }
    };
    for (const auto* op : ops) {
      for (int jc = 0; jc < c_nt; ++jc) {
        auto id = std::int32_t(g.tasks.size());
        g.tasks.push_back(dag::Task{apply_kind(op->kind), op->i, op->piv, op->k, jc, 0, {}});
        if (op->piv >= 0) touch(op->piv, jc, id);
        touch(op->i, jc, id);
      }
    }
    return g;
  }

  /// Runs one task of an apply graph built by build_apply_graph against C.
  /// LQ apply kernels adjoint the reflector tile internally, so C's tiles
  /// (transposed-world operands) pass straight through.
  void run_apply_task(const dag::Task& task, ApplyTrans trans, TileMatrix<T>& c) const {
    const int ib = opt_.ib;
    switch (task.kind) {
      case kernels::KernelKind::UNMQR:
        kernels::unmqr(trans, ib, a_.tile(task.i, task.k), t_.at(task.i, task.k),
                       c.tile(task.i, task.j));
        break;
      case kernels::KernelKind::TSMQR:
        kernels::tsmqr(trans, ib, a_.tile(task.i, task.k), t_.at(task.i, task.k),
                       c.tile(task.piv, task.j), c.tile(task.i, task.j));
        break;
      case kernels::KernelKind::TTMQR:
        kernels::ttmqr(trans, ib, a_.tile(task.i, task.k), t2_.at(task.i, task.k),
                       c.tile(task.piv, task.j), c.tile(task.i, task.j));
        break;
      case kernels::KernelKind::UNMLQ:
        kernels::unmlq(trans, ib, a_.tile(task.k, task.i), t_.at(task.i, task.k),
                       c.tile(task.i, task.j));
        break;
      case kernels::KernelKind::TSMLQ:
        kernels::tsmlq(trans, ib, a_.tile(task.k, task.i), t_.at(task.i, task.k),
                       c.tile(task.piv, task.j), c.tile(task.i, task.j));
        break;
      default:
        kernels::ttmlq(trans, ib, a_.tile(task.k, task.i), t2_.at(task.i, task.k),
                       c.tile(task.piv, task.j), c.tile(task.i, task.j));
        break;
    }
  }

  /// Applies op(Q) to a tiled matrix with the same row tiling, building an
  /// application DAG over C's tiles and running it on `threads` workers
  /// (LAPACK xUNMQR's role, parallelized like the factorization itself).
  /// Results are bitwise identical to the sequential replay.
  void apply_q(ApplyTrans trans, TileMatrix<T>& c, int threads) const {
    check_operand(c, "apply_q");
    if (threads <= 1) {
      apply_q(trans, c);
      return;
    }
    dag::TaskGraph g = build_apply_graph(trans, c.nt());
    runtime::execute(
        g, [&](std::int32_t id) { run_apply_task(g.tasks[size_t(id)], trans, c); }, threads);
  }

  /// Applies op(Q) to a tiled matrix with the same row tiling (any number of
  /// columns, any column-tile width), replaying the transformation log
  /// sequentially. For an LQ factorization C is a transposed-world matrix
  /// (c.m() == a_.n()).
  void apply_q(ApplyTrans trans, TileMatrix<T>& c) const {
    check_operand(c, "apply_q");
    const int ib = opt_.ib;
    auto apply_one = [&](const dag::Task& task) {
      switch (task.kind) {
        case kernels::KernelKind::GEQRT:
          for (int jc = 0; jc < c.nt(); ++jc)
            kernels::unmqr(trans, ib, a_.tile(task.i, task.k), t_.at(task.i, task.k),
                           c.tile(task.i, jc));
          break;
        case kernels::KernelKind::TSQRT:
          for (int jc = 0; jc < c.nt(); ++jc)
            kernels::tsmqr(trans, ib, a_.tile(task.i, task.k), t_.at(task.i, task.k),
                           c.tile(task.piv, jc), c.tile(task.i, jc));
          break;
        case kernels::KernelKind::TTQRT:
          for (int jc = 0; jc < c.nt(); ++jc)
            kernels::ttmqr(trans, ib, a_.tile(task.i, task.k), t2_.at(task.i, task.k),
                           c.tile(task.piv, jc), c.tile(task.i, jc));
          break;
        case kernels::KernelKind::GELQT:
          for (int jc = 0; jc < c.nt(); ++jc)
            kernels::unmlq(trans, ib, a_.tile(task.k, task.i), t_.at(task.i, task.k),
                           c.tile(task.i, jc));
          break;
        case kernels::KernelKind::TSLQT:
          for (int jc = 0; jc < c.nt(); ++jc)
            kernels::tsmlq(trans, ib, a_.tile(task.k, task.i), t_.at(task.i, task.k),
                           c.tile(task.piv, jc), c.tile(task.i, jc));
          break;
        case kernels::KernelKind::TTLQT:
          for (int jc = 0; jc < c.nt(); ++jc)
            kernels::ttmlq(trans, ib, a_.tile(task.k, task.i), t2_.at(task.i, task.k),
                           c.tile(task.piv, jc), c.tile(task.i, jc));
          break;
        default:
          break;  // update kernels are not part of the log
      }
    };
    const auto& tasks = plan_->graph.tasks;
    if (trans == ApplyTrans::ConjTrans) {
      for (const auto& task : tasks) apply_one(task);
    } else {
      for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) apply_one(*it);
    }
  }

  /// Forms the thin Q factor explicitly: m x n with orthonormal columns for
  /// QR (m >= n), m x n with orthonormal rows for LQ (m < n).
  [[nodiscard]] Matrix<T> q_thin() const {
    if (kind_ == kernels::FactorKind::LQ) {
      // Thin Q̃ (n x m) of the dual QR, adjointed back: Q = Q̃^H.
      const std::int64_t m = a_.m();
      TileMatrix<T> c(a_.n(), m, a_.nb());
      for (std::int64_t i = 0; i < m; ++i)
        c.tile(int(i / a_.nb()), int(i / a_.nb()))(i % a_.nb(), i % a_.nb()) = T(1);
      apply_q(ApplyTrans::NoTrans, c, opt_.threads);
      Matrix<T> qt = c.to_dense();
      Matrix<T> q(m, a_.n());
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < a_.n(); ++j) q(i, j) = conj_if_complex(qt(j, i));
      return q;
    }
    TileMatrix<T> c(a_.m(), a_.n(), a_.nb());
    for (std::int64_t i = 0; i < a_.n(); ++i)
      c.tile(int(i / a_.nb()), int(i / a_.nb()))(i % a_.nb(), i % a_.nb()) = T(1);
    apply_q(ApplyTrans::NoTrans, c, opt_.threads);
    return c.to_dense();
  }

  /// The solve's apply op: Qᴴ for least squares (QR), Q̃ for the
  /// minimum-norm solve (LQ).
  [[nodiscard]] ApplyTrans solve_trans() const noexcept {
    return kind_ == kernels::FactorKind::LQ ? ApplyTrans::NoTrans : ApplyTrans::ConjTrans;
  }

  /// Solve stage 1 of start_solve -> apply solve_trans() -> finish_solve,
  /// the split every solve runs (solve_least_squares here, the session's
  /// async solves with the apply stage on the pool), so this pair alone
  /// owns the QR-vs-LQ stage order. QR tiles b; its triangular solve comes
  /// last. LQ solves L y = b first — on the logical m x m triangle, since
  /// the zero-padded tile triangle is singular — and tiles [y; 0] in the
  /// transposed-world row tiling. Either operand is nb x min(nb, nrhs)
  /// tiles (TileMatrix::operand). b is m x nrhs with nrhs >= 1.
  [[nodiscard]] TileMatrix<T> start_solve(ConstMatrixView<T> b) const {
    if (kind_ == kernels::FactorKind::QR) return TileMatrix<T>::operand(b, a_.nb());
    const std::int64_t m = a_.m();
    Matrix<T> ypad(a_.n(), b.cols());
    copy(b, ypad.sub(0, 0, m, b.cols()));
    Matrix<T> l = l_factor();
    auto head = ypad.sub(0, 0, m, b.cols());
    check_solvable(l.sub(0, 0, m, m), "L");
    blas::trsm(blas::Uplo::Lower, blas::Op::NoTrans, blas::Diag::NonUnit, T(1),
               l.sub(0, 0, m, m), head);
    return TileMatrix<T>::operand(ConstMatrixView<T>(ypad.view()), a_.nb());
  }

  /// Solve stage 3: QR solves R x = (Qᴴb)[0:n, :]; for LQ, Q̃ [y; 0] already
  /// is the minimum-norm solution.
  [[nodiscard]] Matrix<T> finish_solve(const TileMatrix<T>& c) const {
    if (kind_ == kernels::FactorKind::LQ) return c.to_dense();
    const std::int64_t n = a_.n();
    Matrix<T> x(n, c.n());
    for (std::int64_t j = 0; j < c.n(); ++j) c.read_column(j, 0, n, x.view().col(j));
    Matrix<T> r = r_factor();
    check_solvable(r.sub(0, 0, n, n), "R");
    blas::trsm(blas::Uplo::Upper, blas::Op::NoTrans, blas::Diag::NonUnit, T(1),
               r.sub(0, 0, n, n), x.view());
    return x;
  }

  /// Least squares: min_x || A x - b ||_2 for tall A (m >= n), or the
  /// minimum-norm solution of A x = b for wide A (m < n); b is m x nrhs.
  /// nrhs == 0 is a valid degenerate system (the answer is n x 0). Throws
  /// Error naming the entry when a diagonal entry of R (or L) is zero or not
  /// finite, instead of returning Inf or NaN.
  [[nodiscard]] Matrix<T> solve_least_squares(ConstMatrixView<T> b) const {
    TILEDQR_CHECK(b.rows() == a_.m(), "solve_least_squares: rhs row mismatch");
    if (b.cols() == 0) return Matrix<T>(a_.n(), 0);
    TileMatrix<T> c = start_solve(b);
    apply_q(solve_trans(), c, opt_.threads);
    return finish_solve(c);
  }

  /// Solves the square system A x = b via QR (unconditionally stable, paper
  /// §1); b is n x nrhs.
  [[nodiscard]] Matrix<T> solve(ConstMatrixView<T> b) const {
    TILEDQR_CHECK(a_.m() == a_.n(), "solve: matrix must be square");
    return solve_least_squares(b);
  }

 private:
  friend class FactorSession;

  /// Only prepare() and FactorSession build TiledQr objects: a default-
  /// constructed one would have a null plan_, so the constructor is not
  /// part of the public API.
  TiledQr() = default;

  /// Rows of the reduction grid — the tile grid the elimination tree runs
  /// on: (mt, nt) for QR, the transposed (nt, mt) for LQ. Always p >= q, so
  /// the tree generators never see a wide grid. This is also the row-tile
  /// count op(Q) application targets must match.
  [[nodiscard]] int reduction_p() const noexcept {
    return kind_ == kernels::FactorKind::LQ ? a_.nt() : a_.mt();
  }
  [[nodiscard]] int reduction_q() const noexcept {
    return kind_ == kernels::FactorKind::LQ ? a_.mt() : a_.nt();
  }

  /// Rejects a solve whose triangular factor (R, or L for the minimum-norm
  /// solve) has a zero or non-finite diagonal entry: A is rank-deficient or
  /// holds Inf/NaN, and trsm would divide by it and return Inf or NaN.
  static void check_solvable(ConstMatrixView<T> tri, const char* name) {
    for (std::int64_t i = 0; i < tri.rows(); ++i) {
      const T d = tri(i, i);
      const bool finite = std::isfinite(ScalarTraits<T>::real(d)) &&
                          std::isfinite(ScalarTraits<T>::imag(d));
      TILEDQR_CHECK(finite && d != T(0),
                    std::string("solve: ") + name + "(" + std::to_string(i) + ", " +
                        std::to_string(i) + ") is " +
                        (finite ? "zero (A is rank-deficient)"
                                : "not finite (A holds Inf or NaN)"));
    }
  }

  /// Rejects an op(Q) operand whose rows do not match the factorization: m
  /// rows for QR, n for LQ (C lives in the transposed world), tiled by the
  /// same nb. Its column count and column-tile width are free.
  void check_operand(const TileMatrix<T>& c, const char* entry) const {
    const std::int64_t rows = kind_ == kernels::FactorKind::LQ ? a_.n() : a_.m();
    TILEDQR_CHECK(c.m() == rows && c.nb() == a_.nb(),
                  std::string(entry) + ": C must have " + std::to_string(rows) +
                      " rows in tiles of " + std::to_string(a_.nb()) +
                      " to match the factorization; got " + std::to_string(c.m()) +
                      " rows in tiles of " + std::to_string(c.nb()));
  }

  /// Allocates storage and fetches the (possibly cached) plan without
  /// executing; factorize() and FactorSession's async path both start here.
  /// Routes on element shape: m < n factors by LQ on the transposed
  /// (reduction) grid, everything else by QR. A disengaged `opt.tree`
  /// resolves to the Greedy/TT default here (the session paths resolve it
  /// through the autotuner before calling); the stored options always carry
  /// the tree actually used.
  [[nodiscard]] static TiledQr prepare(TileMatrix<T> a, Options opt,
                                       PlanCache& cache = PlanCache::default_cache()) {
    TiledQr qr;
    TILEDQR_CHECK(opt.ib >= 1, "Options::ib must be >= 1");
    TILEDQR_CHECK(a.w() == a.nb(),
                  "factorization input must have square nb x nb tiles (TileMatrix::operand "
                  "tiles op(Q) operands, not factorization inputs)");
    if (opt.threads <= 0) opt.threads = default_thread_count();
    if (!opt.tree) opt.tree = trees::TreeConfig{};
    qr.opt_ = opt;
    qr.a_ = std::move(a);
    qr.kind_ =
        qr.a_.m() < qr.a_.n() ? kernels::FactorKind::LQ : kernels::FactorKind::QR;
    const int rp = qr.reduction_p(), rq = qr.reduction_q();
    qr.plan_ = cache.get(rp, rq, *opt.tree, qr.kind_);
    qr.t_ = TStore<T>(rp, rq, opt.ib, qr.a_.nb());
    qr.t2_ = TStore<T>(rp, rq, opt.ib, qr.a_.nb());
    return qr;
  }

  Options opt_;
  TileMatrix<T> a_;
  kernels::FactorKind kind_ = kernels::FactorKind::QR;
  std::shared_ptr<const Plan> plan_;
  TStore<T> t_;
  TStore<T> t2_;
};

}  // namespace tiledqr::core
