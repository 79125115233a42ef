// TiledQr<T>: the public entry point of the library.
//
//   auto qr = TiledQr<double>::factorize(a, options);   // A = Q R  (m >= n)
//   Matrix<double> r = qr.r_factor();                   //          or A = L Q
//   Matrix<double> q = qr.q_thin();                     //          (m < n)
//   Matrix<double> x = qr.solve_least_squares(b);       // min ||A x - b||,
//                                                       // min-norm when wide
//
// The factorization routes on shape. A tall/square A runs the tiled QR
// column reduction on its tiles. A wide A (m < n) is tiled as Aᴴ, and its LQ
// is the same QR reduction of Aᴴ: the paper's algorithms for p >= q tile
// grids, each LQ task kind running its QR dual in place, so A = L Q with
// L = R̃ᴴ and Q = Q̃ᴴ. Either way the selected tiled algorithm (Greedy by
// default) runs through the dataflow runtime; the factored tiles retain the
// full transformation log (GEQRT reflectors below the diagonal, TT
// reflector tails above it, block factors in the T/T2 stores), so op(Q) can
// be applied to anything afterwards (LAPACK xORMQR/xORMLQ-style).
#pragma once

#include <algorithm>
#include <cmath>
#include <mutex>
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

/// A factorization input in its reduction layout: A's tiles for QR (m >= n),
/// Aᴴ's for LQ (m < n), so the grid the elimination tree runs on always has
/// p >= q. The factor kind travels with the tiles from the tiling step to
/// TiledQr::prepare; nothing reads it back from the grid.
template <typename T>
struct ReductionTiles {
  TileMatrix<T> tiles;
  kernels::FactorKind kind = kernels::FactorKind::QR;

  /// Tiles dense A in nb x nb tiles; a wide A goes straight into Aᴴ's.
  [[nodiscard]] static ReductionTiles from_dense(ConstMatrixView<T> a, int nb) {
    if (a.rows() >= a.cols()) return {TileMatrix<T>::from_dense(a, nb), kernels::FactorKind::QR};
    return {TileMatrix<T>::from_dense_adjoint(a, nb), kernels::FactorKind::LQ};
  }

  /// A caller-tiled A (consumed); a wide one is adjointed tile by tile in
  /// its own storage.
  [[nodiscard]] static ReductionTiles from_tiles(TileMatrix<T> a) {
    TILEDQR_CHECK(a.w() == a.nb(),
                  "factorization input must have square nb x nb tiles (TileMatrix::operand "
                  "tiles op(Q) operands, not factorization inputs)");
    if (a.m() >= a.n()) return {std::move(a), kernels::FactorKind::QR};
    return {std::move(a).adjoint(), kernels::FactorKind::LQ};
  }

  /// A's row count, the rows a right-hand side must have.
  [[nodiscard]] std::int64_t rhs_rows() const noexcept {
    return kind == kernels::FactorKind::LQ ? tiles.n() : tiles.m();
  }
};

/// Runs one DAG task's kernel on the tile storage (shared by TiledQr and
/// perfbench). Task coordinates are tiles of the reduction layout, Aᴴ's for
/// LQ, so an LQ kind runs its QR dual in place and no task copies anything.
template <typename T>
void run_task_kernels(const dag::Task& t, TileMatrix<T>& a, TStore<T>& ts, TStore<T>& t2s,
                      int ib) {
  switch (kernels::qr_dual(t.kind)) {
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
    default:
      break;  // qr_dual yields QR kinds only
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
  /// Factorizes a dense matrix (copied into tiled layout: Aᴴ's when wide).
  [[nodiscard]] static TiledQr factorize(ConstMatrixView<T> a, const Options& opt) {
    return run(prepare(ReductionTiles<T>::from_dense(a, opt.nb), opt));
  }

  /// Factorizes a tiled matrix in place (consumed; a wide one is adjointed
  /// in its own storage first). Plans come from the process-wide PlanCache:
  /// repeated shapes skip elimination-list generation and DAG construction
  /// entirely.
  [[nodiscard]] static TiledQr factorize(TileMatrix<T> a, Options opt) {
    return run(prepare(ReductionTiles<T>::from_tiles(std::move(a)), opt));
  }

  /// The factored tiles in A's m x n layout: R in the upper triangle of the
  /// top q tile rows (QR), or L in the lower triangle of the left tile
  /// columns (LQ); reflector data elsewhere. An LQ factorization holds
  /// Aᴴ's tiles, so its first call builds A's layout (a tile-by-tile
  /// adjoint) and keeps it; concurrent calls are safe.
  [[nodiscard]] const TileMatrix<T>& factors() const {
    if (kind_ == kernels::FactorKind::QR) return a_;
    std::call_once(a_layout_->built, [&] { a_layout_->tiles = a_.adjoint(); });
    return a_layout_->tiles;
  }
  [[nodiscard]] const Plan& plan() const noexcept { return *plan_; }
  [[nodiscard]] const Options& options() const noexcept { return opt_; }

  /// Which factorization this object holds: QR for m >= n, LQ for m < n.
  [[nodiscard]] kernels::FactorKind kind() const noexcept { return kind_; }

  /// A's shape (an LQ factorization's tiles hold Aᴴ's n x m).
  [[nodiscard]] std::int64_t m() const noexcept {
    return kind_ == kernels::FactorKind::LQ ? a_.n() : a_.m();
  }
  [[nodiscard]] std::int64_t n() const noexcept {
    return kind_ == kernels::FactorKind::LQ ? a_.m() : a_.n();
  }

  /// The n x n upper-triangular R factor (QR factorizations only).
  [[nodiscard]] Matrix<T> r_factor() const {
    TILEDQR_CHECK(kind_ == kernels::FactorKind::QR, "r_factor: requires a QR factorization");
    return triangle();
  }

  /// The m x m lower-triangular L factor (LQ factorizations only): L = R̃ᴴ,
  /// R̃ being the triangle of the QR of Aᴴ that the tiles hold. The adjoint
  /// conjugates R̃'s zeros below the diagonal to (0, -0) for complex T, so
  /// the part above L's diagonal is zeroed again.
  [[nodiscard]] Matrix<T> l_factor() const {
    TILEDQR_CHECK(kind_ == kernels::FactorKind::LQ, "l_factor: requires an LQ factorization");
    const Matrix<T> r = triangle();
    Matrix<T> l(r.cols(), r.rows());
    adjoint_copy(r.view(), l.view());
    for (std::int64_t j = 1; j < l.cols(); ++j) std::fill_n(l.view().col(j), j, T(0));
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
    // apply grid has the reduction grid's rows either way.
    std::vector<const dag::Task*> ops;
    for (const auto& task : plan_->graph.tasks)
      switch (kernels::qr_dual(task.kind)) {
        case kernels::KernelKind::GEQRT:
        case kernels::KernelKind::TSQRT:
        case kernels::KernelKind::TTQRT:
          ops.push_back(&task);
          break;
        default:
          break;
      }
    if (trans == ApplyTrans::NoTrans) std::reverse(ops.begin(), ops.end());

    dag::TaskGraph g;
    g.factor = plan_->graph.factor;
    g.p = a_.mt();
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

  /// Runs one task of an apply graph built by build_apply_graph against C;
  /// an LQ kind runs its QR dual, as in the factorization.
  void run_apply_task(const dag::Task& task, ApplyTrans trans, TileMatrix<T>& c) const {
    const int ib = opt_.ib;
    const auto v = a_.tile(task.i, task.k);
    switch (kernels::qr_dual(task.kind)) {
      case kernels::KernelKind::UNMQR:
        kernels::unmqr(trans, ib, v, t_.at(task.i, task.k), c.tile(task.i, task.j));
        break;
      case kernels::KernelKind::TSMQR:
        kernels::tsmqr(trans, ib, v, t_.at(task.i, task.k), c.tile(task.piv, task.j),
                       c.tile(task.i, task.j));
        break;
      default:
        kernels::ttmqr(trans, ib, v, t2_.at(task.i, task.k), c.tile(task.piv, task.j),
                       c.tile(task.i, task.j));
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
  /// columns, any column-tile width), replaying the apply graph's tasks
  /// sequentially in their emission order. For an LQ factorization C is a
  /// transposed-world matrix (c.m() == n()).
  void apply_q(ApplyTrans trans, TileMatrix<T>& c) const {
    check_operand(c, "apply_q");
    for (const auto& task : build_apply_graph(trans, c.nt()).tasks) run_apply_task(task, trans, c);
  }

  /// Forms the thin Q factor explicitly: m x n with orthonormal columns for
  /// QR (m >= n), m x n with orthonormal rows for LQ (m < n), where it is
  /// the adjoint of the thin Q̃ of the QR of Aᴴ.
  [[nodiscard]] Matrix<T> q_thin() const {
    TileMatrix<T> c(a_.m(), a_.n(), a_.nb());
    for (std::int64_t i = 0; i < a_.n(); ++i)
      c.tile(int(i / a_.nb()), int(i / a_.nb()))(i % a_.nb(), i % a_.nb()) = T(1);
    apply_q(ApplyTrans::NoTrans, c, opt_.threads);
    return kind_ == kernels::FactorKind::LQ ? std::move(c).adjoint().to_dense() : c.to_dense();
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
  /// last. LQ solves L y = R̃ᴴ y = b first — on the logical m x m triangle,
  /// since the zero-padded tile triangle is singular — and tiles [y; 0] in
  /// the transposed-world row tiling. Either operand is nb x min(nb, nrhs)
  /// tiles (TileMatrix::operand). b is m x nrhs with nrhs >= 1.
  [[nodiscard]] TileMatrix<T> start_solve(ConstMatrixView<T> b) const {
    if (kind_ == kernels::FactorKind::QR) return TileMatrix<T>::operand(b, a_.nb());
    Matrix<T> ypad(a_.m(), b.cols());
    auto head = ypad.sub(0, 0, b.rows(), b.cols());
    copy(b, head);
    const Matrix<T> r = triangle();
    check_solvable(r.view(), "L");
    blas::trsm(blas::Uplo::Upper, blas::Op::ConjTrans, blas::Diag::NonUnit, T(1), r.view(),
               head);
    return TileMatrix<T>::operand(ConstMatrixView<T>(ypad.view()), a_.nb());
  }

  /// Solve stage 3: QR solves R x = (Qᴴb)[0:n, :]; for LQ, Q̃ [y; 0] already
  /// is the minimum-norm solution.
  [[nodiscard]] Matrix<T> finish_solve(const TileMatrix<T>& c) const {
    if (kind_ == kernels::FactorKind::LQ) return c.to_dense();
    const std::int64_t n = a_.n();
    Matrix<T> x(n, c.n());
    for (std::int64_t j = 0; j < c.n(); ++j) c.read_column(j, 0, n, x.view().col(j));
    const Matrix<T> r = triangle();
    check_solvable(r.view(), "R");
    blas::trsm(blas::Uplo::Upper, blas::Op::NoTrans, blas::Diag::NonUnit, T(1), r.view(),
               x.view());
    return x;
  }

  /// Least squares: min_x || A x - b ||_2 for tall A (m >= n), or the
  /// minimum-norm solution of A x = b for wide A (m < n); b is m x nrhs.
  /// nrhs == 0 is a valid degenerate system (the answer is n x 0). Throws
  /// Error naming the entry when a diagonal entry of R (or L) is zero or not
  /// finite, instead of returning Inf or NaN.
  [[nodiscard]] Matrix<T> solve_least_squares(ConstMatrixView<T> b) const {
    TILEDQR_CHECK(b.rows() == m(), "solve_least_squares: rhs row mismatch");
    if (b.cols() == 0) return Matrix<T>(n(), 0);
    TileMatrix<T> c = start_solve(b);
    apply_q(solve_trans(), c, opt_.threads);
    return finish_solve(c);
  }

  /// Solves the square system A x = b via QR (unconditionally stable, paper
  /// §1); b is n x nrhs.
  [[nodiscard]] Matrix<T> solve(ConstMatrixView<T> b) const {
    TILEDQR_CHECK(m() == n(), "solve: matrix must be square");
    return solve_least_squares(b);
  }

 private:
  friend class FactorSession;

  /// Only prepare() and FactorSession build TiledQr objects: a default-
  /// constructed one would have a null plan_, so the constructor is not
  /// part of the public API.
  TiledQr() = default;

  /// Executes a prepared factorization on its own threads.
  [[nodiscard]] static TiledQr run(TiledQr qr) {
    execute_graph(qr.plan_->graph, qr.a_, qr.t_, qr.t2_, qr.opt_.ib, qr.opt_.threads,
                  &qr.plan_->ranks);
    return qr;
  }

  /// The reduction's upper triangle from the tiles, min(m, n) square: R for
  /// QR, R̃ (L = R̃ᴴ) for LQ.
  [[nodiscard]] Matrix<T> triangle() const {
    Matrix<T> r(a_.n(), a_.n());
    for (std::int64_t j = 0; j < a_.n(); ++j) a_.read_column(j, 0, j + 1, r.view().col(j));
    return r;
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
    const std::int64_t rows = a_.m();
    TILEDQR_CHECK(c.m() == rows && c.nb() == a_.nb(),
                  std::string(entry) + ": C must have " + std::to_string(rows) +
                      " rows in tiles of " + std::to_string(a_.nb()) +
                      " to match the factorization; got " + std::to_string(c.m()) +
                      " rows in tiles of " + std::to_string(c.nb()));
  }

  /// Allocates storage and fetches the (possibly cached) plan without
  /// executing; factorize() and FactorSession's async path both start here.
  /// The tiles arrive in their reduction layout with their factor kind, and
  /// the plan runs on their grid under that kind. A disengaged `opt.tree`
  /// resolves to the Greedy/TT default here (the session paths resolve it
  /// through the autotuner before calling); the stored options always carry
  /// the tree actually used.
  [[nodiscard]] static TiledQr prepare(ReductionTiles<T> in, Options opt,
                                       PlanCache& cache = PlanCache::default_cache()) {
    TiledQr qr;
    TILEDQR_CHECK(opt.ib >= 1, "Options::ib must be >= 1");
    TILEDQR_ASSERT(in.tiles.w() == in.tiles.nb());
    if (opt.threads <= 0) opt.threads = default_thread_count();
    if (!opt.tree) opt.tree = trees::TreeConfig{};
    qr.opt_ = opt;
    qr.a_ = std::move(in.tiles);
    qr.kind_ = in.kind;
    if (qr.kind_ == kernels::FactorKind::LQ) qr.a_layout_ = std::make_shared<ALayout>();
    const int p = qr.a_.mt(), q = qr.a_.nt();
    qr.plan_ = cache.get(p, q, *opt.tree, qr.kind_);
    qr.t_ = TStore<T>(p, q, opt.ib, qr.a_.nb());
    qr.t2_ = TStore<T>(p, q, opt.ib, qr.a_.nb());
    return qr;
  }

  /// An LQ factorization's tiles in A's layout, built by the first
  /// factors() call.
  struct ALayout {
    std::once_flag built;
    TileMatrix<T> tiles;
  };

  Options opt_;
  TileMatrix<T> a_;  ///< the factored tiles in their reduction layout
  kernels::FactorKind kind_ = kernels::FactorKind::QR;
  std::shared_ptr<ALayout> a_layout_;  ///< LQ only
  std::shared_ptr<const Plan> plan_;
  TStore<T> t_;
  TStore<T> t2_;
};

}  // namespace tiledqr::core
