// FactorSession: the batched / asynchronous / streaming serving front end
// (QrSession remains as an alias from when the session was QR-only).
//
// A session owns a persistent worker pool and a plan cache and amortizes
// both across many factorizations — the "heavy traffic of repeated, often
// small, QRs" regime where per-call thread start-up and planning dominate
// flops. Every entry path routes on shape: tall/square inputs factor by QR,
// wide inputs (m < n) by LQ on the transposed (reduction) grid; solves are
// least squares for tall inputs and minimum norm for wide ones.
//
//   core::FactorSession session;                   // pool + plan cache
//   auto fut = session.submit<double>(a.view(), opt);
//   ...                                            // overlap with other work
//   core::TiledQr<double> qr = fut.get();          // rethrows task errors
//
//   auto qrs = session.factorize_batch<double>(views, opt);  // 64 small QRs
//
//   auto x = session.solve_least_squares_async<double>(a.view(), b.view(), opt);
//   Matrix<double> sol = x.get();                  // factor DAG, then apply DAG
//
//   auto qr2 = session.factorize_auto<double>(a.view());  // no TreeConfig:
//   ...                       // the tree autotuner picks the paper-optimal
//   ...                       // algorithm for (shape, pool size)
//
//   auto stream = session.stream<double>();        // streaming fusion
//   auto f1 = stream.push(a1.view());              // futures immediately;
//   auto s2 = stream.push_solve(a2.view(), b2.view());  // pushes coalesce
//   stream.close();                                // into fused grafts
//
// One request path. Every entry point — submit, submit_batch, both
// solve_least_squares_async overloads, apply_q_async, and every FactorStream
// push — admits a detail::Request and hands it to FactorSession::launch():
//
//   * The request record holds its factorization (apply_q_async and the solve
//     against a finished factorization borrow the caller's), a solve's rhs or
//     the apply operand, and a stage that advances Factoring -> Applying ->
//     Done, each step once, by CAS, asserted in debug builds.
//   * launch() picks one graph for a component's parts — a lone part's own
//     plan, the PlanCache's fused plan for parts sharing a plan (one deal, one
//     cached scheduling-key vector), else one ad-hoc fusion — arms a per-part
//     sentinel (the last retiring task of a fused part ends its stage, so
//     parts resolve as they drain) and makes the component one pool
//     submission. The completion callback settles the rest: a lone part's
//     stage, and the parts a cancelled component left unfinished. A solve's
//     factor stage ends by building its apply stage (TiledQr::start_solve
//     owns the QR-vs-LQ stage order), its apply stage with
//     TiledQr::finish_solve.
//   * The request's Route decides when components launch and how many
//     workers each may occupy: one-shot entry points launch at once under
//     the caller's worker cap, so concurrent one-shots never wait behind each
//     other; a FactorStream launches its grafts under the stream's cap when
//     its cork, watermark, deadline and backpressure policy says so.
//
// So a submit is a one-part batch, a homogeneous batch one fused component,
// a solve two components (factor, apply), and a streamed burst one graft per
// plan plus one fused graft for all its ready solve tails.
//
// Auto mode: wherever `Options::tree` is left disengaged, the batch, solve
// and stream paths route the shape through the session's tree autotuner
// (choose_tree_for) — per input shape, memoized in the TuningTable — so
// serving traffic never hand-picks a TreeConfig. The plain submit() keeps
// the explicit-options contract (disengaged tree = the Greedy paper
// default); use submit_auto for tuned single factorizations.
//
// Results are bitwise identical to TiledQr<T>::factorize and
// solve_least_squares on the same input and tree: the same plan, the same
// kernels, and tasks that write disjoint regions.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/stringf.hpp"
#include "common/timer.hpp"
#include "core/plan_cache.hpp"
#include "core/tiled_qr.hpp"
#include "obs/metrics.hpp"
#include "obs/schedule_report.hpp"
#include "runtime/thread_pool.hpp"
#include "tuner/tuner.hpp"

namespace tiledqr::core {

class FactorSession;
template <typename T>
class FactorStream;

namespace detail {

/// A request's lifecycle. Each step is taken exactly once, by CAS, and
/// asserted: a request can never resolve twice, and a cancelled component's
/// mop-up fails exactly the parts still at the stage it ran them through.
enum class Stage : std::uint8_t { Factoring, Applying, Done };

template <typename T>
struct Request;

/// How many workers a request's components may occupy and who hears of its
/// progress: the session's one-shot entry points (FactorSession::OneShot) or
/// a stream (FactorStream::State).
template <typename T>
struct Route {
  Route() = default;
  Route(const Route&) = delete;
  Route& operator=(const Route&) = delete;
  virtual ~Route() = default;
  /// The ThreadPool worker cap of a component of `parts` requests; 0 = the
  /// whole pool.
  [[nodiscard]] virtual int workers(int parts) const = 0;
  /// A request's apply stage is built; called by the task that ended its
  /// factor stage (or by the entry point, for a borrowed factorization).
  virtual void apply_ready(std::shared_ptr<Request<T>> req) = 0;
  /// A component sent on this route retired, or failed to launch.
  virtual void retired() {}
  /// A request on this route settled its future.
  virtual void resolved(const Request<T>&) {}
};

/// One request from admission to resolution: the record every session entry
/// point and every stream push shares.
template <typename T>
struct Request {
  /// The future's value type is the request's goal: a factorization, a
  /// solve, or op(Q)·C.
  using Promise = std::variant<std::promise<TiledQr<T>>, std::promise<Matrix<T>>,
                               std::promise<TileMatrix<T>>>;

  Request(std::shared_ptr<Route<T>> r, Promise p) : route(std::move(r)), promise(std::move(p)) {}

  /// A new request on `route`; `future` receives its result.
  template <typename R>
  [[nodiscard]] static std::shared_ptr<Request> open(std::shared_ptr<Route<T>> route,
                                                     std::future<R>& future) {
    std::promise<R> promise;
    future = promise.get_future();
    return std::make_shared<Request>(std::move(route), std::move(promise));
  }

  std::shared_ptr<Route<T>> route;
  Promise promise;
  std::atomic<Stage> stage{Stage::Factoring};
  /// The per-part sentinel: this part's tasks in the live component that
  /// have yet to retire.
  std::atomic<std::int32_t> remaining{0};
  std::optional<TiledQr<T>> qr;          ///< its factorization; empty if apply-only
  const TiledQr<T>* borrowed = nullptr;  ///< apply-only: the caller's factorization
  Matrix<T> b;                           ///< solves: the rhs, input of start_solve
  TileMatrix<T> c;                       ///< the apply stage's operand and result
  ApplyTrans trans = ApplyTrans::ConjTrans;
  /// The apply stage as a plan: its op(Q) graph plus scheduling ranks (no
  /// elimination list).
  std::shared_ptr<const Plan> apply_plan;
  std::int64_t admit_ns = 0;  ///< stream requests: admission stamp (latency)

  [[nodiscard]] const TiledQr<T>& factorization() const noexcept {
    return borrowed ? *borrowed : *qr;
  }
  [[nodiscard]] bool solving() const noexcept { return promise.index() == 1; }
  /// Whether an apply stage follows the factor stage: op(Q)·C requests, and
  /// solves with at least one rhs column.
  [[nodiscard]] bool applies() const noexcept {
    return promise.index() == 2 || (solving() && b.cols() > 0);
  }

  /// Stage `s` drained. After the factor stage a request with an apply
  /// stage builds it on the finished factorization and hands it to its
  /// route; every other request resolves.
  static void stage_done(const std::shared_ptr<Request>& req, Stage s) {
    if (s == Stage::Applying || !req->applies()) {
      req->resolve();
      return;
    }
    req->advance(Stage::Factoring, Stage::Applying);
    try {
      const TiledQr<T>& f = req->factorization();
      if (req->solving()) {
        req->c = f.start_solve(ConstMatrixView<T>(req->b.view()));
        req->trans = f.solve_trans();
      }
      Plan apply;
      apply.graph = f.build_apply_graph(req->trans, req->c.nt());
      apply.ranks = runtime::downward_ranks(apply.graph);
      req->apply_plan = std::make_shared<const Plan>(std::move(apply));
    } catch (...) {
      req->fail(std::current_exception());
      return;
    }
    req->route->apply_ready(req);
  }

  /// Settles the future with the request's value — the factorization, the
  /// solve's finish_solve, or op(Q)·C — and tells the route. A throwing
  /// solve tail fails the request instead.
  void resolve() {
    finish();
    try {
      if (auto* factored = std::get_if<0>(&promise))
        factored->set_value(std::move(*qr));
      else if (auto* solved = std::get_if<1>(&promise))
        solved->set_value(b.cols() == 0 ? Matrix<T>(factorization().n(), 0)
                                        : factorization().finish_solve(c));
      else
        std::get<2>(promise).set_value(std::move(c));
    } catch (...) {
      std::visit([](auto& p) { p.set_exception(std::current_exception()); }, promise);
    }
    route->resolved(*this);
  }

  /// Settles the future with `error` and tells the route.
  void fail(std::exception_ptr error) {
    finish();
    std::visit([&](auto& p) { p.set_exception(error); }, promise);
    route->resolved(*this);
  }

 private:
  void advance(Stage from, Stage to) {
    const bool won = stage.compare_exchange_strong(from, to, std::memory_order_acq_rel);
    TILEDQR_ASSERT(won);
    (void)won;
  }
  /// The last step, from whichever stage the request is at.
  void finish() {
    const Stage at = stage.load(std::memory_order_acquire);
    TILEDQR_ASSERT(at != Stage::Done);
    advance(at, Stage::Done);
  }
};

}  // namespace detail

class FactorSession {
 public:
  struct Config {
    /// Worker count of the session pool; 0 = TILEDQR_THREADS or hardware
    /// concurrency (the library-wide default rule).
    int threads = 0;
    /// Auto-mode tuning knobs (weight profile, stage-2 refinement, table
    /// persistence path); see tuner::TunerConfig.
    tuner::TunerConfig tuner{};
  };

  /// Auto-mode options: like Options but without a TreeConfig — the tuner
  /// supplies the algorithm, that is the point.
  struct AutoOptions {
    int nb = 128;     ///< tile size (dense inputs; pre-tiled inputs keep theirs)
    int ib = 32;      ///< inner blocking of the kernels
    int threads = 0;  ///< per-request worker cap; 0 = whole pool
  };

  /// What a push does when the stream already holds `max_queued` unresolved
  /// requests: Block parks the pushing thread on the stream's retirement
  /// condvar until a slot frees (bounded server memory, lossless); Reject
  /// resolves the returned future immediately with an Error (fast-fail, the
  /// caller sheds load).
  enum class StreamOverflow { Block, Reject };

  /// Per-stream options (see stream()). Pushes of any tile-grid shape are
  /// accepted; `tree` pins one algorithm for every push, disengaged routes
  /// each pushed shape through the autotuner. The QoS knobs below all
  /// default to the pre-QoS policy (unbounded admission, graft on idle, no
  /// deadline), so a default-constructed stream behaves — and schedules —
  /// exactly as before.
  struct StreamOptions {
    int nb = 128;          ///< tile size for dense pushes
    int ib = 32;           ///< inner blocking of the kernels
    int threads = 0;       ///< worker cap of each graft; 0 = whole pool
    int max_pending = 32;  ///< coalescing bound: a flush is forced at this depth
    std::optional<trees::TreeConfig> tree{};  ///< disengaged = autotune per shape
    /// Backpressure: bound on requests admitted but not yet resolved
    /// (pending + grafted + chained solve stages). 0 = unbounded. A request
    /// holds its slot from admission — before tiling, so a blocked or
    /// rejected push allocates nothing — until its future resolves.
    int max_queued = 0;
    StreamOverflow overflow = StreamOverflow::Block;  ///< policy at max_queued
    /// Watermark flush policy: graft the backlog whenever the number of
    /// in-flight grafts is <= this. 0 (default) grafts only when the stream
    /// runs dry; 1 keeps one graft queued behind the live one, so workers
    /// flow straight from the live graft's tail into the next one at the
    /// cost of shallower coalescing.
    int low_watermark = 0;
    /// > 0: cap on how long an uncorked request may sit in the coalescing
    /// backlog before it is grafted regardless of the watermark (a dedicated
    /// deadline thread is spawned for the stream's lifetime). 0 = no cap.
    /// Corked backlogs are exempt: cork() is an explicit promise.
    std::chrono::steady_clock::duration flush_deadline{0};
    /// Metrics name of the stream in the global registry: its counters and
    /// request-latency histogram export as "stream.<label>.*". Empty picks a
    /// unique "stream<N>" — set it when a process runs several streams whose
    /// stats a dashboard must tell apart (e.g. "bulk" vs "interactive").
    std::string label;
  };

  FactorSession() : pool_(0) {}
  explicit FactorSession(Config config)
      : tuner_(std::move(config.tuner)), pool_(config.threads) {}

  FactorSession(const FactorSession&) = delete;
  FactorSession& operator=(const FactorSession&) = delete;

  /// Asynchronous factorization of a dense matrix (copied into tiled
  /// layout on the calling thread, where a tiling error throws). The future
  /// resolves once every kernel has run; task exceptions surface through
  /// future::get().
  template <typename T>
  [[nodiscard]] std::future<TiledQr<T>> submit(ConstMatrixView<T> a, const Options& opt) {
    ReductionTiles<T> in = ReductionTiles<T>::from_dense(a, opt.nb);
    return submit_one<T>([&] { return std::move(in); }, opt);
  }

  /// Asynchronous factorization of a tiled matrix (consumed) — a batch of
  /// one, so it runs its own plan as one pool submission.
  /// `opt.threads > 0` caps how many pool workers this one factorization may
  /// occupy; 0 lets it spread over the whole pool. Caps above the pool size
  /// clamp to the pool, so 0, negative, and over-pool requests all mean
  /// "whole pool" — the invariant every session path shares.
  template <typename T>
  [[nodiscard]] std::future<TiledQr<T>> submit(TileMatrix<T> a, const Options& opt) {
    return submit_one<T>([&] { return ReductionTiles<T>::from_tiles(std::move(a)); }, opt);
  }

  /// Asynchronous batched factorization: fuses the batch into ONE pool
  /// submission (see the header comment) and returns one future per input,
  /// in input order. Futures resolve independently as their component of the
  /// fused DAG drains. Inputs that fail to tile or plan resolve their future
  /// with the exception without poisoning the rest; a kernel failure at run
  /// time cancels the remainder of the fused submission, so completed
  /// matrices keep their values and unfinished ones observe the error.
  /// `opt.threads > 0` keeps its per-matrix meaning: the fused submission is
  /// capped to opt.threads x batch-size workers (clamped to the pool), the
  /// aggregate concurrency the same batch got as per-matrix submissions.
  /// A disengaged `opt.tree` is routed through the autotuner per input shape.
  template <typename T>
  [[nodiscard]] std::vector<std::future<TiledQr<T>>> submit_batch(
      std::span<const ConstMatrixView<T>> mats, const Options& opt) {
    return one_shot<TiledQr<T>, T>(
        mats.size(),
        [&mats, nb = opt.nb](size_t i) { return ReductionTiles<T>::from_dense(mats[i], nb); },
        {}, opt);
  }

  template <typename T>
  [[nodiscard]] std::vector<std::future<TiledQr<T>>> submit_batch(
      const std::vector<ConstMatrixView<T>>& mats, const Options& opt) {
    return submit_batch(std::span<const ConstMatrixView<T>>(mats), opt);
  }

  /// Pre-tiled flavor of submit_batch (inputs consumed) — the zero-copy path
  /// for servers that keep request matrices in tiled layout.
  template <typename T>
  [[nodiscard]] std::vector<std::future<TiledQr<T>>> submit_batch(
      std::vector<TileMatrix<T>> mats, const Options& opt) {
    return one_shot<TiledQr<T>, T>(
        mats.size(),
        [&mats](size_t i) { return ReductionTiles<T>::from_tiles(std::move(mats[i])); }, {},
        opt);
  }

  /// Blocking batched factorization (one fused DAG; see submit_batch).
  /// Results are in input order. After every component has drained the first
  /// exception is rethrown; when several inputs failed, the rethrown Error
  /// carries the first failure's message plus how many siblings also failed,
  /// so multi-failure batches are diagnosable from one what().
  template <typename T>
  [[nodiscard]] std::vector<TiledQr<T>> factorize_batch(std::span<const ConstMatrixView<T>> mats,
                                                        const Options& opt) {
    return collect_batch(submit_batch(mats, opt));
  }

  template <typename T>
  [[nodiscard]] std::vector<TiledQr<T>> factorize_batch(
      const std::vector<ConstMatrixView<T>>& mats, const Options& opt) {
    return factorize_batch(std::span<const ConstMatrixView<T>>(mats), opt);
  }

  template <typename T>
  [[nodiscard]] std::vector<TiledQr<T>> factorize_batch(std::vector<TileMatrix<T>> mats,
                                                        const Options& opt) {
    return collect_batch(submit_batch(std::move(mats), opt));
  }

  /// Opens a stream on the session pool: a FactorStream whose
  /// push()/push_solve() return futures immediately and coalesce into fused
  /// grafts (see the header comment). The stream must not outlive the
  /// session. `opt.threads` caps the pool workers each graft may occupy
  /// (same clamping rule as everywhere).
  template <typename T>
  [[nodiscard]] FactorStream<T> stream(StreamOptions opt = {});

  /// Applies op(Q) of a finished factorization to tiled C, asynchronously on
  /// the session pool (no blocking). `qr` is borrowed and must stay alive
  /// until the future resolves; C is consumed and handed back through the
  /// future. Results are bitwise identical to qr.apply_q(trans, c, ...) on
  /// the same input.
  template <typename T>
  [[nodiscard]] std::future<TileMatrix<T>> apply_q_async(const TiledQr<T>& qr, ApplyTrans trans,
                                                         TileMatrix<T> c) {
    return borrow<TileMatrix<T>>(qr, [&](detail::Request<T>& req) {
      qr.check_operand(c, "apply_q_async");
      req.trans = trans;
      req.c = std::move(c);
    });
  }

  /// The factorization is borrowed until the future resolves — a temporary
  /// would dangle under the in-flight tasks, so rvalues are rejected.
  template <typename T>
  std::future<TileMatrix<T>> apply_q_async(TiledQr<T>&&, ApplyTrans, TileMatrix<T>) = delete;

  /// Solve against a finished factorization: the apply stage on the pool
  /// between TiledQr's start_solve and finish_solve, which run here (for
  /// LQ, the L⁻¹b head) and on the worker that retires the apply DAG (for
  /// QR, the trsm tail). `qr` is borrowed and must stay alive until the
  /// future resolves.
  template <typename T>
  [[nodiscard]] std::future<Matrix<T>> solve_least_squares_async(const TiledQr<T>& qr,
                                                                 ConstMatrixView<T> b) {
    return borrow<Matrix<T>>(
        qr, [&](detail::Request<T>& req) { req.b = copy_rhs(b, qr.m()); });
  }

  template <typename T>
  std::future<Matrix<T>> solve_least_squares_async(TiledQr<T>&&, ConstMatrixView<T>) = delete;

  /// The full solve on the session pool: two DAG stages — factorize A, then
  /// apply op(Q) to the rhs — with TiledQr's start_solve/finish_solve around
  /// the second, each run by the worker that ends the stage before (no
  /// intermediate blocking). Tall A: least squares, its trsm last. Wide A:
  /// the minimum-norm solution, its L y = b trsm first. `opt.threads > 0`
  /// caps the workers either stage may occupy; a disengaged `opt.tree` is
  /// routed through the autotuner for A's reduction-grid shape.
  template <typename T>
  [[nodiscard]] std::future<Matrix<T>> solve_least_squares_async(ConstMatrixView<T> a,
                                                                 ConstMatrixView<T> b,
                                                                 Options opt) {
    return std::move(
        one_shot<Matrix<T>, T>(
            1, [&](size_t) { return ReductionTiles<T>::from_dense(a, opt.nb); }, b, opt)
            .front());
  }

  // ------------------------------------------------------------- auto mode --
  // The tuner-driven entry points: the caller supplies no TreeConfig; the
  // session picks the paper-optimal tree for (tile-grid shape, pool size)
  // via its Tuner (model ranking + optional on-pool refinement, memoized in
  // a TuningTable, TILEDQR_TREE env override honored). Results are bitwise
  // identical to submitting the chosen config explicitly — auto mode only
  // decides, the execution path is the same submit().

  /// Asynchronous auto-tuned factorization of a dense matrix. Invalid
  /// AutoOptions (nb/ib < 1) throw a descriptive Error up front — they can
  /// never reach the tile-layout conversion.
  template <typename T>
  [[nodiscard]] std::future<TiledQr<T>> submit_auto(ConstMatrixView<T> a,
                                                    const AutoOptions& opt = {}) {
    validate_auto_options(opt);
    ReductionTiles<T> in = ReductionTiles<T>::from_dense(a, opt.nb);
    const Options full{choose_tree_for(in, opt.threads), opt.nb, opt.ib, opt.threads};
    return submit_one<T>([&] { return std::move(in); }, full);
  }

  /// Asynchronous auto-tuned factorization of a tiled matrix (consumed);
  /// `opt.nb` is ignored in favor of the input's own tiling. The tuner sees
  /// the workers this request may actually occupy (`opt.threads` capped to
  /// the pool), so capped requests get the tree that is best at *their*
  /// concurrency, not the whole pool's.
  template <typename T>
  [[nodiscard]] std::future<TiledQr<T>> submit_auto(TileMatrix<T> a, const AutoOptions& opt = {}) {
    validate_auto_options(opt);
    const Options full{choose_tree_for(a, opt.threads), a.nb(), opt.ib, opt.threads};
    return submit(std::move(a), full);
  }

  /// Blocking auto-tuned factorization.
  template <typename T>
  [[nodiscard]] TiledQr<T> factorize_auto(ConstMatrixView<T> a, const AutoOptions& opt = {}) {
    return submit_auto(a, opt).get();
  }

  template <typename T>
  [[nodiscard]] TiledQr<T> factorize_auto(TileMatrix<T> a, const AutoOptions& opt = {}) {
    return submit_auto(std::move(a), opt).get();
  }

  /// The full tuning decision for a p x q tile grid on this session's pool
  /// (env override > tuning table > model + refinement): the chosen config
  /// plus how it was reached (forced / refined / model makespan).
  /// `worker_cap > 0` tunes for a request confined to that many workers
  /// (the AutoOptions::threads semantics); 0 tunes for the whole pool.
  [[nodiscard]] tuner::TunedDecision decide_tree(int p, int q, int worker_cap = 0,
                                                 kernels::FactorKind factor =
                                                     kernels::FactorKind::QR) {
    int workers = worker_cap > 0 ? std::min(worker_cap, pool_.size()) : pool_.size();
    return tuner_.decide(p, q, workers, cache_, &pool_, factor);
  }

  /// Just the chosen TreeConfig — useful to pin the auto decision into an
  /// explicit Options (e.g. for the async pipelines). (p, q) is the
  /// reduction grid the elimination tree runs on — wide inputs pass the
  /// transposed grid (see choose_tree_for).
  [[nodiscard]] trees::TreeConfig choose_tree(int p, int q, int worker_cap = 0,
                                              kernels::FactorKind factor =
                                                  kernels::FactorKind::QR) {
    return decide_tree(p, q, worker_cap, factor).config;
  }

  /// Shape-routed choose_tree for a caller-tiled A: a wide A (m < n) tunes
  /// on the transposed (reduction) grid under its LQ key, everything else on
  /// the grid as-is — the routing ReductionTiles applies, so the tuner always
  /// sees p >= q.
  template <typename T>
  [[nodiscard]] trees::TreeConfig choose_tree_for(const TileMatrix<T>& tiles,
                                                  int worker_cap = 0) {
    return tiles.m() < tiles.n()
               ? choose_tree(tiles.nt(), tiles.mt(), worker_cap, kernels::FactorKind::LQ)
               : choose_tree(tiles.mt(), tiles.nt(), worker_cap);
  }

  /// choose_tree for tiles already in their reduction layout.
  template <typename T>
  [[nodiscard]] trees::TreeConfig choose_tree_for(const ReductionTiles<T>& in,
                                                  int worker_cap = 0) {
    return choose_tree(in.tiles.mt(), in.tiles.nt(), worker_cap, in.kind);
  }

  [[nodiscard]] tuner::Tuner& tree_tuner() noexcept { return tuner_; }
  [[nodiscard]] tuner::TuningTable::Stats tuning_stats() const { return tuner_.stats(); }

  [[nodiscard]] runtime::ThreadPool& pool() noexcept { return pool_; }
  [[nodiscard]] PlanCache& plan_cache() noexcept { return cache_; }
  [[nodiscard]] PlanCache::Stats plan_cache_stats() const { return cache_.stats(); }
  [[nodiscard]] runtime::ThreadPool::Stats pool_stats() const noexcept { return pool_.stats(); }

  /// One-call live snapshot for servers (the HealthMonitor's report
  /// callback, also useful directly): the global registry metrics plus —
  /// when tracing is on — the schedule report over the current trace
  /// window, including the realized-critical-path breakdown joined against
  /// the DAG of the most recently planned factorization. Safe from any
  /// thread; reads only snapshots, never disturbs in-flight work.
  [[nodiscard]] std::string health_report() const {
    std::string out = obs::MetricsRegistry::global().snapshot().to_text();
    const auto& tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
      std::shared_ptr<const Plan> plan;
      {
        std::lock_guard<std::mutex> lock(last_plan_mu_);
        plan = last_plan_;
      }
      const obs::ScheduleReport report =
          plan ? obs::build_schedule_report(tracer, plan->graph, pool_.size())
               : obs::build_schedule_report(tracer);
      out += obs::format_schedule_report(report);
    }
    return out;
  }

 private:
  template <typename U>
  friend class FactorStream;

  /// The one-shot route: each component is capped at the request's worker
  /// cap — times the part count for a fused batch, the aggregate concurrency
  /// per-matrix submissions had (the cap arrives pre-clamped, so the product
  /// cannot overflow). A solve's apply stage launches as soon as its
  /// factorization drains.
  template <typename T>
  struct OneShot final : detail::Route<T> {
    OneShot(FactorSession& s, int c) : session(s), cap(c) {}

    int workers(int parts) const override {
      return cap > 0 ? int(std::min<long>(long(session.pool_.size()), long(cap) * long(parts)))
                     : 0;
    }
    void apply_ready(std::shared_ptr<detail::Request<T>> req) override {
      session.launch<T>({std::move(req)});
    }

    FactorSession& session;
    int cap;  ///< ThreadPool worker cap per part; 0 = whole pool
  };

  /// One launched component: its parts, the graph it runs them through, and
  /// the stage it runs. The pool holds it (keepalive) until the completion
  /// callback has returned.
  template <typename T>
  struct Launch {
    std::vector<std::shared_ptr<detail::Request<T>>> parts;
    std::shared_ptr<const FusedPlan> fused;
    detail::Stage stage = detail::Stage::Factoring;
  };

  /// The one launch: every component of every entry point starts here, as
  /// one pool submission under its route's worker cap. `parts` (non-empty)
  /// share a route and a stage. Picks the component graph (fuse), arms each
  /// part's sentinel, and submits; each part's stage ends
  /// (Request::stage_done) on the worker that retires its last task. A
  /// component that cannot launch — its fusion fails to build — fails only
  /// its own parts and still counts as retired, so nothing queued behind it
  /// strands.
  template <typename T>
  void launch(std::vector<std::shared_ptr<detail::Request<T>>> parts) {
    auto l = std::make_shared<Launch<T>>();
    l->stage = parts.front()->stage.load(std::memory_order_acquire);
    l->parts = std::move(parts);
    detail::Route<T>& route = *l->parts.front()->route;
    try {
      l->fused = fuse(l->parts, l->stage);
      for (size_t i = 0; i < l->parts.size(); ++i) {
        TILEDQR_ASSERT(l->parts[i]->stage.load(std::memory_order_relaxed) == l->stage);
        l->parts[i]->remaining.store(l->fused->part_size(int(i)), std::memory_order_relaxed);
      }
      const FusedPlan& component = *l->fused;
      pool_.submit(
          component.component_graph(),
          [raw = l.get()](std::int32_t idx) {
            const FusedPlan& fused = *raw->fused;
            const auto& req = raw->parts[size_t(fused.part_of(idx))];
            if (raw->stage == detail::Stage::Factoring)
              run_task_kernels(fused.task(idx), req->qr->a_, req->qr->t_, req->qr->t2_,
                               req->qr->opt_.ib);
            else
              req->factorization().run_apply_task(fused.task(idx), req->trans, req->c);
            // The per-part sentinel ends a fused part's stage as soon as its
            // last task retires, while the rest of the component runs on
            // (acq_rel pairs with the other workers' decrements, so their
            // tile writes are visible to whatever the stage end reads).
            if (raw->parts.size() > 1 &&
                req->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
              detail::Request<T>::stage_done(req, raw->stage);
          },
          [raw = l.get()](std::exception_ptr error) {
            // The component retired: settle the parts no sentinel did. A lone
            // part ends its stage here, once every task's trace and profile
            // sample has landed; after a task threw, the parts the cancelled
            // component left unfinished fail (finished ones keep their values).
            for (const auto& req : raw->parts)
              if (req->stage.load(std::memory_order_acquire) == raw->stage) {
                if (error)
                  req->fail(error);
                else
                  detail::Request<T>::stage_done(req, raw->stage);
              }
            raw->parts.front()->route->retired();
          },
          runtime::SchedulePriority::CriticalPath, route.workers(component.part_count()), l,
          &component.component_ranks(), component.copies());
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      for (const auto& req : l->parts) req->fail(error);
      route.retired();
    }
  }

  /// The component graph for `parts` at `stage`: a lone part runs its own
  /// plan; parts that share one plan run the PlanCache's fused plan for
  /// that count; anything else is one ad-hoc fusion.
  template <typename T>
  [[nodiscard]] std::shared_ptr<const FusedPlan> fuse(
      const std::vector<std::shared_ptr<detail::Request<T>>>& parts, detail::Stage stage) {
    std::vector<std::shared_ptr<const Plan>> plans;
    plans.reserve(parts.size());
    for (const auto& req : parts)
      plans.push_back(stage == detail::Stage::Factoring ? req->qr->plan_ : req->apply_plan);
    const std::shared_ptr<const Plan>& front = plans.front();
    if (parts.size() == 1)
      return std::make_shared<const FusedPlan>(make_homogeneous_fused_plan(front, 1));
    if (std::all_of(plans.begin(), plans.end(), [&](const auto& p) { return p == front; })) {
      // Only cached factor plans are ever shared, so the front part's
      // (normalized) tree is the fused-cache key for all of them.
      TILEDQR_ASSERT(stage == detail::Stage::Factoring);
      return cache_.get_fused(front->graph.p, front->graph.q, *parts.front()->qr->options().tree,
                              int(parts.size()), front->graph.factor);
    }
    return std::make_shared<const FusedPlan>(make_fused_plan(plans));
  }

  /// Tiles and plans a request's factorization for a route capped at `cap`
  /// workers: a disengaged tree routes through the autotuner for the input's
  /// shape, and a solve copies its rhs `b`. A failure fails only this
  /// request; returns whether it is ready to launch.
  template <typename T, typename MakeTiles>
  bool prepare(detail::Request<T>& req, MakeTiles&& make_tiles, ConstMatrixView<T> b,
               Options opt, int cap) {
    try {
      ReductionTiles<T> in = make_tiles();
      if (req.solving()) req.b = copy_rhs(b, in.rhs_rows());
      if (!opt.tree) opt.tree = choose_tree_for(in, cap);
      req.qr = TiledQr<T>::prepare(std::move(in), opt, cache_);
    } catch (...) {
      req.fail(std::current_exception());
      return false;
    }
    note_plan(req.qr->plan_);
    return true;
  }

  /// A solve's rhs, copied: the request outlives the caller's view.
  template <typename T>
  [[nodiscard]] static Matrix<T> copy_rhs(ConstMatrixView<T> b, std::int64_t rows) {
    TILEDQR_CHECK(b.rows() == rows, "solve: rhs row count must match A");
    Matrix<T> out(b.rows(), b.cols());
    copy(b, out.view());
    return out;
  }

  /// A batch of one under explicit options: a disengaged tree is the Greedy
  /// paper default, not the tuner.
  template <typename T, typename MakeTiles>
  [[nodiscard]] std::future<TiledQr<T>> submit_one(MakeTiles&& make_tiles, Options opt) {
    if (!opt.tree) opt.tree = trees::TreeConfig{};
    return std::move(
        one_shot<TiledQr<T>, T>(1, [&](size_t) { return make_tiles(); }, {}, opt).front());
  }

  /// The one-shot entry: opens `count` requests whose futures carry R, tiles
  /// and plans each (`make_tiles(i)` yields the i-th input; one whose tiling
  /// or planning throws gets a pre-failed future, the rest proceed), and
  /// launches the prepared ones as one component. `b` is a solve's rhs.
  template <typename R, typename T, typename MakeTiles>
  [[nodiscard]] std::vector<std::future<R>> one_shot(size_t count, MakeTiles&& make_tiles,
                                                     ConstMatrixView<T> b, Options opt) {
    auto route = std::make_shared<OneShot<T>>(*this, normalize_threads(opt));
    std::vector<std::future<R>> futures(count);
    std::vector<std::shared_ptr<detail::Request<T>>> parts;
    for (size_t i = 0; i < count; ++i) {
      auto req = detail::Request<T>::open(route, futures[i]);
      if (prepare(*req, [&] { return make_tiles(i); }, b, opt, route->cap))
        parts.push_back(std::move(req));
    }
    if (!parts.empty()) launch(std::move(parts));
    return futures;
  }

  /// The apply-only entry: the factor stage is the caller's finished `qr`
  /// (borrowed), so the request goes straight to its apply stage once
  /// `fill` has set its operand; a throwing `fill` fails only the request.
  template <typename R, typename T, typename Fill>
  [[nodiscard]] std::future<R> borrow(const TiledQr<T>& qr, Fill&& fill) {
    std::future<R> future;
    auto req = detail::Request<T>::open(std::make_shared<OneShot<T>>(*this, 0), future);
    req->borrowed = &qr;
    try {
      fill(*req);
    } catch (...) {
      req->fail(std::current_exception());
      return future;
    }
    detail::Request<T>::stage_done(req, detail::Stage::Factoring);
    return future;
  }

  /// Remembers the most recently prepared plan so health_report() can join
  /// the live trace against a real DAG. A shared_ptr copy: plans are
  /// immutable and cache-owned, so this pins at most one plan's memory.
  void note_plan(const std::shared_ptr<const Plan>& plan) {
    std::lock_guard<std::mutex> lock(last_plan_mu_);
    last_plan_ = plan;
  }

  /// The one cap rule: <= 0 (and anything above the pool) means "whole
  /// pool"; in-range caps pass through. Applied to `opt.threads` in place (so
  /// the stored per-factorization thread count never exceeds the pool — a 0
  /// cap and an over-pool cap leave identical state everywhere); returns the
  /// ThreadPool worker cap (0 = uncapped).
  [[nodiscard]] int normalize_threads(Options& opt) const noexcept {
    const int cap = opt.threads <= 0 ? 0 : std::min(opt.threads, pool_.size());
    opt.threads = cap == 0 ? pool_.size() : cap;
    return cap;
  }

  static void validate_auto_options(const AutoOptions& opt) {
    TILEDQR_CHECK(opt.nb >= 1, stringf("AutoOptions::nb must be >= 1 (got %d)", opt.nb));
    TILEDQR_CHECK(opt.ib >= 1, stringf("AutoOptions::ib must be >= 1 (got %d)", opt.ib));
  }

  /// Drains a submit_batch future set, preserving order. A single failure is
  /// rethrown verbatim; multiple failures rethrow an Error carrying the
  /// first failure's message and the count of failed siblings.
  template <typename T>
  [[nodiscard]] static std::vector<TiledQr<T>> collect_batch(
      std::vector<std::future<TiledQr<T>>> futures) {
    std::vector<TiledQr<T>> out;
    out.reserve(futures.size());
    std::exception_ptr first_error;
    std::string first_message;
    size_t failed = 0;
    for (auto& f : futures) {
      try {
        out.push_back(f.get());
      } catch (const std::exception& e) {
        if (!first_error) {
          first_error = std::current_exception();
          first_message = e.what();
        }
        ++failed;
      } catch (...) {
        if (!first_error) {
          first_error = std::current_exception();
          first_message = "unknown error";
        }
        ++failed;
      }
    }
    if (failed > 1)
      throw Error(stringf("%s [batch: %zu of %zu inputs failed; first error shown]",
                          first_message.c_str(), failed, futures.size()));
    if (first_error) std::rethrow_exception(first_error);
    return out;
  }

  // Declaration order matters: the pool's destructor drains in-flight
  // submissions, which still reference cached plans — so the cache must
  // outlive the pool (destroyed after it). The tuner sits between them: its
  // refinement runs on the pool, so it too must outlive the pool.
  PlanCache cache_;
  tuner::Tuner tuner_;
  runtime::ThreadPool pool_;

  /// Most recently prepared plan (any entry path), for health_report()'s
  /// trace join; guarded by its own mutex so snapshots never contend with
  /// the scheduling paths beyond this one pointer copy.
  mutable std::mutex last_plan_mu_;
  std::shared_ptr<const Plan> last_plan_;
};

/// Historical name from when the session was QR-only; existing call sites
/// keep compiling unchanged.
using QrSession = FactorSession;

// ------------------------------------------------------------ FactorStream --

/// Streaming fusion handle (FactorSession::stream). push()/push_solve() return
/// futures immediately; requests accumulate while the stream's in-flight
/// work drains and every flush grafts them — one launch, and so one pool
/// submission, per plan, fused through the session PlanCache when it carries
/// several requests. The amount of fusion adapts to the arrival rate: an
/// idle stream grafts a push immediately (latency), a busy stream coalesces
/// everything that arrived while it was busy (throughput).
///
///   auto stream = session.stream<double>();
///   auto f = stream.push(a.view());        // future resolves independently
///   auto x = stream.push_solve(a2.view(), b.view());  // factor, then the
///                                          // apply stage, same stream
///   stream.cork();                         // defer flushing…
///   for (auto& m : burst) futures.push_back(stream.push(m.view()));
///   stream.uncork();                       // …one fused graft for the burst
///   stream.close();                        // drain everything, then seal
///
/// Thread-safe: any number of client threads may push/cork/flush
/// concurrently. A request whose preparation fails resolves its own future
/// with the exception; a kernel failure cancels only the component (graft)
/// it rode in on — other grafts keep running. The stream must be closed (or
/// destroyed — the destructor closes) before its FactorSession dies, and close()
/// must not be called from a pool task body.
///
/// Serving QoS (StreamOptions): `max_queued` + `overflow` bound the
/// unresolved requests a stream may hold (Block parks the pusher on the
/// retirement condvar, Reject fails the future immediately);
/// `low_watermark` grafts the backlog before the stream runs dry (keep one
/// graft queued behind the live one); `flush_deadline` caps how long an
/// uncorked request may wait in the coalescing backlog. drain() respects a
/// concurrent cork: it never claims a corked backlog (that burst belongs to
/// the corking client's single fused graft) and parks on the condvar until
/// the corker uncorks — so a thread that corks, pushes, and drains without
/// uncorking first deadlocks itself, as does a corked Block-overflow pusher
/// with no uncorking peer. All QoS defaults reproduce the pre-QoS policy.
template <typename T>
class FactorStream {
 public:
  struct Stats {
    long pushed = 0;      ///< requests accepted (push + push_solve)
    long components = 0;  ///< grafts launched, one pool submission each
    long fused_requests = 0;  ///< requests that rode a multi-request graft
    long pending = 0;     ///< requests accumulated, not yet grafted
    long unresolved = 0;  ///< admitted requests whose future hasn't resolved
    long peak_unresolved = 0;  ///< high-water mark of `unresolved` — with a
                               ///< Block overflow this never exceeds max_queued
    long rejected = 0;         ///< pushes refused by the Reject overflow policy
    long deadline_flushes = 0;  ///< backlog grafts forced by flush_deadline
    long empty_flushes = 0;     ///< backlog claims that found nothing queued
                                ///< (a spinning drain would grow this; bounded)
  };

  FactorStream() = default;  ///< empty handle
  FactorStream(FactorStream&&) noexcept = default;
  /// Move-assign closes the overwritten stream first (re-opening a stream
  /// in place is normal server code); a defaulted move would orphan its
  /// shared state with no handle left to ever close it — leaking the
  /// deadline thread and stranding a corked backlog.
  FactorStream& operator=(FactorStream&& other) noexcept {
    if (this != &other) {
      close_quietly();
      state_ = std::move(other.state_);
    }
    return *this;
  }
  FactorStream(const FactorStream&) = delete;
  FactorStream& operator=(const FactorStream&) = delete;

  ~FactorStream() { close_quietly(); }

  /// Factorize a dense matrix (copied into tiled layout here, on the
  /// calling thread). Returns a future that resolves when this request's
  /// part of its graft drains. An input that fails to tile or plan resolves
  /// its future with the exception (pushing on a closed stream still throws
  /// — that is a caller bug, not a request failure). A stream at its
  /// max_queued bound blocks here or fails the future, per
  /// StreamOptions::overflow; admission happens before tiling, so a blocked
  /// or rejected push allocates nothing.
  [[nodiscard]] std::future<TiledQr<T>> push(ConstMatrixView<T> a) {
    TILEDQR_CHECK(valid(), "FactorStream::push: moved-from or empty stream handle");
    return push_request<TiledQr<T>>(
        [&] { return ReductionTiles<T>::from_dense(a, state_->opts.nb); });
  }

  /// Pre-tiled flavor (consumed); the input keeps its own tile size.
  [[nodiscard]] std::future<TiledQr<T>> push(TileMatrix<T> a) {
    TILEDQR_CHECK(valid(), "FactorStream::push: moved-from or empty stream handle");
    return push_request<TiledQr<T>>(
        [&] { return ReductionTiles<T>::from_tiles(std::move(a)); });
  }

  /// Full solve for one request: factorize A, then its apply stage rides the
  /// same stream (TiledQr::start_solve/finish_solve around it — least squares
  /// for tall A, minimum norm for wide A). Apply stages of concurrent solves
  /// coalesce: each flush grafts every ready apply stage as one fused
  /// component. Results are bitwise identical to
  /// FactorSession::solve_least_squares_async(a, b, opt) with the same tree.
  /// Backpressure treats a solve as one request from admission until its
  /// solution future resolves (the apply stage keeps the slot).
  [[nodiscard]] std::future<Matrix<T>> push_solve(ConstMatrixView<T> a, ConstMatrixView<T> b) {
    TILEDQR_CHECK(valid(), "FactorStream::push_solve: moved-from or empty stream handle");
    return push_request<Matrix<T>>(
        [&] { return ReductionTiles<T>::from_dense(a, state_->opts.nb); }, b);
  }

  /// Defers flushing: corked pushes accumulate (up to max_pending) so a
  /// known burst grafts as one fused component. Idempotent. While corked,
  /// the watermark, deadline, and drain() paths all leave the backlog alone
  /// — only uncork()/flush()/max_pending release it.
  void cork() {
    TILEDQR_CHECK(valid(), "FactorStream::cork: moved-from or empty stream handle");
    set_corked(true);
  }

  /// Re-enables flushing and grafts everything pending now.
  void uncork() {
    TILEDQR_CHECK(valid(), "FactorStream::uncork: moved-from or empty stream handle");
    set_corked(false);
    flush();
  }

  /// Grafts all pending requests now — corked or not: an explicit flush is
  /// the caller's own uncorking.
  void flush() {
    TILEDQR_CHECK(valid(), "FactorStream::flush: moved-from or empty stream handle");
    graft_now(/*corked_too=*/true);
  }

  /// Grafts the uncorked backlog, then blocks until every request admitted
  /// so far has resolved (including apply stages). The stream stays
  /// open. Requests pushed concurrently with the drain may be waited on too.
  /// A peer's corked backlog is NOT claimed — the burst grafts as the one
  /// fused component cork() promised — so the drain parks on the retirement
  /// condvar until the corker uncorks (no flush/wait spinning).
  void drain() {
    TILEDQR_CHECK(valid(), "FactorStream::drain: moved-from or empty stream handle");
    graft_now(/*corked_too=*/false);
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->retire_cv.wait(lock, [&] { return state_->tally.unresolved == 0; });
  }

  /// Drains, then seals the stream: further pushes throw Error. Idempotent.
  void close() {
    TILEDQR_CHECK(valid(), "FactorStream::close: moved-from or empty stream handle");
    std::thread deadline_reaper;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->closed = true;
      state_->corked = false;
      deadline_reaper.swap(state_->deadline_thread);
    }
    // Wake Block-ed pushers (they observe closed and throw) and the deadline
    // thread (it observes closed and exits; joined before the drain so no
    // grafting races the seal).
    state_->retire_cv.notify_all();
    if (deadline_reaper.joinable()) deadline_reaper.join();
    drain();
  }

  [[nodiscard]] Stats stats() const {
    TILEDQR_CHECK(valid(), "FactorStream::stats: moved-from or empty stream handle");
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->snapshot_locked();
  }

  /// The session-level live snapshot (FactorSession::health_report) from the
  /// stream handle a server actually holds.
  [[nodiscard]] std::string health_report() const {
    TILEDQR_CHECK(valid(), "FactorStream::health_report: moved-from or empty stream handle");
    return state_->session->health_report();
  }

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  explicit operator bool() const noexcept { return valid(); }

 private:
  friend class FactorSession;

  using Request = detail::Request<T>;
  /// The requests of one graft (one launch).
  using Parts = std::vector<std::shared_ptr<Request>>;

  /// Shared stream state, and the stream's Route: every graft runs under
  /// the stream's worker cap, solve tails wait in `ready_applies` for the
  /// next flush point, and each resolution releases a backpressure slot.
  /// Worker callbacks outlive the handle's stack frames, so everything they
  /// touch lives here.
  struct State final : detail::Route<T> {
    int workers(int) const override { return worker_cap; }

    /// Queues a solve tail; every flush point grafts the whole queue as ONE
    /// fused component, so a burst of solves pays one graft for all its
    /// apply stages. No flush is needed here: the factor component that
    /// called this has not retired yet, and its retirement flushes the queue.
    void apply_ready(std::shared_ptr<Request> req) override {
      std::lock_guard<std::mutex> lock(mu);
      ready_applies.push_back(std::move(req));
    }

    /// A grafted component retired: ready solve tails graft at once — they
    /// are latency-critical and already hold slots, so neither the cork nor
    /// the watermark applies to them — and if the in-flight window fell to
    /// the watermark with work pending (arrivals outpaced this drain), the
    /// backlog grafts too: the hand-off that keeps workers flowing across
    /// what used to be batch boundaries.
    void retired() override {
      std::vector<Parts> grafts;
      {
        std::lock_guard<std::mutex> lock(mu);
        --inflight;
        claim_applies_locked(grafts);
        if (!corked && inflight <= long(opts.low_watermark)) claim_backlog_locked(grafts);
      }
      retire_cv.notify_all();
      graft(*this, std::move(grafts));
    }

    /// Records the request's end-to-end latency, releases its backpressure
    /// slot, and wakes drain()ers / Block-ed pushers.
    void resolved(const Request& req) override {
      latency.record_ns(obs::now_ns() - req.admit_ns);
      {
        std::lock_guard<std::mutex> lock(mu);
        --tally.unresolved;
      }
      retire_cv.notify_all();
    }

    /// Claims the pending backlog as one graft per distinct plan — so a
    /// mixed-shape stream still fuses everything of each shape — accounted
    /// in flight. Caller holds mu. Linear scan: pending is bounded by
    /// max_pending and distinct plans are few. False if nothing was pending.
    bool claim_backlog_locked(std::vector<Parts>& out) {
      if (pending.empty()) return false;
      const size_t first = out.size();
      for (auto& req : pending) {
        auto home = std::find_if(out.begin() + long(first), out.end(), [&](const Parts& g) {
          return &g.front()->qr->plan() == &req->qr->plan();
        });
        if (home == out.end()) home = out.insert(out.end(), Parts{});
        home->push_back(std::move(req));
      }
      pending.clear();
      inflight += long(out.size() - first);
      tally.components += long(out.size() - first);
      for (size_t g = first; g < out.size(); ++g)
        if (out[g].size() > 1) tally.fused_requests += long(out[g].size());
      return true;
    }

    /// Claims the ready solve tails as ONE graft, accounted in flight.
    /// Caller holds mu.
    void claim_applies_locked(std::vector<Parts>& out) {
      if (ready_applies.empty()) return;
      out.emplace_back(std::make_move_iterator(ready_applies.begin()),
                       std::make_move_iterator(ready_applies.end()));
      ready_applies.clear();
      ++inflight;
      ++tally.components;
    }

    [[nodiscard]] Stats snapshot_locked() const {
      Stats s = tally;
      s.pending = long(pending.size());
      return s;
    }

    FactorSession* session = nullptr;
    FactorSession::StreamOptions opts;
    Options factor_opt;  ///< what every push factors with (tree, nb, ib, threads)
    int worker_cap = 0;  ///< pre-clamped; the tuner keys on this concurrency

    mutable std::mutex mu;
    /// The retirement condvar: notified whenever a request resolves, a
    /// grafted component retires, or the cork/closed flags flip. Waiters:
    /// drain() (unresolved == 0), Block-overflow pushers (a slot freed),
    /// and the flush_deadline thread (a backlog to watch appeared).
    std::condition_variable retire_cv;
    bool corked = false;
    bool closed = false;
    std::deque<std::shared_ptr<Request>> pending;
    std::deque<std::shared_ptr<Request>> ready_applies;  ///< built solve tails
    long inflight = 0;  ///< grafted components not yet retired
    /// The Stats counters; `pending` is read live instead.
    Stats tally;
    /// When the pending backlog last went empty -> non-empty; the deadline
    /// thread grafts at oldest_pending + flush_deadline.
    std::chrono::steady_clock::time_point oldest_pending{};
    /// Engaged only when flush_deadline > 0; joined by close().
    std::thread deadline_thread;
    /// End-to-end request latency (admission -> future resolution), exported
    /// through the registry source below. Atomic; recorded outside mu.
    obs::Histogram latency;
    /// Registry source "stream.<label>" / "stream<N>". Declared last so it
    /// deregisters (freezing the stream's final samples as retired metrics)
    /// before any field its callback reads is destroyed.
    obs::MetricsRegistry::SourceHandle metrics_source;
  };

  FactorStream(FactorSession* session, FactorSession::StreamOptions opts) : state_(std::make_shared<State>()) {
    TILEDQR_CHECK(opts.nb >= 1, stringf("StreamOptions::nb must be >= 1 (got %d)", opts.nb));
    TILEDQR_CHECK(opts.ib >= 1, stringf("StreamOptions::ib must be >= 1 (got %d)", opts.ib));
    TILEDQR_CHECK(opts.max_pending >= 1, "StreamOptions::max_pending must be >= 1");
    TILEDQR_CHECK(opts.max_queued >= 0,
                  stringf("StreamOptions::max_queued must be >= 0, 0 = unbounded (got %d)",
                          opts.max_queued));
    TILEDQR_CHECK(opts.low_watermark >= 0,
                  stringf("StreamOptions::low_watermark must be >= 0 (got %d)",
                          opts.low_watermark));
    TILEDQR_CHECK(opts.flush_deadline.count() >= 0,
                  "StreamOptions::flush_deadline must be >= 0, 0 = no deadline");
    state_->session = session;
    state_->factor_opt = Options{opts.tree, opts.nb, opts.ib, opts.threads};
    state_->worker_cap = session->normalize_threads(state_->factor_opt);
    state_->opts = std::move(opts);
    auto& registry = obs::MetricsRegistry::global();
    // Raw State pointer, not the shared_ptr: the handle lives inside State,
    // so a shared capture would be a self-cycle. It deregisters first in
    // State's destruction (declared last), while every field here is alive.
    state_->metrics_source = registry.register_source(
        state_->opts.label.empty() ? registry.unique_label("stream")
                                   : "stream." + state_->opts.label,
        [s = state_.get()](std::vector<obs::Sample>& out) {
          std::lock_guard<std::mutex> lock(s->mu);
          const Stats st = s->snapshot_locked();
          out.push_back({"pushed", double(st.pushed)});
          out.push_back({"components", double(st.components)});
          out.push_back({"fused_requests", double(st.fused_requests)});
          out.push_back({"pending", double(st.pending)});
          out.push_back({"unresolved", double(st.unresolved)});
          out.push_back({"peak_unresolved", double(st.peak_unresolved)});
          out.push_back({"rejected", double(st.rejected)});
          out.push_back({"deadline_flushes", double(st.deadline_flushes)});
          out.push_back({"empty_flushes", double(st.empty_flushes)});
          s->latency.append_samples("latency", out);
        });
    if (state_->opts.flush_deadline.count() > 0)
      state_->deadline_thread = std::thread(&FactorStream::deadline_main, state_);
  }

  /// Launches claimed grafts, outside mu (planning a new fusion must not
  /// block pushes).
  static void graft(State& s, std::vector<Parts> grafts) {
    for (auto& parts : grafts) s.session->launch(std::move(parts));
  }

  /// Body of the per-stream deadline thread (flush_deadline > 0): sleeps
  /// until there is an uncorked backlog to watch, then grafts it once it has
  /// aged past the deadline. Exits when the stream closes (close() joins it
  /// before sealing, so a final deadline graft cannot race the seal).
  static void deadline_main(std::shared_ptr<State> state) {
    std::unique_lock<std::mutex> lock(state->mu);
    while (!state->closed) {
      if (state->pending.empty() || state->corked) {
        state->retire_cv.wait(lock, [&] {
          return state->closed || (!state->pending.empty() && !state->corked);
        });
        continue;
      }
      const auto due = state->oldest_pending + state->opts.flush_deadline;
      if (std::chrono::steady_clock::now() < due) {
        state->retire_cv.wait_until(lock, due);
        continue;  // re-evaluate: the backlog may have been claimed meanwhile
      }
      std::vector<Parts> grafts;
      state->claim_backlog_locked(grafts);
      ++state->tally.deadline_flushes;
      lock.unlock();
      graft(*state, std::move(grafts));
      lock.lock();
    }
  }

  /// Backpressure gate: every accepted request holds one `unresolved` slot
  /// from admission until its user-facing future resolves. Returns null on
  /// admission; with the Reject policy at the bound, returns the error the
  /// caller must fail its future with (no slot taken). With Block, parks on
  /// the retirement condvar until a slot frees. Throws on a closed stream
  /// (including a close that lands while a Block-ed push waits).
  [[nodiscard]] std::exception_ptr admit() {
    State& s = *state_;
    std::unique_lock<std::mutex> lock(s.mu);
    TILEDQR_CHECK(!s.closed, "FactorStream: push on a closed stream");
    if (s.opts.max_queued > 0 && s.tally.unresolved >= long(s.opts.max_queued)) {
      if (s.opts.overflow == FactorSession::StreamOverflow::Reject) {
        ++s.tally.rejected;
        return std::make_exception_ptr(Error(
            stringf("FactorStream: backpressure reject — stream already holds max_queued=%d "
                    "unresolved requests (StreamOptions::overflow = Reject)",
                    s.opts.max_queued)));
      }
      s.retire_cv.wait(lock,
                       [&] { return s.closed || s.tally.unresolved < long(s.opts.max_queued); });
      TILEDQR_CHECK(!s.closed, "FactorStream: push on a closed stream");
    }
    ++s.tally.unresolved;
    s.tally.peak_unresolved = std::max(s.tally.peak_unresolved, s.tally.unresolved);
    return nullptr;
  }

  /// close() for the destructor and move-assign, which must not throw; its
  /// errors are only re-close races, never worth tearing down the process.
  void close_quietly() noexcept {
    if (!state_) return;
    try {
      close();
    } catch (...) {
    }
  }

  /// The one push path: admission first (nothing is allocated for a blocked
  /// or rejected push), then a request on this stream's route, tiled and
  /// planned by the session — a disengaged tree autotuned for the input's
  /// shape at the stream's worker cap — and queued for the next graft.
  template <typename R, typename MakeTiles>
  [[nodiscard]] std::future<R> push_request(MakeTiles&& make_tiles, ConstMatrixView<T> b = {}) {
    if (std::exception_ptr rejected = admit()) {
      std::promise<R> refused;  // never admitted: there is no slot to release
      refused.set_exception(std::move(rejected));
      return refused.get_future();
    }
    std::future<R> future;
    auto req = Request::open(state_, future);
    req->admit_ns = obs::now_ns();
    if (state_->session->prepare(*req, make_tiles, b, state_->factor_opt, state_->worker_cap))
      enqueue(std::move(req));
    return future;
  }

  void set_corked(bool corked) {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->corked = corked;
    }
    state_->retire_cv.notify_all();
  }

  /// Grafts the ready solve tails and the backlog — a corked backlog only
  /// when `corked_too` (a skipped corked backlog is deference, not an empty
  /// flush).
  void graft_now(bool corked_too) {
    std::vector<Parts> grafts;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->claim_applies_locked(grafts);
      if ((corked_too || !state_->corked) && !state_->claim_backlog_locked(grafts))
        ++state_->tally.empty_flushes;
    }
    graft(*state_, std::move(grafts));
  }

  void enqueue(std::shared_ptr<Request> req) {
    std::vector<Parts> grafts;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (state_->closed) {
        // Push-vs-close race: the close won. Give the admission slot back
        // before reporting the caller bug, so the closing drain terminates.
        --state_->tally.unresolved;
        state_->retire_cv.notify_all();
        throw Error("FactorStream: push on a closed stream");
      }
      if (state_->pending.empty())
        state_->oldest_pending = std::chrono::steady_clock::now();
      state_->pending.push_back(std::move(req));
      ++state_->tally.pushed;
      // Flush when the in-flight window fell to the watermark (default 0:
      // the stream ran dry with nothing to hide behind) or the coalescing
      // bound is hit; a corked stream defers the former but still bounds
      // its memory with the latter.
      const bool full = long(state_->pending.size()) >= long(state_->opts.max_pending);
      if (full || (!state_->corked && state_->inflight <= long(state_->opts.low_watermark)))
        state_->claim_backlog_locked(grafts);
    }
    // Only a request that actually stayed pending re-arms the deadline
    // thread's watch; a push that grafted immediately left nothing to age.
    if (grafts.empty() && state_->opts.flush_deadline.count() > 0)
      state_->retire_cv.notify_all();
    graft(*state_, std::move(grafts));
  }

  std::shared_ptr<State> state_;
};

template <typename T>
FactorStream<T> FactorSession::stream(StreamOptions opt) {
  return FactorStream<T>(this, std::move(opt));
}

}  // namespace tiledqr::core
