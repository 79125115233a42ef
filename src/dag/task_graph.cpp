#include "dag/task_graph.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stringf.hpp"

namespace tiledqr::dag {

namespace {

using kernels::KernelKind;

/// Resource kinds per tile.
enum Region : int { kU = 0, kL = 1, kT = 2, kT2 = 3 };

/// Tracks last writer and readers-since-last-write per resource and lays
/// down RAW / WAR / WAW edges as tasks are emitted in list order.
class DependencyTracker {
 public:
  DependencyTracker(int p, int q, std::vector<Task>& tasks)
      : q_(q), tasks_(tasks), last_writer_(size_t(p) * size_t(q) * 4, -1),
        readers_(size_t(p) * size_t(q) * 4) {}

  void read(std::int32_t task, int i, int j, Region r) {
    const size_t res = index(i, j, r);
    add_edge(last_writer_[res], task);
    readers_[res].push_back(task);
  }

  void modify(std::int32_t task, int i, int j, Region r) {
    const size_t res = index(i, j, r);
    add_edge(last_writer_[res], task);
    for (std::int32_t reader : readers_[res]) add_edge(reader, task);
    readers_[res].clear();
    last_writer_[res] = task;
  }

 private:
  [[nodiscard]] size_t index(int i, int j, Region r) const {
    return (size_t(i) * size_t(q_) + size_t(j)) * 4 + size_t(r);
  }

  void add_edge(std::int32_t from, std::int32_t to) {
    if (from < 0 || from == to) return;
    auto& succ = tasks_[size_t(from)].succ;
    // Cheap de-duplication: consecutive accesses produce adjacent duplicates.
    if (!succ.empty() && succ.back() == to) return;
    if (std::find(succ.begin(), succ.end(), to) != succ.end()) return;
    succ.push_back(to);
    ++tasks_[size_t(to)].npred;
  }

  int q_;
  std::vector<Task>& tasks_;
  std::vector<std::int32_t> last_writer_;
  std::vector<std::vector<std::int32_t>> readers_;
};

/// The kernel access sets of the file comment in task_graph.hpp, applied to
/// one emitted task. Shared by build_task_graph (emitting as it goes) and
/// infer_dependencies (replaying a finished list), so the two can never
/// disagree about an edge.
void apply_accesses(DependencyTracker& deps, std::int32_t id, const Task& t) {
  const int i = t.i;
  const int piv = t.piv;
  const int k = t.k;
  const int j = t.j;
  // LQ kernels access the reduction grid exactly as their QR duals do (the
  // coordinates already live there), so one switch covers both factorizations.
  switch (kernels::qr_dual(t.kind)) {
    case KernelKind::GEQRT:
      deps.modify(id, i, k, kU);
      deps.modify(id, i, k, kL);
      deps.modify(id, i, k, kT);
      break;
    case KernelKind::UNMQR:
      deps.read(id, i, k, kL);
      deps.read(id, i, k, kT);
      deps.modify(id, i, j, kU);
      deps.modify(id, i, j, kL);
      break;
    case KernelKind::TSQRT:
      deps.modify(id, piv, k, kU);
      deps.modify(id, i, k, kU);
      deps.modify(id, i, k, kL);
      deps.modify(id, i, k, kT);
      break;
    case KernelKind::TSMQR:
      deps.read(id, i, k, kU);
      deps.read(id, i, k, kL);
      deps.read(id, i, k, kT);
      deps.modify(id, piv, j, kU);
      deps.modify(id, piv, j, kL);
      deps.modify(id, i, j, kU);
      deps.modify(id, i, j, kL);
      break;
    case KernelKind::TTQRT:
      deps.modify(id, piv, k, kU);
      deps.modify(id, i, k, kU);
      deps.modify(id, i, k, kT2);
      break;
    case KernelKind::TTMQR:
      deps.read(id, i, k, kU);
      deps.read(id, i, k, kT2);
      deps.modify(id, piv, j, kU);
      deps.modify(id, piv, j, kL);
      deps.modify(id, i, j, kU);
      deps.modify(id, i, j, kL);
      break;
    default:
      break;
  }
}

}  // namespace

std::int32_t TaskGraph::append_offset(const TaskGraph& other) {
  const auto offset = std::int32_t(tasks.size());
  if (offset == 0) factor = other.factor;  // adopt the first component's kind
  tasks.reserve(tasks.size() + other.tasks.size());
  for (const Task& t : other.tasks) {
    tasks.push_back(t);
    for (std::int32_t& s : tasks.back().succ) s += offset;
  }
  p = std::max(p, other.p);
  q = std::max(q, other.q);
  zero_task.clear();
  return offset;
}

TaskGraph build_task_graph(int p, int q, const trees::EliminationList& list,
                           kernels::FactorKind factor) {
  auto valid = trees::validate_elimination_list(p, q, list);
  TILEDQR_CHECK(valid.ok, "build_task_graph: invalid elimination list: " + valid.message);

  TaskGraph g;
  g.p = p;
  g.q = q;
  g.factor = factor;
  g.zero_task.assign(size_t(p) * size_t(q), -1);

  DependencyTracker deps(p, q, g.tasks);
  std::vector<char> triangular(size_t(p) * size_t(std::min(p, q)), 0);
  auto tri = [&](int i, int k) -> char& {
    return triangular[size_t(i) * size_t(std::min(p, q)) + size_t(k)];
  };

  auto emit = [&](KernelKind kind, int i, int piv, int k, int j) -> std::int32_t {
    if (factor == kernels::FactorKind::LQ) kind = kernels::lq_dual(kind);
    auto id = std::int32_t(g.tasks.size());
    g.tasks.push_back(Task{kind, i, piv, k, j, 0, {}});
    apply_accesses(deps, id, g.tasks.back());
    return id;
  };

  auto triangularize = [&](int i, int k) {
    if (tri(i, k)) return;
    emit(KernelKind::GEQRT, i, -1, k, -1);
    for (int j = k + 1; j < q; ++j) emit(KernelKind::UNMQR, i, -1, k, j);
    tri(i, k) = 1;
  };

  for (const auto& e : list) {
    triangularize(e.piv, e.col);
    if (e.ts) {
      auto id = emit(KernelKind::TSQRT, e.row, e.piv, e.col, -1);
      g.zero_task[size_t(e.row) * size_t(q) + size_t(e.col)] = id;
      for (int j = e.col + 1; j < q; ++j) emit(KernelKind::TSMQR, e.row, e.piv, e.col, j);
    } else {
      triangularize(e.row, e.col);
      auto id = emit(KernelKind::TTQRT, e.row, e.piv, e.col, -1);
      g.zero_task[size_t(e.row) * size_t(q) + size_t(e.col)] = id;
      for (int j = e.col + 1; j < q; ++j) emit(KernelKind::TTMQR, e.row, e.piv, e.col, j);
    }
  }
  // Diagonal tiles that were never triangularized (e.g. the last panel of a
  // square matrix, or any panel whose eliminations all used TS kernels with
  // pivots above) still need their final GEQRT.
  for (int k = 0; k < std::min(p, q); ++k) triangularize(k, k);

  return g;
}

void infer_dependencies(int p, int q, std::vector<Task>& tasks) {
  TILEDQR_CHECK(p > 0 && q > 0, "infer_dependencies: p and q must be positive");
  for (auto& t : tasks) {
    t.npred = 0;
    t.succ.clear();
    TILEDQR_CHECK(t.i >= 0 && t.i < p && t.k >= 0 && t.k < q,
                  "infer_dependencies: task coordinates outside the p x q grid");
    // apply_accesses also indexes the pivot row of the TS/TT kinds and the
    // updated column of the update kinds.
    const KernelKind kind = kernels::qr_dual(t.kind);
    const bool pivots = kind == KernelKind::TSQRT || kind == KernelKind::TSMQR ||
                        kind == KernelKind::TTQRT || kind == KernelKind::TTMQR;
    const bool updates =
        kind == KernelKind::UNMQR || kind == KernelKind::TSMQR || kind == KernelKind::TTMQR;
    TILEDQR_CHECK(!pivots || (t.piv >= 0 && t.piv < p),
                  stringf("infer_dependencies: %s pivot row %d outside the %d tile rows",
                          kernels::kernel_name(t.kind), t.piv, p));
    TILEDQR_CHECK(!updates || (t.j >= 0 && t.j < q),
                  stringf("infer_dependencies: %s column %d outside the %d tile columns",
                          kernels::kernel_name(t.kind), t.j, q));
  }
  DependencyTracker deps(p, q, tasks);
  for (size_t id = 0; id < tasks.size(); ++id) apply_accesses(deps, std::int32_t(id), tasks[id]);
}

}  // namespace tiledqr::dag
