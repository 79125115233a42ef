#include "core/plan.hpp"

#include "runtime/executor.hpp"
#include "sim/critical_path.hpp"
#include "sim/dynamic.hpp"
#include "trees/generators.hpp"

namespace tiledqr::core {

Plan make_plan(int p, int q, const trees::TreeConfig& config, kernels::FactorKind factor) {
  Plan plan;
  if (trees::is_dynamic(config.kind)) {
    auto dyn = config.kind == trees::TreeKind::Asap
                   ? sim::simulate_asap(p, q)
                   : sim::simulate_grasap(p, q, config.grasap_k);
    plan.list = std::move(dyn.list);
  } else {
    plan.list = trees::make_static_elimination_list(p, q, config);
  }
  plan.graph = dag::build_task_graph(p, q, plan.list, factor);
  plan.critical_path = sim::earliest_finish(plan.graph).critical_path;
  plan.ranks = runtime::downward_ranks(plan.graph);
  return plan;
}

FusedPlan make_fused_plan(std::span<const std::shared_ptr<const Plan>> plans) {
  FusedPlan fused;
  size_t total = 0;
  for (const auto& p : plans) total += p->graph.tasks.size();
  fused.graph.tasks.reserve(total);
  fused.ranks.reserve(total);
  fused.parts.reserve(plans.size());
  for (const auto& p : plans) {
    const auto begin = fused.graph.append_offset(p->graph);
    fused.parts.push_back(
        FusedPlan::Part{begin, begin + std::int32_t(p->graph.tasks.size())});
    fused.ranks.insert(fused.ranks.end(), p->ranks.begin(), p->ranks.end());
  }
  return fused;
}

FusedPlan make_homogeneous_fused_plan(std::shared_ptr<const Plan> base, int count) {
  FusedPlan fused;
  fused.stride = std::int32_t(base->graph.tasks.size());
  fused.count = count;
  fused.base = std::move(base);
  return fused;
}

long plan_critical_path(int p, int q, const trees::TreeConfig& config) {
  return make_plan(p, q, config).critical_path;
}

BestBs best_plasma_bs(int p, int q, trees::KernelFamily family) {
  BestBs best;
  best.critical_path = -1;
  for (int bs = 1; bs <= p; ++bs) {
    trees::TreeConfig c{trees::TreeKind::PlasmaTree, family, bs, 0};
    long cp = sim::critical_path_units(p, q, c);
    if (best.critical_path < 0 || cp < best.critical_path) {
      best.bs = bs;
      best.critical_path = cp;
    }
  }
  return best;
}

}  // namespace tiledqr::core
