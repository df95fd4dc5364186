#include "optimize/pareto.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "check/check.h"
#include "common/allocation.h"
#include "common/error.h"

namespace hetsim::optimize {

namespace {

constexpr double kTinyWork = 1e-9;

/// Feasibility contract on a solved partitioning LP (paper §III): the
/// continuous solution must satisfy Σ x_i = N, x_i >= 0 and
/// v >= m_i·x_i + c_i for every node, to solver tolerance. A simplex
/// result that violates its own constraints means the modeler is about
/// to ship an impossible plan — fail fast instead.
void check_lp_feasible(std::span<const NodeModel> models, std::size_t total,
                       const LpSolution& sol) {
  const std::size_t p = models.size();
  const double n = static_cast<double>(total);
  const double tol = 1e-6 * std::max(1.0, n);
  double sum_x = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    HETSIM_INVARIANT(sol.x[i] >= -tol)
        << ": LP gave node " << i << " negative work x=" << sol.x[i];
    sum_x += sol.x[i];
  }
  HETSIM_INVARIANT(std::abs(sum_x - n) <= tol)
      << ": LP conservation broken, sum x_i=" << sum_x << " vs N=" << n;
  const double v = sol.x[p];
  for (std::size_t i = 0; i < p; ++i) {
    const double finish = models[i].slope * sol.x[i] + models[i].intercept;
    HETSIM_INVARIANT(v >= finish - 1e-6 * std::max(1.0, std::abs(finish)))
        << ": makespan var v=" << v << " below node " << i
        << " finish time " << finish;
  }
}

void validate_models(std::span<const NodeModel> models) {
  common::require<common::ConfigError>(!models.empty(),
                                       "pareto: no node models");
  for (const NodeModel& m : models) {
    common::require<common::ConfigError>(m.slope > 0.0 && m.intercept >= 0.0,
                                         "pareto: invalid time model");
  }
}

PartitionPlan finalize(std::span<const NodeModel> models, std::size_t total,
                       std::vector<double> continuous, std::size_t iterations) {
  PartitionPlan plan;
  plan.lp_iterations = iterations;
  plan.predicted_makespan_s = 0.0;
  plan.predicted_dirty_joules = 0.0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (continuous[i] > kTinyWork) {
      const double t = models[i].time_s(continuous[i]);
      plan.predicted_makespan_s = std::max(plan.predicted_makespan_s, t);
      plan.predicted_dirty_joules += models[i].dirty_rate * t;
    }
  }
  // predicted_dirty_joules may be negative (nodes with a green surplus
  // carry a negative dirty rate) but never non-finite.
  HETSIM_INVARIANT(std::isfinite(plan.predicted_dirty_joules))
      << ": non-finite predicted dirty energy "
      << plan.predicted_dirty_joules;
  plan.sizes = common::proportional_allocation(continuous, total);
  HETSIM_DCHECK_EQ(
      std::accumulate(plan.sizes.begin(), plan.sizes.end(), std::size_t{0}),
      total);
  plan.continuous = std::move(continuous);
  return plan;
}

}  // namespace

namespace {

/// Core LP: minimize w_time·v + w_energy·Σ (k_i·m_i + e_i)·x_i subject
/// to the partitioning constraints, where e_i is an optional extra
/// per-record energy rate (replica-write term; empty = none). Both
/// weights must be >= 0, not both zero.
PartitionPlan solve_scalarized(std::span<const NodeModel> models,
                               std::size_t total, double w_time,
                               double w_energy,
                               std::span<const double> extra_energy = {}) {
  const std::size_t p = models.size();
  LpProblem lp;
  lp.num_vars = p + 1;  // x_0..x_{p-1}, then v
  lp.objective.assign(p + 1, 0.0);
  for (std::size_t i = 0; i < p; ++i) {
    const double extra = extra_energy.empty() ? 0.0 : extra_energy[i];
    lp.objective[i] =
        w_energy * (models[i].dirty_rate * models[i].slope + extra);
  }
  lp.objective[p] = w_time;

  // v >= m_i x_i + c_i   <=>   -m_i x_i + v >= c_i
  for (std::size_t i = 0; i < p; ++i) {
    std::vector<double> row(p + 1, 0.0);
    row[i] = -models[i].slope;
    row[p] = 1.0;
    lp.add_constraint(std::move(row), Relation::kGe, models[i].intercept);
  }
  // Sum x_i = N.
  std::vector<double> sum_row(p + 1, 0.0);
  for (std::size_t i = 0; i < p; ++i) sum_row[i] = 1.0;
  lp.add_constraint(std::move(sum_row), Relation::kEq,
                    static_cast<double>(total));

  const LpSolution sol = solve_lp(lp);
  common::require<common::OptimizeError>(sol.status == LpStatus::kOptimal,
                                         "pareto: LP not optimal (infeasible "
                                         "or unbounded partitioning problem)");
  check_lp_feasible(models, total, sol);
  std::vector<double> x(sol.x.begin(), sol.x.begin() + static_cast<long>(p));
  return finalize(models, total, std::move(x), sol.iterations);
}

}  // namespace

PartitionPlan solve_partition_sizes(std::span<const NodeModel> models,
                                    std::size_t total, double alpha) {
  validate_models(models);
  common::require<common::ConfigError>(alpha >= 0.0 && alpha <= 1.0,
                                       "pareto: alpha must be in [0, 1]");
  return solve_scalarized(models, total, alpha, 1.0 - alpha);
}

namespace {

/// Per-record replica-write dirty rate of each node's partition:
/// e_i = write_s_per_record · Σ_{j ∈ replica_sets[i]} dirty_rate_j.
std::vector<double> replica_energy_rates(std::span<const NodeModel> models,
                                         const ReplicaCostModel& replicas) {
  common::require<common::ConfigError>(
      replicas.replica_sets.size() == models.size(),
      "pareto: replica_sets arity mismatch");
  common::require<common::ConfigError>(
      replicas.write_s_per_record >= 0.0,
      "pareto: write_s_per_record must be >= 0");
  std::vector<double> rates(models.size(), 0.0);
  for (std::size_t i = 0; i < models.size(); ++i) {
    for (const std::uint32_t j : replicas.replica_sets[i]) {
      common::require<common::ConfigError>(
          j < models.size(), "pareto: replica set names unknown node");
      rates[i] += replicas.write_s_per_record * models[j].dirty_rate;
    }
  }
  return rates;
}

}  // namespace

PartitionPlan solve_partition_sizes_replicated(
    std::span<const NodeModel> models, std::size_t total, double alpha,
    const ReplicaCostModel& replicas) {
  validate_models(models);
  common::require<common::ConfigError>(alpha >= 0.0 && alpha <= 1.0,
                                       "pareto: alpha must be in [0, 1]");
  if (replicas.replication <= 1 || replicas.write_s_per_record <= 0.0 ||
      replicas.replica_sets.empty()) {
    return solve_scalarized(models, total, alpha, 1.0 - alpha);
  }
  const std::vector<double> rates = replica_energy_rates(models, replicas);
  PartitionPlan plan =
      solve_scalarized(models, total, alpha, 1.0 - alpha, rates);
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (plan.continuous[i] > kTinyWork) {
      plan.predicted_dirty_joules += rates[i] * plan.continuous[i];
    }
  }
  return plan;
}

PartitionPlan solve_partition_sizes_normalized(
    std::span<const NodeModel> models, std::size_t total, double alpha) {
  validate_models(models);
  common::require<common::ConfigError>(alpha >= 0.0 && alpha <= 1.0,
                                       "pareto: alpha must be in [0, 1]");
  // Extreme points of the frontier give each objective's range.
  const PartitionPlan fast = solve_scalarized(models, total, 1.0, 0.0);
  const PartitionPlan green = solve_scalarized(models, total, 0.0, 1.0);
  const double v_range =
      green.predicted_makespan_s - fast.predicted_makespan_s;
  const double g_range =
      fast.predicted_dirty_joules - green.predicted_dirty_joules;
  // Degenerate frontier (one point optimizes both): any alpha gives it.
  if (v_range <= 1e-15 || g_range <= 1e-15) {
    return solve_scalarized(models, total, alpha, 1.0 - alpha);
  }
  return solve_scalarized(models, total, alpha / v_range,
                          (1.0 - alpha) / g_range);
}

PartitionPlan waterfill_makespan(std::span<const NodeModel> models,
                                 std::size_t total) {
  validate_models(models);
  const std::size_t p = models.size();
  std::vector<bool> active(p, true);
  double v = 0.0;
  for (;;) {
    double inv_sum = 0.0;
    double offset = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      if (!active[i]) continue;
      inv_sum += 1.0 / models[i].slope;
      offset += models[i].intercept / models[i].slope;
    }
    common::require<common::OptimizeError>(inv_sum > 0.0,
                                           "waterfill: no active nodes");
    v = (static_cast<double>(total) + offset) / inv_sum;
    // Any active node whose intercept already exceeds the level gets no
    // work; drop the worst offender and re-level.
    std::size_t worst = p;
    double worst_c = v;
    for (std::size_t i = 0; i < p; ++i) {
      if (active[i] && models[i].intercept > worst_c) {
        worst_c = models[i].intercept;
        worst = i;
      }
    }
    if (worst == p) break;
    active[worst] = false;
  }
  std::vector<double> x(p, 0.0);
  for (std::size_t i = 0; i < p; ++i) {
    if (active[i]) x[i] = (v - models[i].intercept) / models[i].slope;
  }
  return finalize(models, total, std::move(x), 0);
}

PartitionPlan equal_split(std::span<const NodeModel> models, std::size_t total) {
  validate_models(models);
  std::vector<double> x(models.size(),
                        static_cast<double>(total) /
                            static_cast<double>(models.size()));
  return finalize(models, total, std::move(x), 0);
}

namespace {

std::vector<FrontierPoint> sweep_impl(
    std::span<const NodeModel> models, std::size_t total,
    std::span<const double> alphas,
    PartitionPlan (*solver)(std::span<const NodeModel>, std::size_t, double)) {
  std::vector<FrontierPoint> frontier;
  frontier.reserve(alphas.size());
  for (const double alpha : alphas) {
    PartitionPlan plan = solver(models, total, alpha);
    FrontierPoint pt;
    pt.alpha = alpha;
    pt.makespan_s = plan.predicted_makespan_s;
    pt.dirty_joules = plan.predicted_dirty_joules;
    pt.sizes = std::move(plan.sizes);
    frontier.push_back(std::move(pt));
  }
  return frontier;
}

}  // namespace

std::vector<FrontierPoint> sweep_frontier(std::span<const NodeModel> models,
                                          std::size_t total,
                                          std::span<const double> alphas) {
  return sweep_impl(models, total, alphas, &solve_partition_sizes);
}

std::vector<FrontierPoint> sweep_frontier_normalized(
    std::span<const NodeModel> models, std::size_t total,
    std::span<const double> alphas) {
  return sweep_impl(models, total, alphas, &solve_partition_sizes_normalized);
}

}  // namespace hetsim::optimize
