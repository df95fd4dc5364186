// Pareto-optimal partition-size model (paper component IV, section III-D).
//
// Given per-node execution-time models f_i(x) = m_i·x + c_i and dirty
// rates k_i = E_i - GE_bar_i, sizes the p partitions by the scalarized
// multi-objective LP
//
//   minimize   α·v + (1-α)·Σ k_i·(m_i·x_i + c_i)
//   subject to v >= m_i·x_i + c_i  for all i,
//              Σ x_i = N,  x_i >= 0
//
// α = 1 is the Het-Aware scheme (pure makespan); α < 1 trades time for
// dirty energy (Het-Energy-Aware). Scalarization guarantees each solve
// lands on the Pareto frontier; sweeping α traces the frontier.
//
// A closed-form water-filling solver for α = 1 cross-checks the LP.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "optimize/simplex.h"

namespace hetsim::optimize {

/// Per-node inputs to the model.
struct NodeModel {
  /// Execution-time regression f(x) = slope·x + intercept, seconds.
  double slope = 0.0;
  double intercept = 0.0;
  /// Dirty power draw k = E - GE_bar, watts (may be negative when the
  /// green forecast exceeds node draw).
  double dirty_rate = 0.0;

  [[nodiscard]] double time_s(double records) const noexcept {
    return slope * records + intercept;
  }
};

struct PartitionPlan {
  /// Continuous LP solution.
  std::vector<double> continuous;
  /// Integer record counts (largest-remainder rounding; sums to N).
  std::vector<std::size_t> sizes;
  /// max_i f_i(x_i) at the continuous solution.
  double predicted_makespan_s = 0.0;
  /// Σ k_i · f_i(x_i) at the continuous solution (joules); only counts
  /// nodes with x_i > 0 work — idle nodes are assumed parked.
  double predicted_dirty_joules = 0.0;
  std::size_t lp_iterations = 0;
};

/// Solve the scalarized LP for `total` records across models.size()
/// partitions. Throws OptimizeError if the LP is infeasible/unbounded or
/// alpha is outside [0, 1].
[[nodiscard]] PartitionPlan solve_partition_sizes(
    std::span<const NodeModel> models, std::size_t total, double alpha);

/// Replica placement inputs for the replication-aware energy term. With
/// k-way replication (src/ha) every record assigned to node i is also
/// written to the k-1 nodes backing i's ring arcs, so partition sizing
/// should charge THOSE nodes' dirty rates for the copy work:
///
///   energy_i(x_i) += x_i · write_s_per_record · Σ_{j ∈ replica_sets[i]} k_j
///
/// The term is linear in x_i, so it folds straight into the scalarized
/// LP's cost row — the frontier stays a frontier, it just tilts away
/// from nodes whose replicas sit on dirty-powered peers.
struct ReplicaCostModel {
  /// Copies per record (1 = no replication, term vanishes).
  std::size_t replication = 1;
  /// Seconds of store work one replica copy of one record costs.
  double write_s_per_record = 0.0;
  /// replica_sets[i] = nodes holding the extra copies of records
  /// primaried on node i (ha::ShardMap::replica_sets()).
  std::vector<std::vector<std::uint32_t>> replica_sets;
};

/// Scalarized solve with the replica energy term added to the cost row.
/// Falls back to solve_partition_sizes when the term vanishes
/// (replication <= 1, zero write cost, or empty placement). The plan's
/// predicted_dirty_joules includes the replica-write energy.
[[nodiscard]] PartitionPlan solve_partition_sizes_replicated(
    std::span<const NodeModel> models, std::size_t total, double alpha,
    const ReplicaCostModel& replicas);

/// Closed-form α = 1 solution: water-filling that equalizes finish times
/// across the nodes that receive work.
[[nodiscard]] PartitionPlan waterfill_makespan(std::span<const NodeModel> models,
                                               std::size_t total);

/// Equal-size baseline plan ("Stratified" in the paper): N/p records per
/// partition regardless of node capability.
[[nodiscard]] PartitionPlan equal_split(std::span<const NodeModel> models,
                                        std::size_t total);

/// One point of a Pareto-frontier sweep.
struct FrontierPoint {
  double alpha = 1.0;
  double makespan_s = 0.0;
  double dirty_joules = 0.0;
  std::vector<std::size_t> sizes;
};

/// Sweep α over `alphas`, solving the LP at each (paper Fig. 5/6).
[[nodiscard]] std::vector<FrontierPoint> sweep_frontier(
    std::span<const NodeModel> models, std::size_t total,
    std::span<const double> alphas);

/// Normalized scalarization (the paper's future-work fix for the alpha
/// sensitivity problem, section III-D): both objectives are rescaled to
/// [0, 1] over the frontier's extreme points before weighting,
///
///   minimize α·(v - v*)/(v° - v*) + (1-α)·(g - g*)/(g° - g*)
///
/// where v*/g* are each objective's best achievable value and v°/g° its
/// value at the other extreme. α = 0.5 then means "equal relative
/// weight" regardless of the raw second/joule scales, so one α works
/// across workloads. Implemented by solving the extremes first and
/// rescaling the LP cost row.
[[nodiscard]] PartitionPlan solve_partition_sizes_normalized(
    std::span<const NodeModel> models, std::size_t total, double alpha);

/// Frontier sweep under the normalized scalarization.
[[nodiscard]] std::vector<FrontierPoint> sweep_frontier_normalized(
    std::span<const NodeModel> models, std::size_t total,
    std::span<const double> alphas);

}  // namespace hetsim::optimize
