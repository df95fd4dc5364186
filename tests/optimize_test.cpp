// Tests for the simplex solver and the Pareto partition model, including
// the cross-check between the LP at alpha=1 and closed-form water-filling
// and the Pareto dominance property of the frontier sweep.
#include <gtest/gtest.h>

#include <numeric>

#include "common/error.h"
#include "optimize/pareto.h"
#include "optimize/simplex.h"

namespace hetsim::optimize {
namespace {

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (Dantzig example)
  // == min -3x - 5y; optimum x=2, y=6, objective -36.
  LpProblem p;
  p.num_vars = 2;
  p.objective = {-3, -5};
  p.add_constraint({1, 0}, Relation::kLe, 4);
  p.add_constraint({0, 2}, Relation::kLe, 12);
  p.add_constraint({3, 2}, Relation::kLe, 18);
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 6.0, 1e-9);
  EXPECT_NEAR(s.objective, -36.0, 1e-9);
}

TEST(Simplex, HandlesEqualityConstraints) {
  // min x + 2y s.t. x + y = 10, x <= 4 -> x=4, y=6, objective 16.
  LpProblem p;
  p.num_vars = 2;
  p.objective = {1, 2};
  p.add_constraint({1, 1}, Relation::kEq, 10);
  p.add_constraint({1, 0}, Relation::kLe, 4);
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 4.0, 1e-9);
  EXPECT_NEAR(s.x[1], 6.0, 1e-9);
}

TEST(Simplex, HandlesGreaterEqual) {
  // min 2x + 3y s.t. x + y >= 5, x >= 0, y >= 0 -> x=5, y=0.
  LpProblem p;
  p.num_vars = 2;
  p.objective = {2, 3};
  p.add_constraint({1, 1}, Relation::kGe, 5);
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 5.0, 1e-9);
  EXPECT_NEAR(s.x[1], 0.0, 1e-9);
  EXPECT_NEAR(s.objective, 10.0, 1e-9);
}

TEST(Simplex, DetectsInfeasibility) {
  LpProblem p;
  p.num_vars = 1;
  p.objective = {1};
  p.add_constraint({1}, Relation::kLe, 1);
  p.add_constraint({1}, Relation::kGe, 2);
  EXPECT_EQ(solve_lp(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  LpProblem p;
  p.num_vars = 1;
  p.objective = {-1};  // maximize x with no upper bound
  p.add_constraint({1}, Relation::kGe, 0);
  EXPECT_EQ(solve_lp(p).status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalized) {
  // min x s.t. -x <= -3  (i.e. x >= 3).
  LpProblem p;
  p.num_vars = 1;
  p.objective = {1};
  p.add_constraint({-1}, Relation::kLe, -3);
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Multiple redundant constraints produce degeneracy; Bland's rule must
  // still terminate.
  LpProblem p;
  p.num_vars = 2;
  p.objective = {-1, -1};
  p.add_constraint({1, 1}, Relation::kLe, 1);
  p.add_constraint({1, 1}, Relation::kLe, 1);
  p.add_constraint({2, 2}, Relation::kLe, 2);
  p.add_constraint({1, 0}, Relation::kLe, 1);
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -1.0, 1e-9);
}

TEST(Simplex, RejectsArityMismatch) {
  LpProblem p;
  p.num_vars = 2;
  p.objective = {1};
  EXPECT_THROW((void)solve_lp(p), common::ConfigError);
}

// ---- Pareto model ----------------------------------------------------------

std::vector<NodeModel> standard_models() {
  // Four-node cluster mirroring speeds 4/3/2/1: slope inversely
  // proportional to speed; dirty rates differ per node.
  return {
      NodeModel{.slope = 1e-4, .intercept = 0.1, .dirty_rate = 300.0},
      NodeModel{.slope = 1.33e-4, .intercept = 0.1, .dirty_rate = 200.0},
      NodeModel{.slope = 2e-4, .intercept = 0.1, .dirty_rate = 100.0},
      NodeModel{.slope = 4e-4, .intercept = 0.1, .dirty_rate = 50.0},
  };
}

TEST(Pareto, SizesSumToTotal) {
  const auto models = standard_models();
  for (const double alpha : {1.0, 0.999, 0.9, 0.5, 0.0}) {
    const PartitionPlan plan = solve_partition_sizes(models, 10001, alpha);
    EXPECT_EQ(std::accumulate(plan.sizes.begin(), plan.sizes.end(),
                              std::size_t{0}),
              10001u)
        << "alpha " << alpha;
  }
}

TEST(Pareto, AlphaOneMatchesWaterFilling) {
  const auto models = standard_models();
  const PartitionPlan lp = solve_partition_sizes(models, 50000, 1.0);
  const PartitionPlan wf = waterfill_makespan(models, 50000);
  EXPECT_NEAR(lp.predicted_makespan_s, wf.predicted_makespan_s, 1e-6);
  for (std::size_t i = 0; i < models.size(); ++i) {
    EXPECT_NEAR(lp.continuous[i], wf.continuous[i],
                1e-4 * (wf.continuous[i] + 1.0));
  }
}

TEST(Pareto, AlphaOneEqualizesFinishTimes) {
  const auto models = standard_models();
  const PartitionPlan plan = solve_partition_sizes(models, 100000, 1.0);
  std::vector<double> finish;
  for (std::size_t i = 0; i < models.size(); ++i) {
    finish.push_back(models[i].time_s(plan.continuous[i]));
  }
  for (const double f : finish) {
    EXPECT_NEAR(f, plan.predicted_makespan_s, 1e-6);
  }
}

TEST(Pareto, FasterNodesGetMoreWork) {
  const auto models = standard_models();
  const PartitionPlan plan = solve_partition_sizes(models, 100000, 1.0);
  EXPECT_GT(plan.sizes[0], plan.sizes[1]);
  EXPECT_GT(plan.sizes[1], plan.sizes[2]);
  EXPECT_GT(plan.sizes[2], plan.sizes[3]);
}

TEST(Pareto, HetAwareBeatsEqualSplitOnMakespan) {
  const auto models = standard_models();
  const PartitionPlan het = solve_partition_sizes(models, 100000, 1.0);
  const PartitionPlan eq = equal_split(models, 100000);
  EXPECT_LT(het.predicted_makespan_s, eq.predicted_makespan_s * 0.75);
}

TEST(Pareto, LowAlphaShiftsLoadToCleanNodes) {
  const auto models = standard_models();  // node 3 is cleanest
  const PartitionPlan fast = solve_partition_sizes(models, 100000, 1.0);
  const PartitionPlan green = solve_partition_sizes(models, 100000, 0.5);
  EXPECT_GT(green.sizes[3], fast.sizes[3]);
  EXPECT_LE(green.predicted_dirty_joules, fast.predicted_dirty_joules);
  EXPECT_GE(green.predicted_makespan_s, fast.predicted_makespan_s);
}

TEST(Pareto, FrontierIsMonotoneInAlpha) {
  const auto models = standard_models();
  const std::vector<double> alphas{1.0, 0.9999, 0.999, 0.99, 0.9, 0.5, 0.0};
  const auto frontier = sweep_frontier(models, 100000, alphas);
  ASSERT_EQ(frontier.size(), alphas.size());
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    // As alpha decreases: makespan weakly increases, dirty energy weakly
    // decreases (Pareto frontier traversal).
    EXPECT_GE(frontier[i].makespan_s, frontier[i - 1].makespan_s - 1e-9);
    EXPECT_LE(frontier[i].dirty_joules, frontier[i - 1].dirty_joules + 1e-9);
  }
}

TEST(Pareto, FrontierPointsDominateEqualSplit) {
  const auto models = standard_models();
  const PartitionPlan eq = equal_split(models, 100000);
  const std::vector<double> alphas{1.0, 0.999};
  const auto frontier = sweep_frontier(models, 100000, alphas);
  // The alpha=1 point must beat the baseline on time; no frontier point
  // may be dominated BY the baseline (worse on both axes).
  EXPECT_LT(frontier[0].makespan_s, eq.predicted_makespan_s);
  for (const auto& pt : frontier) {
    const bool dominated = pt.makespan_s > eq.predicted_makespan_s + 1e-9 &&
                           pt.dirty_joules > eq.predicted_dirty_joules + 1e-9;
    EXPECT_FALSE(dominated);
  }
}

TEST(Pareto, NegativeDirtyRateAttractsAllLoadAtLowAlpha) {
  auto models = standard_models();
  models[2].dirty_rate = -10.0;  // green surplus node
  const PartitionPlan plan = solve_partition_sizes(models, 1000, 0.0);
  // With alpha=0 only energy matters: everything goes to the only node
  // whose marginal energy is negative.
  EXPECT_EQ(plan.sizes[2], 1000u);
}

TEST(Pareto, PlanMetricsMatchHandComputation) {
  const auto models = standard_models();
  // The equal split gives every node 250 records.
  const PartitionPlan plan = equal_split(models, 1000);
  EXPECT_NEAR(plan.predicted_makespan_s, 4e-4 * 250 + 0.1, 1e-12);
  double dirty = 0.0;
  for (const NodeModel& m : models) dirty += m.dirty_rate * (m.slope * 250 + 0.1);
  EXPECT_NEAR(plan.predicted_dirty_joules, dirty, 1e-9);
}

TEST(Pareto, IdleNodesContributeNothing) {
  auto models = standard_models();
  models[2].dirty_rate = -10.0;  // at alpha=0 all load goes here
  const PartitionPlan plan = solve_partition_sizes(models, 1000, 0.0);
  ASSERT_EQ(plan.sizes[2], 1000u);
  // Only node 2's time/energy counts; idle intercepts are excluded.
  EXPECT_NEAR(plan.predicted_makespan_s, 2e-4 * 1000 + 0.1, 1e-9);
  EXPECT_NEAR(plan.predicted_dirty_joules, -10.0 * (2e-4 * 1000 + 0.1), 1e-9);
}

TEST(Pareto, RejectsInvalidInput) {
  const auto models = standard_models();
  EXPECT_THROW((void)solve_partition_sizes(models, 100, 1.5),
               common::ConfigError);
  EXPECT_THROW((void)solve_partition_sizes({}, 100, 1.0), common::ConfigError);
  auto bad = standard_models();
  bad[0].slope = 0.0;
  EXPECT_THROW((void)solve_partition_sizes(bad, 100, 1.0), common::ConfigError);
}

TEST(Pareto, SingleNodeTakesEverything) {
  const std::vector<NodeModel> one{
      NodeModel{.slope = 1e-3, .intercept = 0.0, .dirty_rate = 10.0}};
  const PartitionPlan plan = solve_partition_sizes(one, 777, 0.9);
  EXPECT_EQ(plan.sizes[0], 777u);
}

TEST(NormalizedPareto, ExtremesMatchRawFormulation) {
  const auto models = standard_models();
  const PartitionPlan raw1 = solve_partition_sizes(models, 50000, 1.0);
  const PartitionPlan norm1 = solve_partition_sizes_normalized(models, 50000, 1.0);
  EXPECT_NEAR(norm1.predicted_makespan_s, raw1.predicted_makespan_s, 1e-9);
  const PartitionPlan raw0 = solve_partition_sizes(models, 50000, 0.0);
  const PartitionPlan norm0 = solve_partition_sizes_normalized(models, 50000, 0.0);
  EXPECT_NEAR(norm0.predicted_dirty_joules, raw0.predicted_dirty_joules, 1e-6);
}

TEST(NormalizedPareto, MidAlphaGivesInteriorTradeoff) {
  const auto models = standard_models();
  const PartitionPlan fast = solve_partition_sizes_normalized(models, 100000, 1.0);
  const PartitionPlan mid = solve_partition_sizes_normalized(models, 100000, 0.5);
  const PartitionPlan green = solve_partition_sizes_normalized(models, 100000, 0.0);
  // alpha = 0.5 with normalized objectives must land strictly between the
  // extremes on at least one axis and never outside the envelope.
  EXPECT_GE(mid.predicted_makespan_s, fast.predicted_makespan_s - 1e-9);
  EXPECT_LE(mid.predicted_makespan_s, green.predicted_makespan_s + 1e-9);
  EXPECT_LE(mid.predicted_dirty_joules, fast.predicted_dirty_joules + 1e-9);
  EXPECT_GE(mid.predicted_dirty_joules, green.predicted_dirty_joules - 1e-9);
}

TEST(NormalizedPareto, SweepIsMonotone) {
  const auto models = standard_models();
  const std::vector<double> alphas{1.0, 0.8, 0.6, 0.4, 0.2, 0.0};
  const auto frontier = sweep_frontier_normalized(models, 100000, alphas);
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GE(frontier[i].makespan_s, frontier[i - 1].makespan_s - 1e-9);
    EXPECT_LE(frontier[i].dirty_joules, frontier[i - 1].dirty_joules + 1e-9);
  }
}

TEST(NormalizedPareto, DegenerateFrontierHandled) {
  // All nodes identical: the frontier is a single point; any alpha must
  // return a valid plan rather than dividing by a zero range.
  std::vector<NodeModel> same(4, NodeModel{.slope = 1e-4,
                                           .intercept = 0.1,
                                           .dirty_rate = 100.0});
  const PartitionPlan plan = solve_partition_sizes_normalized(same, 1000, 0.5);
  EXPECT_EQ(std::accumulate(plan.sizes.begin(), plan.sizes.end(),
                            std::size_t{0}),
            1000u);
}

TEST(Waterfill, DropsNodesWithHugeIntercept) {
  std::vector<NodeModel> models = standard_models();
  models[3].intercept = 1e9;  // startup cost so large it should stay idle
  const PartitionPlan plan = waterfill_makespan(models, 1000);
  EXPECT_EQ(plan.sizes[3], 0u);
  EXPECT_EQ(std::accumulate(plan.sizes.begin(), plan.sizes.end(),
                            std::size_t{0}),
            1000u);
}

}  // namespace
}  // namespace hetsim::optimize
