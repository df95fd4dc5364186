// Tests for the work-stealing baseline simulator.
#include <gtest/gtest.h>

#include <numeric>

#include "common/error.h"
#include "core/workstealing.h"

namespace hetsim::core {
namespace {

cluster::Cluster make_cluster(std::uint32_t n) {
  return cluster::Cluster(cluster::standard_cluster(n));
}

std::vector<ChunkCost> uniform_chunks(std::size_t n, double work,
                                      double bytes) {
  return std::vector<ChunkCost>(n, ChunkCost{work, bytes});
}

TEST(WorkStealing, EmptyInputIsNoOp) {
  auto c = make_cluster(4);
  const auto report = simulate_work_stealing(c, {});
  EXPECT_EQ(report.makespan_s, 0.0);
  EXPECT_EQ(report.steals, 0u);
}

TEST(WorkStealing, SingleNodeProcessesEverything) {
  auto c = make_cluster(1);
  const auto chunks = uniform_chunks(10, 1e6, 100.0);
  const auto report = simulate_work_stealing(c, chunks);
  // Node 0 is type 1, speed 4: 10 Mu / (1e6 u/s * 4) = 2.5 s.
  EXPECT_NEAR(report.makespan_s, 2.5, 1e-9);
  EXPECT_EQ(report.steals, 0u);
}

TEST(WorkStealing, StealsBalanceHeterogeneousNodes) {
  auto c = make_cluster(4);  // speeds 4/3/2/1
  const auto chunks = uniform_chunks(40, 1e6, 1000.0);
  const auto report = simulate_work_stealing(c, chunks);
  EXPECT_GT(report.steals, 0u);
  // Without stealing, equal deal gives the slow node 10 Mu -> 10 s.
  // Stealing should get the makespan well below that and near the ideal
  // 40 Mu / (10 speed-units * 1e6) = 4 s.
  EXPECT_LT(report.makespan_s, 7.0);
  EXPECT_GE(report.makespan_s, 4.0 - 1e-9);
}

TEST(WorkStealing, MigrationAccounted) {
  auto c = make_cluster(2);  // speeds 4 and 3
  const auto chunks = uniform_chunks(16, 1e6, 1e6);  // 1 MB chunks
  const auto report = simulate_work_stealing(c, chunks);
  if (report.steals > 0) {
    EXPECT_GT(report.migrated_bytes, 0.0);
    EXPECT_GT(report.migration_time_s, 0.0);
    EXPECT_NEAR(report.migrated_bytes,
                static_cast<double>(report.steals) * 1e6, 1e-6);
  }
}

TEST(WorkStealing, DeterministicAcrossRuns) {
  auto c1 = make_cluster(4);
  auto c2 = make_cluster(4);
  const auto chunks = uniform_chunks(23, 7.7e5, 512.0);
  const auto a = simulate_work_stealing(c1, chunks);
  const auto b = simulate_work_stealing(c2, chunks);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.steals, b.steals);
}

TEST(WorkStealing, SkewedChunksStillComplete) {
  auto c = make_cluster(4);
  std::vector<ChunkCost> chunks;
  for (std::size_t i = 0; i < 20; ++i) {
    chunks.push_back({static_cast<double>((i % 5 + 1)) * 1e5, 64.0});
  }
  const auto report = simulate_work_stealing(c, chunks);
  // All work accounted: busy time >= total work at fastest speed.
  const double total_work =
      std::accumulate(chunks.begin(), chunks.end(), 0.0,
                      [](double acc, const ChunkCost& ch) {
                        return acc + ch.work_units;
                      });
  double total_busy = 0;
  for (const double t : report.node_busy_s) total_busy += t;
  EXPECT_GE(total_busy, total_work / (1e6 * 4.0) - 1e-9);
}

TEST(WorkStealing, MoreChunksImproveBalance) {
  auto c = make_cluster(4);
  const auto coarse = simulate_work_stealing(
      c, uniform_chunks(8, 1e6, 100.0), {.chunks_per_node = 2});
  const auto fine = simulate_work_stealing(
      c, uniform_chunks(64, 1.25e5, 100.0), {.chunks_per_node = 16});
  EXPECT_LE(fine.makespan_s, coarse.makespan_s + 1e-9);
}

TEST(WorkStealing, RejectsBadOptions) {
  auto c = make_cluster(2);
  EXPECT_THROW((void)simulate_work_stealing(c, uniform_chunks(4, 1, 1),
                                            {.chunks_per_node = 0}),
               common::ConfigError);
}

}  // namespace
}  // namespace hetsim::core
