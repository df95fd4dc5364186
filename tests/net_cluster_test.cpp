// Tests for the network fabric cost model and the virtual-time cluster.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/node.h"
#include "common/error.h"
#include "net/fabric.h"

namespace hetsim {
namespace {

TEST(Fabric, ExchangeCostIncludesLatencyBothWays) {
  net::Fabric f(2, net::LinkSpec{.latency_s = 1e-3, .bandwidth_bps = 1e9});
  const double cost = f.exchange_cost(0, 1, 1000, 1000);
  EXPECT_NEAR(cost, 2e-3 + 2000.0 / 1e9, 1e-12);
}

TEST(Fabric, LoopbackIsCheaper) {
  net::Fabric f(2);
  EXPECT_LT(f.exchange_cost(0, 0, 100, 100), f.exchange_cost(0, 1, 100, 100));
}

TEST(Fabric, StatsAccumulateAndReset) {
  net::Fabric f(3);
  f.record(0, 1, 5, 1, 500);
  f.record(0, 1, 2, 2, 100);
  f.record(1, 2, 1, 1, 50);
  EXPECT_EQ(f.stats(0, 1).messages, 7u);
  EXPECT_EQ(f.stats(0, 1).bytes, 600u);
  EXPECT_EQ(f.total_stats().bytes, 650u);
  f.reset_stats();
  EXPECT_EQ(f.total_stats().messages, 0u);
}

TEST(Fabric, RejectsBadHosts) {
  net::Fabric f(2);
  EXPECT_THROW((void)f.exchange_cost(0, 5, 1, 1), common::ConfigError);
  EXPECT_THROW(net::Fabric(0), common::ConfigError);
}

TEST(Node, StandardNodePowerModel) {
  using cluster::NodeType;
  const auto t1 = cluster::standard_node(0, NodeType::kType1, 0);
  EXPECT_DOUBLE_EQ(t1.speed, 4.0);
  EXPECT_DOUBLE_EQ(t1.power_watts, 440.0);  // 60 + 4*95
  const auto t4 = cluster::standard_node(1, NodeType::kType4, 3);
  EXPECT_DOUBLE_EQ(t4.speed, 1.0);
  EXPECT_DOUBLE_EQ(t4.power_watts, 155.0);  // 60 + 1*95
}

TEST(Node, StandardClusterCyclesTypes) {
  const auto nodes = cluster::standard_cluster(8);
  ASSERT_EQ(nodes.size(), 8u);
  EXPECT_EQ(nodes[0].type, cluster::NodeType::kType1);
  EXPECT_EQ(nodes[3].type, cluster::NodeType::kType4);
  EXPECT_EQ(nodes[4].type, cluster::NodeType::kType1);
  EXPECT_EQ(nodes[5].location, 1u);
}

TEST(Node, MastersPreferFastNodes) {
  const auto nodes = cluster::standard_cluster(8);
  const auto masters = cluster::choose_masters(nodes, 2);
  ASSERT_EQ(masters.size(), 2u);
  EXPECT_EQ(nodes[masters[0]].type, cluster::NodeType::kType1);
  EXPECT_EQ(nodes[masters[1]].type, cluster::NodeType::kType1);
  EXPECT_NE(masters[0], masters[1]);
}

TEST(Node, ChooseMastersRejectsOverask) {
  const auto nodes = cluster::standard_cluster(2);
  EXPECT_THROW((void)cluster::choose_masters(nodes, 3), common::ConfigError);
}

class ClusterTest : public ::testing::Test {
 protected:
  cluster::Cluster make(std::uint32_t n = 4) {
    return cluster::Cluster(cluster::standard_cluster(n));
  }
};

TEST_F(ClusterTest, SpeedDividesVirtualTime) {
  auto c = make(4);  // speeds 4,3,2,1
  std::vector<cluster::NodeTask> tasks(4);
  for (int i = 0; i < 4; ++i) {
    tasks[i] = [](cluster::NodeContext& ctx) { ctx.meter().add(1e6); };
  }
  const auto report = c.run_phase("equal-work", tasks);
  // Same work, different speeds: node 3 (speed 1) is 4x slower than node 0.
  EXPECT_NEAR(report.per_node[3].compute_time_s /
                  report.per_node[0].compute_time_s,
              4.0, 1e-9);
  EXPECT_NEAR(report.makespan_s(), report.per_node[3].total_time_s(), 1e-12);
}

TEST_F(ClusterTest, ClockAdvancesByMakespan) {
  auto c = make(2);
  std::vector<cluster::NodeTask> tasks(2);
  tasks[0] = [](cluster::NodeContext& ctx) { ctx.meter().add(4e6); };
  tasks[1] = [](cluster::NodeContext& ctx) { ctx.meter().add(3e6); };
  EXPECT_EQ(c.now(), 0.0);
  const auto r1 = c.run_phase("p1", tasks);
  EXPECT_NEAR(c.now(), r1.makespan_s(), 1e-12);
  const auto r2 = c.run_phase("p2", tasks);
  EXPECT_NEAR(c.now(), r1.makespan_s() + r2.makespan_s(), 1e-12);
  EXPECT_EQ(c.history().size(), 2u);
}

TEST_F(ClusterTest, NetworkTimeChargedToPhase) {
  auto c = make(2);
  std::vector<cluster::NodeTask> tasks(2);
  tasks[0] = [](cluster::NodeContext& ctx) {
    ctx.client(1).set("remote-key", std::string(1000, 'x'));
  };
  const auto report = c.run_phase("net", tasks);
  EXPECT_GT(report.per_node[0].network_time_s, 0.0);
  EXPECT_EQ(report.per_node[1].network_time_s, 0.0);
  // The write landed on node 1's store.
  EXPECT_EQ(c.store(1).get("remote-key"), std::string(1000, 'x'));
}

TEST_F(ClusterTest, RunOnExecutesSingleNode) {
  auto c = make(4);
  const auto report = c.run_on("solo", 2, [](cluster::NodeContext& ctx) {
    ctx.meter().add(100.0);
  });
  EXPECT_GT(report.per_node[2].work_units, 0.0);
  EXPECT_EQ(report.per_node[0].work_units, 0.0);
}

TEST_F(ClusterTest, RejectsWrongTaskArity) {
  auto c = make(2);
  std::vector<cluster::NodeTask> tasks(1);
  EXPECT_THROW((void)c.run_phase("bad", tasks), common::ConfigError);
}

TEST_F(ClusterTest, RejectsNonDenseIds) {
  auto nodes = cluster::standard_cluster(2);
  nodes[1].id = 5;
  EXPECT_THROW(cluster::Cluster{nodes}, common::ConfigError);
}

TEST_F(ClusterTest, JitterPerturbsPhaseTimes) {
  cluster::ClusterOptions opts;
  opts.speed_jitter = 0.3;
  cluster::Cluster c(cluster::standard_cluster(2), opts);
  std::vector<cluster::NodeTask> tasks(2);
  for (auto& t : tasks) {
    t = [](cluster::NodeContext& ctx) { ctx.meter().add(1e6); };
  }
  const auto r1 = c.run_phase("a", tasks);
  const auto r2 = c.run_phase("b", tasks);
  // Same work, same node, different phases: jitter makes times differ.
  EXPECT_NE(r1.per_node[0].compute_time_s, r2.per_node[0].compute_time_s);
}

TEST_F(ClusterTest, JitterIsDeterministicPerSeed) {
  cluster::ClusterOptions opts;
  opts.speed_jitter = 0.3;
  opts.jitter_seed = 777;
  cluster::Cluster a(cluster::standard_cluster(2), opts);
  cluster::Cluster b(cluster::standard_cluster(2), opts);
  std::vector<cluster::NodeTask> tasks(2);
  for (auto& t : tasks) {
    t = [](cluster::NodeContext& ctx) { ctx.meter().add(1e6); };
  }
  EXPECT_DOUBLE_EQ(a.run_phase("p", tasks).makespan_s(),
                   b.run_phase("p", tasks).makespan_s());
}

TEST_F(ClusterTest, ZeroJitterIsExact) {
  cluster::Cluster c(cluster::standard_cluster(1));
  const auto r = c.run_on("p", 0, [](cluster::NodeContext& ctx) {
    ctx.meter().add(4e6);
  });
  EXPECT_DOUBLE_EQ(r.per_node[0].compute_time_s, 1.0);  // 4 Mu / (1e6 * 4)
}

TEST_F(ClusterTest, RejectsInvalidJitter) {
  cluster::ClusterOptions opts;
  opts.speed_jitter = 1.5;
  EXPECT_THROW(cluster::Cluster(cluster::standard_cluster(1), opts),
               common::ConfigError);
}

TEST(WorkRate, ConvertsUnitsToSeconds) {
  const cluster::WorkRate rate{.base_rate = 1e6};
  EXPECT_DOUBLE_EQ(rate.seconds(2e6, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(rate.seconds(2e6, 4.0), 0.5);
}

}  // namespace
}  // namespace hetsim
