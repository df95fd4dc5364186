// Golden digests: the hash and length of what a job emits, pinned so a
// change that must keep the model fixed proves it in CI. Each row runs
// one job through the library the way `hetsim_cli run-job` does with its
// defaults (scale 0.5, support 0.08, 8 partitions, het) and compares the
// summary JSON and the Chrome trace against constants captured before
// the change. A declared model change updates the constants it moves.
//
// CTest runs this binary under HETSIM_THREADS=1 and =4: the digests must
// not depend on the pool width.
//
// The FaultJob rows pin the fault paths the same way: the fail-stop,
// replica-loss and store-stall plans from examples/, and a non-default
// retry policy, each run as `hetsim_cli run-job` runs it.
//
// The Framework rows pin the paper-figure path: `ParetoFramework` built
// the way `hetsim_cli --strategy all --json` builds it (scale 0.5,
// support 0.08, 8 partitions, normalized alpha 0.75, 40-record sampling
// floor), one prepare and the four strategy runs, plus the predicted
// frontier over Fig. 5's alpha list.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "cluster/cluster.h"
#include "common/hash.h"
#include "core/compression_workload.h"
#include "core/framework.h"
#include "core/mining_workload.h"
#include "core/report_io.h"
#include "core/subtree_workload.h"
#include "data/generators.h"
#include "energy/estimator.h"
#include "fault/fault.h"
#include "kvstore/client.h"
#include "runtime/runtime.h"

namespace hetsim {
namespace {

struct JobDigest {
  std::uint64_t summary_hash = 0;
  std::size_t summary_size = 0;
  std::uint64_t trace_hash = 0;
  std::size_t trace_size = 0;

  bool operator==(const JobDigest&) const = default;
};

void PrintTo(const JobDigest& d, std::ostream* os) {
  *os << std::hex << "{0x" << d.summary_hash << "ULL, " << std::dec
      << d.summary_size << ", " << std::hex << "0x" << d.trace_hash
      << "ULL, " << std::dec << d.trace_size << "}";
}

/// The run-job flags a row sets beyond the defaults; file names are
/// relative to examples/.
struct JobFlags {
  std::uint32_t partitions = 8;
  std::size_t replication = 1;
  std::string fault_plan;
  std::string retry_policy;
};

std::string read_example(const std::string& name) {
  const std::string path = std::string(HETSIM_REPO_DIR) + "/examples/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// `hetsim_cli run-job` with its defaults: 8 partitions, het strategy,
/// alpha 0.75, 40-record sampling floor, auto checkpoints, re-planning on.
JobDigest run_job(const std::string& name, const data::Dataset& dataset,
                  core::Workload& workload, std::uint64_t seed,
                  const JobFlags& flags = {}) {
  cluster::ClusterOptions options;
  if (!flags.retry_policy.empty()) {
    options.retry =
        kvstore::RetryPolicy::from_json_text(read_example(flags.retry_policy));
  }
  cluster::Cluster cluster(cluster::standard_cluster(flags.partitions),
                           options);
  std::unique_ptr<fault::FaultInjector> injector;
  if (!flags.fault_plan.empty()) {
    injector = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::from_json_text(read_example(flags.fault_plan)));
    cluster.set_fault(injector.get());
  }
  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);
  runtime::JobSpec spec;
  spec.name = name + "-job";
  spec.strategy = core::Strategy::kHetAware;
  spec.alpha = 0.75;
  spec.sampling.min_records = 40;
  spec.seed = seed;
  spec.replication = flags.replication;
  runtime::JobRuntime job(cluster, energy, spec);
  const std::string summary = runtime::summary_json(job.run(dataset, workload));
  const std::string trace = job.trace().chrome_trace_json();
  return {common::hash_bytes(summary), summary.size(),
          common::hash_bytes(trace), trace.size()};
}

data::Dataset text_corpus() {
  return data::generate_text_corpus(data::rcv1_like(0.5), "rcv1");
}

core::PatternMiningWorkload text_workload() {
  return core::PatternMiningWorkload(
      mining::AprioriConfig{.min_support = 0.08, .max_pattern_length = 3});
}

TEST(Golden, TreeJobSeed9) {
  const data::Dataset dataset =
      data::generate_tree_corpus(data::swissprot_like(0.5), "trees");
  core::SubtreeMiningWorkload workload(
      mining::TreeMinerConfig{.min_support = 0.08, .max_pattern_nodes = 3});
  const JobDigest expected{0x975351fc4ed0c777ULL, 737, 0xc2a1e6b3105295d9ULL,
                           10875};
  EXPECT_EQ(run_job("tree", dataset, workload, 9), expected);
}

TEST(Golden, TextJobSeed9) {
  const data::Dataset dataset =
      data::generate_text_corpus(data::rcv1_like(0.5), "rcv1");
  core::PatternMiningWorkload workload(
      mining::AprioriConfig{.min_support = 0.08, .max_pattern_length = 3});
  const JobDigest expected{0x91ee37a9d8fa12a2ULL, 748, 0x202434f5a7e75a71ULL,
                           11002};
  EXPECT_EQ(run_job("text", dataset, workload, 9), expected);
}

TEST(Golden, GraphJobSeed9) {
  const data::Dataset dataset =
      data::generate_graph_corpus(data::uk_like(0.5), "webgraph");
  core::CompressionWorkload workload(
      core::CompressionWorkload::Algorithm::kWebGraph);
  const JobDigest expected{0x4d98df482097119fULL, 765, 0x8f593d6f9830a54eULL,
                           11076};
  EXPECT_EQ(run_job("graph", dataset, workload, 9), expected);
}

// `run-job --fault_plan examples/fault_plan.json --seed 9`: store errors
// and stalls on host 1, a fail-stop of node 3, a slowed node 5.
TEST(FaultJob, FailStopPlanSeed9) {
  core::PatternMiningWorkload workload = text_workload();
  const JobDigest expected{0xa8b7441ac09c3828ULL, 758, 0x79c73dcebb510819ULL,
                           11508};
  EXPECT_EQ(run_job("text", text_corpus(), workload, 9,
                    {.fault_plan = "fault_plan.json"}),
            expected);
}

// `run-job --partitions 6 --replication 3 --fault_plan
// examples/fault_plan_replica_loss.json --seed 4`: two of three
// replicas fail-stop.
TEST(FaultJob, ReplicaLossSeed4) {
  core::PatternMiningWorkload workload = text_workload();
  const JobDigest expected{0x633f126351cb7d42ULL, 749, 0x5786b2794443b00ULL,
                           11053};
  EXPECT_EQ(run_job("text", text_corpus(), workload, 4,
                    {.partitions = 6,
                     .replication = 3,
                     .fault_plan = "fault_plan_replica_loss.json"}),
            expected);
}

// `run-job --fault_plan examples/fault_plan_store_stall.json
// --replication 2` (seed 171, the CLI default): drops, a healing
// partition, store errors, stalls and a store crash mid-ingest.
TEST(FaultJob, StoreStallSeed171) {
  core::PatternMiningWorkload workload = text_workload();
  const JobDigest expected{0xaf3da561c37d16cULL, 773, 0xecc73dc4c8a4ca1fULL,
                           16556};
  EXPECT_EQ(run_job("text", text_corpus(), workload, 171,
                    {.replication = 2,
                     .fault_plan = "fault_plan_store_stall.json"}),
            expected);
}

// `--retry_policy examples/retry_policy.json` over the store-stall plan:
// without faults the policy is never consulted, so the plan is what
// makes this row pin the retry loop under a non-default policy (its
// 50 ms attempt timeout turns host 0's 50 ms stalls into timeouts).
TEST(FaultJob, RetryPolicyStoreStallSeed9) {
  core::PatternMiningWorkload workload = text_workload();
  const JobDigest expected{0xfea0e4b9c0d906abULL, 764, 0x5b426ea4db075480ULL,
                           11075};
  EXPECT_EQ(run_job("text", text_corpus(), workload, 9,
                    {.replication = 2,
                     .fault_plan = "fault_plan_store_stall.json",
                     .retry_policy = "retry_policy.json"}),
            expected);
}

struct FrameworkDigest {
  /// The four strategies' `core::to_json` lines, as `--json` prints them.
  std::uint64_t reports_hash = 0;
  std::size_t reports_size = 0;
  /// `frontier_to_json` of `predicted_frontier` over kFig5Alphas.
  std::uint64_t frontier_hash = 0;
  std::size_t frontier_size = 0;

  bool operator==(const FrameworkDigest&) const = default;
};

void PrintTo(const FrameworkDigest& d, std::ostream* os) {
  *os << std::hex << "{0x" << d.reports_hash << "ULL, " << std::dec
      << d.reports_size << ", " << std::hex << "0x" << d.frontier_hash
      << "ULL, " << std::dec << d.frontier_size << "}";
}

/// bench_fig5_pareto_frontier's raw-scalarization alpha list.
constexpr double kFig5Alphas[] = {1.0,   0.9999, 0.9995, 0.999, 0.998, 0.997,
                                  0.996, 0.995,  0.994,  0.993, 0.992, 0.991,
                                  0.99,  0.95,   0.9,    0.5,   0.0};

FrameworkDigest run_framework(const data::Dataset& dataset,
                              core::Workload& workload) {
  cluster::Cluster cluster(cluster::standard_cluster(8));
  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);
  core::FrameworkConfig config;
  config.sampling.min_records = 40;
  config.energy_alpha = 0.75;
  config.normalized_alpha = true;
  core::ParetoFramework framework(cluster, energy, config);
  framework.prepare(dataset, workload);
  std::string reports;
  for (const core::Strategy strategy :
       {core::Strategy::kRandom, core::Strategy::kStratified,
        core::Strategy::kHetAware, core::Strategy::kHetEnergyAware}) {
    reports += core::to_json(framework.run(strategy, dataset, workload));
    reports += '\n';
  }
  const std::string frontier =
      core::frontier_to_json(framework.predicted_frontier(kFig5Alphas));
  return {common::hash_bytes(reports), reports.size(),
          common::hash_bytes(frontier), frontier.size()};
}

data::Dataset graph_corpus() {
  return data::generate_graph_corpus(data::uk_like(0.5), "webgraph");
}

TEST(Golden, FrameworkText) {
  core::PatternMiningWorkload workload = text_workload();
  const FrameworkDigest expected{0xfb2785a7e126a584ULL, 1719,
                                 0x7c4feb0a0f5c2be1ULL, 1246};
  EXPECT_EQ(run_framework(text_corpus(), workload), expected);
}

TEST(Golden, FrameworkTree) {
  core::SubtreeMiningWorkload workload(
      mining::TreeMinerConfig{.min_support = 0.08, .max_pattern_nodes = 3});
  const FrameworkDigest expected{0x9037ea5173da13b7ULL, 1714,
                                 0xec8f4faeac2e6915ULL, 1111};
  EXPECT_EQ(run_framework(data::generate_tree_corpus(data::swissprot_like(0.5),
                                                     "trees"),
                          workload),
            expected);
}

TEST(Golden, FrameworkGraph) {
  core::CompressionWorkload workload(
      core::CompressionWorkload::Algorithm::kWebGraph);
  const FrameworkDigest expected{0x7f3cf5a79d61c196ULL, 1751,
                                 0x11412f79cd64493cULL, 1242};
  EXPECT_EQ(run_framework(graph_corpus(), workload), expected);
}

TEST(Golden, FrameworkDeflate) {
  core::CompressionWorkload workload(
      core::CompressionWorkload::Algorithm::kDeflate);
  const FrameworkDigest expected{0xe8a13ec12fcf2291ULL, 1742,
                                 0xef635923d64cc376ULL, 1247};
  EXPECT_EQ(run_framework(graph_corpus(), workload), expected);
}

}  // namespace
}  // namespace hetsim
