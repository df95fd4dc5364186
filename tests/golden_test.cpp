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
// retry policy, each run as `hetsim_cli run-job` runs it. The re-plan row
// pins straggler detection and migration.
//
// The Framework rows pin the paper-figure path: `ParetoFramework`, the
// prepare-once façade over `JobRuntime`'s prepare and execute halves, at
// `hetsim_cli run-job`'s defaults (scale 0.5, support 0.08, 8 partitions,
// normalized alpha 0.75, 40-record sampling floor): one prepare and the
// four strategy runs, plus the predicted frontier over Fig. 5's alpha
// list. `hetsim_cli run-job --strategy all --checkpoint 1000000
// --no_replan` prints the same execution time, energies, quality, work
// units and partition sizes. Besides the digests, each row pins
// every report field as a hex float, so a one-ulp move names its field.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

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
  std::vector<double> slowdown;
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
  spec.per_node_slowdown = flags.slowdown;
  runtime::JobRuntime job(cluster, energy, spec);
  const std::string summary = runtime::summary_json(job.run(dataset, workload));
  const std::string trace = job.trace().chrome_trace_json();
  return {common::hash_bytes(summary), summary.size(),
          common::hash_bytes(trace), trace.size()};
}

data::Dataset text_corpus() {
  return data::generate_text_corpus(data::rcv1_like(0.5), "rcv1");
}

data::Dataset graph_corpus() {
  return data::generate_graph_corpus(data::uk_like(0.5), "webgraph");
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

// `run-job --workload text --slowdown 2.5,1,1,1,1,1,1,1 --seed 9`: node 0
// runs 2.5x slower than its fitted model, which the straggler check
// tests at every checkpoint; on text the observed slope stays under the
// 1.5x deviation gate, so nothing is re-planned.
TEST(Golden, TextJobReplanSeed9) {
  core::PatternMiningWorkload workload = text_workload();
  const JobDigest expected{0x39b2cf14c317ba49ULL, 745, 0xd4cc8e1b06170179ULL,
                           11003};
  EXPECT_EQ(run_job("text", text_corpus(), workload, 9,
                    {.slowdown = {2.5, 1, 1, 1, 1, 1, 1, 1}}),
            expected);
}

// The same slowdown on graph: node 0 is detected as a straggler, the job
// re-plans once and migrates 648 records in three steps.
TEST(Golden, GraphJobReplanSeed9) {
  core::CompressionWorkload workload(
      core::CompressionWorkload::Algorithm::kWebGraph);
  const JobDigest expected{0x53ed55e67d379cecULL, 770, 0x74b2b36d32976d02ULL,
                           12026};
  EXPECT_EQ(run_job("graph", graph_corpus(), workload, 9,
                    {.slowdown = {2.5, 1, 1, 1, 1, 1, 1, 1}}),
            expected);
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
  /// The four strategies' `core::to_json` lines, concatenated.
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

/// Every field of one framework report, each double as a hex float
/// (`%a`): the JSON's %.12g cannot see an ulp.
std::string report_bits(const core::JobReport& r) {
  std::string out = core::strategy_name(r.strategy) + " sizes";
  for (const std::size_t v : r.partition_sizes) out += ' ' + std::to_string(v);
  const auto hex = [&out](const char* name, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%s%a", name, v);
    out += buf;
  };
  hex(" exec ", r.exec_time_s);
  hex(" load ", r.load_time_s);
  hex(" dirty ", r.dirty_energy_j);
  hex(" green ", r.green_energy_j);
  hex(" quality ", r.quality);
  hex(" work ", r.total_work_units);
  out += " node_exec";
  for (const double t : r.node_exec_s) hex(" ", t);
  return out;
}

struct FrameworkRun {
  FrameworkDigest digest;
  /// report_bits of the four strategies' reports, in run order.
  std::vector<std::string> bits;
};

FrameworkRun run_framework(const data::Dataset& dataset,
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
  FrameworkRun run;
  std::string reports;
  for (const core::Strategy strategy :
       {core::Strategy::kRandom, core::Strategy::kStratified,
        core::Strategy::kHetAware, core::Strategy::kHetEnergyAware}) {
    const core::JobReport report = framework.run(strategy, dataset, workload);
    reports += core::to_json(report);
    reports += '\n';
    run.bits.push_back(report_bits(report));
  }
  const std::string frontier =
      core::frontier_to_json(framework.predicted_frontier(kFig5Alphas));
  run.digest = {common::hash_bytes(reports), reports.size(),
                common::hash_bytes(frontier), frontier.size()};
  return run;
}

TEST(Golden, FrameworkText) {
  core::PatternMiningWorkload workload = text_workload();
  const FrameworkDigest expected{0xfb2785a7e126a584ULL, 1719,
                                 0x7c4feb0a0f5c2be1ULL, 1246};
  const FrameworkRun run = run_framework(text_corpus(), workload);
  EXPECT_EQ(run.digest, expected);
  const std::vector<std::string> bits{
      "Random sizes 375 375 375 375 375 375 375 375 exec "
      "0x1.5d253b65ec1efp-3 load 0x1.f6248bafdef0ep-12 dirty "
      "0x1.6931beccbe66ep+5 green 0x1.fb9ad0a08adccp+6 quality "
      "0x1.42p+7 work 0x1.4bff6p+20 node_exec 0x1.69ca250f9f7e6p-5 "
      "0x1.c28599c4c166cp-5 0x1.6e436e2877797p-4 0x1.422cb43c52d9ap-3 "
      "0x1.5866b85de468ap-5 0x1.e310894be691ap-5 0x1.628d556f71729p-4 "
      "0x1.5d253b65ec1efp-3",
      "Stratified sizes 375 375 375 375 375 375 375 375 exec "
      "0x1.5ad64ad504618p-3 load 0x1.f6564288b9ee2p-12 dirty "
      "0x1.696d9ba8a386cp+5 green 0x1.e4b11fb8f1d4p+6 quality 0x1.42p+7 "
      "work 0x1.3fa6bp+20 node_exec 0x1.5ccea07ebe8b9p-5 "
      "0x1.c5a89e3b2498bp-5 0x1.48ad49033c102p-4 0x1.5ad64ad504618p-3 "
      "0x1.497c240a42c67p-5 0x1.ac519e93d3cb3p-5 0x1.537e08b6b649ap-4 "
      "0x1.542816386a6e7p-3",
      "Het-Aware sizes 600 450 300 150 600 450 300 150 exec "
      "0x1.607308d88e188p-4 load 0x1.76e4cd6f6b0f2p-11 dirty "
      "0x1.2d23dbd3404dep+5 green 0x1.2c43ac9da67c4p+7 quality "
      "0x1.42p+7 work 0x1.7eabfp+20 node_exec 0x1.40cbf2e933635p-4 "
      "0x1.420e4088d1e35p-4 0x1.42a56b54a4d77p-4 0x1.607308d88e188p-4 "
      "0x1.3882c590c514p-4 0x1.3df4d358922b1p-4 0x1.4e3ea4fa778a4p-4 "
      "0x1.47d3e4a36b1a3p-4",
      "Het-Energy-Aware sizes 667 500 333 0 667 500 333 0 exec "
      "0x1.1bfd645fca16cp-4 load 0x1.7dd8d3284c1dap-11 dirty "
      "0x1.29735d14c5d22p+4 green 0x1.d98d7153fc66cp+6 quality "
      "0x1.42p+7 work 0x1.20dcdp+20 node_exec 0x1.0e38c72d0be2fp-4 "
      "0x1.0ec2a172227ebp-4 0x1.1bb1a1e998614p-4 0x1.a7952fd28095fp-12 "
      "0x1.07733e86bb7ffp-4 0x1.0cb5d0a54578fp-4 0x1.12c872c0a9e35p-4 "
      "0x1.a7952fd28095fp-12",
  };
  EXPECT_EQ(run.bits, bits);
}

TEST(Golden, FrameworkTree) {
  core::SubtreeMiningWorkload workload(
      mining::TreeMinerConfig{.min_support = 0.08, .max_pattern_nodes = 3});
  const FrameworkDigest expected{0x9037ea5173da13b7ULL, 1714,
                                 0xec8f4faeac2e6915ULL, 1111};
  const FrameworkRun run = run_framework(
      data::generate_tree_corpus(data::swissprot_like(0.5), "trees"),
      workload);
  EXPECT_EQ(run.digest, expected);
  const std::vector<std::string> bits{
      "Random sizes 94 94 94 94 94 94 93 93 exec 0x1.2eeb45044b513p+0 "
      "load 0x1.f85bfa5a57421p-13 dirty 0x1.3e311e0714f2ap+8 green "
      "0x1.b41df0f518092p+9 quality 0x1.0ep+7 work 0x1.1fe538p+23 "
      "node_exec 0x1.396df364c6662p-2 0x1.9901efe2592ebp-2 "
      "0x1.3b636f5b57949p-1 0x1.24049c7b22149p+0 0x1.1efc071895509p-2 "
      "0x1.9f5b7fe1f0472p-2 0x1.1fb49cab8f12fp-1 0x1.2eeb45044b513p+0",
      "Stratified sizes 94 94 94 94 94 94 93 93 exec "
      "0x1.144caec72bb7cp+0 load 0x1.f6a4333bf1bcbp-13 dirty "
      "0x1.21cb5a7a01b07p+8 green 0x1.863f8fc6cd8afp+9 quality "
      "0x1.0ep+7 work 0x1.028a8cp+23 node_exec 0x1.15ab40ef8b1d1p-2 "
      "0x1.6d241ca00bde1p-2 0x1.0f0187b67788cp-1 0x1.0e24ff78f1837p+0 "
      "0x1.13c77a3a743e5p-2 0x1.63bf8a30e2p-2 0x1.02e94565e927ap-1 "
      "0x1.144caec72bb7cp+0",
      "Het-Aware sizes 150 113 75 38 150 112 75 37 exec "
      "0x1.10a291097125bp-1 load 0x1.1120d530cb2e5p-12 dirty "
      "0x1.e8f2ffbd519d9p+7 green 0x1.ef5566b954f84p+9 quality "
      "0x1.0ep+7 work 0x1.3c71d2p+23 node_exec 0x1.0afb13bccb4cfp-1 "
      "0x1.0e440f007619cp-1 0x1.07d9454b63abap-1 0x1.078aebecbab85p-1 "
      "0x1.0adf5ae0b7957p-1 0x1.f97d82d6e09a8p-2 0x1.1072f57a03ebfp-1 "
      "0x1.0fd66c0250ap-1",
      "Het-Energy-Aware sizes 167 125 83 0 167 125 83 0 exec "
      "0x1.cb208e1b9704p-2 load 0x1.1778f9833c9f9p-12 dirty "
      "0x1.f5afd964ae39dp+6 green 0x1.8ae83076b8a97p+9 quality "
      "0x1.0ep+7 work 0x1.e5847p+22 node_exec 0x1.caf474e279333p-2 "
      "0x1.ca7d8b9444dc6p-2 0x1.b5ff03706bdbap-2 0x1.a68c66ee3025cp-12 "
      "0x1.c4f434f25a62fp-2 0x1.be89b24104c64p-2 0x1.c86626ecd21b9p-2 "
      "0x1.a68c66ee3025cp-12",
  };
  EXPECT_EQ(run.bits, bits);
}

TEST(Golden, FrameworkGraph) {
  core::CompressionWorkload workload(
      core::CompressionWorkload::Algorithm::kWebGraph);
  const FrameworkDigest expected{0x7f3cf5a79d61c196ULL, 1751,
                                 0x11412f79cd64493cULL, 1242};
  const FrameworkRun run = run_framework(graph_corpus(), workload);
  EXPECT_EQ(run.digest, expected);
  const std::vector<std::string> bits{
      "Random sizes 1500 1500 1500 1500 1500 1500 1500 1500 exec "
      "0x1.c745a111359c1p-3 load 0x1.5b934f82be18ap-10 dirty "
      "0x1.e07908b121836p+5 green 0x1.475c70a0d3f22p+7 quality "
      "0x1.af8953a4ad2dfp+1 work 0x1.b03e4p+20 node_exec "
      "0x1.b51a9912c8f6p-5 0x1.396104f623f08p-4 0x1.d617e4240bb5ep-4 "
      "0x1.c745a111359c1p-3 0x1.b65f27ac0c251p-5 0x1.29d2b8c853ae7p-4 "
      "0x1.c7753a86e7fadp-4 0x1.c50d4b345f41dp-3",
      "Stratified sizes 1500 1500 1500 1500 1500 1500 1500 1500 exec "
      "0x1.c97b57bbddfap-3 load 0x1.5ba100343b179p-10 dirty "
      "0x1.dc3cc30a8df82p+5 green 0x1.4763f0dd9bb86p+7 quality "
      "0x1.cb8089588ad5fp+1 work 0x1.b0546p+20 node_exec "
      "0x1.d07f529d3b21bp-5 0x1.37bf527424786p-4 0x1.cb0150fcb68e4p-4 "
      "0x1.c97b57bbddfap-3 0x1.abd2689d4151bp-5 0x1.3c98e347e770bp-4 "
      "0x1.bde3af65a96a3p-4 0x1.adaae4cfe0c3fp-3",
      "Het-Aware sizes 2400 1800 1200 600 2400 1800 1200 600 exec "
      "0x1.81d44912cf82bp-4 load 0x1.200acb2ace446p-9 dirty "
      "0x1.4e44472dc2d74p+5 green 0x1.51aa30c9f157cp+7 quality "
      "0x1.c98b096687959p+1 work 0x1.b037ep+20 node_exec "
      "0x1.76150cbc01f7ap-4 0x1.6a6f701705f2ap-4 0x1.6a8b0c5a78bedp-4 "
      "0x1.81d44912cf82bp-4 0x1.6927d5967bd63p-4 0x1.625da98146139p-4 "
      "0x1.6251f9960544dp-4 0x1.550afe944db2fp-4",
      "Het-Energy-Aware sizes 2667 2000 1333 0 2667 2000 1333 0 exec "
      "0x1.a31692dbbdc01p-4 load 0x1.3d2665523bcd6p-9 dirty "
      "0x1.bbf54ce33fa56p+4 green 0x1.5ffcd3f9f744p+7 quality "
      "0x1.c84984ab3a573p+1 work 0x1.b093cp+20 node_exec "
      "0x1.9aa373f5e1922p-4 0x1.95ea48335c45ep-4 0x1.a31692dbbdc01p-4 "
      "0x0p+0 0x1.942842f4843c6p-4 0x1.84a2db6f7975fp-4 "
      "0x1.847c749ab19c9p-4 0x0p+0",
  };
  EXPECT_EQ(run.bits, bits);
}

TEST(Golden, FrameworkDeflate) {
  core::CompressionWorkload workload(
      core::CompressionWorkload::Algorithm::kDeflate);
  const FrameworkDigest expected{0x72481475a66f27d0ULL, 1742,
                                 0xef635923d64cc376ULL, 1247};
  const FrameworkRun run = run_framework(graph_corpus(), workload);
  EXPECT_EQ(run.digest, expected);
  const std::vector<std::string> bits{
      "Random sizes 1500 1500 1500 1500 1500 1500 1500 1500 exec "
      "0x1.b4a6456bc864bp-3 load 0x1.5b934f82be18ap-10 dirty "
      "0x1.cd595787e9dcp+5 green 0x1.3a1356c644acep+7 quality "
      "0x1.dc95ebac6025ep+0 work 0x1.9eddbp+20 node_exec "
      "0x1.a82aabaf83ac4p-5 0x1.2a713654f9f82p-4 0x1.bf418e418111bp-4 "
      "0x1.b323e0cd0d4e1p-3 0x1.a7658fa519c29p-5 0x1.1e306a9be7867p-4 "
      "0x1.b4d3c7daf8f42p-4 0x1.b4a6456bc864bp-3",
      "Stratified sizes 1500 1500 1500 1500 1500 1500 1500 1500 exec "
      "0x1.d0f69118201a4p-3 load 0x1.5ba100343b179p-10 dirty "
      "0x1.db9ca914652a3p+5 green 0x1.467dc412fa031p+7 quality "
      "0x1.151cdbd5ffc8bp+1 work 0x1.af398p+20 node_exec "
      "0x1.c5d98ca574ac1p-5 0x1.3492537f2e087p-4 0x1.cf71f9057eb3ep-4 "
      "0x1.d0f69118201a4p-3 0x1.adc9b9a216a38p-5 0x1.4197cd0f079cep-4 "
      "0x1.b6f79779fa5ap-4 0x1.a559c29e5d942p-3",
      "Het-Aware sizes 2400 1800 1200 600 2400 1800 1200 600 exec "
      "0x1.72a4820f6b2b4p-4 load 0x1.200acb2ace446p-9 dirty "
      "0x1.4490f5c996e9ap+5 green 0x1.501e3fdf90c3bp+7 quality "
      "0x1.149ed140cdbfcp+1 work 0x1.ad423p+20 node_exec "
      "0x1.72a4820f6b2b4p-4 0x1.6d56e0d407705p-4 0x1.6ef808dd15bcap-4 "
      "0x1.63c3bcd3917f4p-4 0x1.6ff2e5caa6802p-4 0x1.60dcd5b14fc6ap-4 "
      "0x1.5852ecdb0bdf1p-4 0x1.3af9db565b092p-4",
      "Het-Energy-Aware sizes 2667 2000 1333 0 2667 2000 1333 0 exec "
      "0x1.a66b10e253dc4p-4 load 0x1.3d2665523bcd6p-9 dirty "
      "0x1.bfc2d4e44f782p+4 green 0x1.615dfbbc799e8p+7 quality "
      "0x1.17017f7afb295p+1 work 0x1.b2b68p+20 node_exec "
      "0x1.99032b159df01p-4 0x1.9c492ad02d5acp-4 0x1.a66b10e253dc4p-4 "
      "0x0p+0 0x1.9e8c3c9920688p-4 0x1.8368fbc1702a6p-4 "
      "0x1.79d389547d04ep-4 0x0p+0",
  };
  EXPECT_EQ(run.bits, bits);
}

}  // namespace
}  // namespace hetsim
