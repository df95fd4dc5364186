// Golden digests: the hash and length of what a job emits, pinned so a
// change that must keep the model fixed proves it in CI. Each row runs
// one job through the library the way `hetsim_cli run-job` does with its
// defaults (scale 0.5, support 0.08, 8 partitions, het) and compares the
// summary JSON and the Chrome trace against constants captured before
// the change. A declared model change updates the constants it moves.
//
// CTest runs this binary under HETSIM_THREADS=1 and =4: the digests must
// not depend on the pool width.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "common/hash.h"
#include "core/compression_workload.h"
#include "core/mining_workload.h"
#include "core/subtree_workload.h"
#include "data/generators.h"
#include "energy/estimator.h"
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

/// `hetsim_cli run-job` with its defaults: 8 partitions, het strategy,
/// alpha 0.75, 40-record sampling floor, auto checkpoints, re-planning on.
JobDigest run_job(const std::string& name, const data::Dataset& dataset,
                  core::Workload& workload, std::uint64_t seed) {
  cluster::Cluster cluster(cluster::standard_cluster(8));
  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);
  runtime::JobSpec spec;
  spec.name = name + "-job";
  spec.strategy = core::Strategy::kHetAware;
  spec.alpha = 0.75;
  spec.sampling.min_records = 40;
  spec.seed = seed;
  runtime::JobRuntime job(cluster, energy, spec);
  const std::string summary = runtime::summary_json(job.run(dataset, workload));
  const std::string trace = job.trace().chrome_trace_json();
  return {common::hash_bytes(summary), summary.size(),
          common::hash_bytes(trace), trace.size()};
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

}  // namespace
}  // namespace hetsim
