// Integration tests of the full ParetoFramework pipeline: stratify ->
// estimate -> optimize -> partition -> execute, across workloads and
// strategies. These encode the paper's qualitative claims:
//   * Het-Aware cuts makespan versus the Stratified equal-size baseline;
//   * Het-Energy-Aware trades some speed for lower dirty energy;
//   * quality (pattern sets / compression ratio) is preserved;
//   * the predicted frontier is monotone and the baseline lies off it.
#include <gtest/gtest.h>

#include <numeric>

#include "common/error.h"
#include "core/compression_workload.h"
#include "core/framework.h"
#include "core/mining_workload.h"
#include "core/subtree_workload.h"
#include "data/generators.h"

namespace hetsim::core {
namespace {

struct Fixture {
  cluster::Cluster cluster;
  energy::GreenEnergyEstimator energy;
  ParetoFramework framework;

  explicit Fixture(std::uint32_t nodes, FrameworkConfig cfg = {})
      : cluster(cluster::standard_cluster(nodes)),
        energy(energy::GreenEnergyEstimator::standard(72)),
        framework(cluster, energy, cfg) {}
};

FrameworkConfig fast_config() {
  FrameworkConfig cfg;
  cfg.sketch.num_hashes = 32;
  cfg.kmodes.num_strata = 12;
  cfg.kmodes.max_iterations = 10;
  cfg.sampling.steps = 4;
  cfg.sampling.min_fraction = 0.02;
  cfg.sampling.max_fraction = 0.10;
  return cfg;
}

TEST(Framework, PrepareLearnsPlausibleModels) {
  Fixture fx(4, fast_config());
  const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.25));
  PatternMiningWorkload workload({.min_support = 0.08, .max_pattern_length = 3});
  fx.framework.prepare(ds, workload);
  const auto models = fx.framework.node_models();
  ASSERT_EQ(models.size(), 4u);
  for (const auto& m : models) {
    EXPECT_GT(m.slope, 0.0);
    EXPECT_GE(m.intercept, 0.0);
  }
  // Type-4 node (speed 1) must have a steeper slope than type-1 (speed 4).
  EXPECT_GT(models[3].slope, models[0].slope * 2.0);
  EXPECT_GT(fx.framework.setup_time_s(), 0.0);
  // Strata computed over the whole dataset.
  EXPECT_EQ(fx.framework.strata().assignment.size(), ds.size());
}

TEST(Framework, PlanSizesFollowStrategy) {
  Fixture fx(4, fast_config());
  const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.25));
  PatternMiningWorkload workload({.min_support = 0.08, .max_pattern_length = 3});
  fx.framework.prepare(ds, workload);
  const auto eq = fx.framework.plan_sizes(Strategy::kStratified, ds.size());
  const auto het = fx.framework.plan_sizes(Strategy::kHetAware, ds.size());
  for (const auto s : eq) EXPECT_NEAR(s, ds.size() / 4.0, 1.0);
  // Het-aware gives the fast node more than the slow node.
  EXPECT_GT(het[0], het[3]);
  EXPECT_EQ(std::accumulate(het.begin(), het.end(), std::size_t{0}), ds.size());
}

TEST(Framework, RunBeforePrepareThrows) {
  Fixture fx(4, fast_config());
  const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.1));
  PatternMiningWorkload workload({.min_support = 0.1, .max_pattern_length = 2});
  EXPECT_THROW((void)fx.framework.run(Strategy::kStratified, ds, workload),
               common::ConfigError);
}

class TextMiningEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    fx_ = std::make_unique<Fixture>(8, fast_config());
    ds_ = data::generate_text_corpus(data::rcv1_like(0.4));
    workload_ = std::make_unique<PatternMiningWorkload>(
        mining::AprioriConfig{.min_support = 0.08, .max_pattern_length = 3});
    fx_->framework.prepare(ds_, *workload_);
  }
  std::unique_ptr<Fixture> fx_;
  data::Dataset ds_;
  std::unique_ptr<PatternMiningWorkload> workload_;
};

TEST_F(TextMiningEndToEnd, HetAwareBeatsStratifiedOnTime) {
  const JobReport base = fx_->framework.run(Strategy::kStratified, ds_, *workload_);
  const JobReport het = fx_->framework.run(Strategy::kHetAware, ds_, *workload_);
  EXPECT_LT(het.exec_time_s, base.exec_time_s * 0.85)
      << "Het-Aware should cut makespan well below the equal-size baseline";
}

TEST_F(TextMiningEndToEnd, HetEnergyAwareTradesTimeForDirtyEnergy) {
  const JobReport het = fx_->framework.run(Strategy::kHetAware, ds_, *workload_);
  const JobReport green =
      fx_->framework.run(Strategy::kHetEnergyAware, ds_, *workload_);
  // Slower (or equal) than pure Het-Aware but cleaner.
  EXPECT_GE(green.exec_time_s, het.exec_time_s * 0.99);
  EXPECT_LE(green.dirty_energy_j, het.dirty_energy_j * 1.001);
}

TEST_F(TextMiningEndToEnd, MiningOutputIdenticalAcrossStrategies) {
  const JobReport a = fx_->framework.run(Strategy::kStratified, ds_, *workload_);
  const std::size_t frequent_base = workload_->globally_frequent();
  const JobReport b = fx_->framework.run(Strategy::kHetAware, ds_, *workload_);
  EXPECT_EQ(workload_->globally_frequent(), frequent_base)
      << "SON global result must not depend on partitioning";
  EXPECT_GT(frequent_base, 0u);
  EXPECT_DOUBLE_EQ(a.quality, static_cast<double>(frequent_base));
  EXPECT_DOUBLE_EQ(b.quality, static_cast<double>(frequent_base));
}

TEST_F(TextMiningEndToEnd, RepresentativeLayoutCutsFalsePositives) {
  (void)fx_->framework.run(Strategy::kStratified, ds_, *workload_);
  const std::size_t stratified_fp = workload_->false_positives();
  (void)fx_->framework.run(Strategy::kRandom, ds_, *workload_);
  const std::size_t random_fp = workload_->false_positives();
  EXPECT_LE(stratified_fp, random_fp)
      << "stratified representative partitions must not generate more "
         "false-positive candidates than random partitions";
}

TEST_F(TextMiningEndToEnd, ReportAccountingConsistent) {
  const JobReport r = fx_->framework.run(Strategy::kHetAware, ds_, *workload_);
  EXPECT_EQ(std::accumulate(r.partition_sizes.begin(), r.partition_sizes.end(),
                            std::size_t{0}),
            ds_.size());
  EXPECT_EQ(r.node_exec_s.size(), 8u);
  const double max_node =
      *std::max_element(r.node_exec_s.begin(), r.node_exec_s.end());
  EXPECT_NEAR(r.exec_time_s, max_node, r.exec_time_s * 0.5 + 1e-9);
  EXPECT_GT(r.dirty_energy_j, 0.0);
  EXPECT_GE(r.green_energy_j, 0.0);
  EXPECT_GT(r.total_work_units, 0.0);
  EXPECT_GT(r.load_time_s, 0.0);
}

TEST_F(TextMiningEndToEnd, FrontierMonotoneAndBaselineOffFrontier) {
  const std::vector<double> alphas{1.0, 0.9999, 0.999, 0.99, 0.9};
  const auto frontier = fx_->framework.predicted_frontier(alphas);
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GE(frontier[i].makespan_s, frontier[i - 1].makespan_s - 1e-9);
    EXPECT_LE(frontier[i].dirty_joules, frontier[i - 1].dirty_joules + 1e-9);
  }
  // Baseline equal split predicted metrics: must not dominate any
  // frontier point.
  const auto models = fx_->framework.node_models();
  const auto eq = optimize::equal_split(models, ds_.size());
  for (const auto& pt : frontier) {
    EXPECT_FALSE(pt.makespan_s > eq.predicted_makespan_s &&
                 pt.dirty_joules > eq.predicted_dirty_joules);
  }
  EXPECT_LT(frontier.front().makespan_s, eq.predicted_makespan_s);
}

TEST(Framework, TreeMiningEndToEnd) {
  Fixture fx(8, fast_config());
  // Scale 1.0: smaller corpora make SON's local thresholds so small that
  // sampling noise inflates candidates and drowns the speed signal.
  const data::Dataset ds = data::generate_tree_corpus(data::swissprot_like(1.0));
  PatternMiningWorkload workload(
      {.min_support = 0.05, .max_pattern_length = 2});
  fx.framework.prepare(ds, workload);
  const JobReport base = fx.framework.run(Strategy::kStratified, ds, workload);
  const JobReport het = fx.framework.run(Strategy::kHetAware, ds, workload);
  EXPECT_LT(het.exec_time_s, base.exec_time_s);
  EXPECT_GT(workload.globally_frequent(), 0u);
}

TEST(Framework, GraphCompressionEndToEnd) {
  FrameworkConfig cfg = fast_config();
  cfg.energy_alpha = 0.995;
  Fixture fx(8, cfg);
  data::WebGraphConfig gcfg = data::uk_like(0.25);
  const data::Dataset ds = data::generate_graph_corpus(gcfg);
  CompressionWorkload workload(CompressionWorkload::Algorithm::kWebGraph);
  fx.framework.prepare(ds, workload);

  const JobReport base = fx.framework.run(Strategy::kStratified, ds, workload);
  const double base_ratio = base.quality;
  const JobReport het = fx.framework.run(Strategy::kHetAware, ds, workload);
  const JobReport green =
      fx.framework.run(Strategy::kHetEnergyAware, ds, workload);

  EXPECT_LT(het.exec_time_s, base.exec_time_s * 0.9);
  EXPECT_LE(green.dirty_energy_j, het.dirty_energy_j * 1.001);
  // Quality preserved: het-aware ratios within a few percent of baseline.
  EXPECT_GT(base_ratio, 1.5);
  EXPECT_NEAR(het.quality, base_ratio, base_ratio * 0.10);
  EXPECT_NEAR(green.quality, base_ratio, base_ratio * 0.10);
}

TEST(Framework, SimilarLayoutCompressesBetterThanRandom) {
  Fixture fx(4, fast_config());
  data::WebGraphConfig gcfg = data::uk_like(0.15);
  const data::Dataset ds = data::generate_graph_corpus(gcfg);
  CompressionWorkload workload(CompressionWorkload::Algorithm::kWebGraph);
  fx.framework.prepare(ds, workload);
  const JobReport strat = fx.framework.run(Strategy::kStratified, ds, workload);
  const JobReport random = fx.framework.run(Strategy::kRandom, ds, workload);
  EXPECT_GT(strat.quality, random.quality)
      << "similar-together partitions must compress better than random";
}

TEST(Framework, Lz77EndToEndRoundTripsQuality) {
  Fixture fx(8, fast_config());
  const data::Dataset ds = data::generate_graph_corpus(data::uk_like(0.1));
  CompressionWorkload workload(CompressionWorkload::Algorithm::kLz77);
  fx.framework.prepare(ds, workload);
  const JobReport base = fx.framework.run(Strategy::kStratified, ds, workload);
  const JobReport het = fx.framework.run(Strategy::kHetAware, ds, workload);
  EXPECT_GT(base.quality, 1.0);
  EXPECT_NEAR(het.quality, base.quality, base.quality * 0.15);
  EXPECT_LE(het.exec_time_s, base.exec_time_s);
}

TEST(Framework, SubtreeMiningEndToEnd) {
  Fixture fx(8, fast_config());
  const data::Dataset ds =
      data::generate_tree_corpus(data::swissprot_like(0.5));
  SubtreeMiningWorkload workload({.min_support = 0.08, .max_pattern_nodes = 3});
  fx.framework.prepare(ds, workload);
  const JobReport base = fx.framework.run(Strategy::kStratified, ds, workload);
  const std::size_t frequent_base = workload.globally_frequent();
  EXPECT_GT(frequent_base, 0u);
  const JobReport het = fx.framework.run(Strategy::kHetAware, ds, workload);
  EXPECT_LT(het.exec_time_s, base.exec_time_s);
  // The global pattern set is partition-invariant.
  EXPECT_EQ(workload.globally_frequent(), frequent_base);
  // SON completeness bookkeeping: union = frequent + false positives.
  EXPECT_EQ(workload.union_candidates(),
            workload.globally_frequent() + workload.false_positives());
}

TEST(Framework, SubtreeWorkloadRejectsNonTreeData) {
  Fixture fx(2, fast_config());
  const data::Dataset docs = data::generate_text_corpus(data::rcv1_like(0.05));
  SubtreeMiningWorkload workload({.min_support = 0.1, .max_pattern_nodes = 2});
  EXPECT_THROW(fx.framework.prepare(docs, workload), common::ConfigError);
}

TEST(Framework, NormalizedAlphaModeRuns) {
  FrameworkConfig cfg = fast_config();
  cfg.normalized_alpha = true;
  cfg.energy_alpha = 0.5;
  Fixture fx(8, cfg);
  const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.25));
  PatternMiningWorkload workload({.min_support = 0.1, .max_pattern_length = 2});
  fx.framework.prepare(ds, workload);
  const JobReport het = fx.framework.run(Strategy::kHetAware, ds, workload);
  const JobReport green =
      fx.framework.run(Strategy::kHetEnergyAware, ds, workload);
  // At alpha=0.5 normalized the plans must genuinely differ and energy
  // must not be worse.
  EXPECT_NE(het.partition_sizes, green.partition_sizes);
  EXPECT_LE(green.dirty_energy_j, het.dirty_energy_j + 1e-9);
  // The normalized frontier is available through the framework too.
  const std::vector<double> alphas{1.0, 0.5, 0.0};
  const auto frontier = fx.framework.predicted_frontier(alphas, true);
  EXPECT_EQ(frontier.size(), 3u);
  EXPECT_LE(frontier[2].dirty_joules, frontier[0].dirty_joules + 1e-9);
}

TEST(Framework, DeflateWorkloadEndToEnd) {
  Fixture fx(4, fast_config());
  const data::Dataset ds = data::generate_graph_corpus(data::uk_like(0.1));
  CompressionWorkload workload(CompressionWorkload::Algorithm::kDeflate);
  fx.framework.prepare(ds, workload);
  const JobReport base = fx.framework.run(Strategy::kStratified, ds, workload);
  const JobReport het = fx.framework.run(Strategy::kHetAware, ds, workload);
  EXPECT_GT(base.quality, 1.0);
  EXPECT_LE(het.exec_time_s, base.exec_time_s);
  // The entropy stage should beat plain LZ77's ratio on these payloads.
  CompressionWorkload lz(CompressionWorkload::Algorithm::kLz77);
  fx.framework.prepare(ds, lz);
  const JobReport lz_base = fx.framework.run(Strategy::kStratified, ds, lz);
  EXPECT_GT(base.quality, lz_base.quality);
}

TEST(Framework, DeterministicAcrossIdenticalRuns) {
  const auto run_once = [] {
    Fixture fx(4, fast_config());
    const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.15));
    PatternMiningWorkload workload(
        {.min_support = 0.1, .max_pattern_length = 2});
    fx.framework.prepare(ds, workload);
    return fx.framework.run(Strategy::kHetAware, ds, workload);
  };
  const JobReport a = run_once();
  const JobReport b = run_once();
  EXPECT_EQ(a.partition_sizes, b.partition_sizes);
  EXPECT_DOUBLE_EQ(a.exec_time_s, b.exec_time_s);
  EXPECT_DOUBLE_EQ(a.dirty_energy_j, b.dirty_energy_j);
}

TEST(Framework, StrategyNamesAreHuman) {
  EXPECT_EQ(strategy_name(Strategy::kStratified), "Stratified");
  EXPECT_EQ(strategy_name(Strategy::kHetAware), "Het-Aware");
  EXPECT_EQ(strategy_name(Strategy::kHetEnergyAware), "Het-Energy-Aware");
  EXPECT_EQ(strategy_name(Strategy::kRandom), "Random");
  EXPECT_EQ(strategy_name(Strategy::kWorkStealing), "Work-Stealing");
}

}  // namespace
}  // namespace hetsim::core
