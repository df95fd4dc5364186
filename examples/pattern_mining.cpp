// Frequent tree mining end to end, with the framework internals exposed:
// strata statistics, the learned per-node time models, the LP partition
// plan, per-node execution times, and the SON candidate statistics that
// show why representative partitions matter.
//
// Build & run:  cmake --build build && ./build/examples/pattern_mining
#include <iostream>

#include "common/table.h"
#include "core/framework.h"
#include "core/mining_workload.h"
#include "data/generators.h"

int main() {
  using namespace hetsim;

  cluster::Cluster cluster(cluster::standard_cluster(8));
  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);
  const data::Dataset trees =
      data::generate_tree_corpus(data::swissprot_like(1.5), "protein-trees");
  std::cout << "corpus: " << trees.size() << " trees (LCA-pivot item "
            << "sets, see src/data/tree.h)\n\n";

  core::PatternMiningWorkload workload(
      {.min_support = 0.05, .max_pattern_length = 2});
  core::FrameworkConfig config;
  config.sampling.min_records = 40;
  config.energy_alpha = 0.995;
  core::ParetoFramework framework(cluster, energy, config);
  framework.prepare(trees, workload);

  // Strata produced by minhash + compositeKModes.
  const auto& strata = framework.strata();
  std::cout << "strata: " << strata.num_strata << " (zero-match fallbacks: "
            << strata.zero_match_assignments
            << ", kmodes iterations: " << strata.iterations << ")\n";
  std::cout << "stratum sizes:";
  for (const auto s : strata.stratum_sizes) std::cout << ' ' << s;
  std::cout << "\n\n";

  // Learned execution-time models f_i(x) = m_i x + c_i and dirty rates.
  common::Table models({"node", "type", "slope (s/rec)", "intercept (s)",
                        "dirty rate (W)"});
  const auto nm = framework.node_models();
  for (std::size_t i = 0; i < nm.size(); ++i) {
    const auto& spec = cluster.node(static_cast<std::uint32_t>(i));
    models.add_row({std::to_string(i),
                    "type" + std::to_string(static_cast<int>(spec.type)),
                    common::format_double(nm[i].slope * 1e6, 3) + "e-6",
                    common::format_double(nm[i].intercept, 5),
                    common::format_double(nm[i].dirty_rate, 1)});
  }
  models.print(std::cout, "learned node models (progressive sampling)");
  std::cout << '\n';

  // Run the three strategies; show per-node times and SON statistics.
  for (const core::Strategy strategy :
       {core::Strategy::kStratified, core::Strategy::kHetAware,
        core::Strategy::kHetEnergyAware}) {
    const core::JobReport r = framework.run(strategy, trees, workload);
    std::cout << core::strategy_name(strategy) << ": exec "
              << common::format_double(r.exec_time_s, 4) << " s, dirty "
              << common::format_double(r.dirty_energy_j, 1) << " J\n";
    std::cout << "  partition sizes:";
    for (const auto s : r.partition_sizes) std::cout << ' ' << s;
    std::cout << "\n  node busy (s):";
    for (const auto t : r.node_exec_s) {
      std::cout << ' ' << common::format_double(t, 4);
    }
    std::cout << "\n  SON: " << workload.globally_frequent()
              << " frequent patterns, " << workload.union_candidates()
              << " candidates scanned, " << workload.false_positives()
              << " false positives pruned\n";
  }
  return 0;
}
