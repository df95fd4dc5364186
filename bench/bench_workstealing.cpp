// Ablation beyond the paper's figures: the work-stealing strawman the
// introduction dismisses, on the same axes as the Pareto framework.
//
// Expected shape (paper section I): stealing CAN balance runtime across
// heterogeneous nodes — but it (a) moves chunk payloads over the
// network, and (b) fragments the job into many small mining units whose
// noisy locally-frequent sets inflate the SON candidate union, i.e. it
// is size-aware but not payload-aware. The Het-Aware plan reaches a
// better makespan with zero migration and a smaller candidate scan.
//
// Every row is a job on runtime::JobRuntime. A stealing row plans equal
// Random partitions, cut into k chunks each; a node whose queue drains
// steals one chunk from the most-loaded queue through the fabric. Its
// time is the execute phase plus the executed SON global phase.
//
// Exit status is non-zero unless the candidate union strictly grows
// from x2 to x16, every stealing row steals and migrates bytes, and
// Het-Aware is faster than every stealing row. The rows run in virtual
// time, so the gate is deterministic.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/table.h"
#include "runtime/runtime.h"

int main() {
  using namespace hetsim;
  std::cout << "=== Ablation: work stealing vs Het-Aware partitioning "
               "(8 nodes, text mining) ===\n\n";
  const data::Dataset ds =
      data::generate_text_corpus(data::rcv1_like(1.0), "rcv1");
  const mining::AprioriConfig mining_cfg{.min_support = 0.08,
                                         .max_pattern_length = 3};
  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);
  const core::FrameworkConfig cfg = bench::bench_config(0.75);
  common::Table table({"scheme", "time (s)", "migrated MB", "steals",
                       "dirty J", "candidate union"});

  // --- Work-stealing side: k chunks per node, stolen at checkpoints. -------
  std::vector<runtime::JobSummary> ws;
  std::vector<std::size_t> ws_union;
  for (const std::size_t k : {2u, 4u, 8u, 16u}) {
    const std::size_t chunk = (ds.size() + 8 * k - 1) / (8 * k);
    cluster::Cluster cluster(cluster::standard_cluster(8));
    core::PatternMiningWorkload workload(mining_cfg);
    runtime::JobRuntime rt(
        cluster, energy,
        runtime::JobSpec{.name = "stealing",
                         .strategy = core::Strategy::kWorkStealing,
                         .sketch = cfg.sketch,
                         .kmodes = cfg.kmodes,
                         .sampling = cfg.sampling,
                         .checkpoint_records = chunk,
                         .enable_replan = false});
    ws.push_back(rt.run(ds, workload));
    ws_union.push_back(workload.union_candidates());
    const runtime::JobSummary& s = ws.back();
    table.add_row({"stealing x" + std::to_string(k),
                   common::format_double(s.makespan_s, 4),
                   common::format_double(s.migrated_bytes / 1e6, 3),
                   std::to_string(s.migration_steps),
                   common::format_double(s.dirty_energy_j, 2),
                   std::to_string(ws_union.back())});
  }

  // --- Pareto framework side: one prepare, each row its own union. --------
  double het_time = 0.0;
  {
    cluster::Cluster cluster(cluster::standard_cluster(8));
    core::ParetoFramework framework(cluster, energy, cfg);
    core::PatternMiningWorkload workload(mining_cfg);
    framework.prepare(ds, workload);
    for (const auto& [s, label] :
         {std::pair{core::Strategy::kStratified, "Stratified (equal)"},
          std::pair{core::Strategy::kHetAware, "Het-Aware (LP)"}}) {
      const core::JobReport r = framework.run(s, ds, workload);
      if (s == core::Strategy::kHetAware) het_time = r.exec_time_s;
      table.add_row({label, common::format_double(r.exec_time_s, 4), "0.000",
                     "0", common::format_double(r.dirty_energy_j, 2),
                     std::to_string(workload.union_candidates())});
    }
  }
  table.print(std::cout,
              "work stealing balances size, not payload: candidate union "
              "grows with fragmentation while Het-Aware pays no migration");

  bool ok = true;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    if (i > 0 && ws_union[i] <= ws_union[i - 1]) {
      std::cout << "FAIL: candidate union does not grow at row " << i << '\n';
      ok = false;
    }
    if (ws[i].migration_steps == 0 || ws[i].migrated_bytes <= 0.0) {
      std::cout << "FAIL: stealing row " << i << " stole nothing\n";
      ok = false;
    }
    if (het_time >= ws[i].makespan_s) {
      std::cout << "FAIL: Het-Aware is not faster than stealing row " << i
                << '\n';
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
