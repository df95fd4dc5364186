// Shared experiment harness for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper:
// build the standard heterogeneous cluster at the requested partition
// count, prepare the Pareto framework once per (dataset, workload), run
// the strategies under comparison, and print the same rows/series the
// paper reports (simulated seconds and joules — see DESIGN.md for the
// work-metering substitution).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/compression_workload.h"
#include "core/framework.h"
#include "core/mining_workload.h"
#include "data/generators.h"

namespace hetsim::bench {

struct ExperimentOutcome {
  std::string dataset;
  std::size_t records = 0;
  std::uint32_t partitions = 0;
  double setup_time_s = 0.0;
  std::vector<core::JobReport> strategies;

  [[nodiscard]] const core::JobReport& find(core::Strategy s) const;
  /// Percent improvement of `s` over the Stratified baseline on time
  /// (positive = faster than baseline).
  [[nodiscard]] double time_improvement_pct(core::Strategy s) const;
  [[nodiscard]] double energy_improvement_pct(core::Strategy s) const;
};

/// Framework tuning used by all benches (paper defaults, floors sized for
/// the synthetic corpora).
[[nodiscard]] core::FrameworkConfig bench_config(double energy_alpha);

/// Run `strategies` over `dataset`/`workload` on a `partitions`-node
/// standard cluster. One prepare() then one run() per strategy.
/// `cluster_options` lets ablations inject jitter or link changes.
[[nodiscard]] ExperimentOutcome run_experiment(
    const data::Dataset& dataset, core::Workload& workload,
    std::uint32_t partitions, double energy_alpha,
    const std::vector<core::Strategy>& strategies,
    const cluster::ClusterOptions& cluster_options = {});

/// Standard strategy set of the paper's figures.
[[nodiscard]] std::vector<core::Strategy> paper_strategies();

/// Print a figure-style block: one table for execution time and one for
/// dirty energy, rows = strategies, columns = partition counts.
void print_time_energy_figure(
    const std::string& title,
    const std::vector<ExperimentOutcome>& by_partitions);

/// Print a quality table (compression ratio / pattern counts).
void print_quality_table(const std::string& title,
                         const std::vector<ExperimentOutcome>& by_partitions,
                         const std::string& metric_name);

// ---- machine-readable bench output -----------------------------------------

/// One scalar a bench wants tracked across commits.
struct BenchMetric {
  std::string name;
  double value = 0.0;
  std::string unit;  // "s", "J", "bytes", "count", "%", ...
};

/// When the HETSIM_BENCH_JSON environment variable is set (non-empty),
/// write `BENCH_<bench_name>.json` — the metrics plus the git SHA the
/// binary was built from — into the directory the variable names ("1"
/// or "." mean the current directory). Returns true when a file was
/// written, false when the gate is off or the write failed (failure is
/// also reported on stderr; benches keep their human-readable output
/// either way).
bool write_bench_json(const std::string& bench_name,
                      const std::vector<BenchMetric>& metrics);

/// Frontier sweep (Fig. 5/6): run the framework once, sweep alpha, print
/// (alpha, predicted time, predicted dirty energy) plus the predicted
/// Stratified baseline point. `normalized` selects the normalized
/// scalarization (extension) instead of the paper's raw formulation.
void print_frontier(const std::string& title, const data::Dataset& dataset,
                    core::Workload& workload, std::uint32_t partitions,
                    const std::vector<double>& alphas,
                    bool normalized = false);

}  // namespace hetsim::bench
