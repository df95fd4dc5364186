#include "bench/harness.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>

#include "common/error.h"
#include "common/json.h"
#include "common/table.h"

#ifndef HETSIM_GIT_SHA
#define HETSIM_GIT_SHA "unknown"
#endif

namespace hetsim::bench {

const core::JobReport& ExperimentOutcome::find(core::Strategy s) const {
  for (const auto& o : strategies) {
    if (o.strategy == s) return o;
  }
  throw common::ConfigError("ExperimentOutcome: strategy not present");
}

double ExperimentOutcome::time_improvement_pct(core::Strategy s) const {
  const double base = find(core::Strategy::kStratified).exec_time_s;
  return 100.0 * (base - find(s).exec_time_s) / base;
}

double ExperimentOutcome::energy_improvement_pct(core::Strategy s) const {
  const double base = find(core::Strategy::kStratified).dirty_energy_j;
  return 100.0 * (base - find(s).dirty_energy_j) / base;
}

core::FrameworkConfig bench_config(double energy_alpha) {
  core::FrameworkConfig cfg;
  cfg.sketch.num_hashes = 48;
  cfg.kmodes.num_strata = 24;
  cfg.kmodes.composite_l = 3;
  cfg.kmodes.max_iterations = 12;
  cfg.sampling.steps = 5;
  cfg.sampling.min_fraction = 0.005;
  cfg.sampling.max_fraction = 0.02;
  cfg.sampling.min_records = 40;
  cfg.energy_alpha = energy_alpha;
  // The benches use the normalized scalarization so one alpha means the
  // same tradeoff on every workload (see EXPERIMENTS.md: the raw
  // formulation's knee sits in [0.99, 1.0] at simulator scales, exactly
  // the sensitivity the paper's future-work section flags).
  cfg.normalized_alpha = true;
  return cfg;
}

std::vector<core::Strategy> paper_strategies() {
  return {core::Strategy::kStratified, core::Strategy::kHetAware,
          core::Strategy::kHetEnergyAware};
}

ExperimentOutcome run_experiment(const data::Dataset& dataset,
                                 core::Workload& workload,
                                 std::uint32_t partitions, double energy_alpha,
                                 const std::vector<core::Strategy>& strategies,
                                 const cluster::ClusterOptions& cluster_options) {
  cluster::Cluster cluster(cluster::standard_cluster(partitions),
                           cluster_options);
  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);
  core::ParetoFramework framework(cluster, energy, bench_config(energy_alpha));
  framework.prepare(dataset, workload);

  ExperimentOutcome out;
  out.dataset = dataset.name;
  out.records = dataset.size();
  out.partitions = partitions;
  out.setup_time_s = framework.setup_time_s();
  for (const core::Strategy s : strategies) {
    out.strategies.push_back(framework.run(s, dataset, workload));
  }
  return out;
}

bool write_bench_json(const std::string& bench_name,
                      const std::vector<BenchMetric>& metrics) {
  const char* gate = std::getenv("HETSIM_BENCH_JSON");
  if (gate == nullptr || *gate == '\0') return false;
  std::string dir(gate);
  if (dir == "1") dir = ".";
  common::JsonWriter w;
  w.begin_object();
  w.field("bench", bench_name);
  w.field("git_sha", std::string(HETSIM_GIT_SHA));
  w.key("metrics");
  w.begin_array();
  for (const BenchMetric& m : metrics) {
    w.begin_object();
    w.field("name", m.name);
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const std::string path = dir + "/BENCH_" + bench_name + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << w.str() << '\n';
  if (!out) {
    std::cerr << "bench: failed to write " << path << '\n';
    return false;
  }
  std::cerr << "bench: wrote " << path << '\n';
  return true;
}

namespace {

std::vector<std::string> partition_header(
    const std::vector<ExperimentOutcome>& by_partitions,
    const std::string& first) {
  std::vector<std::string> header{first};
  for (const auto& e : by_partitions) {
    header.push_back(std::to_string(e.partitions) + " parts");
  }
  return header;
}

}  // namespace

void print_time_energy_figure(
    const std::string& title,
    const std::vector<ExperimentOutcome>& by_partitions) {
  using common::Table;
  if (by_partitions.empty()) return;
  Table time(partition_header(by_partitions, "strategy (time s)"));
  Table energy(partition_header(by_partitions, "strategy (dirty kJ)"));
  for (const auto& strat : by_partitions.front().strategies) {
    std::vector<double> times, energies;
    for (const auto& e : by_partitions) {
      times.push_back(e.find(strat.strategy).exec_time_s);
      energies.push_back(e.find(strat.strategy).dirty_energy_j / 1000.0);
    }
    time.add_row_numeric(core::strategy_name(strat.strategy), times, 4);
    energy.add_row_numeric(core::strategy_name(strat.strategy), energies, 4);
  }
  time.print(std::cout, title + " — execution time");
  std::cout << '\n';
  energy.print(std::cout, title + " — dirty energy");
  // Improvement summary over the Stratified baseline, as quoted in the
  // paper's prose.
  std::cout << '\n' << title << " — improvement vs Stratified baseline\n";
  for (const auto& e : by_partitions) {
    for (const core::Strategy s :
         {core::Strategy::kHetAware, core::Strategy::kHetEnergyAware}) {
      bool present = false;
      for (const auto& o : e.strategies) present |= o.strategy == s;
      if (!present) continue;
      std::cout << "  " << e.partitions << " parts " << core::strategy_name(s)
                << ": time " << common::format_double(e.time_improvement_pct(s), 1)
                << "%, dirty energy "
                << common::format_double(e.energy_improvement_pct(s), 1) << "%\n";
    }
  }
  std::cout << '\n';
}

void print_quality_table(const std::string& title,
                         const std::vector<ExperimentOutcome>& by_partitions,
                         const std::string& metric_name) {
  using common::Table;
  if (by_partitions.empty()) return;
  Table t(partition_header(by_partitions, "strategy (" + metric_name + ")"));
  for (const auto& strat : by_partitions.front().strategies) {
    std::vector<double> values;
    for (const auto& e : by_partitions) {
      values.push_back(e.find(strat.strategy).quality);
    }
    t.add_row_numeric(core::strategy_name(strat.strategy), values, 2);
  }
  t.print(std::cout, title);
  std::cout << '\n';
}

void print_frontier(const std::string& title, const data::Dataset& dataset,
                    core::Workload& workload, std::uint32_t partitions,
                    const std::vector<double>& alphas, bool normalized) {
  cluster::Cluster cluster(cluster::standard_cluster(partitions));
  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);
  core::ParetoFramework framework(cluster, energy, bench_config(0.999));
  framework.prepare(dataset, workload);

  // "dirty lin" is the LP's linearized objective Σ k_i·f_i (can go
  // negative when a node's green forecast exceeds its draw); "dirty
  // clamped" floors each node's contribution at zero, since one node's
  // green surplus cannot offset another's grid draw.
  const auto clamped_dirty = [&](std::span<const std::size_t> sizes) {
    double total = 0.0;
    const auto models = framework.node_models();
    for (std::size_t i = 0; i < models.size(); ++i) {
      if (sizes[i] == 0) continue;
      total += std::max(0.0, models[i].dirty_rate) *
               models[i].time_s(static_cast<double>(sizes[i]));
    }
    return total;
  };
  common::Table t(
      {"alpha", "time (s)", "dirty lin (kJ)", "dirty clamped (kJ)"});
  const auto frontier = framework.predicted_frontier(alphas, normalized);
  for (const auto& pt : frontier) {
    t.add_row({common::format_double(pt.alpha, 4),
               common::format_double(pt.makespan_s, 4),
               common::format_double(pt.dirty_joules / 1000.0, 4),
               common::format_double(clamped_dirty(pt.sizes) / 1000.0, 4)});
  }
  // Baseline point: predicted equal split (the yellow marker in Fig. 5).
  const auto eq =
      optimize::equal_split(framework.node_models(), dataset.size());
  t.add_row({"Stratified(base)",
             common::format_double(eq.predicted_makespan_s, 4),
             common::format_double(eq.predicted_dirty_joules / 1000.0, 4),
             common::format_double(clamped_dirty(eq.sizes) / 1000.0, 4)});
  t.print(std::cout, title);
  std::cout << '\n';
}

}  // namespace hetsim::bench
