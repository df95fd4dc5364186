#include "core/report_io.h"

#include "common/json.h"

namespace hetsim::core {

std::string strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kRandom:
      return "Random";
    case Strategy::kStratified:
      return "Stratified";
    case Strategy::kHetAware:
      return "Het-Aware";
    case Strategy::kHetEnergyAware:
      return "Het-Energy-Aware";
  }
  return "?";
}

std::string to_json(const JobReport& report) {
  common::JsonWriter w;
  w.begin_object();
  w.field("strategy", strategy_name(report.strategy));
  w.field("workload", report.workload);
  w.key("partition_sizes").begin_array();
  for (const std::size_t s : report.partition_sizes) w.value(s);
  w.end_array();
  w.field("exec_time_s", report.exec_time_s);
  w.field("load_time_s", report.load_time_s);
  w.field("dirty_energy_j", report.dirty_energy_j);
  w.field("green_energy_j", report.green_energy_j);
  w.field("total_energy_j", report.total_energy_j());
  w.field("quality", report.quality);
  w.field("total_work_units", report.total_work_units);
  w.key("node_exec_s").begin_array();
  for (const double t : report.node_exec_s) w.value(t);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string to_json(const cluster::PhaseReport& report) {
  common::JsonWriter w;
  w.begin_object();
  w.field("name", report.name);
  w.field("makespan_s", report.makespan_s());
  w.field("total_busy_s", report.total_busy_s());
  w.key("nodes").begin_array();
  for (const auto& n : report.per_node) {
    w.begin_object();
    w.field("node", static_cast<std::uint64_t>(n.node_id));
    w.field("work_units", n.work_units);
    w.field("compute_s", n.compute_time_s);
    w.field("network_s", n.network_time_s);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string frontier_to_json(
    const std::vector<optimize::FrontierPoint>& frontier) {
  common::JsonWriter w;
  w.begin_array();
  for (const auto& pt : frontier) {
    w.begin_object();
    w.field("alpha", pt.alpha);
    w.field("makespan_s", pt.makespan_s);
    w.field("dirty_joules", pt.dirty_joules);
    w.end_object();
  }
  w.end_array();
  return w.str();
}

}  // namespace hetsim::core
