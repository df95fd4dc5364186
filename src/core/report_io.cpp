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
    case Strategy::kWorkStealing:
      return "Work-Stealing";
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
