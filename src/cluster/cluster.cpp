#include "cluster/cluster.h"

#include <algorithm>

#include "common/error.h"

namespace hetsim::cluster {

NodeContext::NodeContext(Cluster& cluster, const NodeSpec& node)
    : cluster_(cluster), node_(node) {
  clients_.resize(cluster.size());
}

kvstore::Client& NodeContext::client(std::uint32_t target) {
  common::require<common::ConfigError>(target < clients_.size(),
                                       "NodeContext: target out of range");
  auto& slot = clients_[target];
  if (!slot) {
    slot = std::make_unique<kvstore::Client>(
        cluster_.fabric(), node_.id, target, cluster_.store(target),
        cluster_.options().pipeline_width, cluster_.fault_injector(),
        cluster_.options().retry);
  }
  return *slot;
}

double NodeContext::network_time() const {
  double total = 0.0;
  for (const auto& c : clients_) {
    if (c) total += c->consumed_time();
  }
  return total;
}

double PhaseReport::makespan_s() const noexcept {
  double worst = 0.0;
  for (const auto& r : per_node) worst = std::max(worst, r.total_time_s());
  return worst;
}

double PhaseReport::total_busy_s() const noexcept {
  double total = 0.0;
  for (const auto& r : per_node) total += r.total_time_s();
  return total;
}

Cluster::Cluster(std::vector<NodeSpec> nodes, Options options)
    : nodes_(std::move(nodes)),
      options_(options),
      fabric_(static_cast<std::uint32_t>(nodes_.size()), options.remote_link),
      jitter_rng_(options.jitter_seed) {
  common::require<common::ConfigError>(
      options_.speed_jitter >= 0.0 && options_.speed_jitter < 1.0,
      "Cluster: speed_jitter must be in [0, 1)");
  common::require<common::ConfigError>(!nodes_.empty(),
                                       "Cluster: need at least one node");
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    common::require<common::ConfigError>(
        nodes_[i].id == i, "Cluster: node ids must be dense from 0");
    common::require<common::ConfigError>(nodes_[i].speed > 0,
                                         "Cluster: node speed must be > 0");
    stores_.push_back(std::make_unique<kvstore::Store>());
  }
}

const NodeSpec& Cluster::node(std::uint32_t id) const {
  common::require<common::ConfigError>(id < nodes_.size(),
                                       "Cluster: node id out of range");
  return nodes_[id];
}

kvstore::Store& Cluster::store(std::uint32_t id) {
  common::require<common::ConfigError>(id < stores_.size(),
                                       "Cluster: store id out of range");
  return *stores_[id];
}

PhaseReport Cluster::run_phase(const std::string& name,
                               const std::vector<NodeTask>& tasks) {
  common::require<common::ConfigError>(tasks.size() == nodes_.size(),
                                       "run_phase: one task per node required");
  PhaseReport report;
  report.name = name;
  report.per_node.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeContext ctx(*this, nodes_[i]);
    if (tasks[i]) tasks[i](ctx);
    NodePhaseResult r;
    r.node_id = nodes_[i].id;
    r.work_units = ctx.meter().units();
    r.compute_time_s = options_.work_rate.seconds(
        r.work_units, phase_speed(static_cast<std::uint32_t>(i)));
    r.network_time_s = ctx.network_time();
    report.per_node.push_back(r);
  }
  virtual_now_ += report.makespan_s();
  history_.push_back(report);
  return report;
}

double Cluster::phase_speed(std::uint32_t node_id) {
  const double speed = node(node_id).speed;
  if (options_.speed_jitter == 0.0) return speed;
  // VM-style speed noise.
  return speed *
         std::max(0.2, 1.0 + options_.speed_jitter * jitter_rng_.normal());
}

PhaseReport Cluster::run_on(const std::string& name, std::uint32_t node_id,
                            const NodeTask& task) {
  std::vector<NodeTask> tasks(nodes_.size());
  tasks[node_id] = task;
  return run_phase(name, tasks);
}

}  // namespace hetsim::cluster
