// Virtual-time heterogeneous cluster.
//
// A Cluster owns one kvstore::Store per node and a shared net::Fabric.
// Work is executed in *phases*: every node runs one task, tasks meter
// their work units and their kvstore traffic, and the phase's simulated
// duration is the maximum over nodes (barrier semantics, as in the
// paper's middleware where phases are separated by a global barrier).
//
// Tasks execute sequentially on the host machine but are accounted in
// virtual time, which makes arbitrarily heterogeneous clusters exactly
// reproducible on any build box.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "cluster/work_meter.h"
#include "common/rng.h"
#include "kvstore/client.h"
#include "kvstore/store.h"
#include "net/fabric.h"

namespace hetsim::cluster {

class Cluster;

/// Execution context handed to a node task.
class NodeContext {
 public:
  NodeContext(Cluster& cluster, const NodeSpec& node);

  [[nodiscard]] const NodeSpec& node() const noexcept { return node_; }
  [[nodiscard]] WorkMeter& meter() noexcept { return meter_; }

  /// Client from this node to the store hosted on `target` (lazily
  /// created; pipelined with the cluster's configured width).
  kvstore::Client& client(std::uint32_t target);
  /// Client to this node's own store.
  kvstore::Client& local() { return client(node_.id); }

  /// Total simulated network seconds consumed by this context's clients.
  [[nodiscard]] double network_time() const;

 private:
  Cluster& cluster_;
  const NodeSpec& node_;
  WorkMeter meter_;
  std::vector<std::unique_ptr<kvstore::Client>> clients_;  // by target id
};

/// Per-node outcome of a phase.
struct NodePhaseResult {
  std::uint32_t node_id = 0;
  double work_units = 0.0;
  double compute_time_s = 0.0;
  double network_time_s = 0.0;
  [[nodiscard]] double total_time_s() const noexcept {
    return compute_time_s + network_time_s;
  }
};

/// Outcome of one phase across the cluster.
struct PhaseReport {
  std::string name;
  std::vector<NodePhaseResult> per_node;
  /// Phase duration = slowest node (global barrier at the end).
  [[nodiscard]] double makespan_s() const noexcept;
  /// Busy time summed over nodes (for energy accounting).
  [[nodiscard]] double total_busy_s() const noexcept;
};

/// A node task: runs with a context, returns nothing; all effects are the
/// metered work and kvstore traffic.
using NodeTask = std::function<void(NodeContext&)>;

/// Tuning knobs of the simulator.
struct ClusterOptions {
  WorkRate work_rate{};
  net::LinkSpec remote_link{};
  std::size_t pipeline_width = 256;
  /// Failure handling of every client created through NodeContext.
  kvstore::RetryPolicy retry{};
  /// Per-(node, phase) multiplicative speed noise, as a standard
  /// deviation fraction. Models the throughput variability of co-located
  /// virtual machines (paper section II cites 2x variation on EC2) —
  /// the reason the time models are *learned* rather than read off the
  /// CPU spec. 0 disables jitter; draws are deterministic per seed.
  double speed_jitter = 0.0;
  std::uint64_t jitter_seed = 4242;
};

class Cluster {
 public:
  using Options = ClusterOptions;

  explicit Cluster(std::vector<NodeSpec> nodes, Options options = Options());

  [[nodiscard]] const std::vector<NodeSpec>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] const NodeSpec& node(std::uint32_t id) const;
  [[nodiscard]] kvstore::Store& store(std::uint32_t id);
  [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Attach the fault injector every subsequently-created client (and
  /// the runtime's failure detector) consults. Not owned; null detaches.
  /// Attach before running phases — mid-run swaps are undefined.
  void set_fault(fault::FaultInjector* injector) noexcept {
    fabric_.set_fault_injector(injector);
  }
  [[nodiscard]] fault::FaultInjector* fault_injector() const noexcept {
    return fabric_.fault_injector();
  }

  /// Run one task per node (tasks.size() must equal size()); returns the
  /// phase report and advances the cluster's virtual clock by the
  /// makespan.
  PhaseReport run_phase(const std::string& name,
                        const std::vector<NodeTask>& tasks);

  /// Run a task on a single node (e.g. centralized clustering on the
  /// master); the phase lasts exactly that node's time.
  PhaseReport run_on(const std::string& name, std::uint32_t node_id,
                     const NodeTask& task);

  /// Speed `node_id` runs at for one phase: its spec speed times a fresh
  /// per-(node, phase) jitter draw (ClusterOptions::speed_jitter),
  /// clamped so a draw can slow a node but never stop or reverse it.
  /// Draws nothing when jitter is 0. run_phase and the runtime's
  /// executor both take their speeds from here.
  [[nodiscard]] double phase_speed(std::uint32_t node_id);

  /// Virtual seconds elapsed since construction (sum of phase makespans).
  [[nodiscard]] double now() const noexcept { return virtual_now_; }
  /// All phase reports so far, in order.
  [[nodiscard]] const std::vector<PhaseReport>& history() const noexcept {
    return history_;
  }
  void reset_clock() noexcept { virtual_now_ = 0.0; history_.clear(); }

 private:
  std::vector<NodeSpec> nodes_;
  Options options_;
  net::Fabric fabric_;
  std::vector<std::unique_ptr<kvstore::Store>> stores_;
  common::Rng jitter_rng_;
  double virtual_now_ = 0.0;
  std::vector<PhaseReport> history_;
};

}  // namespace hetsim::cluster
