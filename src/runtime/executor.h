// Per-node executors under a single-threaded discrete-event scheduler.
//
// Each node gets a work queue of record indices and a virtual clock.
// run() repeatedly picks the runnable node with the smallest virtual
// clock (ties broken by a seeded per-node priority, then by id),
// executes one chunk of its queue through the workload on the caller's
// thread, and charges the chunk's compute + network virtual seconds to
// that node. Because the pick depends only on virtual state, the
// schedule is reproducible on any machine for a given seed. Node
// heterogeneity is modelled in virtual time, so host threads per node
// would buy nothing; host parallelism belongs inside chunk bodies
// (par::ThreadPool).
//
// After every chunk the executor invokes the checkpoint callback; the
// callback may inspect progress, move records between queues
// (re-planning migrations) and charge extra network time, which is how
// the runtime implements mid-job re-planning.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cluster/cluster.h"

namespace hetsim::fault {
class FaultInjector;
}  // namespace hetsim::fault

namespace hetsim::runtime {

struct ExecutorOptions {
  /// Records per execution chunk (= checkpoint granularity). Must be >= 1.
  std::size_t chunk_records = 64;
  /// Multiplier on each node's *observed* chunk time, versus what the
  /// estimator's model assumed. Empty = all 1.0. This is the injected
  /// estimator error used by benches/tests: a factor of 2 makes the true
  /// per-record cost twice the fitted m_i, i.e. a straggler.
  std::vector<double> per_node_slowdown;
  /// Seed for the scheduler's tie-break priorities.
  std::uint64_t seed = 171;
  /// Fault oracle (nullable, not owned): fail-stops nodes at their
  /// planned virtual times and compounds per-node slowdowns.
  const fault::FaultInjector* fault = nullptr;
  /// Virtual seconds without a heartbeat before a node counts as lost.
  /// 0 = auto: 3x the largest chunk duration the OBSERVING node has
  /// completed, which the min-clock pick rule makes impossible for
  /// a live node to exceed (when a node checkpoints, every live node
  /// with work has a clock at least its own pre-chunk clock, so the lag
  /// is bounded by the observer's own chunk — not anyone else's).
  double heartbeat_timeout_s = 0.0;
};

/// Progress of one node, maintained by the executor.
struct NodeProgress {
  std::size_t records_done = 0;
  double work_units = 0.0;
  double compute_s = 0.0;
  double network_s = 0.0;
  std::size_t chunks = 0;
  [[nodiscard]] double busy_s() const noexcept { return compute_s + network_s; }
};

struct ExecutorReport {
  /// Slowest node's finish time (barrier at the end of the phase).
  double makespan_s = 0.0;
  std::vector<NodeProgress> per_node;
  /// Records still queued when the phase ended — nonzero only when
  /// fail-stops orphaned work that no checkpoint callback reassigned.
  std::size_t unprocessed = 0;
  [[nodiscard]] double total_work_units() const noexcept;
};

class PhaseExecutor {
 public:
  /// Processes `indices` of the dataset as node `ctx.node().id`,
  /// metering via ctx (same contract as estimator::SampleRunner).
  using ChunkRunner =
      std::function<void(cluster::NodeContext&, std::span<const std::uint32_t>)>;
  /// Invoked after `node` completes a chunk (and by the rescue path);
  /// it may freely use the mutation API below and issue client traffic.
  using CheckpointFn = std::function<void(std::uint32_t node)>;

  PhaseExecutor(cluster::Cluster& cluster,
                std::vector<std::vector<std::uint32_t>> queues,
                ChunkRunner runner, ExecutorOptions options);
  PhaseExecutor(const PhaseExecutor&) = delete;
  PhaseExecutor& operator=(const PhaseExecutor&) = delete;

  void set_checkpoint(CheckpointFn fn) { checkpoint_ = std::move(fn); }

  /// Run every queue to exhaustion (or until only dead nodes hold
  /// records that no checkpoint reassigns). Exceptions from the chunk
  /// runner that are not common::Error or are common::ConfigError, and
  /// any exception from the checkpoint callback, propagate out of run().
  [[nodiscard]] ExecutorReport run();

  // ---- checkpoint-callback API ------------------------------------------
  [[nodiscard]] const NodeProgress& progress(std::uint32_t node) const;
  [[nodiscard]] double node_time(std::uint32_t node) const;
  [[nodiscard]] std::size_t remaining(std::uint32_t node) const;
  [[nodiscard]] std::size_t total_remaining() const;
  /// Pop up to `count` records from the tail of `node`'s queue (the
  /// records it would have processed last).
  std::vector<std::uint32_t> take_from_tail(std::uint32_t node,
                                            std::size_t count);
  /// Drain `node`'s entire queue (reclaiming a lost node's in-flight
  /// partition for redistribution).
  std::vector<std::uint32_t> take_all(std::uint32_t node);
  /// Append records to `node`'s queue.
  void give(std::uint32_t node, std::span<const std::uint32_t> records);
  /// Virtual time of `node`'s last sign of life (chunk completion or
  /// settled network activity). A node whose heartbeat lags the current
  /// time by more than heartbeat_timeout(observer) while still holding
  /// queued records is lost — live nodes cannot lag that far (see
  /// ExecutorOptions::heartbeat_timeout_s).
  [[nodiscard]] double heartbeat(std::uint32_t node) const;
  /// The detection threshold in force for checks made by `observer`
  /// (resolves the auto rule against the observer's own chunk history).
  [[nodiscard]] double heartbeat_timeout(std::uint32_t observer) const;
  /// The node's context (for issuing migration traffic from the
  /// checkpoint callback). Traffic issued here must be settled with
  /// sync_network() so it lands on the node's clock exactly once.
  [[nodiscard]] cluster::NodeContext& context(std::uint32_t node);
  /// Fold any un-accounted client time of `node` into its virtual clock
  /// and progress; returns the newly charged seconds.
  double sync_network(std::uint32_t node);

 private:
  /// Node to run next: runnable with min (time, priority, id); size() if
  /// none.
  [[nodiscard]] std::uint32_t pick_next() const;
  /// Run one chunk of `node`'s queue (or fail-stop it), then checkpoint.
  void step(std::uint32_t node);
  /// Dead nodes still hold records but no live node has queued work:
  /// advance the clock of a live node past the detection horizon and run
  /// the checkpoint callback as it, so missed heartbeats become visible
  /// and the work can be reassigned. Returns the next runnable node, or
  /// size() when no callback mutation made one available.
  [[nodiscard]] std::uint32_t rescue();

  cluster::Cluster& cluster_;
  ExecutorOptions options_;
  ChunkRunner runner_;
  CheckpointFn checkpoint_;
  std::vector<std::deque<std::uint32_t>> queues_;
  std::vector<double> clock_;
  std::vector<NodeProgress> progress_;
  std::vector<double> slowdown_;
  std::vector<double> speed_;  // per node, jittered once for the phase
  std::vector<std::uint64_t> priority_;  // seeded scheduler tie-break
  std::vector<std::unique_ptr<cluster::NodeContext>> contexts_;
  std::vector<double> units_seen_;    // last settled meter reading
  std::vector<double> network_seen_;  // last settled client time
  std::vector<char> dead_;            // fail-stopped
  std::vector<double> heartbeat_;     // virtual time of last sign of life
  std::vector<double> max_chunk_s_;   // largest own chunk duration, per node
  std::uint64_t mutations_ = 0;       // queue-mutation epoch (rescue progress)
  std::size_t taken_ = 0;             // records removed via take_* calls
  std::size_t given_ = 0;             // records re-queued via give()
};

}  // namespace hetsim::runtime
