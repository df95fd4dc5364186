// hetsim::runtime — a job runtime over the simulated cluster.
//
// JobRuntime owns an analytics job end to end as a typed phase DAG
// (ingest → stratify → estimate → forecast → optimize → partition →
// execute → global), the one executor of the paper's Fig. 1 pipeline.
// prepare() runs the first four phases once per dataset and workload;
// execute(strategy) runs the rest from that state, as often as asked;
// run() is one of each. core::ParetoFramework is a prepare-once façade
// over the two halves. The data-parallel phase runs in chunks on a
// single-threaded, deterministic virtual-time scheduler, watches
// per-node progress at checkpoints, re-plans mid-job when a node's
// observed rate deviates from its fitted m_i (re-fit, re-solve the LP
// over remaining records, migrate the delta through kvstore clients
// over the Fabric), and records everything as spans exportable as
// Chrome-trace JSON. One owner per job, reactive to estimator error,
// and observable after the fact.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/framework.h"
#include "core/workload.h"
#include "data/dataset.h"
#include "energy/estimator.h"
#include "estimator/progressive.h"
#include "ha/router.h"
#include "optimize/pareto.h"
#include "runtime/dag.h"
#include "runtime/replan.h"
#include "runtime/trace.h"
#include "sketch/minhash.h"
#include "stratify/kmodes.h"

namespace hetsim::runtime {

/// Everything that defines a job besides the dataset and workload.
struct JobSpec {
  std::string name = "job";
  /// Planning strategy for the initial partition sizes.
  core::Strategy strategy = core::Strategy::kHetAware;
  /// Het-Energy-Aware tradeoff weight (also used for re-plan solves).
  double alpha = 0.75;
  bool normalized_alpha = true;

  // Pipeline configuration.
  sketch::SketchConfig sketch{};
  stratify::KModesConfig kmodes{};
  estimator::SampleSpec sampling{};

  // Runtime behaviour.
  /// Records per execution chunk / checkpoint, and per steal under
  /// kWorkStealing. 0 = auto: largest initial partition divided into ~8
  /// checkpoints.
  std::size_t checkpoint_records = 0;
  bool enable_replan = true;
  StragglerPolicy straggler{};
  /// Injected truth-vs-estimate error: multiplier on each node's actual
  /// per-record execution cost (empty = none). The estimator never sees
  /// this, which is exactly the situation re-planning exists for.
  std::vector<double> per_node_slowdown{};
  std::uint64_t seed = 171;
  /// Node-loss detection threshold in virtual seconds; 0 = the
  /// executor's auto rule (3x the observing node's own largest chunk
  /// duration). Only consulted when a fault injector is attached to
  /// the cluster.
  double heartbeat_timeout_s = 0.0;
  /// Copies kept of every ingested record (via the ha shard router).
  /// 1 = legacy single-master data plane; >= 2 additionally shards each
  /// record over k replicas, so node loss — including the data master —
  /// degrades instead of failing: orphan rescues re-pull payloads from
  /// surviving replicas. Must be <= the cluster size.
  std::size_t replication = 1;
};

/// Per-job summary, exported alongside the trace.
struct JobSummary {
  std::string job;
  std::string workload;
  core::Strategy strategy = core::Strategy::kHetAware;
  std::size_t records = 0;
  /// Pipeline time before the execute phase (virtual seconds).
  double setup_time_s = 0.0;
  /// Execute + global phase duration (the paper's "execution time").
  double makespan_s = 0.0;
  double dirty_energy_j = 0.0;
  double green_energy_j = 0.0;
  /// Payload bytes moved by re-plan migrations and, under
  /// kWorkStealing, by steals.
  double migrated_bytes = 0.0;
  std::size_t replans = 0;
  std::size_t stragglers_detected = 0;
  /// Re-plan migration steps and steals, and the records they moved.
  std::size_t migration_steps = 0;
  std::size_t migrated_records = 0;
  double total_work_units = 0.0;
  double quality = 0.0;
  std::vector<std::size_t> initial_sizes;
  /// Records each node actually processed (ΣN even after migrations).
  std::vector<std::size_t> processed;
  /// Duration of the partition phase's load (virtual seconds; part of
  /// setup_time_s). Not in summary_json.
  double load_time_s = 0.0;
  /// Per-node busy seconds of the execute and global phases, the energy
  /// bill's input. Not in summary_json.
  std::vector<double> node_exec_s;

  // ---- degraded mode (fault injection) -------------------------------
  /// Typed outcome; kDegraded/kDataUnavailable refine `degraded`.
  JobStatus status = JobStatus::kOk;
  /// True when the job finished without some of its nodes.
  bool degraded = false;
  /// Nodes declared lost (missed heartbeats while holding records), in
  /// detection order.
  std::vector<std::uint32_t> nodes_lost;
  /// Survivor re-plans triggered by node loss (one per lost node).
  std::size_t node_loss_replans = 0;
  /// Orphaned records redistributed to survivors, and their payload
  /// bytes re-pulled from the data master.
  std::size_t replanned_records = 0;
  double replanned_bytes = 0.0;
  /// kvstore client failure handling during this job (deltas of the
  /// fabric's counters over the run).
  std::uint64_t kv_retries = 0;
  std::uint64_t kv_timeouts = 0;
  std::uint64_t kv_failures = 0;

  // ---- phase fault domains (PhaseResult plumbing) --------------------
  /// Whole-phase re-runs granted by the DAG after transient faults.
  std::size_t phase_retries = 0;
  /// First phase that exhausted its attempts ("" = none). Its
  /// dependents were skipped; `status` carries the typed outcome.
  std::string failed_phase;
  /// Why that phase gave up (last attempt's detail).
  std::string failure_detail;
  /// Records dropped from the plan because no live replica could serve
  /// them (implies kDataUnavailable; excluded from `processed`).
  std::size_t records_dropped = 0;
  /// Non-kOk kvstore replies the phases absorbed without failing the
  /// job (degraded writes, staging losses, sketch-upload drops).
  std::uint64_t tolerated_kv_failures = 0;

  // ---- replication (spec.replication >= 2) ---------------------------
  /// Acknowledged per-replica record copies written at ingest.
  std::uint64_t replica_writes = 0;
  /// Failover elections run by the shard router during the job.
  std::size_t elections = 0;
  /// Orphaned records whose payloads were re-pulled from surviving
  /// replicas (rather than the single data master).
  std::size_t replica_rescued_records = 0;

  [[nodiscard]] double total_energy_j() const noexcept {
    return dirty_energy_j + green_energy_j;
  }
};

/// No-work-lost invariant: every ingested record was processed by some
/// node, even across straggler migrations and node-loss re-plans.
/// Aborts (HETSIM_CHECK) on violation. Called at the end of every
/// JobRuntime::run except when the summary reports kDataUnavailable
/// (records provably lost is that status's meaning); exposed so tests
/// can drive it directly.
void verify_no_work_lost(const JobSummary& summary);

/// JSON object for one summary (dashboards, bench trajectories).
[[nodiscard]] std::string summary_json(const JobSummary& summary);

class JobRuntime {
 public:
  JobRuntime(cluster::Cluster& cluster,
             const energy::GreenEnergyEstimator& energy, JobSpec spec);
  ~JobRuntime();
  JobRuntime(const JobRuntime&) = delete;
  JobRuntime& operator=(const JobRuntime&) = delete;

  /// Run the full phase DAG for one (dataset, workload) job: prepare(),
  /// execute(spec().strategy), then delete the keys the job left on the
  /// master. The trace of the run is available from trace() afterwards.
  [[nodiscard]] JobSummary run(const data::Dataset& dataset,
                               core::Workload& workload);

  /// The prepare half: ingest, stratify, estimate and forecast. Starts a
  /// new trace; afterwards strata(), node_models() and plan_sizes() read
  /// the fitted state. `dataset` and `workload` must outlive every
  /// execute(). Keys an earlier prepare() left on the master are deleted
  /// first.
  void prepare(const data::Dataset& dataset, core::Workload& workload);

  /// The execute half: optimize, partition, execute and global under
  /// `strategy`, planned from the models and strata prepare() left. May
  /// run any number of times; each appends its phases to the trace. The
  /// summary covers the prepare half and this execution: setup_time_s
  /// counts the prepare half plus this execution's optimize and
  /// partition. Throws ConfigError before prepare().
  [[nodiscard]] JobSummary execute(core::Strategy strategy);

  /// Deletes the keys the last prepare() left on the master, off every
  /// job clock, and forgets the prepared state. run() ends with it;
  /// after a bare prepare() the keys stay until this or the next
  /// prepare().
  void release();

  /// Partition sizes `strategy` plans for `total` records from the
  /// prepared models (no execution).
  [[nodiscard]] std::vector<std::size_t> plan_sizes(core::Strategy strategy,
                                                    std::size_t total) const;
  /// Stratification of the prepared dataset.
  [[nodiscard]] const stratify::Stratification& strata() const;
  /// Virtual seconds the prepare half took.
  [[nodiscard]] double prepare_time_s() const;

  [[nodiscard]] const TraceRecorder& trace() const noexcept { return trace_; }
  [[nodiscard]] const JobSpec& spec() const noexcept { return spec_; }
  /// Node models: fitted by prepare(), refit if the last execute()
  /// re-planned.
  [[nodiscard]] const std::vector<optimize::NodeModel>& node_models()
      const noexcept {
    return models_;
  }

  /// The shard router of the current run (null when replication == 1).
  [[nodiscard]] const ha::ShardRouter* router() const noexcept {
    return router_.get();
  }

 private:
  /// What prepare() leaves for every execute(); defined in runtime.cpp.
  struct Prepared;
  /// What the phases of one execute() share; defined in runtime.cpp.
  struct JobState;

  /// The prepared state; throws ConfigError before prepare().
  [[nodiscard]] const Prepared& prepared() const;

  // The Fig. 1 phases, in DAG declaration order: the prepare half ...
  PhaseResult ingest(Prepared& s, const PhaseAttempt& at);
  PhaseResult stratify(Prepared& s);
  PhaseResult estimate(Prepared& s, const PhaseAttempt& at);
  PhaseResult forecast(Prepared& s);
  // ... and the execute half.
  PhaseResult optimize(JobState& s);
  PhaseResult partition(JobState& s, const PhaseAttempt& at);
  PhaseResult execute_chunks(JobState& s);
  PhaseResult global(JobState& s);

  // Execute-phase checkpoint handlers.
  void reclaim_lost_nodes(JobState& s, std::uint32_t node, double now);
  void rebalance_stragglers(JobState& s, double now);
  /// Under kWorkStealing, a `node` whose queue has drained steals one
  /// chunk from the tail of the most-loaded live queue.
  void steal(JobState& s, std::uint32_t node);
  /// Moves `taken` from node `from` to node `to`, adds the payload bytes
  /// to `bytes_moved` and returns how many records were delivered.
  std::size_t transfer(JobState& s, std::vector<std::uint32_t> taken,
                       std::uint32_t from, std::uint32_t to,
                       const char* span_name, double& bytes_moved);

  cluster::Cluster& cluster_;
  const energy::GreenEnergyEstimator& energy_;
  JobSpec spec_;
  TraceRecorder trace_;
  std::unique_ptr<Prepared> prepared_;
  std::vector<optimize::NodeModel> models_;
  std::uint32_t master_ = 0;
  std::uint32_t barrier_master_ = 0;
  /// Replicated data plane (replication >= 2 only).
  std::unique_ptr<ha::ShardRouter> router_;
  optimize::ReplicaCostModel replica_cost_;
};

}  // namespace hetsim::runtime
