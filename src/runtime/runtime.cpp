#include "runtime/runtime.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "check/check.h"
#include "common/allocation.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/json.h"
#include "fault/fault.h"
#include "ha/client.h"
#include "kvstore/client.h"
#include "partition/partitioner.h"
#include "runtime/dag.h"
#include "runtime/executor.h"

namespace hetsim::runtime {

namespace {

/// Attempts granted to each retryable phase (ingest, stratify, estimate,
/// partition) before it is exhausted and the job degrades. Retries run
/// at phase boundaries against recovered state, so a mid-phase store
/// crash or an unhealed partition re-runs only that phase.
constexpr std::size_t kPhaseAttempts = 3;

/// Simulated time-of-day every job starts (seconds from trace start).
constexpr double kJobStartS = 10.0 * 3600.0;
/// Forecast window for the mean green-power linearization.
constexpr double kEnergyWindowS = 4.0 * 3600.0;
/// Master list of every record payload, in dataset order.
constexpr char kDataKey[] = "data";
/// Key of each node's partition list.
constexpr char kPartitionKey[] = "partition";

/// Replicated key of the idx-th ingested record.
std::string record_key(std::uint32_t idx) {
  return "data:" + std::to_string(idx);
}

/// Master list of each node's uploaded sketches, by node id.
std::vector<std::string> sketch_keys(std::size_t nodes) {
  std::vector<std::string> keys(nodes, "sketches:");
  for (std::size_t i = 0; i < nodes; ++i) keys[i] += std::to_string(i);
  return keys;
}

// ---- The partition layout -------------------------------------------------
// Each node keeps its partition as one list on its own store, one raw
// payload per record (paper section IV), in execution order. These four
// functions are the only code that writes or reads it.

/// Payloads of the dataset records `records`, read from the master's
/// data list with one pipelined LINDEX batch over `from_master`, in
/// order. nullopt where the reply was not kOk or found nothing.
std::vector<std::optional<std::string>> fetch_from_master(
    kvstore::Client& from_master, std::span<const std::uint32_t> records) {
  for (const std::uint32_t idx : records) {
    from_master.enqueue({.type = kvstore::CommandType::kLIndex,
                         .key = kDataKey,
                         .arg0 = static_cast<std::int64_t>(idx)});
  }
  std::vector<kvstore::Reply> replies = from_master.drain();
  std::vector<std::optional<std::string>> out(records.size());
  const std::size_t m = std::min(replies.size(), records.size());
  for (std::size_t i = 0; i < m; ++i) {
    if (replies[i].status == kvstore::Status::kOk && replies[i].ok) {
      out[i] = std::move(replies[i].blob);
    }
  }
  return out;
}

/// Deletes the partition list on `local` with one DEL round trip.
kvstore::Reply clear_partition(kvstore::Client& local) {
  return local.execute(
      {.type = kvstore::CommandType::kDel, .key = kPartitionKey});
}

/// Appends the present payloads (moved out, in order; nullopt entries
/// are skipped) to the partition list on `local` with pipelined RPUSH.
/// Returns how many replies were not kOk.
std::size_t stage_partition(kvstore::Client& local,
                            std::span<std::optional<std::string>> payloads) {
  for (std::optional<std::string>& payload : payloads) {
    if (!payload) continue;
    local.enqueue({.type = kvstore::CommandType::kRPush,
                   .key = kPartitionKey,
                   .value = std::move(*payload)});
  }
  std::size_t failed = 0;
  for (const kvstore::Reply& r : local.drain()) {
    if (r.status != kvstore::Status::kOk) ++failed;
  }
  return failed;
}

/// Reads `count` entries of the partition list on `local`, from `start`
/// on, with one LRANGE. A zero count issues nothing and returns an empty
/// kOk reply.
kvstore::Reply read_partition(kvstore::Client& local, std::size_t start,
                              std::size_t count) {
  if (count == 0) return {.ok = true};
  return local.execute({.type = kvstore::CommandType::kLRange,
                        .key = kPartitionKey,
                        .arg0 = static_cast<std::int64_t>(start),
                        .arg1 = static_cast<std::int64_t>(start + count - 1)});
}

// ---- The planning steps ---------------------------------------------------

std::string encode_sketch(const sketch::Sketch& sig) {
  std::string out;
  out.reserve(sig.size() * 8);
  for (const std::uint64_t v : sig) common::append_u64(out, v);
  return out;
}

/// Payloads of `records` as fetched by `ctx` (nullopt = no source had it).
struct Fetched {
  std::vector<std::optional<std::string>> blobs;
  std::size_t from_replicas = 0;  // records the replica walk served
};

/// Fetches from the sources given, in this order: the master's data list
/// when `master` is set, then the replica walk for every record still
/// missing when `router` is set.
Fetched fetch_records(cluster::NodeContext& ctx,
                      std::span<const std::uint32_t> records,
                      std::optional<std::uint32_t> master,
                      ha::ShardRouter* router) {
  Fetched out;
  out.blobs = master ? fetch_from_master(ctx.client(*master), records)
                     : std::vector<std::optional<std::string>>(records.size());
  if (router == nullptr) return out;
  std::vector<std::string> keys;
  std::vector<std::size_t> pos;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!out.blobs[i]) {
      keys.push_back(record_key(records[i]));
      pos.push_back(i);
    }
  }
  if (keys.empty()) return out;
  // Pull each payload from whichever replica of its key is alive
  // (batched to the acting primaries, falling back replica-by-replica).
  ha::Client replicated(*router,
                        [&ctx](net::HostId target) -> kvstore::Client& {
                          return ctx.client(target);
                        });
  std::vector<ha::ReadResult> results = replicated.get_many(keys);
  const std::size_t m = std::min(results.size(), pos.size());
  for (std::size_t k = 0; k < m; ++k) {
    kvstore::Reply& r = results[k].reply;
    if (r.status == kvstore::Status::kOk && r.ok) {
      out.blobs[pos[k]] = std::move(r.blob);
      ++out.from_replicas;
    }
  }
  return out;
}

/// The live nodes of the execute phase; entry k of each vector describes
/// node ids[k].
struct Survivors {
  std::vector<std::uint32_t> ids;
  std::vector<optimize::NodeModel> models;
  std::vector<NodeObservation> obs;
};

Survivors survivors(const PhaseExecutor& executor,
                    const std::vector<char>& lost,
                    const std::vector<optimize::NodeModel>& models) {
  Survivors out;
  for (std::uint32_t i = 0; i < lost.size(); ++i) {
    if (lost[i] != 0) continue;
    const NodeProgress& prog = executor.progress(i);
    out.ids.push_back(i);
    out.models.push_back(models[i]);
    out.obs.push_back({prog.records_done, prog.busy_s(), executor.remaining(i)});
  }
  return out;
}

}  // namespace

std::string summary_json(const JobSummary& s) {
  common::JsonWriter w;
  w.begin_object();
  w.field("job", s.job);
  w.field("workload", s.workload);
  w.field("strategy", core::strategy_name(s.strategy));
  w.field("records", static_cast<std::uint64_t>(s.records));
  w.field("setup_time_s", s.setup_time_s);
  w.field("makespan_s", s.makespan_s);
  w.field("dirty_energy_j", s.dirty_energy_j);
  w.field("green_energy_j", s.green_energy_j);
  w.field("migrated_bytes", s.migrated_bytes);
  w.field("replans", static_cast<std::uint64_t>(s.replans));
  w.field("stragglers_detected",
          static_cast<std::uint64_t>(s.stragglers_detected));
  w.field("migration_steps", static_cast<std::uint64_t>(s.migration_steps));
  w.field("migrated_records", static_cast<std::uint64_t>(s.migrated_records));
  w.field("total_work_units", s.total_work_units);
  w.field("quality", s.quality);
  const auto array = [&w](const char* key, const auto& values) {
    w.key(key);
    w.begin_array();
    for (const auto v : values) w.value(static_cast<std::uint64_t>(v));
    w.end_array();
  };
  array("initial_sizes", s.initial_sizes);
  array("processed", s.processed);
  w.field("degraded", s.degraded);
  array("nodes_lost", s.nodes_lost);
  w.field("node_loss_replans",
          static_cast<std::uint64_t>(s.node_loss_replans));
  w.field("replanned_records",
          static_cast<std::uint64_t>(s.replanned_records));
  w.field("replanned_bytes", s.replanned_bytes);
  w.field("kv_retries", s.kv_retries);
  w.field("kv_timeouts", s.kv_timeouts);
  w.field("kv_failures", s.kv_failures);
  w.field("phase_retries", static_cast<std::uint64_t>(s.phase_retries));
  w.field("failed_phase", s.failed_phase);
  w.field("records_dropped", static_cast<std::uint64_t>(s.records_dropped));
  w.field("tolerated_kv_failures", s.tolerated_kv_failures);
  w.field("status", std::string(job_status_name(s.status)));
  w.field("replica_writes", s.replica_writes);
  w.field("elections", static_cast<std::uint64_t>(s.elections));
  w.field("replica_rescued_records",
          static_cast<std::uint64_t>(s.replica_rescued_records));
  w.end_object();
  return w.str();
}

void verify_no_work_lost(const JobSummary& summary) {
  std::size_t processed = 0;
  for (const std::size_t v : summary.processed) processed += v;
  HETSIM_CHECK_EQ(processed, summary.records);
}

struct JobRuntime::Prepared {
  const data::Dataset& dataset;
  core::Workload& workload;
  std::size_t p = 0;
  std::size_t n = 0;
  /// The prepare half's share of every execution's summary.
  JobSummary summary;
  /// Outcomes of the prepare half's phases; each execution continues it.
  DagReport dag;
  // The prepare half's job clock reads cluster seconds since cluster_t0;
  // cluster_end is the cluster clock when prepare() returned.
  double cluster_t0 = 0.0;
  double cluster_end = 0.0;
  /// Fabric retry counters the prepare half added.
  net::RetryStats kv;

  std::optional<stratify::Stratification> strata;
  std::vector<estimator::NodeTimeModel> time_models;
  std::vector<double> dirty_rates;
  /// LP node models; empty when estimate or forecast failed.
  std::vector<optimize::NodeModel> models;
  // Set when the canonical data list never fully landed on the master
  // but every record has >= 1 replica copy: later phases must read
  // through the ha replica walk instead of master LIndex (a partially
  // applied RPush sequence silently shifts list indices).
  bool data_on_replicas = false;
};

struct JobRuntime::JobState {
  const cluster::Cluster& cluster;
  const Prepared& prep;
  core::Strategy strategy = core::Strategy::kHetAware;
  JobSummary summary;
  // Job-relative virtual clock: cluster phases advance the cluster's
  // clock past cluster_t0, the execute phase adds its executor's
  // makespan to exec_extra (the executor runs its own per-node clocks).
  double cluster_t0 = 0.0;
  double exec_extra = 0.0;
  [[nodiscard]] double clock() const {
    return (cluster.now() - cluster_t0) + exec_extra;
  }

  std::optional<partition::PartitionAssignment> assignment;

  // ---- execute phase, valid while it runs ----------------------------
  PhaseExecutor* executor = nullptr;
  double exec_base = 0.0;  // job clock when the execute phase started
  std::size_t chunk_records = 0;
  double replan_alpha = 1.0;  // LP weight of re-plan solves
  std::vector<char> lost;     // nodes declared dead so far
};

JobRuntime::JobRuntime(cluster::Cluster& cluster,
                       const energy::GreenEnergyEstimator& energy, JobSpec spec)
    : cluster_(cluster), energy_(energy), spec_(std::move(spec)) {
  common::require<common::ConfigError>(
      spec_.alpha >= 0.0 && spec_.alpha <= 1.0,
      "JobRuntime: alpha must be in [0, 1]");
  common::require<common::ConfigError>(
      spec_.per_node_slowdown.empty() ||
          spec_.per_node_slowdown.size() == cluster_.size(),
      "JobRuntime: per_node_slowdown must have one entry per node");
  common::require<common::ConfigError>(
      spec_.replication >= 1 && spec_.replication <= cluster_.size(),
      "JobRuntime: replication must be in [1, cluster size]");
  const auto masters =
      cluster::choose_masters(cluster_.nodes(), cluster_.size() >= 2 ? 2 : 1);
  master_ = masters[0];
  barrier_master_ = masters.size() > 1 ? masters[1] : masters[0];
}

JobRuntime::~JobRuntime() = default;

JobSummary JobRuntime::run(const data::Dataset& dataset,
                           core::Workload& workload) {
  prepare(dataset, workload);
  JobSummary summary = execute(spec_.strategy);
  release();
  return summary;
}

void JobRuntime::release() {
  if (!prepared_) return;
  // The master lists the prepare half appended to. (Partition lists are
  // reset by the next job's partition phase; replica keys are
  // overwritten.)
  // A throwaway context: its traffic lands on no phase and no clock.
  cluster::NodeContext ctx(cluster_, cluster_.node(master_));
  kvstore::Client& local = ctx.local();
  for (const std::string& key : sketch_keys(prepared_->p)) {
    local.enqueue({.type = kvstore::CommandType::kDel, .key = key});
  }
  local.enqueue({.type = kvstore::CommandType::kDel, .key = kDataKey});
  // Best effort: a key a fault kept alive costs the next job on this
  // cluster a few wire bytes, never a wrong result, and this job's
  // numbers are already final.
  (void)local.drain();  // hetsim-analyze: allow(status-flow)
  prepared_.reset();
}

const JobRuntime::Prepared& JobRuntime::prepared() const {
  common::require<common::ConfigError>(prepared_ != nullptr,
                                       "JobRuntime: call prepare() first");
  return *prepared_;
}

void JobRuntime::prepare(const data::Dataset& dataset,
                         core::Workload& workload) {
  common::require<common::ConfigError>(!dataset.records.empty(),
                                       "JobRuntime: empty dataset");
  release();
  const std::size_t p = cluster_.size();
  const std::size_t n = dataset.records.size();
  trace_.clear();
  trace_.name_lane(TraceRecorder::kRuntimeLane, "runtime");
  for (std::size_t i = 0; i < p; ++i) {
    const int speed = static_cast<int>(cluster_.nodes()[i].speed);
    trace_.name_lane(static_cast<std::int64_t>(i),
                     "node " + std::to_string(i) + " (speed " +
                         std::to_string(speed) + "x)");
  }

  prepared_ = std::make_unique<Prepared>(
      Prepared{.dataset = dataset,
               .workload = workload,
               .p = p,
               .n = n,
               .summary = {.job = spec_.name,
                           .workload = workload.name(),
                           .strategy = spec_.strategy,
                           .records = n},
               .cluster_t0 = cluster_.now()});
  Prepared& s = *prepared_;
  const net::RetryStats kv_before = cluster_.fabric().retry_stats();

  // Replicated data plane: every record is also sharded over k replica
  // stores, so losing any single node — the data master included —
  // leaves a live copy of every payload.
  router_.reset();
  replica_cost_ = {};
  if (spec_.replication >= 2) {
    std::vector<net::HostId> members(p);
    std::iota(members.begin(), members.end(), net::HostId{0});
    router_ = std::make_unique<ha::ShardRouter>(
        ha::ShardMap(std::move(members),
                     {.replication = spec_.replication, .seed = spec_.seed}),
        spec_.seed ^ 0x48412d454c454354ULL);  // independent election stream
    double payload_bytes = 0.0;
    for (const data::Record& r : dataset.records) {
      payload_bytes += static_cast<double>(r.payload.size());
    }
    replica_cost_.replication = spec_.replication;
    replica_cost_.write_s_per_record =
        (payload_bytes / static_cast<double>(n)) /
        cluster_.fabric().remote_spec().bandwidth_bps;
    replica_cost_.replica_sets = router_->map().replica_sets();
  }

  PhaseDag dag;
  dag.add({.name = "ingest",
           .body = [&](const PhaseAttempt& at) { return ingest(s, at); },
           .max_attempts = kPhaseAttempts});
  dag.add({.name = "stratify",
           .body = [&](const PhaseAttempt&) { return stratify(s); },
           .max_attempts = kPhaseAttempts});
  dag.add({.name = "estimate",
           .deps = {"stratify"},
           .body = [&](const PhaseAttempt& at) { return estimate(s, at); },
           .max_attempts = kPhaseAttempts});
  dag.add({.name = "forecast",
           .body = [&](const PhaseAttempt&) { return forecast(s); }});
  s.dag = dag.run(trace_, [&] { return cluster_.now() - s.cluster_t0; });

  // LP node models: each fitted time model plus its node's dirty rate.
  if (!s.dag.phase_failed("estimate") && !s.dag.phase_failed("forecast")) {
    s.models.reserve(s.time_models.size());
    for (const estimator::NodeTimeModel& tm : s.time_models) {
      s.models.push_back({.slope = tm.fit.slope,
                          .intercept = tm.fit.intercept,
                          .dirty_rate = s.dirty_rates[tm.node_id]});
    }
  }
  models_ = s.models;
  s.cluster_end = cluster_.now();
  const net::RetryStats kv_after = cluster_.fabric().retry_stats();
  s.kv = {.retries = kv_after.retries - kv_before.retries,
          .timeouts = kv_after.timeouts - kv_before.timeouts,
          .failures = kv_after.failures - kv_before.failures};
}

JobSummary JobRuntime::execute(core::Strategy strategy) {
  const Prepared& prep = prepared();
  // The job clock resumes where the prepare half left it, whatever
  // earlier executions added to the cluster clock since.
  const double since_prepare = cluster_.now() - prep.cluster_end;
  JobState s{.cluster = cluster_,
             .prep = prep,
             .strategy = strategy,
             .summary = prep.summary,
             .cluster_t0 = prep.cluster_t0 + since_prepare};
  JobSummary& summary = s.summary;
  summary.strategy = strategy;
  // The execute and global phases add their cost here.
  summary.node_exec_s.assign(prep.p, 0.0);
  const net::RetryStats kv_before = cluster_.fabric().retry_stats();

  PhaseDag dag;
  dag.add({.name = "optimize",
           .deps = {"estimate", "forecast"},
           .body = [&](const PhaseAttempt&) { return optimize(s); }});
  dag.add({.name = "partition",
           .deps = {"ingest", "stratify", "optimize"},
           .body = [&](const PhaseAttempt& at) { return partition(s, at); },
           .max_attempts = kPhaseAttempts});
  dag.add({.name = "execute",
           .deps = {"partition"},
           .body = [&](const PhaseAttempt&) { return execute_chunks(s); }});
  dag.add({.name = "global",
           .deps = {"execute"},
           .body = [&](const PhaseAttempt&) { return global(s); },
           .on_exhausted = JobStatus::kDegraded});

  const DagReport dag_report =
      dag.run(trace_, [&] { return s.clock(); }, prep.dag);
  summary.phase_retries = dag_report.phase_retries;
  summary.failed_phase = dag_report.failed_phase;
  summary.failure_detail = dag_report.failure_detail;
  summary.status = worse_job_status(summary.status, dag_report.status);

  // The dirty and the green joules drawn by nodes busy for their
  // node_exec_s seconds from kJobStartS on.
  for (std::uint32_t node = 0; node < prep.p; ++node) {
    const double busy = summary.node_exec_s[node];
    if (busy <= 0.0) continue;
    const cluster::NodeSpec& spec = cluster_.node(node);
    const double dirty = energy_.dirty_energy_joules(spec, kJobStartS, busy);
    summary.dirty_energy_j += dirty;
    summary.green_energy_j += spec.power_watts * busy - dirty;
  }
  summary.quality = prep.workload.quality();
  const net::RetryStats kv_after = cluster_.fabric().retry_stats();
  summary.kv_retries = prep.kv.retries + (kv_after.retries - kv_before.retries);
  summary.kv_timeouts =
      prep.kv.timeouts + (kv_after.timeouts - kv_before.timeouts);
  summary.kv_failures =
      prep.kv.failures + (kv_after.failures - kv_before.failures);
  summary.elections = router_ ? router_->elections().size() : 0;
  if (summary.status == JobStatus::kOk && summary.degraded) {
    summary.status = JobStatus::kDegraded;
  }
  if (summary.status != JobStatus::kDataUnavailable) {
    verify_no_work_lost(summary);
  }
  return summary;
}

std::vector<std::size_t> JobRuntime::plan_sizes(core::Strategy strategy,
                                                std::size_t total) const {
  const std::vector<optimize::NodeModel>& models = prepared().models;
  switch (strategy) {
    case core::Strategy::kRandom:
    case core::Strategy::kStratified:
    case core::Strategy::kWorkStealing: {
      const std::vector<double> ones(models.size(), 1.0);
      return common::proportional_allocation(ones, total);
    }
    case core::Strategy::kHetAware:
      return optimize::solve_partition_sizes(models, total, 1.0).sizes;
    case core::Strategy::kHetEnergyAware:
      // With replication > 1 the solve also bills the replica copies, on
      // the raw alpha (the replica term would re-weight the normalized
      // rescale's extremes).
      if (replica_cost_.replication > 1) {
        return optimize::solve_partition_sizes_replicated(
                   models, total, spec_.alpha, replica_cost_)
            .sizes;
      }
      return (spec_.normalized_alpha
                  ? optimize::solve_partition_sizes_normalized(models, total,
                                                               spec_.alpha)
                  : optimize::solve_partition_sizes(models, total, spec_.alpha))
          .sizes;
  }
  throw common::ConfigError("plan_sizes: unknown strategy");
}

const stratify::Stratification& JobRuntime::strata() const {
  const Prepared& prep = prepared();
  common::require<common::ConfigError>(prep.strata.has_value(),
                                       "JobRuntime: the stratify phase failed");
  return *prep.strata;
}

double JobRuntime::prepare_time_s() const {
  const Prepared& prep = prepared();
  return prep.cluster_end - prep.cluster_t0;
}

PhaseResult JobRuntime::ingest(Prepared& s, const PhaseAttempt& at) {
  PhaseResult result = PhaseResult::ok();
  cluster_.run_on("ingest", master_, [&](cluster::NodeContext& ctx) {
    kvstore::Client& local = ctx.local();
    bool master_ok = true;
    bool push_to_master = true;
    if (at.attempt > 0) {
      // RPush is not idempotent: re-ingesting onto the remnant of a
      // failed attempt would shift every list index — and would break
      // the LLen completeness proof below (a remnant plus a partial
      // re-push could fake llen == n). Clear the canonical list
      // first; if even the Del cannot land, the master copy is
      // forfeit for this attempt.
      const kvstore::Reply del = local.execute(
          {.type = kvstore::CommandType::kDel, .key = kDataKey});
      if (del.status != kvstore::Status::kOk) {
        if (!at.last || router_ == nullptr) {
          result = PhaseResult::transient("ingest: data master unreachable");
          return;
        }
        // Last attempt with a replicated plane: skip the master and
        // let the replica copies carry the job.
        push_to_master = false;
        master_ok = false;
      }
    }
    if (push_to_master) {
      for (const data::Record& r : s.dataset.records) {
        local.enqueue({.type = kvstore::CommandType::kRPush,
                       .key = kDataKey,
                       .value = r.payload});
      }
      std::uint64_t push_failures = 0;
      for (const kvstore::Reply& r : local.drain()) {
        if (r.status != kvstore::Status::kOk) ++push_failures;
      }
      master_ok = push_failures == 0;
      if (!master_ok) {
        // Non-kOk pushes are ambiguous (a timed-out RPush may have
        // landed). The list is canonical only if it is provably
        // complete AND in order; pipelined pushes apply in enqueue
        // order and are never retried on timeout, so LLen == n means
        // every push landed exactly once. Probed only on failure, so
        // the fault-free wire cost is unchanged.
        const kvstore::Reply len = local.execute(
            {.type = kvstore::CommandType::kLLen, .key = kDataKey});
        master_ok = len.status == kvstore::Status::kOk &&
                    len.integer == static_cast<std::int64_t>(s.n);
        if (master_ok) s.summary.tolerated_kv_failures += push_failures;
      }
    }
    if (router_ == nullptr) {
      // Single-master plane: the list either landed or the phase
      // burns an attempt (the DAG exhausts to kDataUnavailable —
      // there is nothing to fall back to).
      if (!master_ok) {
        result = PhaseResult::transient(
            "ingest: canonical data list incomplete on master");
      }
      return;
    }
    // Replicated copies: one keyed record per replica, fanned out
    // through the shard router (pipelined per target). kSet is
    // idempotent, so attempt re-runs are safe.
    ha::Client replicated(*router_,
                          [&ctx](net::HostId target) -> kvstore::Client& {
                            return ctx.client(target);
                          });
    std::vector<std::pair<std::string, std::string>> pairs;
    pairs.reserve(s.n);
    for (std::uint32_t i = 0; i < s.n; ++i) {
      pairs.emplace_back(record_key(i), s.dataset.records[i].payload);
    }
    std::size_t zero_ack = 0;
    std::size_t under_replicated = 0;
    for (const ha::WriteResult& res : replicated.put_many(pairs)) {
      s.summary.replica_writes += res.acked;
      if (res.status != kvstore::Status::kOk) {
        ++zero_ack;
      } else if (res.acked < res.routed) {
        ++under_replicated;
      }
    }
    if (master_ok) {
      if (zero_ack > 0 || under_replicated > 0) {
        // The master holds the canonical copy of every record, so
        // a missing replica copy only lowers redundancy; it is not
        // a job failure.
        s.summary.tolerated_kv_failures += zero_ack + under_replicated;
        result = PhaseResult::degraded(
            "ingest: " + std::to_string(zero_ack + under_replicated) +
            " records under-replicated");
      }
      return;
    }
    if (!at.last) {
      result = PhaseResult::transient(
          "ingest: canonical data list incomplete on master");
      return;
    }
    // Out of attempts with no canonical list: serve the job from the
    // replica copies. Records that also failed every replica write
    // surface in the partition phase, which drops exactly those.
    s.data_on_replicas = true;
    result = PhaseResult::degraded(
        "ingest: master list unavailable, serving from replicas");
  });
  return result;
}

PhaseResult JobRuntime::stratify(Prepared& s) {
  // Distributed sketching ("sketch": records round-robin by node, each
  // node uploading its sketches to the master), then compositeKModes on
  // the master ("cluster-sketches"). The clustering reads the in-memory
  // sketches, so a lost upload costs wire time only and is just counted.
  // The host computes every sketch up front on the pool the solve uses;
  // the node tasks charge, encode and upload them in the modelled order.
  const std::size_t p = s.p;
  const std::size_t n = s.n;
  const sketch::MinHasher hasher(spec_.sketch);
  const std::vector<sketch::Sketch> sketches =
      hasher.sketch_all(s.dataset.records, spec_.kmodes.par);
  const std::vector<std::string> keys = sketch_keys(p);
  std::uint64_t tolerated = 0;  // non-kOk upload/read replies
  std::vector<cluster::NodeTask> tasks;
  tasks.reserve(p);
  for (std::size_t node = 0; node < p; ++node) {
    tasks.push_back([&, node](cluster::NodeContext& ctx) {
      kvstore::Client& to_master = ctx.client(master_);
      for (std::size_t i = node; i < n; i += p) {
        // One op per (item, permutation) pair.
        ctx.meter().add(
            static_cast<double>(s.dataset.records[i].items.size()) *
            hasher.num_hashes());
        to_master.enqueue({.type = kvstore::CommandType::kRPush,
                           .key = keys[node],
                           .value = encode_sketch(sketches[i])});
      }
      for (const kvstore::Reply& r : to_master.drain()) {
        if (r.status != kvstore::Status::kOk) ++tolerated;
      }
    });
  }
  cluster_.run_phase("sketch", tasks);
  stratify::Stratification strata;
  cluster_.run_on("cluster-sketches", master_, [&](cluster::NodeContext& ctx) {
    // Read the sketch lists back (loopback traffic on the master).
    for (std::size_t node = 0; node < p; ++node) {
      const kvstore::Reply r =
          ctx.local().execute({.type = kvstore::CommandType::kLRange,
                               .key = keys[node],
                               .arg0 = 0,
                               .arg1 = -1});
      if (r.status != kvstore::Status::kOk) ++tolerated;
    }
    strata = stratify::composite_kmodes(sketches, spec_.kmodes);
    ctx.meter().add(static_cast<double>(strata.work_ops));
  });
  s.summary.tolerated_kv_failures += tolerated;
  s.strata = std::move(strata);
  return PhaseResult::ok();
}

PhaseResult JobRuntime::estimate(Prepared& s, const PhaseAttempt& at) {
  const estimator::SampleRunner runner =
      [&s](cluster::NodeContext& ctx, std::span<const std::uint32_t> indices) {
        s.workload.run(ctx, s.dataset, indices);
      };
  try {
    s.time_models = estimator::estimate_time_models(cluster_, *s.strata,
                                                    runner, spec_.sampling);
  } catch (const common::ConfigError&) {
    throw;  // a workload that cannot run these records, not a fault
  } catch (const common::Error& e) {
    if (!at.last) return PhaseResult::transient(e.what());
    // Out of attempts: fall back to catalog-derived models. The
    // relative heterogeneity (1/speed) survives; only the
    // data-dependence of the slope is lost, which costs allocation
    // quality, never correctness.
    s.time_models.clear();
    for (std::uint32_t i = 0; i < s.p; ++i) {
      s.time_models.push_back(
          {.node_id = i, .fit = {.slope = 1.0 / cluster_.node(i).speed}});
    }
    return PhaseResult::degraded(
        std::string("estimate: catalog fallback models: ") + e.what());
  }
  return PhaseResult::ok();
}

PhaseResult JobRuntime::forecast(Prepared& s) {
  // Dirty rate k_i of every node over the forecast window.
  s.dirty_rates.resize(s.p);
  for (std::uint32_t i = 0; i < s.p; ++i) {
    s.dirty_rates[i] =
        energy_.dirty_rate(cluster_.node(i), kJobStartS, kEnergyWindowS);
  }
  return PhaseResult::ok();
}

PhaseResult JobRuntime::optimize(JobState& s) {
  models_ = s.prep.models;
  s.summary.initial_sizes = plan_sizes(s.strategy, s.prep.n);
  return PhaseResult::ok();
}

PhaseResult JobRuntime::partition(JobState& s, const PhaseAttempt& at) {
  // Recomputed every attempt (pure function of strata + sizes), so a
  // retry after a mid-phase store crash restarts from a clean plan.
  // Shuffle-and-cut for Random and WorkStealing, the workload's strata
  // layout otherwise.
  const Prepared& prep = s.prep;
  s.assignment =
      s.strategy == core::Strategy::kRandom ||
              s.strategy == core::Strategy::kWorkStealing
          ? partition::random_partitions(prep.n, s.summary.initial_sizes)
          : partition::make_partitions(*prep.strata, s.summary.initial_sizes,
                                       prep.workload.preferred_layout());
  const std::size_t p = prep.p;
  std::vector<std::vector<std::uint32_t>> unreadable(p);
  std::size_t missing_total = 0;
  std::size_t pulled_total = 0;
  std::vector<cluster::NodeTask> tasks;
  tasks.reserve(p);
  for (std::size_t node = 0; node < p; ++node) {
    tasks.push_back([&, node](cluster::NodeContext& ctx) {
      const std::vector<std::uint32_t>& part = s.assignment->partitions[node];
      // The master unless its list never landed, then the replica walk.
      Fetched got = fetch_records(
          ctx, part,
          prep.data_on_replicas ? std::nullopt : std::optional(master_),
          router_.get());
      pulled_total += got.from_replicas;
      for (std::size_t i = 0; i < part.size(); ++i) {
        if (!got.blobs[i]) unreadable[node].push_back(part[i]);
      }
      missing_total += unreadable[node].size();
      // Local staging: the partition list is the execution phase's
      // wire-cost medium (records are processed from the in-memory
      // dataset), so staging losses are tolerated and counted.
      kvstore::Client& local = ctx.local();
      const kvstore::Reply del = clear_partition(local);
      if (del.status != kvstore::Status::kOk) ++s.summary.tolerated_kv_failures;
      s.summary.tolerated_kv_failures +=
          stage_partition(local, got.blobs);
    });
  }
  s.summary.load_time_s = cluster_.run_phase("load", tasks).makespan_s();
  if (missing_total == 0) {
    if (pulled_total > 0 || prep.data_on_replicas) {
      s.summary.replica_rescued_records += pulled_total;
      return PhaseResult::degraded("partition: " +
                                   std::to_string(pulled_total) +
                                   " records re-pulled from replicas");
    }
    return PhaseResult::ok();
  }
  if (!at.last) {
    // Per-attempt tallies are discarded on retry, so nothing is
    // double-counted when the re-run succeeds.
    return PhaseResult::transient("partition: " +
                                  std::to_string(missing_total) +
                                  " records unreadable");
  }
  // Final attempt: drop what no live copy can serve and execute the
  // rest — the honest alternative to failing the whole job.
  s.summary.replica_rescued_records += pulled_total;
  for (std::size_t node = 0; node < p; ++node) {
    const auto& gone = unreadable[node];
    std::erase_if(s.assignment->partitions[node], [&](std::uint32_t idx) {
      return std::find(gone.begin(), gone.end(), idx) != gone.end();
    });
  }
  s.summary.records_dropped += missing_total;
  return PhaseResult::data_unavailable("partition: dropped " +
                                       std::to_string(missing_total) +
                                       " unreadable records");
}

PhaseResult JobRuntime::execute_chunks(JobState& s) {
  const Prepared& prep = s.prep;
  const std::size_t p = prep.p;
  s.summary.setup_time_s = s.clock();
  s.exec_base = s.clock();
  prep.workload.reset(p, barrier_master_);

  std::size_t largest = 0;
  for (const auto& part : s.assignment->partitions) {
    largest = std::max(largest, part.size());
  }
  const ExecutorOptions opts{
      .chunk_records = spec_.checkpoint_records > 0
                           ? spec_.checkpoint_records
                           : std::max<std::size_t>(1, (largest + 7) / 8),
      .per_node_slowdown = spec_.per_node_slowdown,
      .seed = spec_.seed,
      .fault = cluster_.fault_injector(),
      .heartbeat_timeout_s = spec_.heartbeat_timeout_s};

  // Per-node read cursor into the local partition list, so each
  // chunk's payload fetch is network-costed like the monolithic
  // execution's single lrange. The read is raw: a transport failure
  // is a tolerated cost signal, not a reason to kill the chunk (the
  // records themselves come from the in-memory dataset).
  std::vector<std::size_t> cursor(p, 0);
  PhaseExecutor executor(
      cluster_, s.assignment->partitions,
      [&](cluster::NodeContext& ctx, std::span<const std::uint32_t> indices) {
        const std::uint32_t id = ctx.node().id;
        const kvstore::Reply r =
            read_partition(ctx.local(), cursor[id], indices.size());
        if (r.status != kvstore::Status::kOk) ++s.summary.tolerated_kv_failures;
        cursor[id] += indices.size();
        prep.workload.run(ctx, prep.dataset, indices);
      },
      opts);
  s.executor = &executor;
  s.chunk_records = opts.chunk_records;
  s.replan_alpha =
      s.strategy == core::Strategy::kHetEnergyAware ? spec_.alpha : 1.0;
  s.lost.assign(p, 0);
  // Chunk spans need each node's previous clock value.
  std::vector<double> last_time(p, 0.0);
  std::vector<std::size_t> last_done(p, 0);
  executor.set_checkpoint([&](std::uint32_t node) {
    const double now = executor.node_time(node);
    const NodeProgress& prog = executor.progress(node);
    trace_.add_span(
        "chunk", "exec", node, s.exec_base + last_time[node],
        now - last_time[node],
        {{"records",
          static_cast<double>(prog.records_done - last_done[node])},
         {"done", static_cast<double>(prog.records_done)}});
    last_time[node] = now;
    last_done[node] = prog.records_done;
    trace_.add_counter("records_remaining", TraceRecorder::kRuntimeLane,
                       s.exec_base + now,
                       static_cast<double>(executor.total_remaining()));
    // Node loss first: reclaiming a dead node's partition is
    // correctness, not optimization, so no straggler gate applies.
    reclaim_lost_nodes(s, node, now);
    rebalance_stragglers(s, now);
    steal(s, node);
  });

  const ExecutorReport report = executor.run();
  s.executor = nullptr;
  s.exec_extra += report.makespan_s;
  s.summary.makespan_s += report.makespan_s;
  s.summary.total_work_units += report.total_work_units();
  s.summary.processed.resize(p);
  std::size_t processed_total = 0;
  for (std::size_t i = 0; i < p; ++i) {
    s.summary.node_exec_s[i] += report.per_node[i].busy_s();
    s.summary.processed[i] = report.per_node[i].records_done;
    processed_total += report.per_node[i].records_done;
  }
  // Extended no-work-lost audit: every ingested record is processed,
  // stranded on a declared-dead node, or explicitly dropped by the
  // partition phase — nothing disappears silently, even across
  // phase retries and partial re-execution.
  HETSIM_CHECK_EQ(
      processed_total + report.unprocessed + s.summary.records_dropped, prep.n);
  if (report.unprocessed > 0) {
    // Records stranded on dead nodes with no surviving copy to
    // rescue them from. The old runtime threw here; the typed
    // outcome states exactly what was lost.
    return PhaseResult::data_unavailable(
        "execute: " + std::to_string(report.unprocessed) +
        " records stranded on lost nodes");
  }
  return PhaseResult::ok();
}

PhaseResult JobRuntime::global(JobState& s) {
  // The workload's cross-partition phase, if it has one (e.g. the SON
  // candidate prune).
  const std::vector<cluster::NodeTask> tasks =
      s.prep.workload.make_global_tasks(s.prep.dataset, *s.assignment);
  if (tasks.empty()) return PhaseResult::ok();
  common::require<common::ConfigError>(tasks.size() == cluster_.size(),
                                       "global phase arity mismatch");
  const cluster::PhaseReport phase = cluster_.run_phase("global", tasks);
  s.summary.makespan_s += phase.makespan_s();
  for (const cluster::NodePhaseResult& r : phase.per_node) {
    s.summary.node_exec_s[r.node_id] += r.total_time_s();
    s.summary.total_work_units += r.work_units;
  }
  return PhaseResult::ok();
}

void JobRuntime::reclaim_lost_nodes(JobState& s, std::uint32_t node,
                                    double now) {
  const fault::FaultInjector* inj = cluster_.fault_injector();
  if (inj == nullptr || !inj->enabled() || s.prep.p < 2) return;
  PhaseExecutor& executor = *s.executor;
  JobSummary& summary = s.summary;
  for (std::uint32_t d = 0; d < s.prep.p; ++d) {
    if (s.lost[d] != 0 || d == node || executor.remaining(d) == 0 ||
        now - executor.heartbeat(d) <= executor.heartbeat_timeout(node)) {
      continue;
    }
    // `d` holds queued records but has shown no sign of life for
    // longer than a live node possibly could: declare it lost and
    // redistribute its in-flight partition over the survivors.
    s.lost[d] = 1;
    summary.degraded = true;
    summary.nodes_lost.push_back(d);
    trace_.add_instant("node-lost", "fault", d, s.exec_base + now,
                       {{"heartbeat", executor.heartbeat(d)},
                        {"timeout", executor.heartbeat_timeout(node)}});
    if (router_ != nullptr) {
      // Re-home the dead node's shards; reads via the router now skip
      // it, and a seeded election picks the successor fronting its arcs.
      const ha::ElectionRecord rec = router_->mark_down(d, now);
      trace_.add_instant("election", "fault", d, s.exec_base + now,
                         {{"promoted", static_cast<double>(rec.promoted)},
                          {"term", static_cast<double>(rec.term)}});
    } else if (d == master_) {
      // Single-master plane and the master is gone: the canonical
      // record copies are unreachable. Finish the survivors' work and
      // report the typed outcome. The queue stays untouched, so the
      // executor reports the stranded records as `unprocessed` — the
      // honest accounting of what was lost.
      summary.status = JobStatus::kDataUnavailable;
      trace_.add_instant(
          "data-unavailable", "fault", d, s.exec_base + now,
          {{"records", static_cast<double>(executor.remaining(d))}});
      continue;
    }
    std::vector<std::uint32_t> orphans = executor.take_all(d);
    // At least `node` is alive, so there is always a survivor.
    const Survivors surv = survivors(executor, s.lost, models_);
    const std::vector<optimize::NodeModel> refit = refit_models(
        surv.models, surv.obs, spec_.straggler.min_observed_records);
    // Granularity floor: never hand a survivor less than one chunk of
    // orphans. Sub-chunk slivers are poison for support-threshold
    // workloads (SON over a handful of records admits nearly every
    // candidate), so cap the recipient count and keep the survivors
    // the LP rates highest (ties to the lower id).
    std::vector<std::size_t> recipients(surv.ids.size());
    std::iota(recipients.begin(), recipients.end(), std::size_t{0});
    const std::size_t max_recipients = std::min(
        surv.ids.size(),
        std::max<std::size_t>(1, orphans.size() / s.chunk_records));
    std::vector<optimize::NodeModel> kept = refit;
    if (max_recipients < surv.ids.size()) {
      const std::vector<std::size_t> probe =
          optimize::solve_partition_sizes(refit, orphans.size(),
                                          s.replan_alpha)
              .sizes;
      std::stable_sort(recipients.begin(), recipients.end(),
                       [&](std::size_t a, std::size_t b) {
                         return probe[a] > probe[b];
                       });
      recipients.resize(max_recipients);
      std::sort(recipients.begin(), recipients.end());
      kept.resize(max_recipients);
      for (std::size_t k = 0; k < max_recipients; ++k) {
        kept[k] = refit[recipients[k]];
      }
    }
    const std::vector<std::size_t> shares =
        optimize::solve_partition_sizes(kept, orphans.size(), s.replan_alpha)
            .sizes;
    std::size_t off = 0;
    for (std::size_t k = 0; k < recipients.size(); ++k) {
      // Last recipient absorbs any rounding remainder so every orphan
      // lands somewhere.
      const std::size_t cnt = k + 1 == recipients.size()
                                  ? orphans.size() - off
                                  : std::min(shares[k], orphans.size() - off);
      if (cnt == 0) continue;
      std::vector<std::uint32_t> slice(
          orphans.begin() + static_cast<std::ptrdiff_t>(off),
          orphans.begin() + static_cast<std::ptrdiff_t>(off + cnt));
      off += cnt;
      const std::size_t delivered =
          transfer(s, std::move(slice), d, surv.ids[recipients[k]], "rescue",
                   summary.replanned_bytes);
      summary.replanned_records += delivered;
      if (router_ != nullptr) summary.replica_rescued_records += delivered;
    }
    ++summary.node_loss_replans;
  }
}

void JobRuntime::rebalance_stragglers(JobState& s, double now) {
  PhaseExecutor& executor = *s.executor;
  JobSummary& summary = s.summary;
  if (!spec_.enable_replan || s.prep.p < 2) return;
  if (summary.replans >= spec_.straggler.max_replans) return;
  const std::size_t total_rem = executor.total_remaining();
  if (total_rem == 0 ||
      static_cast<double>(total_rem) <
          spec_.straggler.min_remaining_fraction *
              static_cast<double>(s.prep.n)) {
    return;
  }
  // Straggler machinery runs over survivors only: a lost node must
  // never be detected as a straggler, donate, or receive migrated
  // work. With no losses the survivors are every node and the
  // computation is unchanged.
  const Survivors surv = survivors(executor, s.lost, models_);
  if (surv.ids.size() < 2) return;
  const std::vector<std::uint32_t> stragglers =
      detect_stragglers(surv.models, surv.obs, spec_.straggler);
  if (stragglers.empty()) return;

  ++summary.replans;
  summary.stragglers_detected += stragglers.size();
  const std::vector<double> observed = observed_slopes(
      surv.models, surv.obs, spec_.straggler.min_observed_records);
  for (const std::uint32_t k : stragglers) {
    trace_.add_instant("straggler", "replan", surv.ids[k],
                       s.exec_base + executor.node_time(surv.ids[k]),
                       {{"observed_slope", observed[k]},
                        {"model_slope", surv.models[k].slope}});
  }

  const std::vector<optimize::NodeModel> refit = refit_models(
      surv.models, surv.obs, spec_.straggler.min_observed_records);
  const std::vector<std::size_t> target =
      replan_remaining(refit, surv.obs, s.replan_alpha);
  std::vector<std::size_t> current;
  for (const NodeObservation& o : surv.obs) current.push_back(o.remaining);
  std::size_t moved_records = 0;
  // Steps smaller than half a chunk can't shorten the straggler's tail
  // by more than half a chunk's compute, but they would land as
  // degenerate sub-chunk work on the receiver. Not worth the fabric
  // round trip.
  const std::size_t min_step = std::max<std::size_t>(1, s.chunk_records / 2);
  for (const MigrationStep& step : plan_migrations(current, target)) {
    if (step.count < min_step) continue;
    const std::uint32_t from = surv.ids[step.from];
    const std::uint32_t to = surv.ids[step.to];
    std::vector<std::uint32_t> taken =
        executor.take_from_tail(from, step.count);
    if (taken.empty()) continue;
    const std::size_t delivered = transfer(s, std::move(taken), from, to,
                                           "migrate", summary.migrated_bytes);
    summary.migrated_records += delivered;
    ++summary.migration_steps;
    moved_records += delivered;
  }
  // Adopt the refit models (survivor entries only) so detection
  // re-baselines and a node is only re-flagged if it deviates *again*.
  for (std::size_t k = 0; k < surv.ids.size(); ++k) {
    models_[surv.ids[k]] = refit[k];
  }
  trace_.add_instant(
      "replan", "replan", TraceRecorder::kRuntimeLane, s.exec_base + now,
      {{"stragglers", static_cast<double>(stragglers.size())},
       {"moved_records", static_cast<double>(moved_records)}});
}

void JobRuntime::steal(JobState& s, std::uint32_t node) {
  PhaseExecutor& executor = *s.executor;
  if (s.strategy != core::Strategy::kWorkStealing ||
      executor.remaining(node) != 0) {
    return;
  }
  // The victim is the live node with the most queued records (lowest id
  // on ties); the thief takes one chunk off the tail of its queue.
  std::uint32_t victim = node;
  for (std::uint32_t v = 0; v < s.prep.p; ++v) {
    if (s.lost[v] == 0 && executor.remaining(v) > executor.remaining(victim)) {
      victim = v;
    }
  }
  if (victim == node) return;
  std::vector<std::uint32_t> taken =
      executor.take_from_tail(victim, s.chunk_records);
  s.summary.migrated_records += transfer(s, std::move(taken), victim, node,
                                         "steal", s.summary.migrated_bytes);
  ++s.summary.migration_steps;
}

// Move records to node `to`: the receiver pulls the canonical payloads
// (replica walk when replicated, data master otherwise) and appends them
// to its local partition list — the same path as the initial load,
// costed through the client over the Fabric — then the delivered records
// join its queue. Records no live copy can serve go back to the donor:
// conservation first (taken == given), honesty second — on a dead donor
// they surface as `unprocessed`, which is exactly what kDataUnavailable
// means.
std::size_t JobRuntime::transfer(JobState& s,
                                 std::vector<std::uint32_t> taken,
                                 std::uint32_t from, std::uint32_t to,
                                 const char* span_name, double& bytes_moved) {
  std::sort(taken.begin(), taken.end());
  PhaseExecutor& executor = *s.executor;
  cluster::NodeContext& ctx_to = executor.context(to);
  Fetched got = fetch_records(
      ctx_to, taken,
      router_ != nullptr ? std::nullopt : std::optional(master_),
      router_.get());
  double bytes = 0.0;
  std::vector<std::uint32_t> delivered;
  std::vector<std::uint32_t> undeliverable;
  for (std::size_t k = 0; k < taken.size(); ++k) {
    if (!got.blobs[k]) {
      undeliverable.push_back(taken[k]);
      continue;
    }
    bytes += static_cast<double>(got.blobs[k]->size());
    delivered.push_back(taken[k]);
  }
  s.summary.tolerated_kv_failures +=
      stage_partition(ctx_to.local(), got.blobs);
  const double start = executor.node_time(to);
  const double charged = executor.sync_network(to);
  executor.give(to, delivered);
  if (!undeliverable.empty()) {
    executor.give(from, undeliverable);
    trace_.add_instant(
        "transfer-unreadable", "fault", to, s.exec_base + start,
        {{"records", static_cast<double>(undeliverable.size())},
         {"from", static_cast<double>(from)}});
  }
  trace_.add_span(span_name, "replan", to, s.exec_base + start, charged,
                  {{"records", static_cast<double>(delivered.size())},
                   {"from", static_cast<double>(from)},
                   {"bytes", bytes}});
  bytes_moved += bytes;
  return delivered.size();
}

}  // namespace hetsim::runtime
