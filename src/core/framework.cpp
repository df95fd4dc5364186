#include "core/framework.h"

#include <algorithm>

#include "check/check.h"
#include "common/allocation.h"
#include "common/bytes.h"
#include "common/error.h"
#include "kvstore/client.h"

namespace hetsim::core {

namespace {

/// Key of each node's partition list.
constexpr char kPartitionKey[] = "partition";

std::string encode_sketch(const sketch::Sketch& sig) {
  std::string out;
  out.reserve(sig.size() * 8);
  for (const std::uint64_t v : sig) common::append_u64(out, v);
  return out;
}

}  // namespace

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

std::vector<std::string> sketch_keys(std::size_t nodes) {
  std::vector<std::string> keys(nodes, "sketches:");
  for (std::size_t i = 0; i < nodes; ++i) keys[i] += std::to_string(i);
  return keys;
}

StratifyResult stratify_on_master(cluster::Cluster& cluster,
                                  std::uint32_t master,
                                  const data::Dataset& dataset,
                                  const sketch::SketchConfig& sketch,
                                  const stratify::KModesConfig& kmodes) {
  const std::size_t p = cluster.size();
  const std::size_t n = dataset.records.size();
  const sketch::MinHasher hasher(sketch);
  std::vector<sketch::Sketch> sketches(n);
  const std::vector<std::string> keys = sketch_keys(p);
  StratifyResult out;
  std::vector<cluster::NodeTask> tasks;
  tasks.reserve(p);
  for (std::size_t node = 0; node < p; ++node) {
    tasks.push_back([&, node](cluster::NodeContext& ctx) {
      kvstore::Client& to_master = ctx.client(master);
      for (std::size_t i = node; i < n; i += p) {
        sketches[i] = hasher.sketch(dataset.records[i].items);
        // One op per (item, permutation) pair.
        ctx.meter().add(static_cast<double>(dataset.records[i].items.size()) *
                        hasher.num_hashes());
        to_master.enqueue({.type = kvstore::CommandType::kRPush,
                           .key = keys[node],
                           .value = encode_sketch(sketches[i])});
      }
      for (const kvstore::Reply& r : to_master.drain()) {
        if (r.status != kvstore::Status::kOk) ++out.tolerated_kv_failures;
      }
    });
  }
  cluster.run_phase("sketch", tasks);
  cluster.run_on("cluster-sketches", master, [&](cluster::NodeContext& ctx) {
    // Read the sketch lists back (loopback traffic on the master).
    for (std::size_t node = 0; node < p; ++node) {
      const kvstore::Reply r =
          ctx.local().execute({.type = kvstore::CommandType::kLRange,
                               .key = keys[node],
                               .arg0 = 0,
                               .arg1 = -1});
      if (r.status != kvstore::Status::kOk) ++out.tolerated_kv_failures;
    }
    out.strata = stratify::composite_kmodes(sketches, kmodes);
    ctx.meter().add(static_cast<double>(out.strata.work_ops));
  });
  return out;
}

std::vector<double> forecast_dirty_rates(
    const cluster::Cluster& cluster,
    const energy::GreenEnergyEstimator& energy) {
  std::vector<double> rates(cluster.size());
  for (std::uint32_t i = 0; i < cluster.size(); ++i) {
    rates[i] = energy.dirty_rate(cluster.node(i), kJobStartS, kEnergyWindowS);
  }
  return rates;
}

std::vector<optimize::NodeModel> make_node_models(
    std::span<const estimator::NodeTimeModel> time_models,
    std::span<const double> dirty_rates) {
  std::vector<optimize::NodeModel> models;
  models.reserve(time_models.size());
  for (const estimator::NodeTimeModel& tm : time_models) {
    models.push_back({.slope = tm.fit.slope,
                      .intercept = tm.fit.intercept,
                      .dirty_rate = dirty_rates[tm.node_id]});
  }
  return models;
}

std::vector<std::size_t> plan_sizes(
    Strategy strategy, std::span<const optimize::NodeModel> models,
    std::size_t total, double alpha, bool normalized,
    const optimize::ReplicaCostModel& replica_cost) {
  switch (strategy) {
    case Strategy::kRandom:
    case Strategy::kStratified: {
      const std::vector<double> ones(models.size(), 1.0);
      return common::proportional_allocation(ones, total);
    }
    case Strategy::kHetAware:
      return optimize::solve_partition_sizes(models, total, 1.0).sizes;
    case Strategy::kHetEnergyAware:
      if (replica_cost.replication > 1) {
        return optimize::solve_partition_sizes_replicated(models, total, alpha,
                                                          replica_cost)
            .sizes;
      }
      return (normalized ? optimize::solve_partition_sizes_normalized(
                               models, total, alpha)
                         : optimize::solve_partition_sizes(models, total, alpha))
          .sizes;
  }
  throw common::ConfigError("plan_sizes: unknown strategy");
}

partition::PartitionAssignment assign_partitions(
    Strategy strategy, const stratify::Stratification& strata,
    std::span<const std::size_t> sizes, partition::Layout layout) {
  return strategy == Strategy::kRandom
             ? partition::random_partitions(strata.assignment.size(), sizes)
             : partition::make_partitions(strata, sizes, layout);
}

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

kvstore::Reply clear_partition(kvstore::Client& local) {
  return local.execute(
      {.type = kvstore::CommandType::kDel, .key = kPartitionKey});
}

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

kvstore::Reply read_partition(kvstore::Client& local, std::size_t start,
                              std::size_t count) {
  if (count == 0) return {.ok = true};
  return local.execute({.type = kvstore::CommandType::kLRange,
                        .key = kPartitionKey,
                        .arg0 = static_cast<std::int64_t>(start),
                        .arg1 = static_cast<std::int64_t>(start + count - 1)});
}

void ExecTally::add(const cluster::PhaseReport& phase) {
  makespan_s += phase.makespan_s();
  for (const cluster::NodePhaseResult& r : phase.per_node) {
    busy_s[r.node_id] += r.total_time_s();
    work_units += r.work_units;
  }
}

void run_global_phase(cluster::Cluster& cluster, Workload& workload,
                      const data::Dataset& dataset,
                      const partition::PartitionAssignment& assignment,
                      ExecTally& tally) {
  const std::vector<cluster::NodeTask> tasks =
      workload.make_global_tasks(dataset, assignment);
  if (tasks.empty()) return;
  common::require<common::ConfigError>(tasks.size() == cluster.size(),
                                       "global phase arity mismatch");
  tally.add(cluster.run_phase("global", tasks));
}

void split_energy(const cluster::Cluster& cluster,
                  const energy::GreenEnergyEstimator& energy,
                  std::span<const double> busy_s, double& dirty_j,
                  double& green_j) {
  for (std::uint32_t node = 0; node < busy_s.size(); ++node) {
    if (busy_s[node] <= 0.0) continue;
    const cluster::NodeSpec& spec = cluster.node(node);
    const double dirty =
        energy.dirty_energy_joules(spec, kJobStartS, busy_s[node]);
    dirty_j += dirty;
    green_j += spec.power_watts * busy_s[node] - dirty;
  }
}

void discard_keys(cluster::Cluster& cluster, std::uint32_t node,
                  const std::vector<std::string>& keys) {
  // A throwaway context: its traffic lands on no phase and no clock.
  cluster::NodeContext ctx(cluster, cluster.node(node));
  kvstore::Client& local = ctx.local();
  for (const std::string& key : keys) {
    local.enqueue({.type = kvstore::CommandType::kDel, .key = key});
  }
  // Best effort: a key a fault kept alive costs the next job on this
  // cluster a few wire bytes, never a wrong result, and this job's
  // numbers are already final.
  (void)local.drain();  // hetsim-analyze: allow(status-flow)
}

ParetoFramework::ParetoFramework(cluster::Cluster& cluster,
                                 const energy::GreenEnergyEstimator& energy,
                                 FrameworkConfig config)
    : cluster_(cluster), energy_(energy), config_(std::move(config)) {
  common::require<common::ConfigError>(
      config_.energy_alpha >= 0.0 && config_.energy_alpha <= 1.0,
      "ParetoFramework: energy_alpha must be in [0, 1]");
  const auto masters =
      cluster::choose_masters(cluster_.nodes(), cluster_.size() >= 2 ? 2 : 1);
  master_ = masters[0];
  barrier_master_ = masters.size() > 1 ? masters[1] : masters[0];
}

void ParetoFramework::prepare(const data::Dataset& dataset, Workload& workload) {
  common::require<common::ConfigError>(!dataset.records.empty(),
                                       "prepare: empty dataset");
  // run() reads the data list an earlier prepare() left on the master;
  // this prepare() replaces it.
  discard_keys(cluster_, master_, {kDataKey});
  const double setup_begin = cluster_.now();

  strata_ = stratify_on_master(cluster_, master_, dataset, config_.sketch,
                               config_.kmodes)
                .strata;

  cluster_.run_on("load-master", master_, [&](cluster::NodeContext& ctx) {
    kvstore::Client& local = ctx.local();
    for (const data::Record& r : dataset.records) {
      local.enqueue({.type = kvstore::CommandType::kRPush,
                     .key = kDataKey,
                     .value = r.payload});
    }
    kvstore::expect_ok(local.drain());
  });

  const estimator::SampleRunner runner =
      [&workload, &dataset](cluster::NodeContext& ctx,
                            std::span<const std::uint32_t> indices) {
        workload.run(ctx, dataset, indices);
      };
  models_ = make_node_models(
      estimator::estimate_time_models(cluster_, *strata_, runner,
                                      config_.sampling),
      forecast_dirty_rates(cluster_, energy_));
  setup_time_s_ = cluster_.now() - setup_begin;
  prepared_ = true;
  discard_keys(cluster_, master_, sketch_keys(cluster_.size()));
}

void ParetoFramework::require_prepared() const {
  common::require<common::ConfigError>(prepared_,
                                       "ParetoFramework: call prepare() first");
}

std::vector<std::size_t> ParetoFramework::plan_sizes(Strategy strategy,
                                                     std::size_t total) const {
  require_prepared();
  return core::plan_sizes(strategy, models_, total, config_.energy_alpha,
                          config_.normalized_alpha, {});
}

JobReport ParetoFramework::run(Strategy strategy, const data::Dataset& dataset,
                               Workload& workload) {
  require_prepared();
  const std::size_t p = cluster_.size();
  const std::size_t n = dataset.records.size();
  common::require<common::ConfigError>(
      strata_->assignment.size() == n,
      "run: dataset does not match the prepared stratification");

  JobReport report;
  report.strategy = strategy;
  report.workload = workload.name();
  report.partition_sizes = plan_sizes(strategy, n);
  const partition::PartitionAssignment assignment =
      assign_partitions(strategy, *strata_, report.partition_sizes,
                        workload.preferred_layout());

  workload.reset(p, barrier_master_);

  // ---- Load phase: every node pulls its records from the master and
  // stages them as its partition list. ----
  {
    std::vector<cluster::NodeTask> tasks;
    tasks.reserve(p);
    for (std::size_t node = 0; node < p; ++node) {
      tasks.push_back([&, node](cluster::NodeContext& ctx) {
        std::vector<std::optional<std::string>> payloads =
            fetch_from_master(ctx.client(master_), assignment.partitions[node]);
        for (const std::optional<std::string>& payload : payloads) {
          common::require<kvstore::UnavailableError>(
              payload.has_value(), "load: a record is unreadable on master");
        }
        kvstore::Client& local = ctx.local();
        kvstore::expect_ok(clear_partition(local));
        common::require<kvstore::UnavailableError>(
            stage_partition(local, payloads) == 0,
            "load: staging the partition list failed");
      });
    }
    const cluster::PhaseReport load = cluster_.run_phase("load", tasks);
    report.load_time_s = load.makespan_s();
  }

  // ---- Execution phase: one read of the whole partition list, checked
  // against the plan; the workload runs from the in-memory dataset. ----
  ExecTally tally(p);
  {
    std::vector<cluster::NodeTask> tasks;
    tasks.reserve(p);
    for (std::size_t node = 0; node < p; ++node) {
      tasks.push_back([&, node](cluster::NodeContext& ctx) {
        const std::vector<std::uint32_t>& part = assignment.partitions[node];
        const kvstore::Reply list = read_partition(ctx.local(), 0, part.size());
        HETSIM_CHECK(list.status == kvstore::Status::kOk)
            << ": exec phase could not read the partition list on node "
            << node;
        HETSIM_CHECK(list.list.size() == part.size())
            << ": partition list on node " << node << " holds "
            << list.list.size() << " records, plan says " << part.size();
        workload.run(ctx, dataset, part);
      });
    }
    tally.add(cluster_.run_phase("exec", tasks));
  }
  run_global_phase(cluster_, workload, dataset, assignment, tally);

  report.exec_time_s = tally.makespan_s;
  report.total_work_units = tally.work_units;
  split_energy(cluster_, energy_, tally.busy_s, report.dirty_energy_j,
               report.green_energy_j);
  report.node_exec_s = std::move(tally.busy_s);
  report.quality = workload.quality();
  return report;
}

std::vector<optimize::FrontierPoint> ParetoFramework::predicted_frontier(
    std::span<const double> alphas, bool normalized) const {
  require_prepared();
  const std::size_t n = strata_->assignment.size();
  return normalized ? optimize::sweep_frontier_normalized(models_, n, alphas)
                    : optimize::sweep_frontier(models_, n, alphas);
}

const stratify::Stratification& ParetoFramework::strata() const {
  require_prepared();
  return *strata_;
}

std::span<const optimize::NodeModel> ParetoFramework::node_models() const {
  require_prepared();
  return models_;
}

}  // namespace hetsim::core
