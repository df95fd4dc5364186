// ParetoFramework — the paper's full pipeline (Fig. 1) over the
// simulated heterogeneous cluster:
//
//   stratifier (sketch + compositeKModes)
//     -> task-specific heterogeneity estimator (progressive sampling)
//     -> green energy estimator (solar traces -> dirty rates k_i)
//     -> Pareto-optimal modeler (scalarized LP)
//     -> data partitioner (representative / similar-together layouts)
//     -> distributed execution over per-node kvstores
//
// prepare() performs the amortized one-time work (stratification,
// dataset loading onto the master store, progressive sampling); run()
// stages each node's partition list from the master, executes the
// workload under a partitioning strategy and reports makespan, exact
// dirty energy, and workload quality.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/workload.h"
#include "data/dataset.h"
#include "energy/estimator.h"
#include "estimator/progressive.h"
#include "kvstore/client.h"
#include "optimize/pareto.h"
#include "partition/partitioner.h"
#include "sketch/minhash.h"
#include "stratify/kmodes.h"
#include "stratify/sampler.h"

namespace hetsim::core {

/// Partitioning strategies compared throughout the paper's evaluation.
enum class Strategy : std::uint8_t {
  kRandom,          // non-stratified shuffle (worse than every baseline)
  kStratified,      // equal sizes, strata-driven layout (paper baseline)
  kHetAware,        // LP with alpha = 1 (time only)
  kHetEnergyAware,  // LP with configured alpha < 1
};

[[nodiscard]] std::string strategy_name(Strategy s);

struct FrameworkConfig {
  sketch::SketchConfig sketch{};
  stratify::KModesConfig kmodes{};
  estimator::SampleSpec sampling{};
  /// Alpha of the Het-Energy-Aware scheme (paper: 0.999 for mining,
  /// 0.995 for compression).
  double energy_alpha = 0.999;
  /// Use the normalized scalarization (paper section III-D future work):
  /// both objectives rescaled to [0, 1] over the frontier extremes, so
  /// energy_alpha is a scale-free knob (0.5 = equal relative weight)
  /// instead of needing values like 0.999 to offset the joule/second
  /// scale mismatch.
  bool normalized_alpha = false;
};

/// Result of one job execution.
struct JobReport {
  Strategy strategy{};
  std::string workload;
  std::vector<std::size_t> partition_sizes;
  /// Makespan of the execution phase(s), seconds (the paper's
  /// "execution time").
  double exec_time_s = 0.0;
  /// Per-node busy seconds during execution.
  std::vector<double> node_exec_s;
  /// Exact dirty energy over the execution interval, joules.
  double dirty_energy_j = 0.0;
  /// Green energy actually absorbed, joules.
  double green_energy_j = 0.0;
  /// Total drawn = dirty + green.
  [[nodiscard]] double total_energy_j() const noexcept {
    return dirty_energy_j + green_energy_j;
  }
  /// Time spent loading partitions into the node stores (not part of
  /// exec_time_s; identical across strategies up to payload skew).
  double load_time_s = 0.0;
  /// Workload quality metric (compression ratio, #patterns, ...).
  double quality = 0.0;
  /// Total metered work units across nodes.
  double total_work_units = 0.0;
};

// ---- The shared Fig. 1 planning steps -------------------------------------
// ParetoFramework and runtime::JobRuntime both plan a job through these.

/// Simulated time-of-day every job starts (seconds from trace start).
inline constexpr double kJobStartS = 10.0 * 3600.0;
/// Forecast window for the mean green-power linearization.
inline constexpr double kEnergyWindowS = 4.0 * 3600.0;
/// Master list of every record payload, in dataset order.
inline constexpr char kDataKey[] = "data";

// ---- The partition layout -------------------------------------------------
// Each node keeps its partition as one list on its own store, one raw
// payload per record (paper section IV), in execution order. These four
// functions are the only code that writes or reads it, for
// ParetoFramework and runtime::JobRuntime alike.

/// Payloads of the dataset records `records`, read from the master's
/// data list with one pipelined LINDEX batch over `from_master`, in
/// order. nullopt where the reply was not kOk or found nothing.
[[nodiscard]] std::vector<std::optional<std::string>> fetch_from_master(
    kvstore::Client& from_master, std::span<const std::uint32_t> records);

/// Deletes the partition list on `local` with one DEL round trip.
[[nodiscard]] kvstore::Reply clear_partition(kvstore::Client& local);

/// Appends the present payloads (moved out, in order; nullopt entries
/// are skipped) to the partition list on `local` with pipelined RPUSH.
/// Returns how many replies were not kOk.
std::size_t stage_partition(kvstore::Client& local,
                            std::span<std::optional<std::string>> payloads);

/// Reads `count` entries of the partition list on `local`, from `start`
/// on, with one LRANGE. A zero count issues nothing and returns an empty
/// kOk reply.
[[nodiscard]] kvstore::Reply read_partition(kvstore::Client& local,
                                            std::size_t start,
                                            std::size_t count);

/// Master list of each node's uploaded sketches, by node id.
[[nodiscard]] std::vector<std::string> sketch_keys(std::size_t nodes);

struct StratifyResult {
  stratify::Stratification strata;
  std::uint64_t tolerated_kv_failures = 0;  // non-kOk upload/read replies
};

/// Distributed sketching ("sketch": records round-robin by node, each
/// node uploading its sketches to `master`), then compositeKModes on the
/// master ("cluster-sketches"). The clustering reads the in-memory
/// sketches, so a lost upload costs wire time only and is just counted.
[[nodiscard]] StratifyResult stratify_on_master(
    cluster::Cluster& cluster, std::uint32_t master,
    const data::Dataset& dataset, const sketch::SketchConfig& sketch,
    const stratify::KModesConfig& kmodes);

/// Dirty rate k_i of every node over the forecast window.
[[nodiscard]] std::vector<double> forecast_dirty_rates(
    const cluster::Cluster& cluster, const energy::GreenEnergyEstimator& energy);

/// LP node models: each fitted time model plus its node's dirty rate.
[[nodiscard]] std::vector<optimize::NodeModel> make_node_models(
    std::span<const estimator::NodeTimeModel> time_models,
    std::span<const double> dirty_rates);

/// Partition sizes: equal for Random/Stratified, the LP at alpha = 1 for
/// Het-Aware and at `alpha` for Het-Energy-Aware. With replication > 1
/// that solve also bills the replica copies, on the raw alpha (the
/// replica term would re-weight the normalized rescale's extremes).
[[nodiscard]] std::vector<std::size_t> plan_sizes(
    Strategy strategy, std::span<const optimize::NodeModel> models,
    std::size_t total, double alpha, bool normalized,
    const optimize::ReplicaCostModel& replica_cost);

/// Shuffle-and-cut for Random, the workload's strata layout otherwise.
[[nodiscard]] partition::PartitionAssignment assign_partitions(
    Strategy strategy, const stratify::Stratification& strata,
    std::span<const std::size_t> sizes, partition::Layout layout);

/// Cost of a job's execute and global phases.
struct ExecTally {
  explicit ExecTally(std::size_t nodes) : busy_s(nodes, 0.0) {}
  void add(const cluster::PhaseReport& phase);
  std::vector<double> busy_s;  // per node; the energy bill's input
  double makespan_s = 0.0;
  double work_units = 0.0;
};

/// Runs the workload's cross-partition phase, if it has one (e.g. the
/// SON candidate prune), and adds its cost to `tally`.
void run_global_phase(cluster::Cluster& cluster, Workload& workload,
                      const data::Dataset& dataset,
                      const partition::PartitionAssignment& assignment,
                      ExecTally& tally);

/// Adds the dirty and the green joules drawn by nodes busy for `busy_s`
/// seconds from kJobStartS on to `dirty_j` and `green_j`.
void split_energy(const cluster::Cluster& cluster,
                  const energy::GreenEnergyEstimator& energy,
                  std::span<const double> busy_s, double& dirty_j,
                  double& green_j);

/// Deletes `keys` on `node`'s store, off every job clock, so the next
/// job on the cluster starts clean.
void discard_keys(cluster::Cluster& cluster, std::uint32_t node,
                  const std::vector<std::string>& keys);

class ParetoFramework {
 public:
  ParetoFramework(cluster::Cluster& cluster,
                  const energy::GreenEnergyEstimator& energy,
                  FrameworkConfig config = {});

  /// One-time pipeline for (dataset, workload): distributed sketching,
  /// centralized compositeKModes on the master, loading the dataset onto
  /// the master store, and progressive-sampling time models. Must be
  /// called before run(). The cost lands on the cluster clock and is
  /// reported by setup_time_s().
  void prepare(const data::Dataset& dataset, Workload& workload);

  /// Execute under a strategy; requires prepare().
  [[nodiscard]] JobReport run(Strategy strategy, const data::Dataset& dataset,
                              Workload& workload);

  /// Predicted Pareto frontier from the learned models (paper Fig. 5/6).
  /// Uses the raw scalarization; pass normalized = true for the
  /// normalized-alpha variant.
  [[nodiscard]] std::vector<optimize::FrontierPoint> predicted_frontier(
      std::span<const double> alphas, bool normalized = false) const;

  // ---- introspection ----------------------------------------------------
  [[nodiscard]] const stratify::Stratification& strata() const;
  [[nodiscard]] std::span<const optimize::NodeModel> node_models() const;
  [[nodiscard]] double setup_time_s() const noexcept { return setup_time_s_; }
  [[nodiscard]] const FrameworkConfig& config() const noexcept { return config_; }
  /// Partition sizes a strategy would produce (without executing).
  [[nodiscard]] std::vector<std::size_t> plan_sizes(Strategy strategy,
                                                    std::size_t total) const;

 private:
  void require_prepared() const;

  cluster::Cluster& cluster_;
  const energy::GreenEnergyEstimator& energy_;
  FrameworkConfig config_;

  bool prepared_ = false;
  std::uint32_t master_ = 0;         // clustering + data master
  std::uint32_t barrier_master_ = 0; // second master (paper section IV)
  std::optional<stratify::Stratification> strata_;
  std::vector<optimize::NodeModel> models_;
  double setup_time_s_ = 0.0;
};

}  // namespace hetsim::core
