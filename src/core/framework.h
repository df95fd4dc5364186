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
// A prepare-once façade over runtime::JobRuntime, the one executor of
// that pipeline: prepare() runs the runtime's prepare half (ingest onto
// the master store, stratification, progressive sampling, the dirty-rate
// forecast) once per dataset and workload; run() runs its execute half
// under a strategy, with one chunk per node and re-planning off, and
// reports makespan, exact dirty energy, and workload quality. The
// definitions live in the runtime library (src/runtime/framework.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/workload.h"
#include "data/dataset.h"
#include "energy/estimator.h"
#include "estimator/progressive.h"
#include "optimize/pareto.h"
#include "sketch/minhash.h"
#include "stratify/kmodes.h"

namespace hetsim::runtime {
class JobRuntime;
}  // namespace hetsim::runtime

namespace hetsim::core {

/// Partitioning strategies compared throughout the paper's evaluation,
/// plus the work-stealing strawman of its section I.
enum class Strategy : std::uint8_t {
  kRandom,          // non-stratified shuffle (worse than every baseline)
  kStratified,      // equal sizes, strata-driven layout (paper baseline)
  kHetAware,        // LP with alpha = 1 (time only)
  kHetEnergyAware,  // LP with configured alpha < 1
  kWorkStealing,    // kRandom's plan; a drained node steals a chunk from
                    // the most-loaded queue, over the fabric
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

class ParetoFramework {
 public:
  ParetoFramework(cluster::Cluster& cluster,
                  const energy::GreenEnergyEstimator& energy,
                  FrameworkConfig config = {});
  ~ParetoFramework();
  ParetoFramework(const ParetoFramework&) = delete;
  ParetoFramework& operator=(const ParetoFramework&) = delete;

  /// One-time pipeline for (dataset, workload): loading the dataset onto
  /// the master store, distributed sketching, centralized compositeKModes
  /// on the master, progressive-sampling time models and the dirty-rate
  /// forecast. Must be called before run(); `dataset` and `workload` must
  /// outlive the runs. The cost lands on the cluster clock and is
  /// reported by setup_time_s().
  void prepare(const data::Dataset& dataset, Workload& workload);

  /// Execute under a strategy; requires prepare(), whose dataset and
  /// workload it runs.
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
  [[nodiscard]] double setup_time_s() const;
  /// Partition sizes a strategy would produce (without executing).
  [[nodiscard]] std::vector<std::size_t> plan_sizes(Strategy strategy,
                                                    std::size_t total) const;

 private:
  [[nodiscard]] const runtime::JobRuntime& prepared() const;

  cluster::Cluster& cluster_;
  const energy::GreenEnergyEstimator& energy_;
  FrameworkConfig config_;
  /// The runtime of the last prepare(); null before the first.
  std::unique_ptr<runtime::JobRuntime> runtime_;
  bool prepared_ = false;  // the last prepare() returned
};

}  // namespace hetsim::core
