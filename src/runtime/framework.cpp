// core::ParetoFramework as a mapping onto runtime::JobRuntime's two
// halves: prepare() is the prepare half, run() one execute() with one
// chunk per node and re-planning off.
#include "core/framework.h"

#include "common/error.h"
#include "runtime/runtime.h"

namespace hetsim::core {

ParetoFramework::ParetoFramework(cluster::Cluster& cluster,
                                 const energy::GreenEnergyEstimator& energy,
                                 FrameworkConfig config)
    : cluster_(cluster), energy_(energy), config_(std::move(config)) {
  common::require<common::ConfigError>(
      config_.energy_alpha >= 0.0 && config_.energy_alpha <= 1.0,
      "ParetoFramework: energy_alpha must be in [0, 1]");
}

ParetoFramework::~ParetoFramework() = default;

void ParetoFramework::prepare(const data::Dataset& dataset, Workload& workload) {
  // A chunk as large as the dataset runs each partition as one chunk, so
  // each prepare() builds a runtime for its dataset, once the last one's
  // keys are off the master.
  if (runtime_) runtime_->release();
  prepared_ = false;
  runtime_ = std::make_unique<runtime::JobRuntime>(
      cluster_, energy_,
      runtime::JobSpec{.alpha = config_.energy_alpha,
                       .normalized_alpha = config_.normalized_alpha,
                       .sketch = config_.sketch,
                       .kmodes = config_.kmodes,
                       .sampling = config_.sampling,
                       .checkpoint_records = dataset.records.size(),
                       .enable_replan = false});
  runtime_->prepare(dataset, workload);
  prepared_ = true;
}

const runtime::JobRuntime& ParetoFramework::prepared() const {
  common::require<common::ConfigError>(prepared_,
                                       "ParetoFramework: call prepare() first");
  return *runtime_;
}

JobReport ParetoFramework::run(Strategy strategy, const data::Dataset& dataset,
                               Workload& /*workload*/) {
  common::require<common::ConfigError>(
      prepared().strata().assignment.size() == dataset.records.size(),
      "run: dataset does not match the prepared stratification");
  runtime::JobSummary s = runtime_->execute(strategy);
  common::require<common::Error>(
      s.status != runtime::JobStatus::kDataUnavailable,
      "ParetoFramework::run: the job lost records");
  return {.strategy = strategy,
          .workload = std::move(s.workload),
          .partition_sizes = std::move(s.initial_sizes),
          .exec_time_s = s.makespan_s,
          .node_exec_s = std::move(s.node_exec_s),
          .dirty_energy_j = s.dirty_energy_j,
          .green_energy_j = s.green_energy_j,
          .load_time_s = s.load_time_s,
          .quality = s.quality,
          .total_work_units = s.total_work_units};
}

std::vector<optimize::FrontierPoint> ParetoFramework::predicted_frontier(
    std::span<const double> alphas, bool normalized) const {
  const runtime::JobRuntime& rt = prepared();
  const std::size_t n = rt.strata().assignment.size();
  return normalized
             ? optimize::sweep_frontier_normalized(rt.node_models(), n, alphas)
             : optimize::sweep_frontier(rt.node_models(), n, alphas);
}

const stratify::Stratification& ParetoFramework::strata() const {
  return prepared().strata();
}

std::span<const optimize::NodeModel> ParetoFramework::node_models() const {
  return prepared().node_models();
}

double ParetoFramework::setup_time_s() const {
  return prepared().prepare_time_s();
}

std::vector<std::size_t> ParetoFramework::plan_sizes(Strategy strategy,
                                                     std::size_t total) const {
  return prepared().plan_sizes(strategy, total);
}

}  // namespace hetsim::core
