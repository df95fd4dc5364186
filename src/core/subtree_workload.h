// Distributed frequent subtree mining workload: the SON two-phase scheme
// with the FREQT-style miner as the local algorithm and prefix-shared
// occurrence lists as the global prune — the faithful version of the
// paper's "frequent tree mining" workload (PatternMiningWorkload over LCA
// pivots is the lightweight approximation; this one mines actual
// labelled subtrees of the tree payloads).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/workload.h"
#include "mining/treeminer.h"

namespace hetsim::core {

class SubtreeMiningWorkload final : public Workload {
 public:
  explicit SubtreeMiningWorkload(mining::TreeMinerConfig config)
      : config_(config) {}

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] partition::Layout preferred_layout() const override {
    return partition::Layout::kRepresentative;
  }
  void reset(std::size_t num_partitions,
             std::uint32_t coordinator) override;
  void run(cluster::NodeContext& ctx, const data::Dataset& dataset,
           std::span<const std::uint32_t> indices) override;
  [[nodiscard]] std::vector<cluster::NodeTask> make_global_tasks(
      const data::Dataset& dataset,
      const partition::PartitionAssignment& assignment) override;

  [[nodiscard]] double quality() const override {
    return static_cast<double>(globally_frequent_);
  }

  [[nodiscard]] std::size_t union_candidates() const noexcept {
    return union_candidates_;
  }
  [[nodiscard]] std::size_t false_positives() const noexcept {
    return false_positives_;
  }
  [[nodiscard]] std::size_t globally_frequent() const noexcept {
    return globally_frequent_;
  }

 private:
  mining::TreeMinerConfig config_;
  bool executing_ = false;
  std::uint32_t coordinator_ = 0;
  std::vector<mining::TreeMiningResult> local_results_;
  std::size_t union_candidates_ = 0;
  std::size_t false_positives_ = 0;
  std::size_t globally_frequent_ = 0;
};

}  // namespace hetsim::core
