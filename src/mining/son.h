// Partition-based distributed frequent pattern mining
// (Savasere/Omiecinski/Navathe — the paper's reference [24]).
//
// Phase 1: each partition is mined locally with the support fraction
// applied to its own size; any globally frequent pattern is locally
// frequent in at least one partition, so the union of local results is a
// complete candidate set.
// Phase 2: a global scan counts every candidate in every partition and
// prunes the false positives. Statistical skew across partitions inflates
// the candidate union — exactly the effect the representative layout is
// designed to suppress.
//
// This header provides the single-process reference implementation used
// by tests and by the per-node tasks of core::PatternMiningWorkload
// (core/mining_workload.h).
#pragma once

#include <span>
#include <vector>

#include "mining/apriori.h"

namespace hetsim::mining {

struct SonResult {
  /// Globally frequent patterns with exact global supports.
  std::vector<Pattern> frequent;
  /// Phase-1 work ops per partition (local mining).
  std::vector<std::uint64_t> local_work;
  /// Locally frequent pattern count per partition.
  std::vector<std::size_t> local_frequent_counts;
  /// Size of the union candidate set scanned in phase 2.
  std::size_t union_candidates = 0;
  /// Candidates pruned by the global scan (false positives from skew).
  std::size_t false_positives = 0;
  /// Phase-2 work ops per partition (global counting scan).
  std::vector<std::uint64_t> global_work;
};

/// Mine `partitions` with the SON two-phase algorithm at the given global
/// support fraction. Deterministic.
[[nodiscard]] SonResult son_mine(
    std::span<const std::vector<data::ItemSet>> partitions,
    const AprioriConfig& config);

/// Deduplicated union of locally frequent pattern sets (phase-1 reducer;
/// exposed for the distributed runner).
[[nodiscard]] std::vector<data::ItemSet> candidate_union(
    std::span<const MiningResult> local_results);

}  // namespace hetsim::mining
