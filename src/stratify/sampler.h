// Stratified sampling utilities (paper sections III-C/III-E).
//
// Both partitioning layouts and the progressive-sampling estimator need
// samples that follow the strata proportions: Cochran's result — the
// reason the paper stratifies at all — is that a proportionally
// allocated stratified sample tracks the population distribution far
// better than a simple random sample of the same size.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "par/pool.h"
#include "stratify/kmodes.h"

namespace hetsim::stratify {

/// Record indices grouped by stratum: result[c] lists the records of
/// stratum c in ascending index order.
[[nodiscard]] std::vector<std::vector<std::uint32_t>> strata_members(
    const Stratification& strat);

/// Draw `count` record indices as a proportionally allocated stratified
/// sample without replacement. Largest-remainder rounding makes the
/// result exactly `count` (capped at the population size). Deterministic
/// given `rng`: each stratum draws from its own child generator forked
/// from `rng` in stratum order (exactly num_strata forks), so the
/// per-stratum Fisher-Yates passes can fan out over `par` without the
/// thread count touching the sample.
[[nodiscard]] std::vector<std::uint32_t> stratified_sample(
    const Stratification& strat, std::size_t count, common::Rng& rng,
    const par::Options& par = {});

/// All record indices ordered by stratum id (records of stratum 0 first,
/// then 1, ...; ascending index within a stratum) — the ordering the
/// similar-together partitioner chunks.
[[nodiscard]] std::vector<std::uint32_t> strata_order(
    const Stratification& strat);

}  // namespace hetsim::stratify
