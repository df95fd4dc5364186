// Apriori frequent pattern mining (Agrawal & Srikant).
//
// Used three ways, matching the paper's workloads:
//  * text mining: transactions are documents' word sets;
//  * frequent "tree" mining: transactions are the trees' LCA-pivot sets
//    (the stratifier's domain reduction makes tree mining itemset mining);
//  * the local phase of the SON distributed algorithm (son.h).
//
// Counting is vertical: every frequent itemset of the current level keeps
// a tid-bitset, and a candidate's support is the popcount of the AND of
// its two join parents' bitsets (count_support ANDs its items' bitsets).
//
// Work accounting still charges the level-wise hash-probe model, whatever
// the counting does: the dominant cost of Apriori is candidate membership
// testing. Level 1 charges one op per item occurrence, candidate
// generation one op per join tried and per subset pruned, and counting a
// level of C candidates charges each transaction, filtered to the items
// some candidate holds (size f), 0 ops when f < k, C probes when
// f^k > 4C, and one hash probe per k-subset (binom(f, k)) otherwise.
// count_support charges one op per (transaction, candidate) pair. The
// caller converts ops to simulated time. The paper's observation that
// "even a single partition generating too many patterns slows the whole
// job" shows up directly in these counts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/itemset.h"

namespace hetsim::mining {

struct AprioriConfig {
  /// Minimum support as a fraction of the transaction count (0, 1].
  double min_support = 0.05;
  /// Longest pattern mined (paper workloads rarely need beyond 4).
  std::uint32_t max_pattern_length = 4;
};

struct Pattern {
  data::ItemSet items;
  std::uint32_t support = 0;  // absolute transaction count
};

struct MiningResult {
  std::vector<Pattern> frequent;  // all lengths, lexicographic order
  /// Candidates generated across all levels (the paper's "search space").
  std::uint64_t candidates_generated = 0;
  /// Subset/probe operations performed — the abstract work.
  std::uint64_t work_ops = 0;
};

/// Mine frequent patterns from `transactions` (each a normalized ItemSet:
/// sorted, no duplicates — a DCHECKed contract).
[[nodiscard]] MiningResult apriori(std::span<const data::ItemSet> transactions,
                                   const AprioriConfig& config);

/// Count the absolute support of the given candidate patterns over
/// `transactions` (the SON global-prune scan). Returns counts aligned
/// with `candidates` and adds probe ops to `work_ops`. Transactions and
/// candidates are normalized ItemSets; an empty candidate is in every
/// transaction.
[[nodiscard]] std::vector<std::uint32_t> count_support(
    std::span<const data::ItemSet> transactions,
    std::span<const data::ItemSet> candidates, std::uint64_t& work_ops);

}  // namespace hetsim::mining
