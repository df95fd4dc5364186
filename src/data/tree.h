// Labelled rooted trees and LCA pivot extraction.
//
// The paper's stratifier represents trees via Prüfer sequences [13] and
// extracts pivots using the least-common-ancestor relation: a pivot
// (a, p, q) records that label `a` is the LCA of nodes labelled `p` and
// `q` (section III-C step 1). Here the pivots are computed straight from
// the parent and depth arrays; no Prüfer sequence is built. Pivot
// triples are hashed to item ids so a tree becomes an ItemSet.
#pragma once

#include <cstdint>
#include <vector>

#include "data/itemset.h"

namespace hetsim::data {

/// A rooted tree over nodes 0..n-1. parent[root] == root. Each node
/// carries an integer label (labels may repeat across nodes).
struct LabeledTree {
  std::vector<std::uint32_t> parent;
  std::vector<std::uint32_t> label;

  [[nodiscard]] std::size_t size() const noexcept { return parent.size(); }
  [[nodiscard]] std::uint32_t root() const;
  /// Validates the parent array encodes a single rooted tree (exactly one
  /// self-parent, no cycles); throws ConfigError otherwise.
  void validate() const;
};

/// Depth of every node (root = 0).
[[nodiscard]] std::vector<std::uint32_t> node_depths(const LabeledTree& tree);

/// LCA by parent-walking with depths (trees in the corpora are small, so
/// no sparse tables needed).
[[nodiscard]] std::uint32_t lca(const LabeledTree& tree,
                                const std::vector<std::uint32_t>& depth,
                                std::uint32_t u, std::uint32_t v);

struct PivotConfig {
  /// Pivot pairs are drawn from the tree's leaves; caps the number of
  /// leaf pairs per tree so pivot extraction stays linear-ish.
  std::size_t max_pairs = 64;
  /// Also emit an item per parent-child label pair. Edge pivots are the
  /// denser members of the pivot family: LCA triples identify rare deep
  /// structure while edge pairs recur across trees, which is what gives
  /// frequent-pattern mining over pivot sets a meaningful support range.
  bool edge_pivots = true;
};

/// Extract the pivot item set of a tree: for sampled leaf pairs (p, q),
/// emit item = hash(label[lca], label[p], label[q]) truncated to 32 bits,
/// plus (optionally) one item per parent-child label pair.
/// Deterministic: pairs are chosen by a fixed stride over the leaf list.
[[nodiscard]] ItemSet tree_pivots(const LabeledTree& tree,
                                  const PivotConfig& config = {});

}  // namespace hetsim::data
