// Frequent induced ordered subtree mining (FREQT-style rightmost-path
// extension; the pattern-growth family of the paper's tree-mining
// reference [22]).
//
// A pattern is a labelled ordered rooted tree, represented in preorder
// as (depth, label) pairs. Candidate patterns grow only at the rightmost
// path — attaching a new rightmost leaf at each allowed depth — which
// enumerates every ordered tree exactly once. Occurrences are tracked as
// rightmost-path embeddings into the data trees, so support counting is
// incremental (no re-matching from scratch per level).
//
// Support is per-transaction: the number of distinct trees containing at
// least one embedding, as in itemset mining.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/tree.h"

namespace hetsim::mining {

/// A pattern tree in preorder; nodes[i].first is the node's depth
/// (root = 0), nodes[i].second its label. Valid patterns have
/// nodes[0].first == 0 and each subsequent depth in [1, prev_depth + 1].
struct TreePattern {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> nodes;

  [[nodiscard]] std::size_t size() const noexcept { return nodes.size(); }
  auto operator<=>(const TreePattern&) const = default;
  /// Render as "(d0:l0)(d1:l1)..." for diagnostics.
  [[nodiscard]] std::string to_string() const;
};

struct FrequentSubtree {
  TreePattern pattern;
  std::uint32_t support = 0;  // number of trees containing the pattern
};

struct TreeMinerConfig {
  /// Minimum support as a fraction of the corpus size (0, 1].
  double min_support = 0.05;
  /// Largest pattern mined (nodes).
  std::uint32_t max_pattern_nodes = 4;
};

struct TreeMiningResult {
  /// All frequent subtrees, sorted by (size, preorder sequence).
  std::vector<FrequentSubtree> frequent;
  std::uint64_t candidates_generated = 0;
  /// Occurrence-list extension steps — the abstract work.
  std::uint64_t work_ops = 0;
};

/// Mine all frequent induced ordered subtrees of `corpus`.
[[nodiscard]] TreeMiningResult mine_subtrees(
    std::span<const data::LabeledTree> corpus, const TreeMinerConfig& config);

/// Does `tree` contain at least one embedding of `pattern`? Used by the
/// SON global-prune scan for distributed tree mining. Adds the matching
/// steps to `work_ops`: one per tree node for the root match, then, per
/// pattern node, every child list the full rightmost-extension pass
/// scans (the metered model), although only the extensions toward that
/// node are built.
[[nodiscard]] bool contains_subtree(const data::LabeledTree& tree,
                                    const TreePattern& pattern,
                                    std::uint64_t& work_ops);

/// Exact per-corpus supports of the given patterns (SON phase 2).
/// Indexes each tree once and matches every pattern against it; the
/// counts and `work_ops` equal those of calling contains_subtree per
/// (tree, pattern) pair. Every pattern is validated before any tree is
/// read, so a malformed one throws ConfigError even on an empty corpus.
[[nodiscard]] std::vector<std::uint32_t> count_subtree_support(
    std::span<const data::LabeledTree> corpus,
    std::span<const TreePattern> patterns, std::uint64_t& work_ops);

}  // namespace hetsim::mining
