// Frequent induced ordered subtree mining (FREQT-style rightmost-path
// extension; the pattern-growth family of the paper's tree-mining
// reference [22]).
//
// A pattern is a labelled ordered rooted tree, represented in preorder
// as (depth, label) pairs. Candidate patterns grow only at the rightmost
// path — attaching a new rightmost leaf at each allowed depth — which
// enumerates every ordered tree exactly once. Occurrences are tracked as
// rightmost-path embeddings into the data trees, so support counting is
// incremental (no re-matching from scratch per level): a pattern's
// occurrence list is derived from its parent's by one extension pass.
// Both entry points share that pass over a CSR index of the corpus.
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

/// Does `tree` contain at least one embedding of `pattern`? The
/// single-tree case of count_subtree_support, metered the same way.
/// Throws ConfigError for a malformed pattern.
[[nodiscard]] bool contains_subtree(const data::LabeledTree& tree,
                                    const TreePattern& pattern,
                                    std::uint64_t& work_ops);

/// Exact per-corpus supports of the given patterns (SON phase 2), in the
/// order given. The patterns are walked in sorted order as a prefix
/// trie: each prefix's occurrence list is extended once and its
/// children's lists are derived from it. The set need not be closed
/// under prefixes; a missing prefix is computed but neither reported nor
/// charged, and a duplicate is counted and charged once per copy.
///
/// Each pattern P adds to `work_ops`
///   (corpus node count) + sum over P's strict prefixes Q of scan(occ(Q)),
/// where scan(occ(Q)) is the total size of the child lists along the
/// rightmost path of every occurrence of Q: one step per node for the
/// root match, then one full extension pass per prefix. An empty list
/// scans nothing, so this equals the sum of contains_subtree's charge
/// over every (tree, pattern) pair. Every pattern is validated before
/// any tree is read, so a malformed one throws ConfigError even on an
/// empty corpus.
[[nodiscard]] std::vector<std::uint32_t> count_subtree_support(
    std::span<const data::LabeledTree> corpus,
    std::span<const TreePattern> patterns, std::uint64_t& work_ops);

}  // namespace hetsim::mining
