#include "mining/treeminer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "common/error.h"

namespace hetsim::mining {

namespace {

/// Preprocessed data tree: id-ordered children lists (the sibling order
/// that makes the corpus trees *ordered* trees).
struct IndexedTree {
  std::vector<std::vector<std::uint32_t>> children;
  const std::vector<std::uint32_t>* label = nullptr;
};

IndexedTree index_tree(const data::LabeledTree& tree) {
  IndexedTree ix;
  ix.children.resize(tree.size());
  ix.label = &tree.label;
  const std::uint32_t root = tree.root();
  for (std::uint32_t v = 0; v < tree.size(); ++v) {
    if (v != root) ix.children[tree.parent[v]].push_back(v);
  }
  for (auto& c : ix.children) std::sort(c.begin(), c.end());
  return ix;
}

/// A rightmost-path embedding: the data nodes mapped to the pattern's
/// rightmost path, root first.
struct Occurrence {
  std::uint32_t tid = 0;
  std::vector<std::uint32_t> path;

  auto operator<=>(const Occurrence&) const = default;
};

/// Extension key: (depth of the new rightmost leaf, its label).
using ExtKey = std::pair<std::uint32_t, std::uint32_t>;

/// Compute the rightmost extensions of `occs` over `corpus`, grouped by
/// (depth, label). Every child list the full pass scans is charged to
/// work_ops, filtered or not; with `only` set, occurrences are built for
/// that key alone, so the result is the full pass's entry for `only`.
std::map<ExtKey, std::vector<Occurrence>> extensions(
    std::span<const IndexedTree> corpus, const std::vector<Occurrence>& occs,
    std::uint64_t& work_ops, const ExtKey* only = nullptr) {
  std::map<ExtKey, std::vector<Occurrence>> ext;
  for (const Occurrence& occ : occs) {
    const IndexedTree& tree = corpus[occ.tid];
    const std::size_t depth_of_leaf = occ.path.size() - 1;
    for (std::uint32_t d = 1; d <= depth_of_leaf + 1; ++d) {
      const std::vector<std::uint32_t>& children =
          tree.children[occ.path[d - 1]];
      work_ops += children.size();
      if (only != nullptr && d != only->first) continue;
      for (const std::uint32_t w : children) {
        // For depths on the existing rightmost path the new leaf must be
        // a *later* sibling branch than the current one; at depth
        // depth_of_leaf + 1 any child of the rightmost leaf qualifies.
        if (d <= depth_of_leaf && w <= occ.path[d]) continue;
        const std::uint32_t label = (*tree.label)[w];
        if (only != nullptr && label != only->second) continue;
        Occurrence next;
        next.tid = occ.tid;
        next.path.assign(occ.path.begin(),
                         occ.path.begin() + static_cast<long>(d));
        next.path.push_back(w);
        ext[{d, label}].push_back(std::move(next));
      }
    }
  }
  // Dedupe: distinct internal embeddings can share a rightmost path.
  for (auto& [key, list] : ext) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return ext;
}

std::uint32_t distinct_tids(const std::vector<Occurrence>& occs) {
  std::uint32_t count = 0;
  std::uint32_t last = UINT32_MAX;
  for (const Occurrence& o : occs) {  // occurrence lists are tid-sorted
    if (o.tid != last) {
      ++count;
      last = o.tid;
    }
  }
  return count;
}

struct MinerState {
  std::span<const IndexedTree> corpus;
  std::uint32_t min_count = 0;
  std::uint32_t max_nodes = 0;
  TreeMiningResult result;
};

void grow(TreePattern& pattern, const std::vector<Occurrence>& occs,
          MinerState& state) {
  state.result.frequent.push_back(
      FrequentSubtree{pattern, distinct_tids(occs)});
  if (pattern.size() >= state.max_nodes) return;
  const auto ext = extensions(state.corpus, occs, state.result.work_ops);
  for (const auto& [key, list] : ext) {
    ++state.result.candidates_generated;
    if (distinct_tids(list) < state.min_count) continue;
    pattern.nodes.emplace_back(key.first, key.second);
    grow(pattern, list, state);
    pattern.nodes.pop_back();
  }
}

void require_well_formed(const TreePattern& pattern, const char* what) {
  common::require<common::ConfigError>(
      !pattern.nodes.empty() && pattern.nodes[0].first == 0, what);
}

/// Does the single indexed tree in `one_tree` embed `pattern`? Grows the
/// root's occurrences one pattern node at a time, extending only toward
/// that node's key; charges what contains_subtree always has.
bool contains_indexed(std::span<const IndexedTree> one_tree,
                      const TreePattern& pattern, std::uint64_t& work_ops) {
  const std::vector<std::uint32_t>& label = *one_tree[0].label;
  std::vector<Occurrence> occs;
  for (std::uint32_t v = 0; v < label.size(); ++v) {
    ++work_ops;
    if (label[v] == pattern.nodes[0].second) {
      occs.push_back(Occurrence{0, {v}});
    }
  }
  for (std::size_t k = 1; k < pattern.nodes.size() && !occs.empty(); ++k) {
    const ExtKey key = pattern.nodes[k];
    auto ext = extensions(one_tree, occs, work_ops, &key);
    occs = ext.empty() ? std::vector<Occurrence>{}
                       : std::move(ext.begin()->second);
  }
  return !occs.empty();
}

}  // namespace

std::string TreePattern::to_string() const {
  std::ostringstream ss;
  for (const auto& [depth, label] : nodes) {
    ss << '(' << depth << ':' << label << ')';
  }
  return ss.str();
}

TreeMiningResult mine_subtrees(std::span<const data::LabeledTree> corpus,
                               const TreeMinerConfig& config) {
  common::require<common::ConfigError>(
      config.min_support > 0.0 && config.min_support <= 1.0,
      "mine_subtrees: min_support must be in (0, 1]");
  common::require<common::ConfigError>(config.max_pattern_nodes >= 1,
                                       "mine_subtrees: max_pattern_nodes >= 1");
  MinerState state;
  if (corpus.empty()) return std::move(state.result);
  state.min_count = static_cast<std::uint32_t>(std::max<double>(
      1.0,
      std::ceil(config.min_support * static_cast<double>(corpus.size()))));
  state.max_nodes = config.max_pattern_nodes;

  std::vector<IndexedTree> indexed;
  indexed.reserve(corpus.size());
  for (const auto& t : corpus) indexed.push_back(index_tree(t));
  state.corpus = indexed;

  // Single-node patterns: one occurrence per (tree, node) of each label.
  std::map<std::uint32_t, std::vector<Occurrence>> singles;
  for (std::uint32_t tid = 0; tid < corpus.size(); ++tid) {
    for (std::uint32_t v = 0; v < corpus[tid].size(); ++v) {
      ++state.result.work_ops;
      singles[corpus[tid].label[v]].push_back(Occurrence{tid, {v}});
    }
  }
  for (const auto& [label, occs] : singles) {
    ++state.result.candidates_generated;
    if (distinct_tids(occs) < state.min_count) continue;
    TreePattern pattern;
    pattern.nodes.emplace_back(0, label);
    grow(pattern, occs, state);
  }

  std::sort(state.result.frequent.begin(), state.result.frequent.end(),
            [](const FrequentSubtree& a, const FrequentSubtree& b) {
              if (a.pattern.size() != b.pattern.size()) {
                return a.pattern.size() < b.pattern.size();
              }
              return a.pattern.nodes < b.pattern.nodes;
            });
  return std::move(state.result);
}

bool contains_subtree(const data::LabeledTree& tree, const TreePattern& pattern,
                      std::uint64_t& work_ops) {
  require_well_formed(pattern, "contains_subtree: malformed pattern");
  const IndexedTree ix = index_tree(tree);
  return contains_indexed({&ix, 1}, pattern, work_ops);
}

std::vector<std::uint32_t> count_subtree_support(
    std::span<const data::LabeledTree> corpus,
    std::span<const TreePattern> patterns, std::uint64_t& work_ops) {
  for (const TreePattern& pattern : patterns) {
    require_well_formed(pattern, "count_subtree_support: malformed pattern");
  }
  std::vector<std::uint32_t> counts(patterns.size(), 0);
  for (const data::LabeledTree& tree : corpus) {
    const IndexedTree ix = index_tree(tree);
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      if (contains_indexed({&ix, 1}, patterns[p], work_ops)) ++counts[p];
    }
  }
  return counts;
}

}  // namespace hetsim::mining
