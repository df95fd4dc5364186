#include "mining/treeminer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/error.h"

namespace hetsim::mining {

namespace {

/// The corpus as one CSR forest. Tree t's node v has the global id
/// base[t] + v; node u's children are child[child_begin[u] ..
/// child_begin[u + 1]) in ascending id order (the sibling order that
/// makes the corpus trees *ordered* trees).
struct Forest {
  std::vector<std::uint32_t> base;  // per tree, then the node count
  std::vector<std::uint32_t> child_begin;
  std::vector<std::uint32_t> child;
  std::vector<std::uint32_t> label;

  [[nodiscard]] std::uint32_t nodes() const noexcept { return base.back(); }
};

Forest index_forest(std::span<const data::LabeledTree> corpus) {
  Forest f;
  f.base.reserve(corpus.size() + 1);
  std::uint32_t n = 0;
  for (const data::LabeledTree& tree : corpus) {
    f.base.push_back(n);
    n += static_cast<std::uint32_t>(tree.size());
  }
  f.base.push_back(n);
  f.label.reserve(n);
  f.child_begin.assign(n + 1, 0);
  for (std::size_t t = 0; t < corpus.size(); ++t) {
    const data::LabeledTree& tree = corpus[t];
    const std::uint32_t root = tree.root();
    for (std::uint32_t v = 0; v < tree.size(); ++v) {
      if (v != root) ++f.child_begin[f.base[t] + tree.parent[v] + 1];
    }
    f.label.insert(f.label.end(), tree.label.begin(), tree.label.end());
  }
  std::partial_sum(f.child_begin.begin(), f.child_begin.end(),
                   f.child_begin.begin());
  f.child.resize(f.child_begin.back());
  std::vector<std::uint32_t> next(f.child_begin.begin(),
                                  f.child_begin.end() - 1);
  for (std::size_t t = 0; t < corpus.size(); ++t) {
    const data::LabeledTree& tree = corpus[t];
    const std::uint32_t root = tree.root();
    for (std::uint32_t v = 0; v < tree.size(); ++v) {
      if (v != root) {
        f.child[next[f.base[t] + tree.parent[v]]++] = f.base[t] + v;
      }
    }
  }
  return f;
}

// An occurrence list is a flat u32 array of rows with a fixed stride:
// the tid, then the data nodes mapped to the pattern's rightmost path,
// root first (depth + 1 of them, depth being the last pattern node's).
// Lists are sorted and free of duplicates, so equal tids are adjacent.

std::size_t stride_of(std::uint32_t leaf_depth) { return leaf_depth + 2; }

std::uint32_t distinct_tids(std::span<const std::uint32_t> occs,
                            std::size_t stride) {
  std::uint32_t count = 0;
  std::uint32_t last = UINT32_MAX;
  for (std::size_t i = 0; i < occs.size(); i += stride) {
    if (occs[i] != last) {
      ++count;
      last = occs[i];
    }
  }
  return count;
}

/// Stable LSD radix sort of `items` by the u64 `key(item)`, a byte per
/// pass, skipping the bytes every key shares. `tmp` is working space.
template <typename T, typename Key>
void radix_sort(std::vector<T>& items, std::vector<T>& tmp, Key key) {
  std::uint64_t any = 0;
  std::uint64_t all = ~std::uint64_t{0};
  for (const T& item : items) {
    any |= key(item);
    all &= key(item);
  }
  tmp.resize(items.size());
  for (int shift = 0; shift < 64; shift += 8) {
    if ((((any ^ all) >> shift) & 0xFFU) == 0) continue;
    std::array<std::size_t, 257> next{};
    for (const T& item : items) ++next[((key(item) >> shift) & 0xFFU) + 1];
    std::partial_sum(next.begin(), next.end(), next.begin());
    for (const T& item : items) {
      tmp[next[(key(item) >> shift) & 0xFFU]++] = item;
    }
    items.swap(tmp);
  }
}

/// Extension key: (depth of the new rightmost leaf, its label).
using ExtKey = std::pair<std::uint32_t, std::uint32_t>;

/// Occurrence lists grouped by key in ascending key order: the lists of
/// the single-node patterns, or the rightmost extensions of one list.
/// Group g's rows lie in rows[begin[g] .. begin[g + 1]).
struct Groups {
  std::vector<ExtKey> keys;
  std::vector<std::size_t> begin;
  std::vector<std::uint32_t> rows;
  /// Child-list entries scanned to build the groups.
  std::uint64_t scan = 0;

  [[nodiscard]] std::span<const std::uint32_t> group(std::size_t g) const {
    return std::span(rows).subspan(begin[g], begin[g + 1] - begin[g]);
  }
  /// The list for `key`; empty when no occurrence has that extension.
  [[nodiscard]] std::span<const std::uint32_t> find(ExtKey key) const {
    const auto it = std::lower_bound(keys.begin(), keys.end(), key);
    if (it == keys.end() || *it != key) return {};
    return group(static_cast<std::size_t>(it - keys.begin()));
  }
};

/// One new rightmost leaf `w` hung under the first `key.first` path
/// nodes of the occurrence starting at occs[src].
struct Emitted {
  ExtKey key;
  std::uint32_t src = 0;
  std::uint32_t w = 0;
};

/// extend's working buffers, reused across calls.
struct EmitBuffers {
  std::vector<Emitted> emitted;
  std::vector<Emitted> spare;
};

/// The single-node patterns' lists: one row (tid, node) per corpus node,
/// grouped by label. Labels are keyed at depth 0.
void root_postings(const Forest& f, Groups& out) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rows;
  rows.reserve(f.nodes());
  for (std::uint32_t t = 0; t + 1 < f.base.size(); ++t) {
    for (std::uint32_t u = f.base[t]; u < f.base[t + 1]; ++u) {
      rows.emplace_back(t, u);
    }
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tmp;
  radix_sort(rows, tmp, [&](const auto& row) { return f.label[row.second]; });
  out.keys.clear();
  out.begin.clear();
  out.rows.clear();
  for (const auto& [t, u] : rows) {
    if (out.keys.empty() || out.keys.back().second != f.label[u]) {
      out.keys.emplace_back(0, f.label[u]);
      out.begin.push_back(out.rows.size());
    }
    out.rows.push_back(t);
    out.rows.push_back(u);
  }
  out.begin.push_back(out.rows.size());
  out.scan = 0;
}

/// Rightmost extension of `occs` (rows of depth `leaf_depth`): for every
/// occurrence, scan the child list of each node on its rightmost path,
/// charging each list's full size to out.scan. A child of path[d - 1]
/// becomes a new leaf at depth d if it is a later sibling than path[d]
/// (any child when d is one below the rightmost leaf).
///
/// Because `occs` is sorted, rows sharing path[0..d) are adjacent and the
/// first of them has the smallest path[d], so its depth-d extensions
/// cover the others': emitting only those keeps every group sorted and
/// free of duplicates.
void extend(const Forest& f, std::span<const std::uint32_t> occs,
            std::uint32_t leaf_depth, EmitBuffers& buf, Groups& out) {
  std::vector<Emitted>& emitted = buf.emitted;
  const std::size_t stride = stride_of(leaf_depth);
  emitted.clear();
  out.scan = 0;
  for (std::size_t i = 0; i < occs.size(); i += stride) {
    const std::uint32_t* path = occs.data() + i + 1;
    std::uint32_t shared = 0;  // leading path nodes equal to the last row's
    if (i != 0) {
      const std::uint32_t* prev = path - stride;
      while (shared <= leaf_depth && prev[shared] == path[shared]) ++shared;
    }
    for (std::uint32_t d = 1; d <= leaf_depth + 1; ++d) {
      const std::uint32_t parent = path[d - 1];
      const std::uint32_t* first = f.child.data() + f.child_begin[parent];
      const std::uint32_t* last = f.child.data() + f.child_begin[parent + 1];
      out.scan += static_cast<std::uint64_t>(last - first);
      if (d <= shared) continue;
      if (d <= leaf_depth) first = std::upper_bound(first, last, path[d]);
      for (; first != last; ++first) {
        emitted.push_back(
            {{d, f.label[*first]}, static_cast<std::uint32_t>(i), *first});
      }
    }
  }
  // Emission order is (src, w) ascending within each key; keep it.
  radix_sort(emitted, buf.spare, [](const Emitted& e) {
    return (std::uint64_t{e.key.first} << 32) | e.key.second;
  });
  out.keys.clear();
  out.begin.clear();
  out.rows.clear();
  for (const Emitted& e : emitted) {
    if (out.keys.empty() || out.keys.back() != e.key) {
      out.keys.push_back(e.key);
      out.begin.push_back(out.rows.size());
    }
    const std::uint32_t* src = occs.data() + e.src;
    out.rows.insert(out.rows.end(), src, src + 1 + e.key.first);
    out.rows.push_back(e.w);
  }
  out.begin.push_back(out.rows.size());
}

struct MinerState {
  const Forest* forest = nullptr;
  std::uint32_t min_count = 0;
  std::uint32_t max_nodes = 0;
  EmitBuffers buffers;
  /// level[0] holds the single-node lists; level[k] the extensions of
  /// the k-node pattern being grown.
  std::vector<Groups> level;
  TreeMiningResult result;
};

void grow(TreePattern& pattern, std::span<const std::uint32_t> occs,
          std::uint32_t support, MinerState& state) {
  state.result.frequent.push_back(FrequentSubtree{pattern, support});
  if (pattern.size() >= state.max_nodes) return;
  Groups& ext = state.level[pattern.size()];
  extend(*state.forest, occs, pattern.nodes.back().first, state.buffers,
         ext);
  state.result.work_ops += ext.scan;
  for (std::size_t g = 0; g < ext.keys.size(); ++g) {
    ++state.result.candidates_generated;
    const std::span<const std::uint32_t> list = ext.group(g);
    const std::uint32_t count =
        distinct_tids(list, stride_of(ext.keys[g].first));
    if (count < state.min_count) continue;
    pattern.nodes.push_back(ext.keys[g]);
    grow(pattern, list, count, state);
    pattern.nodes.pop_back();
  }
}

void require_well_formed(const TreePattern& pattern, const char* what) {
  bool ok = !pattern.nodes.empty() && pattern.nodes[0].first == 0;
  for (std::size_t i = 1; ok && i < pattern.nodes.size(); ++i) {
    const std::uint32_t depth = pattern.nodes[i].first;
    ok = depth >= 1 && depth <= pattern.nodes[i - 1].first + 1;
  }
  common::require<common::ConfigError>(ok, what);
}

/// Supports of well-formed `patterns` over `corpus`, walking them in
/// sorted order as a prefix trie: each prefix's occurrence list is
/// extended once, and its children's lists are looked up in the result.
std::vector<std::uint32_t> count_by_prefix(
    std::span<const data::LabeledTree> corpus,
    std::span<const TreePattern> patterns, std::uint64_t& work_ops) {
  std::vector<std::uint32_t> counts(patterns.size(), 0);
  if (corpus.empty()) return counts;
  const Forest forest = index_forest(corpus);
  Groups roots;
  root_postings(forest, roots);

  std::vector<std::size_t> order(patterns.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return patterns[a].nodes < patterns[b].nodes;
                   });

  // path[k] is the current (k + 1)-node prefix; its extensions, once
  // computed, are ext[k].
  struct Prefix {
    ExtKey node;
    std::span<const std::uint32_t> occs;
    std::uint64_t charge = 0;  // corpus nodes + scans of shorter prefixes
    bool extended = false;
  };
  std::size_t longest = 0;
  for (const TreePattern& pattern : patterns) {
    longest = std::max(longest, pattern.size());
  }
  std::vector<Prefix> path;
  std::vector<Groups> ext(longest);
  EmitBuffers buffers;
  for (const std::size_t p : order) {
    const auto& nodes = patterns[p].nodes;
    std::size_t keep = 0;
    while (keep < path.size() && keep < nodes.size() &&
           path[keep].node == nodes[keep]) {
      ++keep;
    }
    path.resize(keep);
    while (path.size() < nodes.size()) {
      const std::size_t k = path.size();
      if (k == 0) {
        path.push_back({nodes[0], roots.find(nodes[0]), forest.nodes()});
        continue;
      }
      Prefix& parent = path[k - 1];
      if (!parent.extended) {
        extend(forest, parent.occs, parent.node.first, buffers, ext[k - 1]);
        parent.extended = true;
      }
      path.push_back({nodes[k], ext[k - 1].find(nodes[k]),
                      parent.charge + ext[k - 1].scan});
    }
    counts[p] = distinct_tids(path.back().occs,
                              stride_of(path.back().node.first));
    work_ops += path.back().charge;
  }
  return counts;
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
  const Forest forest = index_forest(corpus);
  state.forest = &forest;
  state.level.resize(state.max_nodes + 1);

  // Single-node patterns: one occurrence per (tree, node) of each label.
  Groups& roots = state.level[0];
  root_postings(forest, roots);
  state.result.work_ops += forest.nodes();
  for (std::size_t g = 0; g < roots.keys.size(); ++g) {
    ++state.result.candidates_generated;
    const std::span<const std::uint32_t> list = roots.group(g);
    const std::uint32_t count = distinct_tids(list, stride_of(0));
    if (count < state.min_count) continue;
    TreePattern pattern;
    pattern.nodes.push_back(roots.keys[g]);
    grow(pattern, list, count, state);
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
  return count_by_prefix({&tree, 1}, {&pattern, 1}, work_ops)[0] != 0;
}

std::vector<std::uint32_t> count_subtree_support(
    std::span<const data::LabeledTree> corpus,
    std::span<const TreePattern> patterns, std::uint64_t& work_ops) {
  for (const TreePattern& pattern : patterns) {
    require_well_formed(pattern, "count_subtree_support: malformed pattern");
  }
  return count_by_prefix(corpus, patterns, work_ops);
}

}  // namespace hetsim::mining
