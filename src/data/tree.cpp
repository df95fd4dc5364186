#include "data/tree.h"

#include <algorithm>

#include "common/error.h"
#include "common/hash.h"

namespace hetsim::data {

std::uint32_t LabeledTree::root() const {
  for (std::uint32_t v = 0; v < parent.size(); ++v) {
    if (parent[v] == v) return v;
  }
  throw common::ConfigError("LabeledTree: no root (no self-parent node)");
}

void LabeledTree::validate() const {
  common::require<common::ConfigError>(!parent.empty(),
                                       "LabeledTree: empty tree");
  common::require<common::ConfigError>(parent.size() == label.size(),
                                       "LabeledTree: label arity mismatch");
  std::size_t roots = 0;
  for (std::uint32_t v = 0; v < parent.size(); ++v) {
    common::require<common::ConfigError>(parent[v] < parent.size(),
                                         "LabeledTree: parent out of range");
    if (parent[v] == v) ++roots;
  }
  common::require<common::ConfigError>(roots == 1,
                                       "LabeledTree: exactly one root required");
  // Every node must reach the root without cycling.
  const std::vector<std::uint32_t> depth = node_depths(*this);
  (void)depth;  // node_depths throws on cycles
}

std::vector<std::uint32_t> node_depths(const LabeledTree& tree) {
  const std::size_t n = tree.size();
  std::vector<std::uint32_t> depth(n, UINT32_MAX);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (depth[v] != UINT32_MAX) continue;
    // Walk to a node with known depth (or the root), collecting the path.
    std::vector<std::uint32_t> path;
    std::uint32_t u = v;
    while (depth[u] == UINT32_MAX && tree.parent[u] != u) {
      path.push_back(u);
      u = tree.parent[u];
      common::require<common::ConfigError>(path.size() <= n,
                                           "LabeledTree: cycle detected");
    }
    std::uint32_t d = (tree.parent[u] == u && depth[u] == UINT32_MAX)
                          ? (depth[u] = 0)
                          : depth[u];
    for (std::size_t i = path.size(); i-- > 0;) {
      depth[path[i]] = ++d;
    }
  }
  return depth;
}

std::uint32_t lca(const LabeledTree& tree, const std::vector<std::uint32_t>& depth,
                  std::uint32_t u, std::uint32_t v) {
  while (depth[u] > depth[v]) u = tree.parent[u];
  while (depth[v] > depth[u]) v = tree.parent[v];
  while (u != v) {
    u = tree.parent[u];
    v = tree.parent[v];
  }
  return u;
}

namespace {
// Domain tags keep the pivot kinds from colliding in the hashed item space.
constexpr std::uint64_t kLcaTag = 0x6c6361;   // "lca"
constexpr std::uint64_t kEdgeTag = 0x656467;  // "edg"
}  // namespace

ItemSet tree_pivots(const LabeledTree& tree, const PivotConfig& config) {
  const std::size_t n = tree.size();
  ItemSet items;
  if (n == 1) {
    items.push_back(static_cast<Item>(common::hash_u64(tree.label[0])));
    return items;
  }
  const std::vector<std::uint32_t> depth = node_depths(tree);
  if (config.edge_pivots) {
    const std::uint32_t r = tree.root();
    for (std::uint32_t v = 0; v < n; ++v) {
      if (v == r) continue;
      const std::uint64_t h = common::hash_combine(
          kEdgeTag, common::hash_combine(
                        common::hash_u64(tree.label[tree.parent[v]]),
                        common::hash_u64(tree.label[v])));
      items.push_back(static_cast<Item>(h));
    }
  }
  // Leaves in id order (deterministic).
  std::vector<bool> has_child(n, false);
  const std::uint32_t root = tree.root();
  for (std::uint32_t v = 0; v < n; ++v) {
    if (v != root) has_child[tree.parent[v]] = true;
  }
  std::vector<std::uint32_t> leaves;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!has_child[v]) leaves.push_back(v);
  }
  if (leaves.size() < 2) leaves.push_back(root);
  const std::size_t total_pairs = leaves.size() * (leaves.size() - 1) / 2;
  const std::size_t stride =
      std::max<std::size_t>(1, total_pairs / std::max<std::size_t>(1, config.max_pairs));
  std::size_t t = 0;
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < leaves.size() && emitted < config.max_pairs; ++i) {
    for (std::size_t j = i + 1; j < leaves.size() && emitted < config.max_pairs;
         ++j) {
      if (t++ % stride != 0) continue;
      const std::uint32_t p = leaves[i];
      const std::uint32_t q = leaves[j];
      const std::uint32_t a = lca(tree, depth, p, q);
      // Order the leaf labels so (p, q) and (q, p) hash identically.
      const std::uint32_t lp = std::min(tree.label[p], tree.label[q]);
      const std::uint32_t lq = std::max(tree.label[p], tree.label[q]);
      const std::uint64_t h = common::hash_combine(
          kLcaTag,
          common::hash_combine(
              common::hash_u64(tree.label[a]),
              common::hash_combine(common::hash_u64(lp),
                                   common::hash_u64(lq))));
      items.push_back(static_cast<Item>(h));
      ++emitted;
    }
  }
  normalize(items);
  return items;
}

}  // namespace hetsim::data
