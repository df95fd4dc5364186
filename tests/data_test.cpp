// Tests for the data model: item sets, trees + LCA pivots,
// graphs, payload codecs, and the synthetic generators.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/graph.h"
#include "data/itemset.h"
#include "data/tree.h"

namespace hetsim::data {
namespace {

TEST(ItemSet, NormalizeSortsAndDedupes) {
  ItemSet s{5, 1, 3, 1, 5};
  normalize(s);
  EXPECT_EQ(s, (ItemSet{1, 3, 5}));
}

TEST(ItemSet, IntersectionAndJaccard) {
  const ItemSet a{1, 2, 3, 4};
  const ItemSet b{3, 4, 5, 6};
  EXPECT_EQ(intersection_size(a, b), 2u);
  EXPECT_DOUBLE_EQ(jaccard(a, b), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(jaccard(a, a), 1.0);
  EXPECT_DOUBLE_EQ(jaccard(a, {}), 0.0);
  EXPECT_DOUBLE_EQ(jaccard({}, {}), 1.0);
}

TEST(ItemSet, SubsetChecks) {
  EXPECT_TRUE(is_subset(ItemSet{2, 4}, ItemSet{1, 2, 3, 4}));
  EXPECT_FALSE(is_subset(ItemSet{2, 5}, ItemSet{1, 2, 3, 4}));
  EXPECT_TRUE(is_subset(ItemSet{}, ItemSet{1}));
}

LabeledTree chain(std::uint32_t n) {
  LabeledTree t;
  t.parent.resize(n);
  t.label.resize(n);
  t.parent[0] = 0;
  for (std::uint32_t v = 1; v < n; ++v) t.parent[v] = v - 1;
  for (std::uint32_t v = 0; v < n; ++v) t.label[v] = v;
  return t;
}

TEST(Tree, ValidateAcceptsWellFormed) {
  const LabeledTree t = chain(5);
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.root(), 0u);
}

TEST(Tree, ValidateRejectsTwoRoots) {
  LabeledTree t = chain(4);
  t.parent[2] = 2;
  EXPECT_THROW(t.validate(), common::ConfigError);
}

TEST(Tree, ValidateRejectsCycle) {
  LabeledTree t = chain(4);
  t.parent[1] = 3;
  t.parent[3] = 1;  // 1 -> 3 -> 1 cycle, no path to root for 1,2,3
  EXPECT_THROW(t.validate(), common::ConfigError);
}

TEST(Tree, DepthsOnChain) {
  const auto d = node_depths(chain(4));
  EXPECT_EQ(d, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(Tree, LcaOnStar) {
  LabeledTree t;
  t.parent = {0, 0, 0, 0};
  t.label = {9, 8, 7, 6};
  const auto d = node_depths(t);
  EXPECT_EQ(lca(t, d, 1, 2), 0u);
  EXPECT_EQ(lca(t, d, 1, 1), 1u);
}

TEST(Tree, LcaOnDeepTree) {
  //      0
  //     / \.
  //    1   2
  //   / \   \.
  //  3   4   5
  LabeledTree t;
  t.parent = {0, 0, 0, 1, 1, 2};
  t.label = {0, 1, 2, 3, 4, 5};
  const auto d = node_depths(t);
  EXPECT_EQ(lca(t, d, 3, 4), 1u);
  EXPECT_EQ(lca(t, d, 3, 5), 0u);
  EXPECT_EQ(lca(t, d, 4, 2), 0u);
  EXPECT_EQ(lca(t, d, 3, 1), 1u);
}

TEST(Pivots, DeterministicAndLabelSensitive) {
  LabeledTree t = chain(8);
  const ItemSet a = tree_pivots(t);
  const ItemSet b = tree_pivots(t);
  EXPECT_EQ(a, b);
  t.label[3] = 777;  // different labels -> different pivots
  LabeledTree bushy;
  bushy.parent = {0, 0, 0, 1, 1, 2, 2};
  bushy.label = {1, 2, 3, 4, 5, 6, 7};
  EXPECT_NE(tree_pivots(bushy), a);
}

TEST(Pivots, SimilarTreesShareMorePivots) {
  // Two trees with identical shape+labels vs. one with disjoint labels.
  LabeledTree base;
  base.parent = {0, 0, 0, 1, 1, 2, 2};
  base.label = {1, 2, 3, 4, 5, 6, 7};
  LabeledTree same = base;
  LabeledTree different = base;
  for (auto& l : different.label) l += 1000;
  const ItemSet pa = tree_pivots(base);
  const ItemSet pb = tree_pivots(same);
  const ItemSet pc = tree_pivots(different);
  EXPECT_GT(jaccard(pa, pb), 0.99);
  EXPECT_LT(jaccard(pa, pc), 0.01);
}

TEST(Pivots, RespectsMaxPairsCap) {
  const LabeledTree t = chain(64);
  PivotConfig cfg;
  cfg.max_pairs = 5;
  cfg.edge_pivots = false;
  EXPECT_LE(tree_pivots(t, cfg).size(), 5u);
}

TEST(Pivots, SingleNodeTreeStillYieldsAnItem) {
  LabeledTree t;
  t.parent = {0};
  t.label = {42};
  EXPECT_EQ(tree_pivots(t).size(), 1u);
}

TEST(Graph, CsrFromEdgesSortsAndDedupes) {
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> edges{
      {0, 2}, {0, 1}, {0, 2}, {1, 0}};
  const Graph g(3, edges);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);  // duplicate (0,2) collapsed
  EXPECT_EQ(g.adjacency_pivots(0), (ItemSet{1, 2}));
  EXPECT_EQ(g.adjacency_pivots(2), ItemSet{});
  EXPECT_EQ(g.out_degree(1), 1u);
}

TEST(Graph, RejectsOutOfRange) {
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> edges{{0, 7}};
  EXPECT_THROW(Graph(3, edges), common::ConfigError);
}

TEST(PayloadCodec, TreeRoundTrip) {
  const LabeledTree t = chain(6);
  const LabeledTree back = decode_tree(encode_tree(t));
  EXPECT_EQ(back.parent, t.parent);
  EXPECT_EQ(back.label, t.label);
}

TEST(PayloadCodec, ItemsRoundTrip) {
  const ItemSet items{1, 5, 9, 1000000};
  EXPECT_EQ(decode_items(encode_items(items)), items);
  EXPECT_EQ(decode_items(encode_items({})), ItemSet{});
}

TEST(PayloadCodec, RejectsCorruptPayload) {
  std::string blob = encode_items({1, 2, 3});
  blob.resize(blob.size() - 2);
  EXPECT_THROW((void)decode_items(blob), common::StoreError);
}

TEST(Generators, TreeCorpusMatchesConfig) {
  TreeCorpusConfig cfg;
  cfg.num_trees = 100;
  cfg.min_nodes = 10;
  cfg.max_nodes = 20;
  const auto trees = generate_trees(cfg);
  ASSERT_EQ(trees.size(), 100u);
  for (const auto& t : trees) {
    EXPECT_GE(t.size(), 10u);
    EXPECT_LE(t.size(), 20u);
    EXPECT_NO_THROW(t.validate());
  }
}

TEST(Generators, TreeCorpusDeterministic) {
  const TreeCorpusConfig cfg = swissprot_like(0.05);
  const Dataset a = generate_tree_corpus(cfg);
  const Dataset b = generate_tree_corpus(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records[i].items, b.records[i].items);
    EXPECT_EQ(a.records[i].payload, b.records[i].payload);
  }
}

TEST(Generators, WebGraphHasRequestedShape) {
  WebGraphConfig cfg;
  cfg.num_vertices = 2000;
  cfg.mean_out_degree = 10.0;
  const Graph g = generate_webgraph(cfg);
  EXPECT_EQ(g.num_vertices(), 2000u);
  const double mean_deg =
      static_cast<double>(g.num_edges()) / g.num_vertices();
  EXPECT_GT(mean_deg, 4.0);
  EXPECT_LT(mean_deg, 20.0);
}

TEST(Generators, WebGraphCopyingCreatesSimilarNeighbours) {
  WebGraphConfig cfg;
  cfg.num_vertices = 3000;
  cfg.copy_prob = 0.85;
  cfg.seed = 5;
  const Graph g = generate_webgraph(cfg);
  // Average Jaccard of consecutive same-site vertices should far exceed
  // that of random cross-site pairs.
  common::Rng rng(1);
  double near = 0, far = 0;
  int pairs = 0;
  for (std::uint32_t v = 1; v < 1000; ++v) {
    const ItemSet a = g.adjacency_pivots(v);
    const ItemSet b = g.adjacency_pivots(v - 1);
    const std::uint32_t r = static_cast<std::uint32_t>(
        rng.bounded(g.num_vertices()));
    const ItemSet c = g.adjacency_pivots(r);
    if (a.empty() || b.empty()) continue;
    near += jaccard(a, b);
    far += jaccard(a, c);
    ++pairs;
  }
  ASSERT_GT(pairs, 100);
  EXPECT_GT(near / pairs, 2.0 * (far / pairs));
}

TEST(Generators, TextCorpusTopicalStructure) {
  TextCorpusConfig cfg;
  cfg.num_docs = 500;
  cfg.seed = 3;
  const Dataset ds = generate_text_corpus(cfg);
  EXPECT_EQ(ds.size(), 500u);
  EXPECT_EQ(ds.kind, DataKind::kDocument);
  EXPECT_EQ(ds.universe, cfg.vocab_size);
  for (const auto& r : ds.records) {
    EXPECT_FALSE(r.items.empty());
    // Items normalized: sorted unique.
    for (std::size_t i = 1; i < r.items.size(); ++i) {
      EXPECT_LT(r.items[i - 1], r.items[i]);
    }
    // Payload decodes back to the same set.
    EXPECT_EQ(decode_items(r.payload), r.items);
  }
}

TEST(Generators, DatasetAccountingConsistent) {
  const Dataset ds = generate_text_corpus(rcv1_like(0.02));
  std::uint64_t items = 0, bytes = 0;
  for (const auto& r : ds.records) {
    items += r.items.size();
    bytes += r.payload.size();
  }
  EXPECT_EQ(ds.total_items(), items);
  EXPECT_EQ(ds.total_payload_bytes(), bytes);
}

TEST(Generators, GraphDatasetRecordsAreVertices) {
  WebGraphConfig cfg;
  cfg.num_vertices = 500;
  const Graph g = generate_webgraph(cfg);
  const Dataset ds = make_graph_dataset("g", g);
  ASSERT_EQ(ds.size(), 500u);
  EXPECT_EQ(ds.records[42].items, g.adjacency_pivots(42));
  EXPECT_EQ(decode_items(ds.records[42].payload), g.adjacency_pivots(42));
}

TEST(Generators, PresetsScale) {
  EXPECT_EQ(generate_tree_corpus(swissprot_like(0.1)).size(), 150u);
  EXPECT_EQ(generate_text_corpus(rcv1_like(0.1)).size(), 600u);
}

}  // namespace
}  // namespace hetsim::data
