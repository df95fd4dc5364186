// Tests for the FREQT-style frequent subtree miner and the Eclat miner.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <span>

#include "common/error.h"
#include "common/rng.h"
#include "data/generators.h"
#include "mining/eclat.h"
#include "mining/fpgrowth.h"
#include "mining/treeminer.h"

namespace hetsim::mining {
namespace {

/// Tree builder from (parent, label) pairs; node 0 is the root.
data::LabeledTree make_tree(std::vector<std::uint32_t> parents,
                            std::vector<std::uint32_t> labels) {
  data::LabeledTree t;
  t.parent = std::move(parents);
  t.label = std::move(labels);
  t.validate();
  return t;
}

TreePattern pattern(std::vector<std::pair<std::uint32_t, std::uint32_t>> nodes) {
  TreePattern p;
  p.nodes = std::move(nodes);
  return p;
}

std::map<TreePattern, std::uint32_t> as_map(const TreeMiningResult& r) {
  std::map<TreePattern, std::uint32_t> m;
  for (const auto& f : r.frequent) m[f.pattern] = f.support;
  return m;
}

TEST(TreeMiner, SingleNodePatternsAreLabelSupports) {
  //  a(0) -> b, c ;  a(0) -> b  ;  c alone
  std::vector<data::LabeledTree> corpus{
      make_tree({0, 0, 0}, {1, 2, 3}),
      make_tree({0, 0}, {1, 2}),
      make_tree({0}, {3}),
  };
  const TreeMinerConfig cfg{.min_support = 0.01, .max_pattern_nodes = 1};
  const auto m = as_map(mine_subtrees(corpus, cfg));
  EXPECT_EQ(m.at(pattern({{0, 1}})), 2u);  // label 1 in trees 0,1
  EXPECT_EQ(m.at(pattern({{0, 2}})), 2u);
  EXPECT_EQ(m.at(pattern({{0, 3}})), 2u);  // trees 0 and 2
  EXPECT_EQ(m.size(), 3u);
}

TEST(TreeMiner, FindsPlantedChain) {
  // Every tree contains the chain 5 -> 6 -> 7 plus noise.
  std::vector<data::LabeledTree> corpus;
  common::Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    // nodes: 0 (label 5), 1 (6, child of 0), 2 (7, child of 1) + 3 noise
    std::vector<std::uint32_t> parents{0, 0, 1};
    std::vector<std::uint32_t> labels{5, 6, 7};
    for (int k = 0; k < 3; ++k) {
      parents.push_back(static_cast<std::uint32_t>(rng.bounded(parents.size())));
      labels.push_back(100 + static_cast<std::uint32_t>(rng.bounded(50)));
    }
    corpus.push_back(make_tree(std::move(parents), std::move(labels)));
  }
  const TreeMinerConfig cfg{.min_support = 0.9, .max_pattern_nodes = 3};
  const auto m = as_map(mine_subtrees(corpus, cfg));
  EXPECT_EQ(m.at(pattern({{0, 5}, {1, 6}, {2, 7}})), 20u);
  EXPECT_EQ(m.at(pattern({{0, 5}, {1, 6}})), 20u);
  EXPECT_EQ(m.at(pattern({{0, 6}, {1, 7}})), 20u);
}

TEST(TreeMiner, DistinguishesSiblingsFromChain) {
  // Tree A: root 1 with children 2,3 (siblings). Tree B: 1 -> 2 -> 3.
  std::vector<data::LabeledTree> corpus{
      make_tree({0, 0, 0}, {1, 2, 3}),
      make_tree({0, 0, 1}, {1, 2, 3}),
  };
  const TreeMinerConfig cfg{.min_support = 0.01, .max_pattern_nodes = 3};
  const auto m = as_map(mine_subtrees(corpus, cfg));
  // Sibling pattern (1 with children 2 and 3) only in tree A.
  EXPECT_EQ(m.at(pattern({{0, 1}, {1, 2}, {1, 3}})), 1u);
  // Chain pattern 1 -> 2 -> 3 only in tree B.
  EXPECT_EQ(m.at(pattern({{0, 1}, {1, 2}, {2, 3}})), 1u);
  // Pattern 1 -> 2 in both.
  EXPECT_EQ(m.at(pattern({{0, 1}, {1, 2}})), 2u);
}

TEST(TreeMiner, OrderedSemanticsRespectSiblingOrder) {
  // Node ids define sibling order. Tree A: children (label 2, label 3)
  // in that order; tree B: (3, 2). Induced *ordered* pattern 1(2,3)
  // occurs only in A.
  std::vector<data::LabeledTree> corpus{
      make_tree({0, 0, 0}, {1, 2, 3}),
      make_tree({0, 0, 0}, {1, 3, 2}),
  };
  const TreeMinerConfig cfg{.min_support = 0.01, .max_pattern_nodes = 3};
  const auto m = as_map(mine_subtrees(corpus, cfg));
  EXPECT_EQ(m.at(pattern({{0, 1}, {1, 2}, {1, 3}})), 1u);
  EXPECT_EQ(m.at(pattern({{0, 1}, {1, 3}, {1, 2}})), 1u);
}

TEST(TreeMiner, SupportIsAntiMonotone) {
  const auto trees = data::generate_trees(data::swissprot_like(0.05));
  const TreeMinerConfig cfg{.min_support = 0.05, .max_pattern_nodes = 3};
  const TreeMiningResult r = mine_subtrees(trees, cfg);
  ASSERT_FALSE(r.frequent.empty());
  std::map<TreePattern, std::uint32_t> m = as_map(r);
  for (const auto& f : r.frequent) {
    if (f.pattern.size() < 2) continue;
    // The prefix with the last node removed is also frequent, with
    // support at least as high.
    TreePattern prefix = f.pattern;
    prefix.nodes.pop_back();
    const auto it = m.find(prefix);
    ASSERT_NE(it, m.end()) << prefix.to_string();
    EXPECT_GE(it->second, f.support);
  }
}

TEST(TreeMiner, SupportsMatchContainsSubtree) {
  const auto trees = data::generate_trees(data::treebank_like(0.03));
  const TreeMinerConfig cfg{.min_support = 0.08, .max_pattern_nodes = 3};
  const TreeMiningResult r = mine_subtrees(trees, cfg);
  ASSERT_FALSE(r.frequent.empty());
  std::uint64_t ops = 0;
  for (const auto& f : r.frequent) {
    std::uint32_t count = 0;
    for (const auto& t : trees) {
      if (contains_subtree(t, f.pattern, ops)) ++count;
    }
    EXPECT_EQ(count, f.support) << f.pattern.to_string();
  }
}

TEST(TreeMiner, CountSubtreeSupportAgrees) {
  const auto trees = data::generate_trees(data::swissprot_like(0.03));
  const TreeMinerConfig cfg{.min_support = 0.1, .max_pattern_nodes = 2};
  const TreeMiningResult r = mine_subtrees(trees, cfg);
  std::vector<TreePattern> patterns;
  for (const auto& f : r.frequent) patterns.push_back(f.pattern);
  std::uint64_t ops = 0;
  const auto counts = count_subtree_support(trees, patterns, ops);
  ASSERT_EQ(counts.size(), patterns.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], r.frequent[i].support);
  }
  EXPECT_GT(ops, 0u);
}

// SupportCountingPinnedAcrossRewrite's expected values, captured from the
// implementation that materialised every rightmost extension per
// (tree, pattern) pair.
constexpr std::size_t kPinnedCandidates = 407;
constexpr std::uint64_t kPinnedWorkOps = 1481214;
constexpr std::uint64_t kPinnedSupportSum = 2474;
constexpr std::uint64_t kPinnedSupportFnv = 14487490268909765887ULL;

TEST(TreeMiner, SupportCountingPinnedAcrossRewrite) {
  // SON on a swissprot-like corpus: phase 1 mines 4 interleaved chunks
  // locally; phase 2 counts the union of their candidates over the whole
  // corpus. Metered work and supports must not drift from the pins.
  const auto trees = data::generate_trees(data::swissprot_like(0.05));
  constexpr std::size_t kChunks = 4;
  const TreeMinerConfig cfg{.min_support = 0.08, .max_pattern_nodes = 3};
  std::vector<TreePattern> candidates;
  for (std::size_t c = 0; c < kChunks; ++c) {
    std::vector<data::LabeledTree> chunk;
    for (std::size_t i = c; i < trees.size(); i += kChunks) {
      chunk.push_back(trees[i]);
    }
    for (auto& f : mine_subtrees(chunk, cfg).frequent) {
      candidates.push_back(std::move(f.pattern));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  // Two patterns no tree contains: a single node with an unused label, and
  // a present 2-node prefix grown by a leaf with that label.
  std::uint32_t absent = 0;
  for (const auto& t : trees) {
    for (const std::uint32_t l : t.label) absent = std::max(absent, l + 1);
  }
  const auto prefix = std::find_if(
      candidates.begin(), candidates.end(),
      [](const TreePattern& p) { return p.size() == 2; });
  ASSERT_NE(prefix, candidates.end());
  TreePattern grown = *prefix;
  grown.nodes.emplace_back(1, absent);
  candidates.push_back(pattern({{0, absent}}));
  candidates.push_back(std::move(grown));

  std::uint64_t ops = 0;
  const auto counts = count_subtree_support(trees, candidates, ops);
  ASSERT_EQ(counts.size(), candidates.size());
  EXPECT_EQ(counts[counts.size() - 2], 0u);
  EXPECT_EQ(counts.back(), 0u);

  std::uint64_t pair_ops = 0;
  for (std::size_t p = 0; p < candidates.size(); ++p) {
    std::uint32_t count = 0;
    for (const auto& t : trees) {
      if (contains_subtree(t, candidates[p], pair_ops)) ++count;
    }
    EXPECT_EQ(count, counts[p]) << candidates[p].to_string();
  }
  EXPECT_EQ(ops, pair_ops);

  std::uint64_t sum = 0;
  std::uint64_t fnv = 14695981039346656037ULL;  // FNV-1a over the counts
  for (const std::uint32_t c : counts) {
    sum += c;
    for (int byte = 0; byte < 4; ++byte) {
      fnv = (fnv ^ ((c >> (8 * byte)) & 0xFFU)) * 1099511628211ULL;
    }
  }
  EXPECT_EQ(candidates.size(), kPinnedCandidates);
  EXPECT_EQ(ops, kPinnedWorkOps);
  EXPECT_EQ(sum, kPinnedSupportSum);
  EXPECT_EQ(fnv, kPinnedSupportFnv);
}

/// FNV-1a over the little-endian bytes of `v`.
std::uint64_t fnv_u32(std::uint64_t h, std::uint32_t v) {
  for (int byte = 0; byte < 4; ++byte) {
    h = (h ^ ((v >> (8 * byte)) & 0xFFU)) * 1099511628211ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

/// SON phase 1 on `trees`: the sorted, deduplicated union of the
/// patterns mined from `chunks` interleaved chunks.
std::vector<TreePattern> chunked_union(
    const std::vector<data::LabeledTree>& trees, std::size_t chunks,
    const TreeMinerConfig& cfg) {
  std::vector<TreePattern> candidates;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<data::LabeledTree> chunk;
    for (std::size_t i = c; i < trees.size(); i += chunks) {
      chunk.push_back(trees[i]);
    }
    for (auto& f : mine_subtrees(chunk, cfg).frequent) {
      candidates.push_back(std::move(f.pattern));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

/// What mine_subtrees reports, reduced to four numbers.
struct MinePin {
  std::uint64_t work_ops = 0;
  std::uint64_t candidates = 0;
  std::size_t frequent = 0;
  std::uint64_t fnv = 0;  // over (size, nodes, support) per pattern

  bool operator==(const MinePin&) const = default;
};

void PrintTo(const MinePin& p, std::ostream* os) {
  *os << "{" << p.work_ops << ", " << p.candidates << ", " << p.frequent
      << ", " << p.fnv << "ULL}";
}

MinePin pin_of(const TreeMiningResult& r) {
  MinePin pin{r.work_ops, r.candidates_generated, r.frequent.size(),
              kFnvBasis};
  for (const auto& f : r.frequent) {
    pin.fnv = fnv_u32(pin.fnv, static_cast<std::uint32_t>(f.pattern.size()));
    for (const auto& [depth, label] : f.pattern.nodes) {
      pin.fnv = fnv_u32(fnv_u32(pin.fnv, depth), label);
    }
    pin.fnv = fnv_u32(pin.fnv, f.support);
  }
  return pin;
}

// MiningPinnedAcrossRewrite's expected values, captured from the miner
// that built a heap path per embedding and a std::map of lists per
// extension; one row per (corpus, min_support, max_pattern_nodes), in
// loop order.
constexpr MinePin kPinnedMining[] = {
    {6996, 2713, 247, 12423519338686049987ULL},
    {7985, 3108, 247, 12423519338686049987ULL},
    {7985, 3108, 247, 12423519338686049987ULL},
    {6706, 2450, 153, 5221934733310066902ULL},
    {6942, 2553, 153, 5221934733310066902ULL},
    {6942, 2553, 153, 5221934733310066902ULL},
    {4947, 1100, 30, 9718884252172970747ULL},
    {4947, 1100, 30, 9718884252172970747ULL},
    {4947, 1100, 30, 9718884252172970747ULL},
    {5078, 2374, 190, 13447182443566213903ULL},
    {5156, 2404, 190, 13447182443566213903ULL},
    {5156, 2404, 190, 13447182443566213903ULL},
    {4542, 1880, 88, 8039001663646363051ULL},
    {4542, 1880, 88, 8039001663646363051ULL},
    {4542, 1880, 88, 8039001663646363051ULL},
    {3641, 1108, 21, 2516501134735874484ULL},
    {3641, 1108, 21, 2516501134735874484ULL},
    {3641, 1108, 21, 2516501134735874484ULL},
};

TEST(TreeMiner, MiningPinnedAcrossRewrite) {
  const std::vector<std::vector<data::LabeledTree>> corpora{
      data::generate_trees(data::swissprot_like(0.05)),
      data::generate_trees(data::treebank_like(0.05)),
  };
  std::size_t row = 0;
  for (const auto& trees : corpora) {
    for (const double support : {0.05, 0.08, 0.2}) {
      for (const std::uint32_t nodes : {2U, 3U, 4U}) {
        const TreeMinerConfig cfg{.min_support = support,
                                  .max_pattern_nodes = nodes};
        const MinePin actual = pin_of(mine_subtrees(trees, cfg));
        ASSERT_LT(row, std::size(kPinnedMining));
        EXPECT_EQ(actual, kPinnedMining[row])
            << "row " << row << ": support " << support << ", nodes "
            << nodes;
        ++row;
      }
    }
  }
  EXPECT_EQ(row, std::size(kPinnedMining));
}

/// What count_subtree_support reports, reduced to three numbers.
struct CountPin {
  std::uint64_t work_ops = 0;
  std::size_t patterns = 0;
  std::uint64_t fnv = 0;  // over the counts, in the order given

  bool operator==(const CountPin&) const = default;
};

void PrintTo(const CountPin& p, std::ostream* os) {
  *os << "{" << p.work_ops << ", " << p.patterns << ", " << p.fnv << "ULL}";
}

CountPin count_pin(std::span<const data::LabeledTree> trees,
                   std::span<const TreePattern> patterns,
                   std::vector<std::uint32_t>& counts) {
  CountPin pin{0, patterns.size(), kFnvBasis};
  counts = count_subtree_support(trees, patterns, pin.work_ops);
  for (const std::uint32_t c : counts) pin.fnv = fnv_u32(pin.fnv, c);
  return pin;
}

// SupportCountingOverOpenCandidateSets' expected values, captured from
// the implementation that matched every (tree, pattern) pair from the
// root.
constexpr CountPin kPinnedOpen{858124, 237, 5487812003252792402ULL};
constexpr CountPin kPinnedShuffled{1031889, 285,
                                   13355126771938388687ULL};

TEST(TreeMiner, SupportCountingOverOpenCandidateSets) {
  // A candidate set need not be closed under prefixes: drop every 2-node
  // pattern from the SON union, so no 3-node candidate has its parent.
  const auto trees = data::generate_trees(data::swissprot_like(0.05));
  const TreeMinerConfig cfg{.min_support = 0.08, .max_pattern_nodes = 3};
  std::vector<TreePattern> open = chunked_union(trees, 4, cfg);
  std::erase_if(open, [](const TreePattern& p) { return p.size() == 2; });
  ASSERT_TRUE(std::any_of(open.begin(), open.end(), [](const auto& p) {
    return p.size() == 3;
  }));
  std::vector<std::uint32_t> counts;
  EXPECT_EQ(count_pin(trees, open, counts), kPinnedOpen);
  std::map<TreePattern, std::uint32_t> by_pattern;
  for (std::size_t i = 0; i < open.size(); ++i) by_pattern[open[i]] = counts[i];

  // The same set shuffled, with every fifth pattern repeated: each copy
  // is counted and charged on its own.
  std::vector<TreePattern> shuffled = open;
  for (std::size_t i = 0; i < open.size(); i += 5) {
    shuffled.push_back(open[i]);
  }
  common::Rng rng(21);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.bounded(i)]);
  }
  EXPECT_EQ(count_pin(trees, shuffled, counts), kPinnedShuffled);
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    EXPECT_EQ(counts[i], by_pattern.at(shuffled[i]))
        << shuffled[i].to_string();
  }

  // No trees: every count is zero and nothing is charged.
  EXPECT_EQ(count_pin({}, shuffled, counts),
            (CountPin{0, shuffled.size(), [&] {
                        std::uint64_t h = kFnvBasis;
                        for (std::size_t i = 0; i < shuffled.size(); ++i) {
                          h = fnv_u32(h, 0);
                        }
                        return h;
                      }()}));
  EXPECT_TRUE(std::all_of(counts.begin(), counts.end(),
                          [](std::uint32_t c) { return c == 0; }));
}

TEST(TreeMiner, RejectsMalformedDepths) {
  // Each depth after the root must be in [1, previous depth + 1].
  const std::vector<data::LabeledTree> corpus{make_tree({0, 0}, {1, 2})};
  std::uint64_t ops = 0;
  for (const TreePattern& bad : {pattern({{0, 1}, {2, 2}}),
                                 pattern({{0, 1}, {1, 2}, {0, 2}}),
                                 pattern({{1, 1}})}) {
    EXPECT_THROW((void)contains_subtree(corpus[0], bad, ops),
                 common::ConfigError)
        << bad.to_string();
    // Checked before any tree is read, so an empty corpus throws too.
    const std::vector<TreePattern> patterns{pattern({{0, 1}}), bad};
    EXPECT_THROW((void)count_subtree_support({}, patterns, ops),
                 common::ConfigError)
        << bad.to_string();
  }
  EXPECT_EQ(ops, 0u);
}

TEST(TreeMiner, MaxNodesCapsPatternSize) {
  const auto trees = data::generate_trees(data::swissprot_like(0.03));
  const TreeMinerConfig cfg{.min_support = 0.05, .max_pattern_nodes = 2};
  for (const auto& f : mine_subtrees(trees, cfg).frequent) {
    EXPECT_LE(f.pattern.size(), 2u);
  }
}

TEST(TreeMiner, EmptyAndInvalidInputs) {
  EXPECT_TRUE(mine_subtrees({}, {}).frequent.empty());
  const TreeMinerConfig bad{.min_support = 0.0};
  std::vector<data::LabeledTree> corpus{make_tree({0}, {1})};
  EXPECT_THROW((void)mine_subtrees(corpus, bad), common::ConfigError);
  std::uint64_t ops = 0;
  EXPECT_THROW((void)contains_subtree(corpus[0], TreePattern{}, ops),
               common::ConfigError);
  // Patterns are checked before the tree loop, so an empty corpus too.
  const std::vector<TreePattern> malformed{TreePattern{}};
  EXPECT_THROW((void)count_subtree_support({}, malformed, ops),
               common::ConfigError);
}

TEST(TreeMiner, DeterministicOutputOrder) {
  const auto trees = data::generate_trees(data::swissprot_like(0.03));
  const TreeMinerConfig cfg{.min_support = 0.08, .max_pattern_nodes = 3};
  const auto a = mine_subtrees(trees, cfg);
  const auto b = mine_subtrees(trees, cfg);
  ASSERT_EQ(a.frequent.size(), b.frequent.size());
  for (std::size_t i = 0; i < a.frequent.size(); ++i) {
    EXPECT_EQ(a.frequent[i].pattern, b.frequent[i].pattern);
    EXPECT_EQ(a.frequent[i].support, b.frequent[i].support);
  }
}

// ---- Eclat vs Apriori -------------------------------------------------------

TEST(Eclat, MatchesAprioriOnTextCorpus) {
  const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.05));
  std::vector<data::ItemSet> txns;
  for (const auto& r : ds.records) txns.push_back(r.items);
  const AprioriConfig cfg{.min_support = 0.08, .max_pattern_length = 3};
  const MiningResult a = apriori(txns, cfg);
  const MiningResult e = eclat(txns, cfg);
  ASSERT_EQ(a.frequent.size(), e.frequent.size());
  for (std::size_t i = 0; i < a.frequent.size(); ++i) {
    EXPECT_EQ(a.frequent[i].items, e.frequent[i].items);
    EXPECT_EQ(a.frequent[i].support, e.frequent[i].support);
  }
}

TEST(Eclat, MatchesAprioriAcrossSupports) {
  common::Rng rng(91);
  std::vector<data::ItemSet> txns;
  for (int i = 0; i < 300; ++i) {
    data::ItemSet t;
    const std::size_t len = 2 + rng.bounded(8);
    for (std::size_t j = 0; j < len; ++j) {
      t.push_back(static_cast<data::Item>(rng.zipf(30, 1.1)));
    }
    data::normalize(t);
    txns.push_back(std::move(t));
  }
  for (const double support : {0.02, 0.05, 0.1, 0.3}) {
    const AprioriConfig cfg{.min_support = support, .max_pattern_length = 4};
    const MiningResult a = apriori(txns, cfg);
    const MiningResult e = eclat(txns, cfg);
    ASSERT_EQ(a.frequent.size(), e.frequent.size()) << "support " << support;
    for (std::size_t i = 0; i < a.frequent.size(); ++i) {
      EXPECT_EQ(a.frequent[i].items, e.frequent[i].items);
      EXPECT_EQ(a.frequent[i].support, e.frequent[i].support);
    }
  }
}

TEST(Eclat, EmptyInputAndCaps) {
  EXPECT_TRUE(eclat({}, {}).frequent.empty());
  std::vector<data::ItemSet> txns(10, data::ItemSet{1, 2, 3});
  const AprioriConfig cfg{.min_support = 1.0, .max_pattern_length = 2};
  for (const auto& p : eclat(txns, cfg).frequent) {
    EXPECT_LE(p.items.size(), 2u);
  }
}

// ---- FP-Growth vs the other miners ------------------------------------------

TEST(FpGrowth, MatchesAprioriOnTextCorpus) {
  const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.05));
  std::vector<data::ItemSet> txns;
  for (const auto& r : ds.records) txns.push_back(r.items);
  const AprioriConfig cfg{.min_support = 0.08, .max_pattern_length = 3};
  const MiningResult a = apriori(txns, cfg);
  const MiningResult f = fpgrowth(txns, cfg);
  ASSERT_EQ(a.frequent.size(), f.frequent.size());
  for (std::size_t i = 0; i < a.frequent.size(); ++i) {
    EXPECT_EQ(a.frequent[i].items, f.frequent[i].items);
    EXPECT_EQ(a.frequent[i].support, f.frequent[i].support);
  }
}

TEST(FpGrowth, ThreeMinersAgreeOnRandomData) {
  common::Rng rng(123);
  std::vector<data::ItemSet> txns;
  for (int i = 0; i < 250; ++i) {
    data::ItemSet t;
    const std::size_t len = 2 + rng.bounded(7);
    for (std::size_t j = 0; j < len; ++j) {
      t.push_back(static_cast<data::Item>(rng.zipf(25, 1.0)));
    }
    data::normalize(t);
    txns.push_back(std::move(t));
  }
  for (const double support : {0.03, 0.08, 0.2}) {
    const AprioriConfig cfg{.min_support = support, .max_pattern_length = 4};
    const MiningResult a = apriori(txns, cfg);
    const MiningResult e = eclat(txns, cfg);
    const MiningResult f = fpgrowth(txns, cfg);
    ASSERT_EQ(a.frequent.size(), f.frequent.size()) << "support " << support;
    ASSERT_EQ(e.frequent.size(), f.frequent.size()) << "support " << support;
    for (std::size_t i = 0; i < a.frequent.size(); ++i) {
      EXPECT_EQ(a.frequent[i].items, f.frequent[i].items);
      EXPECT_EQ(a.frequent[i].support, f.frequent[i].support);
    }
  }
}

TEST(FpGrowth, TextbookExampleSupports) {
  // Same toy basket as the Apriori test; check a few supports directly.
  const std::vector<data::ItemSet> txns{
      {1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3}, {2, 3}, {1, 3},
      {1, 2, 3, 5}, {1, 2, 3},
  };
  const AprioriConfig cfg{.min_support = 2.0 / 9.0, .max_pattern_length = 3};
  const MiningResult f = fpgrowth(txns, cfg);
  std::map<data::ItemSet, std::uint32_t> m;
  for (const auto& p : f.frequent) m[p.items] = p.support;
  EXPECT_EQ(m.at({2}), 7u);
  EXPECT_EQ(m.at({1, 2}), 4u);
  EXPECT_EQ(m.at({1, 2, 5}), 2u);
  EXPECT_EQ(m.size(), 13u);
}

TEST(FpGrowth, EmptyInputAndCaps) {
  EXPECT_TRUE(fpgrowth({}, {}).frequent.empty());
  std::vector<data::ItemSet> txns(10, data::ItemSet{1, 2, 3});
  const AprioriConfig cfg{.min_support = 1.0, .max_pattern_length = 2};
  for (const auto& p : fpgrowth(txns, cfg).frequent) {
    EXPECT_LE(p.items.size(), 2u);
  }
  EXPECT_THROW((void)fpgrowth(txns, AprioriConfig{.min_support = 0.0}),
               common::ConfigError);
}

TEST(Eclat, MetersWork) {
  std::vector<data::ItemSet> txns(50, data::ItemSet{1, 2, 3, 4});
  const AprioriConfig cfg{.min_support = 0.5, .max_pattern_length = 4};
  const MiningResult r = eclat(txns, cfg);
  EXPECT_GT(r.work_ops, 0u);
  EXPECT_GT(r.candidates_generated, 0u);
}

}  // namespace
}  // namespace hetsim::mining
