// Tests for minhash sketching and compositeKModes stratification,
// including the statistical property the whole pipeline rests on:
// sketch match fraction estimates Jaccard similarity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "data/generators.h"
#include "sketch/minhash.h"
#include "stratify/kmodes.h"
#include "stratify/sampler.h"

namespace hetsim {
namespace {

using data::ItemSet;
using sketch::MinHasher;
using sketch::Sketch;
using sketch::SketchConfig;

TEST(MinHash, DeterministicForSeed) {
  const MinHasher a(SketchConfig{.num_hashes = 16, .seed = 5});
  const MinHasher b(SketchConfig{.num_hashes = 16, .seed = 5});
  const ItemSet s{1, 2, 3, 100};
  EXPECT_EQ(a.sketch(s), b.sketch(s));
}

TEST(MinHash, DifferentSeedsGiveDifferentPermutations) {
  const MinHasher a(SketchConfig{.num_hashes = 16, .seed = 5});
  const MinHasher b(SketchConfig{.num_hashes = 16, .seed = 6});
  const ItemSet s{1, 2, 3, 100};
  EXPECT_NE(a.sketch(s), b.sketch(s));
}

TEST(MinHash, IdenticalSetsMatchPerfectly) {
  const MinHasher h(SketchConfig{.num_hashes = 32});
  const ItemSet s{4, 8, 15, 16, 23, 42};
  EXPECT_DOUBLE_EQ(MinHasher::estimate_jaccard(h.sketch(s), h.sketch(s)), 1.0);
}

TEST(MinHash, EmptySetsSketchToSentinel) {
  const MinHasher h(SketchConfig{.num_hashes = 8});
  const Sketch s = h.sketch(ItemSet{});
  for (const auto v : s) EXPECT_EQ(v, MinHasher::kEmptySentinel);
  EXPECT_DOUBLE_EQ(MinHasher::estimate_jaccard(s, h.sketch(ItemSet{})), 1.0);
}

TEST(MinHash, SketchIsOrderOfMagnitudeSmaller) {
  ItemSet big;
  for (std::uint32_t i = 0; i < 10000; ++i) big.push_back(i * 7);
  const MinHasher h(SketchConfig{.num_hashes = 64});
  EXPECT_EQ(h.sketch(big).size(), 64u);
}

/// Property: E[match fraction] = Jaccard. Checked across controlled
/// overlap levels with tolerance ~3 standard errors.
TEST(MinHash, EstimatesJaccardUnbiased) {
  constexpr std::uint32_t kHashes = 256;
  const MinHasher h(SketchConfig{.num_hashes = kHashes, .seed = 11});
  for (const double target : {0.1, 0.3, 0.5, 0.8}) {
    // Build sets with |a∩b|/|a∪b| == target: union size 1000.
    const std::size_t inter = static_cast<std::size_t>(1000 * target);
    const std::size_t only = (1000 - inter) / 2;
    ItemSet a, b;
    std::uint32_t next = 0;
    for (std::size_t i = 0; i < inter; ++i) {
      a.push_back(next);
      b.push_back(next);
      ++next;
    }
    for (std::size_t i = 0; i < only; ++i) a.push_back(next++);
    for (std::size_t i = 0; i < only; ++i) b.push_back(next++);
    const double truth = data::jaccard(a, b);
    const double est = MinHasher::estimate_jaccard(h.sketch(a), h.sketch(b));
    const double stderr3 = 3.0 * std::sqrt(truth * (1 - truth) / kHashes);
    EXPECT_NEAR(est, truth, stderr3 + 0.02) << "target " << target;
  }
}

TEST(MinHash, MoreHashesReduceError) {
  common::Rng rng(3);
  ItemSet a, b;
  for (std::uint32_t i = 0; i < 400; ++i) {
    a.push_back(i);
    b.push_back(i + 200);  // Jaccard = 200/600
  }
  const double truth = data::jaccard(a, b);
  double err_small = 0, err_large = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const MinHasher hs(SketchConfig{.num_hashes = 16, .seed = seed});
    const MinHasher hl(SketchConfig{.num_hashes = 256, .seed = seed});
    err_small += std::abs(
        MinHasher::estimate_jaccard(hs.sketch(a), hs.sketch(b)) - truth);
    err_large += std::abs(
        MinHasher::estimate_jaccard(hl.sketch(a), hl.sketch(b)) - truth);
  }
  EXPECT_LT(err_large, err_small);
}

TEST(MinHash, PermuteStaysBelowPrime) {
  const MinHasher h(SketchConfig{.num_hashes = 4, .seed = 9});
  constexpr std::uint64_t kPrime = (1ULL << 61) - 1;
  for (std::uint32_t j = 0; j < 4; ++j) {
    for (std::uint32_t x = 0; x < 1000; x += 13) {
      EXPECT_LT(h.permute(j, x), kPrime);
    }
  }
}

TEST(MinHash, SingletonSketchEqualsPermute) {
  // sketch({x})[j] is the min over one element, i.e. exactly permute(j, x)
  // — pins the sketch kernel to the shared permutation helper, so the
  // unrolled batch path can never drift from the reference arithmetic.
  const MinHasher h(SketchConfig{.num_hashes = 24, .seed = 13});
  for (const data::Item x : {0U, 1U, 97U, 50021U}) {
    const Sketch s = h.sketch(std::vector<data::Item>{x});
    ASSERT_EQ(s.size(), 24U);
    for (std::uint32_t j = 0; j < 24; ++j) {
      EXPECT_EQ(s[j], h.permute(j, x)) << "item " << x << " hash " << j;
    }
  }
}

TEST(MinHash, UnrolledTailMatchesAllLengths) {
  // Exercise every remainder of the 4-wide unroll (lengths 1..9): each
  // sketch component must equal the plain min over permute().
  const MinHasher h(SketchConfig{.num_hashes = 8, .seed = 29});
  ItemSet items;
  for (std::uint32_t len = 1; len <= 9; ++len) {
    items.push_back(len * 131);
    const Sketch s = h.sketch(items);
    for (std::uint32_t j = 0; j < 8; ++j) {
      std::uint64_t want = MinHasher::kEmptySentinel;
      for (const data::Item x : items) want = std::min(want, h.permute(j, x));
      EXPECT_EQ(s[j], want) << "len " << len << " hash " << j;
    }
  }
}

TEST(MinHash, RejectsMismatchedSketches) {
  const MinHasher h(SketchConfig{.num_hashes = 4});
  const MinHasher h8(SketchConfig{.num_hashes = 8});
  const ItemSet one{1};
  EXPECT_THROW((void)MinHasher::estimate_jaccard(h.sketch(one), h8.sketch(one)),
               common::ConfigError);
}

// ---- stratification -------------------------------------------------------

/// Build sketches from a corpus with clear latent topics.
std::vector<Sketch> topical_sketches(std::size_t docs, std::uint32_t topics,
                                     std::vector<std::uint32_t>* truth) {
  data::TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.num_topics = topics;
  cfg.topic_word_prob = 0.95;  // crisp topics
  cfg.topic_skew = 0.0;
  cfg.seed = 21;
  const data::Dataset ds = data::generate_text_corpus(cfg);
  if (truth) {
    // Recover the dominant topic range per document as ground truth.
    const std::uint32_t background = cfg.vocab_size / 4;
    const std::uint32_t per_topic = (cfg.vocab_size - background) / topics;
    truth->clear();
    for (const auto& r : ds.records) {
      std::map<std::uint32_t, int> votes;
      for (const auto item : r.items) {
        if (item >= background) ++votes[(item - background) / per_topic];
      }
      std::uint32_t best = 0;
      int best_votes = -1;
      for (const auto& [topic, v] : votes) {
        if (v > best_votes) {
          best_votes = v;
          best = topic;
        }
      }
      truth->push_back(best);
    }
  }
  const MinHasher h(SketchConfig{.num_hashes = 48, .seed = 31});
  return h.sketch_all(ds.records);
}

TEST(KModes, AssignsEveryPoint) {
  const auto sketches = topical_sketches(300, 4, nullptr);
  stratify::KModesConfig cfg;
  cfg.num_strata = 8;
  const auto strat = stratify::composite_kmodes(sketches, cfg);
  EXPECT_EQ(strat.assignment.size(), 300u);
  EXPECT_EQ(strat.num_strata, 8u);
  std::size_t total = 0;
  for (const auto s : strat.stratum_sizes) total += s;
  EXPECT_EQ(total, 300u);
  for (const auto a : strat.assignment) EXPECT_LT(a, 8u);
}

TEST(KModes, DeterministicForSeed) {
  const auto sketches = topical_sketches(200, 4, nullptr);
  stratify::KModesConfig cfg;
  cfg.num_strata = 6;
  const auto a = stratify::composite_kmodes(sketches, cfg);
  const auto b = stratify::composite_kmodes(sketches, cfg);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(KModes, RecoversLatentTopics) {
  std::vector<std::uint32_t> truth;
  const auto sketches = topical_sketches(400, 4, &truth);
  stratify::KModesConfig cfg;
  cfg.num_strata = 4;
  cfg.composite_l = 4;
  cfg.max_iterations = 30;
  const auto strat = stratify::composite_kmodes(sketches, cfg);
  // Purity: majority true topic per stratum should dominate.
  std::size_t correct = 0;
  for (std::uint32_t c = 0; c < strat.num_strata; ++c) {
    std::map<std::uint32_t, std::size_t> votes;
    for (std::size_t i = 0; i < truth.size(); ++i) {
      if (strat.assignment[i] == c) ++votes[truth[i]];
    }
    std::size_t best = 0;
    for (const auto& [topic, v] : votes) best = std::max(best, v);
    correct += best;
  }
  const double purity = static_cast<double>(correct) / truth.size();
  EXPECT_GT(purity, 0.7);
}

TEST(KModes, CompositeLReducesZeroMatches) {
  const auto sketches = topical_sketches(400, 8, nullptr);
  stratify::KModesConfig l1;
  l1.num_strata = 8;
  l1.composite_l = 1;
  stratify::KModesConfig l4 = l1;
  l4.composite_l = 4;
  const auto strat1 = stratify::composite_kmodes(sketches, l1);
  const auto strat4 = stratify::composite_kmodes(sketches, l4);
  EXPECT_LE(strat4.zero_match_assignments, strat1.zero_match_assignments);
}

TEST(KModes, FewerPointsThanStrataShrinksK) {
  const auto sketches = topical_sketches(3, 2, nullptr);
  stratify::KModesConfig cfg;
  cfg.num_strata = 10;
  const auto strat = stratify::composite_kmodes(sketches, cfg);
  EXPECT_EQ(strat.num_strata, 3u);
}

TEST(KModes, TieBreakKeepsLowestCenterIndex) {
  // With all-identical sketches every center is seeded from the same
  // point, so every point ties on every center with a full score. The
  // documented tie-break contract (kmodes.h) — strict `score > best`
  // over ascending center ids — must collapse the assignment to center
  // 0. A parallel assignment step that scanned centers in any other
  // order (or used >=) would silently scatter the points.
  const std::vector<Sketch> sketches(6, Sketch{11, 22, 33});
  stratify::KModesConfig cfg;
  cfg.num_strata = 3;
  const auto strat = stratify::composite_kmodes(sketches, cfg);
  ASSERT_EQ(strat.num_strata, 3u);
  for (const auto a : strat.assignment) EXPECT_EQ(a, 0u);
  EXPECT_EQ(strat.stratum_sizes[0], 6u);
  // Full score: every attribute of every point matched center 0.
  EXPECT_EQ(strat.objective, 6u * 3u);
  EXPECT_EQ(strat.zero_match_assignments, 0u);
}

TEST(KModes, TieBreakStableAcrossThreadCounts) {
  const std::vector<Sketch> sketches(64, Sketch{7, 7, 7, 7});
  for (const std::uint32_t threads : {1u, 4u}) {
    par::ThreadPool pool(threads);
    stratify::KModesConfig cfg;
    cfg.num_strata = 4;
    cfg.par = {.pool = &pool};
    const auto strat = stratify::composite_kmodes(sketches, cfg);
    for (const auto a : strat.assignment) {
      EXPECT_EQ(a, 0u) << "threads " << threads;
    }
  }
}

TEST(KModes, RejectsRaggedInput) {
  std::vector<Sketch> bad{{1, 2}, {1}};
  EXPECT_THROW((void)stratify::composite_kmodes(bad, {}), common::ConfigError);
}

TEST(KModes, RejectsZeroIterations) {
  // With no iteration nothing assigns the points, so there is no
  // stratification to report.
  const std::vector<Sketch> sketches(4, Sketch{1, 2});
  stratify::KModesConfig cfg;
  cfg.max_iterations = 0;
  EXPECT_THROW((void)stratify::composite_kmodes(sketches, cfg),
               common::ConfigError);
}

TEST(KModes, AcceptsCompositeLAboveAnyCenterSize) {
  // An L above every attribute's distinct count keeps every member value
  // in its center; UINT32_MAX must behave like any other such L.
  const auto sketches = topical_sketches(120, 3, nullptr);
  stratify::KModesConfig wide;
  wide.num_strata = 3;
  wide.composite_l = 70000;
  stratify::KModesConfig all = wide;
  all.composite_l = UINT32_MAX;
  const auto a = stratify::composite_kmodes(sketches, wide);
  const auto b = stratify::composite_kmodes(sketches, all);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.work_ops, b.work_ops);
  EXPECT_EQ(a.objective, b.objective);
}

// ---- compositeKModes pinning grid ------------------------------------------

struct PinnedSolve {
  std::uint64_t assignment_hash = 0;
  std::uint64_t work_ops = 0;
  std::uint64_t objective = 0;
  std::uint64_t zero_match = 0;
  std::uint32_t iterations = 0;

  bool operator==(const PinnedSolve&) const = default;
};

void PrintTo(const PinnedSolve& p, std::ostream* os) {
  *os << "{0x" << std::hex << p.assignment_hash << std::dec << "ULL, "
      << p.work_ops << "ULL, " << p.objective << ", " << p.zero_match << ", "
      << p.iterations << "}";
}

PinnedSolve pinned_solve(const std::vector<Sketch>& sketches,
                         std::uint32_t strata, std::uint32_t l,
                         std::uint64_t seed, par::ThreadPool& pool) {
  stratify::KModesConfig cfg;
  cfg.num_strata = strata;
  cfg.composite_l = l;
  cfg.seed = seed;
  cfg.par = {.pool = &pool};
  const auto s = stratify::composite_kmodes(sketches, cfg);
  const std::string_view bytes(
      reinterpret_cast<const char*>(s.assignment.data()),
      s.assignment.size() * sizeof(std::uint32_t));
  return {common::hash_bytes(bytes), s.work_ops, s.objective,
          s.zero_match_assignments, s.iterations};
}

/// The three job corpora at reduced scale, sketched with the job's
/// default 64 hashes.
std::vector<std::vector<Sketch>> pinned_corpora() {
  const MinHasher h(SketchConfig{});
  std::vector<std::vector<Sketch>> out;
  out.push_back(h.sketch_all(
      data::generate_graph_corpus(data::uk_like(0.05), "webgraph").records));
  out.push_back(h.sketch_all(
      data::generate_text_corpus(data::rcv1_like(0.2), "rcv1").records));
  out.push_back(h.sketch_all(
      data::generate_tree_corpus(data::swissprot_like(0.5), "trees").records));
  return out;
}

/// 70,000 points over three attributes. With `wide`, attribute 0 holds a
/// distinct value per point (more than 16-bit codes can number);
/// otherwise every attribute draws from a small alphabet. Attributes 1
/// and 2 follow a latent group, so the clustering has structure.
std::vector<Sketch> many_point_sketches(bool wide) {
  common::Rng rng(41);
  std::vector<Sketch> out(70000);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t group = i % 8;
    out[i] = {wide ? (i * 0x9E3779B97F4A7C15ULL) >> 3 : rng.bounded(900),
              group * 100 + rng.bounded(4), group * 1000 + rng.bounded(30)};
  }
  return out;
}

// KModes.PinnedAcrossDictionaryRewrite's expected values, captured from
// the implementation that scored points by binary search over a sorted
// center index and counted each stratum's values in a hash table. Grid
// order: corpus (graph, text, tree) x strata x L x seed.
constexpr PinnedSolve kPinnedSolves[] = {
    {0xc165de1cd6b9c26aULL, 4071600ULL, 9925, 134, 11},
    {0xee03f2ec5b2f9deULL, 3674400ULL, 9281, 155, 10},
    {0x3c707e042d4d8503ULL, 6871200ULL, 18274, 46, 8},
    {0x2db639c9f05ef22bULL, 4908000ULL, 17885, 54, 6},
    {0x90b0315bea0c0032ULL, 9138000ULL, 23483, 29, 7},
    {0x10713427b3bc933aULL, 13816800ULL, 23915, 35, 10},
    {0xe88bd264553c0eb2ULL, 13024800ULL, 18059, 43, 11},
    {0xbdd84f03a88b8cb6ULL, 15480000ULL, 17836, 38, 13},
    {0x1cfebb6cb755311bULL, 36634800ULL, 32173, 17, 12},
    {0xc566899035d7d1abULL, 27705600ULL, 32635, 18, 9},
    {0xe2e878af06cfacddULL, 58572000ULL, 41280, 5, 12},
    {0x3eb592016975d1ebULL, 38004000ULL, 41169, 8, 8},
    {0x99d9eaeb1b07e50cULL, 26740800ULL, 28595, 12, 7},
    {0x1d01b62e256d4b56ULL, 41557200ULL, 28351, 11, 11},
    {0x8f58aa17e5b448deULL, 115963200ULL, 48395, 2, 13},
    {0x71722cfb4b389314ULL, 51158400ULL, 48353, 2, 6},
    {0x5365ff561780132eULL, 97477200ULL, 58236, 0, 8},
    {0x6633a36e0ebf0daULL, 100136400ULL, 58803, 1, 8},
    {0x519521be3d57981aULL, 4375200ULL, 10636, 31, 13},
    {0x9ea73953d67a3e68ULL, 3408000ULL, 10266, 43, 10},
    {0xcb03b087859a1f89ULL, 8931600ULL, 18602, 11, 11},
    {0x3780383f25515ea6ULL, 6334800ULL, 18431, 17, 8},
    {0xff9d16ea4b1bd83cULL, 9745200ULL, 24050, 8, 8},
    {0x2ccc3cc511f53f11ULL, 9854400ULL, 23419, 10, 8},
    {0xefb5499205273a4cULL, 12985200ULL, 16568, 6, 13},
    {0xc89e9b25462d64c5ULL, 16767600ULL, 16613, 11, 16},
    {0xf8d9a38bd894be47ULL, 31207200ULL, 27475, 4, 12},
    {0xe3ae65e461aa29feULL, 35491200ULL, 27849, 1, 13},
    {0x2bc460dbcd493b85ULL, 54405600ULL, 33617, 3, 13},
    {0x543459f91dca1da1ULL, 56736000ULL, 34362, 1, 13},
    {0xc21f25f6480f9d67ULL, 36655200ULL, 20928, 2, 12},
    {0x51e1fd5fb7f7772cULL, 27969600ULL, 21043, 2, 9},
    {0xd0ce90fea47a3ebaULL, 46222800ULL, 35025, 0, 6},
    {0xfb691affc58c7309ULL, 45900000ULL, 35202, 0, 6},
    {0xa3a1adb2c0315c4ULL, 126994800ULL, 44393, 0, 10},
    {0xbf6a8b81f19c7953ULL, 56937600ULL, 44083, 0, 5},
    {0x9d47bb69ed73dcacULL, 2018250ULL, 2786, 76, 9},
    {0xfa7424c9c6127017ULL, 2059500ULL, 2875, 67, 9},
    {0x7d11bd254fef766ULL, 4881750ULL, 5856, 8, 9},
    {0x9d1b2163f2644cb9ULL, 3777000ULL, 6001, 6, 7},
    {0x389336e2ea8cdf31ULL, 7684500ULL, 7908, 3, 9},
    {0xbd4e7c09474b1a5dULL, 4897500ULL, 8121, 2, 6},
    {0xf9424dcba0e5b97ULL, 5064750ULL, 4583, 7, 7},
    {0x40e10f0b3ff53d19ULL, 5835000ULL, 4535, 12, 8},
    {0x6200a4d0504b9fe8ULL, 16440000ULL, 9042, 0, 9},
    {0xb7062eacb59bae87ULL, 8736750ULL, 8854, 0, 5},
    {0x346f081869b3dbaeULL, 13447500ULL, 11883, 0, 5},
    {0xe9b0b5da724fe91dULL, 16934250ULL, 11813, 0, 6},
    {0x6321b26b935ed870ULL, 15959250ULL, 7575, 0, 6},
    {0x9af9f22168d68e39ULL, 15660750ULL, 7483, 0, 6},
    {0x30426f6592732191ULL, 17211000ULL, 16260, 0, 3},
    {0x652eebc6de98fca0ULL, 16952250ULL, 16122, 0, 3},
    {0x742509b4f1a8c971ULL, 14077500ULL, 23135, 0, 2},
    {0xbd6e4b5787414452ULL, 13980750ULL, 23074, 0, 2},
};
// The 70,000-point cases: a column wider than 16-bit codes, then one
// where every column fits them.
constexpr PinnedSolve kPinnedManyPoints[] = {
    {0x78f69861dc07c8a8ULL, 8960000ULL, 29130, 42326, 4},
    {0x25e7cc9962864881ULL, 8960000ULL, 29964, 41901, 4},
};

TEST(KModes, PinnedAcrossDictionaryRewrite) {
  // Assignments, metered work, objective, fallbacks and iterations must
  // not drift from the pins at any pool width.
  const std::vector<std::vector<Sketch>> corpora = pinned_corpora();
  par::ThreadPool one(1);
  par::ThreadPool four(4);
  std::vector<PinnedSolve> solves;
  for (const auto& sketches : corpora) {
    for (const std::uint32_t strata : {4u, 16u, 64u}) {
      for (const std::uint32_t l : {1u, 3u, 5u}) {
        for (const std::uint64_t seed : {23u, 7u}) {
          const PinnedSolve serial =
              pinned_solve(sketches, strata, l, seed, one);
          EXPECT_EQ(pinned_solve(sketches, strata, l, seed, four), serial)
              << "strata=" << strata << " l=" << l << " seed=" << seed;
          solves.push_back(serial);
        }
      }
    }
  }
  ASSERT_EQ(solves.size(), std::size(kPinnedSolves));
  for (std::size_t i = 0; i < solves.size(); ++i) {
    EXPECT_EQ(solves[i], kPinnedSolves[i]) << "grid case " << i;
  }
  for (const bool wide : {true, false}) {
    const std::vector<Sketch> sketches = many_point_sketches(wide);
    const PinnedSolve serial = pinned_solve(sketches, 4, 3, 23, one);
    EXPECT_EQ(pinned_solve(sketches, 4, 3, 23, four), serial);
    EXPECT_EQ(serial, kPinnedManyPoints[wide ? 0 : 1]) << "wide=" << wide;
  }
}

// ---- compositeKModes against a full-rescore oracle -------------------------

/// compositeKModes as the model states it, with no encoding, postings or
/// deltas: every iteration rescores every point against every center
/// over raw values, keeps the lowest center on ties, places zero-match
/// points by hash, and rebuilds the centers of the strata a point
/// entered or left from their members' top-L values (count desc, value
/// asc). `work_ops` is metered as compositeKModes documents it.
stratify::Stratification reference_kmodes(const std::vector<Sketch>& points,
                                          const stratify::KModesConfig& cfg) {
  const std::size_t n = points.size();
  const std::size_t k_attr = points.front().size();
  const auto num_strata =
      std::min<std::uint32_t>(cfg.num_strata, static_cast<std::uint32_t>(n));
  stratify::Stratification out;
  out.num_strata = num_strata;
  common::Rng rng(cfg.seed);
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(order[i], order[i + rng.bounded(n - i)]);
  }
  // centers[c][j] = the values attribute j of center c holds.
  std::vector<std::vector<std::set<std::uint64_t>>> centers(
      num_strata, std::vector<std::set<std::uint64_t>>(k_attr));
  for (std::uint32_t c = 0; c < num_strata; ++c) {
    for (std::size_t j = 0; j < k_attr; ++j) {
      centers[c][j] = {points[order[c]][j]};
    }
  }
  std::vector<std::uint32_t> assignment(n, UINT32_MAX);
  for (std::uint32_t iter = 0; iter < cfg.max_iterations; ++iter) {
    out.iterations = iter + 1;
    // holders[j][v] = the centers whose attribute j holds value v.
    std::vector<std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>>
        holders(k_attr);
    std::uint64_t values_per_point = 0;
    for (std::size_t j = 0; j < k_attr; ++j) {
      for (std::uint32_t c = 0; c < num_strata; ++c) {
        for (const std::uint64_t v : centers[c][j]) holders[j][v].push_back(c);
      }
      values_per_point += holders[j].size();
    }
    out.work_ops += n * values_per_point;
    out.objective = 0;
    out.zero_match_assignments = 0;
    std::vector<std::uint32_t> next(n);
    std::vector<std::uint64_t> score(num_strata);
    for (std::size_t i = 0; i < n; ++i) {
      std::fill(score.begin(), score.end(), 0);
      for (std::size_t j = 0; j < k_attr; ++j) {
        const auto it = holders[j].find(points[i][j]);
        if (it == holders[j].end()) continue;
        for (const std::uint32_t c : it->second) ++score[c];
      }
      std::uint32_t best_c = 0;
      std::uint64_t best_score = 0;
      for (std::uint32_t c = 0; c < num_strata; ++c) {
        if (score[c] > best_score) {
          best_score = score[c];
          best_c = c;
        }
      }
      if (best_score == 0) {
        best_c = static_cast<std::uint32_t>(common::hash_u64(i) % num_strata);
        ++out.zero_match_assignments;
      }
      out.objective += best_score;
      next[i] = best_c;
    }
    std::vector<bool> refresh(num_strata, false);
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (next[i] == assignment[i]) continue;
      changed = true;
      refresh[next[i]] = true;
      if (assignment[i] != UINT32_MAX) refresh[assignment[i]] = true;
    }
    assignment = next;
    if (!changed) break;
    out.work_ops += n * k_attr;
    std::vector<std::vector<std::size_t>> members(num_strata);
    for (std::size_t i = 0; i < n; ++i) members[assignment[i]].push_back(i);
    for (std::uint32_t c = 0; c < num_strata; ++c) {
      // An emptied stratum keeps its center.
      if (!refresh[c] || members[c].empty()) continue;
      for (std::size_t j = 0; j < k_attr; ++j) {
        std::map<std::uint64_t, std::uint64_t> counts;
        for (const std::size_t i : members[c]) ++counts[points[i][j]];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> ranked(
            counts.begin(), counts.end());  // (value, count), value asc
        std::stable_sort(
            ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
        centers[c][j].clear();
        for (std::size_t t = 0; t < ranked.size() && t < cfg.composite_l; ++t) {
          centers[c][j].insert(ranked[t].first);
        }
      }
    }
  }
  out.assignment = assignment;
  out.stratum_sizes.assign(num_strata, 0);
  for (const std::uint32_t c : assignment) ++out.stratum_sizes[c];
  return out;
}

/// Random sketches over eight latent groups. Each value is, by weight,
/// one of its group's `alphabet` typical values for that attribute,
/// one of a shared noise pool, or unique to the point.
std::vector<Sketch> random_sketches(std::size_t n, std::size_t k_attr,
                                    std::uint64_t alphabet,
                                    std::uint32_t typical_pct,
                                    std::uint32_t unique_pct,
                                    std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Sketch> out(n, Sketch(k_attr));
  for (Sketch& s : out) {
    const std::uint64_t group = rng.bounded(8);
    for (std::size_t j = 0; j < k_attr; ++j) {
      const std::uint64_t r = rng.bounded(100);
      if (r < typical_pct) {
        s[j] = (group << 40) + (j << 20) + rng.bounded(alphabet);
      } else if (r < typical_pct + unique_pct) {
        s[j] = rng() | (1ULL << 63);
      } else {
        s[j] = (9ULL << 40) + rng.bounded(4 * alphabet);
      }
    }
  }
  return out;
}

/// One random input of the oracle grid and the (strata, L) pairs to
/// solve it with.
struct OracleInput {
  std::size_t n;
  std::size_t k_attr;
  std::uint64_t alphabet;
  std::uint32_t typical_pct;
  std::uint32_t unique_pct;
  std::vector<std::uint32_t> strata;
  std::vector<std::uint32_t> ls;
};

/// What an oracle grid exercised, so a test can insist it is not vacuous.
struct OracleCoverage {
  std::size_t multi_iteration = 0;  // solves of three or more iterations
  std::size_t with_fallbacks = 0;   // solves with zero-match points
  std::size_t above_255 = 0;        // solves whose mean score tops 255
};

/// Solve every grid case at pool widths 1 and 4 and compare each result
/// field for field with reference_kmodes.
OracleCoverage check_against_oracle(const std::vector<OracleInput>& inputs,
                                    std::uint64_t seed) {
  par::ThreadPool one(1);
  par::ThreadPool four(4);
  OracleCoverage seen;
  for (const OracleInput& input : inputs) {
    const std::vector<Sketch> sketches =
        random_sketches(input.n, input.k_attr, input.alphabet,
                        input.typical_pct, input.unique_pct, seed++);
    for (const std::uint32_t strata : input.strata) {
      for (const std::uint32_t l : input.ls) {
        stratify::KModesConfig cfg;
        cfg.num_strata = strata;
        cfg.composite_l = l;
        cfg.seed = seed;
        const stratify::Stratification want = reference_kmodes(sketches, cfg);
        for (par::ThreadPool* pool : {&one, &four}) {
          cfg.par = {.pool = pool};
          const stratify::Stratification got =
              stratify::composite_kmodes(sketches, cfg);
          const std::string label =
              "n=" + std::to_string(input.n) +
              " attrs=" + std::to_string(input.k_attr) +
              " strata=" + std::to_string(strata) + " l=" + std::to_string(l) +
              " lanes=" + std::to_string(pool->num_threads());
          EXPECT_EQ(got.assignment, want.assignment) << label;
          EXPECT_EQ(got.stratum_sizes, want.stratum_sizes) << label;
          EXPECT_EQ(got.objective, want.objective) << label;
          EXPECT_EQ(got.zero_match_assignments, want.zero_match_assignments)
              << label;
          EXPECT_EQ(got.iterations, want.iterations) << label;
          EXPECT_EQ(got.work_ops, want.work_ops) << label;
        }
        seen.multi_iteration += want.iterations >= 3 ? 1 : 0;
        seen.with_fallbacks += want.zero_match_assignments > 0 ? 1 : 0;
        seen.above_255 += want.objective > 255 * input.n ? 1 : 0;
      }
    }
  }
  return seen;
}

TEST(KModes, MatchesFullRescoreOracleNarrowPoints) {
  // 16-bit point ids; one and 64 attributes; every strata count and L.
  const OracleCoverage seen = check_against_oracle(
      {{1500, 1, 4, 70, 10, {1, 3, 16, 64}, {1, 3, 5}},
       {1000, 64, 6, 55, 15, {1, 3, 16, 64}, {1, 3, 5}}},
      100);
  EXPECT_GE(seen.multi_iteration, 12u);
  EXPECT_GE(seen.with_fallbacks, 12u);
}

TEST(KModes, MatchesFullRescoreOracleWideScores) {
  // 300 attributes over a one-value group alphabet: scores pass 255, so
  // an 8-bit score row would wrap.
  const OracleCoverage seen =
      check_against_oracle({{400, 300, 1, 92, 3, {3, 16}, {1, 3}}}, 200);
  EXPECT_GE(seen.above_255, 3u);
}

TEST(KModes, MatchesFullRescoreOracleWidePoints) {
  // 32-bit point ids: 70,000 points, then one column of mostly unique
  // values that 16-bit codes cannot number.
  const OracleCoverage seen = check_against_oracle(
      {{70000, 3, 4, 60, 20, {3, 16}, {3}},
       {70000, 1, 4, 3, 96, {64}, {1, 5}}},
      300);
  EXPECT_GE(seen.multi_iteration, 2u);
  EXPECT_GE(seen.with_fallbacks, 2u);
}

// ---- stratified sampling ---------------------------------------------------

stratify::Stratification fake_strat(std::vector<std::uint32_t> assignment,
                                    std::uint32_t k) {
  stratify::Stratification s;
  s.assignment = std::move(assignment);
  s.num_strata = k;
  s.stratum_sizes.assign(k, 0);
  for (const auto a : s.assignment) ++s.stratum_sizes[a];
  return s;
}

TEST(Sampler, ProportionalAllocationAcrossStrata) {
  // 60 in stratum 0, 30 in stratum 1, 10 in stratum 2.
  std::vector<std::uint32_t> assignment;
  for (int i = 0; i < 60; ++i) assignment.push_back(0);
  for (int i = 0; i < 30; ++i) assignment.push_back(1);
  for (int i = 0; i < 10; ++i) assignment.push_back(2);
  const auto strat = fake_strat(std::move(assignment), 3);
  common::Rng rng(17);
  const auto sample = stratify::stratified_sample(strat, 20, rng);
  EXPECT_EQ(sample.size(), 20u);
  std::vector<int> by_stratum(3, 0);
  for (const auto i : sample) ++by_stratum[strat.assignment[i]];
  EXPECT_EQ(by_stratum[0], 12);
  EXPECT_EQ(by_stratum[1], 6);
  EXPECT_EQ(by_stratum[2], 2);
}

TEST(Sampler, SampleHasNoDuplicates) {
  const auto strat = fake_strat(std::vector<std::uint32_t>(100, 0), 1);
  common::Rng rng(19);
  const auto sample = stratify::stratified_sample(strat, 50, rng);
  std::set<std::uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(Sampler, OversizedRequestClampsToPopulation) {
  const auto strat = fake_strat({0, 0, 1}, 2);
  common::Rng rng(23);
  EXPECT_EQ(stratify::stratified_sample(strat, 100, rng).size(), 3u);
}

TEST(Sampler, StrataOrderGroupsByStratum) {
  const auto strat = fake_strat({1, 0, 1, 0, 2}, 3);
  const auto order = stratify::strata_order(strat);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 0, 2, 4}));
}

TEST(Sampler, StrataMembersPartitionTheIndexSpace) {
  const auto strat = fake_strat({2, 0, 1, 2, 1, 0}, 3);
  const auto members = stratify::strata_members(strat);
  EXPECT_EQ(members[0], (std::vector<std::uint32_t>{1, 5}));
  EXPECT_EQ(members[1], (std::vector<std::uint32_t>{2, 4}));
  EXPECT_EQ(members[2], (std::vector<std::uint32_t>{0, 3}));
}

}  // namespace
}  // namespace hetsim
