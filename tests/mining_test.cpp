// Tests for Apriori and the SON distributed mining algorithm, including
// a brute-force cross-check of Apriori's output and SON's completeness
// guarantee (union of local frequents superset of global frequents).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>

#include "check/check.h"
#include "common/error.h"
#include "common/rng.h"
#include "data/generators.h"
#include "mining/apriori.h"
#include "mining/son.h"

namespace hetsim::mining {
namespace {

using data::ItemSet;

std::vector<ItemSet> classic_market_basket() {
  // Agrawal-style toy transactions.
  return {
      {1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3}, {2, 3}, {1, 3},
      {1, 2, 3, 5}, {1, 2, 3},
  };
}

std::map<ItemSet, std::uint32_t> as_map(const std::vector<Pattern>& patterns) {
  std::map<ItemSet, std::uint32_t> m;
  for (const auto& p : patterns) m[p.items] = p.support;
  return m;
}

TEST(Apriori, TextbookExample) {
  AprioriConfig cfg;
  cfg.min_support = 2.0 / 9.0;  // absolute support 2
  const MiningResult r = apriori(classic_market_basket(), cfg);
  const auto m = as_map(r.frequent);
  // Known frequent itemsets at support 2 (from the Apriori paper walk).
  EXPECT_EQ(m.at({1}), 6u);
  EXPECT_EQ(m.at({2}), 7u);
  EXPECT_EQ(m.at({3}), 6u);
  EXPECT_EQ(m.at({4}), 2u);
  EXPECT_EQ(m.at({5}), 2u);
  EXPECT_EQ(m.at({1, 2}), 4u);
  EXPECT_EQ(m.at({1, 3}), 4u);
  EXPECT_EQ(m.at({2, 3}), 4u);
  EXPECT_EQ(m.at({1, 5}), 2u);
  EXPECT_EQ(m.at({2, 5}), 2u);
  EXPECT_EQ(m.at({2, 4}), 2u);
  EXPECT_EQ(m.at({1, 2, 3}), 2u);
  EXPECT_EQ(m.at({1, 2, 5}), 2u);
  EXPECT_EQ(m.count({3, 5}), 0u);  // support 1, must be absent
  EXPECT_EQ(m.size(), 13u);
}

/// Brute force: count every subset up to length 3 directly.
std::map<ItemSet, std::uint32_t> brute_force(const std::vector<ItemSet>& txns,
                                             std::uint32_t min_count,
                                             std::size_t max_len) {
  std::map<ItemSet, std::uint32_t> counts;
  for (const auto& t : txns) {
    const std::size_t n = t.size();
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[{t[i]}];
      if (max_len < 2) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        ++counts[{t[i], t[j]}];
        if (max_len < 3) continue;
        for (std::size_t k = j + 1; k < n; ++k) {
          ++counts[{t[i], t[j], t[k]}];
        }
      }
    }
  }
  std::map<ItemSet, std::uint32_t> frequent;
  for (const auto& [items, c] : counts) {
    if (c >= min_count) frequent[items] = c;
  }
  return frequent;
}

TEST(Apriori, MatchesBruteForceOnRandomData) {
  common::Rng rng(77);
  std::vector<ItemSet> txns;
  for (int i = 0; i < 200; ++i) {
    ItemSet t;
    const std::size_t len = 2 + rng.bounded(6);
    for (std::size_t j = 0; j < len; ++j) {
      t.push_back(static_cast<data::Item>(rng.zipf(20, 1.0)));
    }
    data::normalize(t);
    txns.push_back(std::move(t));
  }
  AprioriConfig cfg;
  cfg.min_support = 0.05;  // absolute 10
  cfg.max_pattern_length = 3;
  const MiningResult r = apriori(txns, cfg);
  const auto expected = brute_force(txns, 10, 3);
  EXPECT_EQ(as_map(r.frequent), expected);
}

TEST(Apriori, SupportsAreExact) {
  const auto txns = classic_market_basket();
  AprioriConfig cfg;
  cfg.min_support = 1.0 / 9.0;
  const MiningResult r = apriori(txns, cfg);
  std::uint64_t ops = 0;
  for (const auto& p : r.frequent) {
    const std::vector<ItemSet> single{p.items};
    const auto counts = count_support(txns, single, ops);
    EXPECT_EQ(counts[0], p.support) << "pattern size " << p.items.size();
  }
}

TEST(Apriori, EmptyInputYieldsNothing) {
  const MiningResult r = apriori({}, {});
  EXPECT_TRUE(r.frequent.empty());
}

TEST(Apriori, FullSupportFindsUniversalItems) {
  std::vector<ItemSet> txns(10, ItemSet{1, 2});
  AprioriConfig cfg;
  cfg.min_support = 1.0;
  const MiningResult r = apriori(txns, cfg);
  const auto m = as_map(r.frequent);
  EXPECT_EQ(m.at({1}), 10u);
  EXPECT_EQ(m.at({1, 2}), 10u);
}

TEST(Apriori, MaxPatternLengthCaps) {
  std::vector<ItemSet> txns(10, ItemSet{1, 2, 3, 4});
  AprioriConfig cfg;
  cfg.min_support = 1.0;
  cfg.max_pattern_length = 2;
  const MiningResult r = apriori(txns, cfg);
  for (const auto& p : r.frequent) EXPECT_LE(p.items.size(), 2u);
}

TEST(Apriori, WorkGrowsWithLowerSupport) {
  const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.02));
  std::vector<ItemSet> txns;
  for (const auto& rec : ds.records) txns.push_back(rec.items);
  AprioriConfig high;
  high.min_support = 0.2;
  AprioriConfig low;
  low.min_support = 0.05;
  const MiningResult rh = apriori(txns, high);
  const MiningResult rl = apriori(txns, low);
  EXPECT_GT(rl.work_ops, rh.work_ops);
  EXPECT_GE(rl.frequent.size(), rh.frequent.size());
}

TEST(Apriori, RejectsBadConfig) {
  AprioriConfig bad;
  bad.min_support = 0.0;
  EXPECT_THROW((void)apriori(classic_market_basket(), bad),
               common::ConfigError);
}

TEST(CountSupport, CountsSubsetContainment) {
  const auto txns = classic_market_basket();
  std::uint64_t ops = 0;
  const std::vector<ItemSet> candidates{{1}, {1, 2}, {9}};
  const auto counts = count_support(txns, candidates, ops);
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{6, 4, 0}));
  EXPECT_EQ(ops, txns.size() * candidates.size());
}

// ---- vertical-bitset edge cases --------------------------------------------

/// Support of `needle` by direct containment tests.
std::uint32_t direct_support(const std::vector<ItemSet>& txns,
                             const ItemSet& needle) {
  std::uint32_t n = 0;
  for (const auto& t : txns) n += data::is_subset(needle, t) ? 1u : 0u;
  return n;
}

/// `count` random transactions over items 0..11, every seventh one empty,
/// and the last holding item 40 alone (a bit in the final tid word).
std::vector<ItemSet> boundary_transactions(std::size_t count) {
  common::Rng rng(count);
  std::vector<ItemSet> txns;
  for (std::size_t i = 0; i + 1 < count; ++i) {
    ItemSet t;
    if (i % 7 != 3) {
      const std::size_t len = 1 + rng.bounded(6);
      for (std::size_t j = 0; j < len; ++j) {
        t.push_back(static_cast<data::Item>(rng.zipf(12, 0.8)));
      }
    }
    data::normalize(t);
    txns.push_back(std::move(t));
  }
  txns.push_back({40});
  return txns;
}

TEST(CountSupport, TidWordBoundaries) {
  for (const std::size_t n : {63u, 64u, 65u, 128u}) {
    SCOPED_TRACE(::testing::Message() << n << " transactions");
    const auto txns = boundary_transactions(n);
    std::vector<ItemSet> candidates{{}, {40}, {99}, {1, 99}};
    for (data::Item a = 0; a < 12; ++a) {
      candidates.push_back({a});
      for (data::Item b = a + 1; b < 12; ++b) {
        candidates.push_back({a, b});
        if (b + 1 < 12) candidates.push_back({a, b, b + 1});
      }
    }
    std::uint64_t ops = 0;
    const auto counts = count_support(txns, candidates, ops);
    EXPECT_EQ(ops, n * candidates.size());
    ASSERT_EQ(counts.size(), candidates.size());
    // The empty candidate is in every transaction, empty ones included;
    // an item no transaction holds is in none.
    EXPECT_EQ(counts[0], n);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 0u);
    EXPECT_EQ(counts[3], 0u);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      EXPECT_EQ(counts[c], direct_support(txns, candidates[c])) << c;
    }
  }
}

TEST(CountSupport, NoTransactionsCountsNothing) {
  std::uint64_t ops = 0;
  const std::vector<ItemSet> candidates{{}, {1}, {1, 2}};
  const auto counts = count_support({}, candidates, ops);
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{0, 0, 0}));
  EXPECT_EQ(ops, 0u);
}

TEST(Apriori, TidWordBoundariesMatchBruteForce) {
  for (const std::size_t n : {63u, 64u, 65u, 128u}) {
    SCOPED_TRACE(::testing::Message() << n << " transactions");
    const auto txns = boundary_transactions(n);
    // min_count 1 keeps the lone item in the final transaction.
    const MiningResult r = apriori(txns, {1.0 / 128.0, 3});
    EXPECT_EQ(as_map(r.frequent), brute_force(txns, 1, 3));
    EXPECT_EQ(as_map(r.frequent).at({40}), 1u);
    const MiningResult r4 = apriori(txns, {0.1, 3});
    const auto min_count = static_cast<std::uint32_t>(
        std::ceil(0.1 * static_cast<double>(n)));
    EXPECT_EQ(as_map(r4.frequent), brute_force(txns, min_count, 3));
  }
}

TEST(Apriori, LengthOneCountsItemsOnly) {
  const auto txns = boundary_transactions(65);
  const MiningResult r = apriori(txns, {0.1, 1});
  std::uint64_t occurrences = 0;
  std::set<data::Item> distinct;
  for (const auto& t : txns) {
    occurrences += t.size();
    distinct.insert(t.begin(), t.end());
  }
  EXPECT_EQ(r.work_ops, occurrences);
  EXPECT_EQ(r.candidates_generated, distinct.size());
  EXPECT_EQ(as_map(r.frequent), brute_force(txns, 7, 1));
}

TEST(Apriori, FullSupportOnIdenticalTransactionsFindsEverySubset) {
  const std::vector<ItemSet> txns(65, ItemSet{2, 5, 9, 11});
  const MiningResult r = apriori(txns, {1.0, 4});
  ASSERT_EQ(r.frequent.size(), 15u);  // every non-empty subset
  for (const auto& p : r.frequent) EXPECT_EQ(p.support, 65u);
  EXPECT_EQ(r.frequent.back().items, (ItemSet{2, 5, 9, 11}));
}

#if HETSIM_DCHECK_ENABLED
TEST(AprioriDeathTest, UnsortedTransactionsViolateTheContract) {
  const std::vector<ItemSet> unsorted{{1, 2}, {3, 1}};
  std::uint64_t ops = 0;
  const std::vector<ItemSet> candidates{{1, 3}};
  EXPECT_DEATH((void)apriori(unsorted, {0.5, 2}), "unsorted transaction");
  EXPECT_DEATH((void)count_support(unsorted, candidates, ops),
               "unsorted transaction");
  const std::vector<ItemSet> repeated{{2, 2}};
  EXPECT_DEATH((void)apriori(repeated, {0.5, 2}), "unsorted transaction");
}
#endif

// ---- counting pinned across the vertical-bitset rewrite --------------------

const std::vector<ItemSet>& rcv1_documents() {
  static const std::vector<ItemSet> docs = [] {
    std::vector<ItemSet> out;
    for (auto& rec :
         data::generate_text_corpus(data::rcv1_like(1.0)).records) {
      out.push_back(std::move(rec.items));
    }
    return out;
  }();
  return docs;
}

/// FNV-1a over 32-bit words.
struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 4; ++byte) {
      h = (h ^ ((v >> (8 * byte)) & 0xFFU)) * 1099511628211ULL;
    }
  }
};

std::uint64_t patterns_fnv(const std::vector<Pattern>& patterns) {
  Fnv fnv;
  for (const Pattern& p : patterns) {
    fnv.add(p.items.size());
    for (const data::Item it : p.items) fnv.add(it);
    fnv.add(p.support);
  }
  return fnv.h;
}

struct PinnedRun {
  std::size_t docs;
  double support;
  std::uint32_t max_len;
  std::uint64_t work_ops;
  std::uint64_t candidates;
  std::size_t frequent;
  std::uint64_t fnv;
};

// Apriori.CountingPinnedAcrossRewrite's expected values, captured from the
// implementation that counted every level by hashing k-subset probes.
constexpr PinnedRun kPinnedRuns[] = {
    {40, 0.05, 1, 1977, 1356, 287, 7558706867085857765ULL},
    {40, 0.05, 2, 58753, 42397, 3886, 6422567302074132747ULL},
    {40, 0.05, 3, 460503, 69987, 29418, 3603320673477204015ULL},
    {40, 0.05, 4, 3186692, 210229, 169567, 1232068660450705315ULL},
    {40, 0.08, 1, 1977, 1356, 64, 4189837116515018744ULL},
    {40, 0.08, 2, 6914, 3372, 273, 15509597045583571406ULL},
    {40, 0.08, 3, 15814, 3749, 575, 5849465507138770268ULL},
    {40, 0.08, 4, 24731, 4024, 827, 4819815302069842792ULL},
    {40, 0.2, 1, 1977, 1356, 13, 16505331473309187378ULL},
    {40, 0.2, 2, 2475, 1434, 26, 1992294615515673811ULL},
    {40, 0.2, 3, 2635, 1442, 30, 11097994512564242480ULL},
    {40, 0.2, 4, 2642, 1442, 30, 11097994512564242480ULL},
    {120, 0.05, 1, 5628, 3020, 129, 1287321242106627942ULL},
    {120, 0.05, 2, 27791, 11276, 734, 11627389336521761433ULL},
    {120, 0.05, 3, 96749, 13154, 1892, 12922679559686590160ULL},
    {120, 0.05, 4, 195522, 14494, 3109, 12847824461970636360ULL},
    {120, 0.08, 1, 5628, 3020, 51, 6424625171936114068ULL},
    {120, 0.08, 2, 11974, 4295, 173, 15242126499632675334ULL},
    {120, 0.08, 3, 20859, 4475, 246, 17954654043663546568ULL},
    {120, 0.08, 4, 22806, 4495, 265, 1586100081357434033ULL},
    {120, 0.2, 1, 5628, 3020, 11, 10766458801041193853ULL},
    {120, 0.2, 2, 6553, 3075, 17, 16763435524894558512ULL},
    {120, 0.2, 3, 6726, 3079, 18, 2044156571412293629ULL},
    {120, 0.2, 4, 6726, 3079, 18, 2044156571412293629ULL},
    {300, 0.05, 1, 13683, 5394, 97, 4831111613994340823ULL},
    {300, 0.05, 2, 41262, 10050, 473, 6312983860194671867ULL},
    {300, 0.05, 3, 124241, 11016, 1011, 3577629743512439025ULL},
    {300, 0.05, 4, 203126, 11480, 1343, 2312675911840260734ULL},
    {300, 0.08, 1, 13683, 5394, 44, 2029753393635729250ULL},
    {300, 0.08, 2, 24979, 6340, 145, 16528726496284138336ULL},
    {300, 0.08, 3, 41034, 6490, 219, 15493952788752192223ULL},
    {300, 0.08, 4, 46693, 6519, 232, 11085584405105476017ULL},
    {300, 0.2, 1, 13683, 5394, 9, 13771058949490068298ULL},
    {300, 0.2, 2, 15435, 5430, 16, 14783799511787816281ULL},
    {300, 0.2, 3, 15667, 5432, 17, 12594645642659980099ULL},
    {300, 0.2, 4, 15667, 5432, 17, 12594645642659980099ULL},
    {750, 0.05, 1, 33808, 8849, 86, 16538216704219688431ULL},
    {750, 0.05, 2, 85399, 12504, 376, 4210821262272575926ULL},
    {750, 0.05, 3, 219153, 13161, 714, 3236235383416474248ULL},
    {750, 0.05, 4, 314331, 13416, 895, 8341812463128252208ULL},
    {750, 0.08, 1, 33808, 8849, 40, 6405277454234141389ULL},
    {750, 0.08, 2, 56779, 9629, 123, 2884033365240919809ULL},
    {750, 0.08, 3, 84532, 9762, 185, 14879634236833965033ULL},
    {750, 0.08, 4, 94171, 9789, 199, 16929558455664085657ULL},
    {750, 0.2, 1, 33808, 8849, 9, 5529775444317657344ULL},
    {750, 0.2, 2, 38102, 8885, 16, 4061051591016970575ULL},
    {750, 0.2, 3, 38617, 8887, 17, 11056902397183461356ULL},
    {750, 0.2, 4, 38617, 8887, 17, 11056902397183461356ULL},
    {6000, 0.05, 3, 1413221, 19392, 659, 11900045850960358151ULL},
    {6000, 0.08, 3, 554795, 16120, 160, 7994357506507156353ULL},
    {6000, 0.2, 3, 280113, 15417, 14, 8251124974248715442ULL},
};
constexpr std::size_t kPinnedUnionCandidates = 1436;
constexpr std::uint64_t kPinnedUnionOps = 8616000;
constexpr std::uint64_t kPinnedUnionCountsFnv = 14229230978493956151ULL;
constexpr std::uint64_t kPinnedTieWorkOps = 276;

TEST(Apriori, CountingPinnedAcrossRewrite) {
  // Slices of the rcv1-like corpus over the support × length grid, then
  // the whole corpus at length <= 3. Metered work, candidate counts and
  // the (items, support) list must not drift from the pins.
  const std::vector<ItemSet>& docs = rcv1_documents();
  std::vector<PinnedRun> runs;
  for (const std::size_t n : {40u, 120u, 300u, 750u}) {
    const std::span<const ItemSet> slice(docs.data(), n);
    for (const double support : {0.05, 0.08, 0.2}) {
      for (std::uint32_t len = 1; len <= 4; ++len) {
        const MiningResult r = apriori(slice, {support, len});
        runs.push_back({n, support, len, r.work_ops, r.candidates_generated,
                        r.frequent.size(), patterns_fnv(r.frequent)});
      }
    }
  }
  for (const double support : {0.05, 0.08, 0.2}) {
    const MiningResult r = apriori(docs, {support, 3});
    runs.push_back({docs.size(), support, 3, r.work_ops,
                    r.candidates_generated, r.frequent.size(),
                    patterns_fnv(r.frequent)});
  }
  ASSERT_EQ(runs.size(), std::size(kPinnedRuns));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const PinnedRun& got = runs[i];
    const PinnedRun& want = kPinnedRuns[i];
    SCOPED_TRACE(::testing::Message() << "docs=" << got.docs << " support="
                                      << got.support << " len=" << got.max_len);
    EXPECT_EQ(got.docs, want.docs);
    EXPECT_EQ(got.support, want.support);
    EXPECT_EQ(got.max_len, want.max_len);
    EXPECT_EQ(got.work_ops, want.work_ops);
    EXPECT_EQ(got.candidates, want.candidates);
    EXPECT_EQ(got.frequent, want.frequent);
    EXPECT_EQ(got.fnv, want.fnv);
  }

  // SON phase 2: the union of 8 interleaved chunks' local results,
  // counted over the whole corpus.
  constexpr std::size_t kChunks = 8;
  const AprioriConfig cfg{.min_support = 0.05, .max_pattern_length = 3};
  std::vector<MiningResult> locals;
  for (std::size_t c = 0; c < kChunks; ++c) {
    std::vector<ItemSet> chunk;
    for (std::size_t i = c; i < docs.size(); i += kChunks) {
      chunk.push_back(docs[i]);
    }
    locals.push_back(apriori(chunk, cfg));
  }
  const std::vector<ItemSet> candidates = candidate_union(locals);
  std::uint64_t ops = 0;
  const auto counts = count_support(docs, candidates, ops);
  ASSERT_EQ(counts.size(), candidates.size());
  Fnv fnv;
  for (const std::uint32_t c : counts) fnv.add(c);
  EXPECT_EQ(candidates.size(), kPinnedUnionCandidates);
  EXPECT_EQ(ops, kPinnedUnionOps);
  EXPECT_EQ(fnv.h, kPinnedUnionCountsFnv);

  // A tie at the probe threshold: disjoint item groups of 5, 4, 3 and 3
  // give 16 level-3 candidates, so the 4-item transactions have
  // f^k == 64 == 4C exactly, which is charged as enumeration.
  std::vector<ItemSet> tie;
  for (int copy = 0; copy < 2; ++copy) {
    tie.push_back({1, 2, 3, 4, 5});
    tie.push_back({11, 12, 13, 14});
    tie.push_back({21, 22, 23});
    tie.push_back({31, 32, 33});
  }
  const MiningResult t =
      apriori(tie, {.min_support = 0.25, .max_pattern_length = 3});
  EXPECT_EQ(t.candidates_generated, 15u + 105u + 16u);
  EXPECT_EQ(t.work_ops, kPinnedTieWorkOps);
}

// ---- SON -------------------------------------------------------------------

std::vector<std::vector<ItemSet>> split(const std::vector<ItemSet>& txns,
                                        std::size_t parts) {
  std::vector<std::vector<ItemSet>> out(parts);
  for (std::size_t i = 0; i < txns.size(); ++i) {
    out[i % parts].push_back(txns[i]);
  }
  return out;
}

TEST(Son, MatchesSingleMachineApriori) {
  const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.02));
  std::vector<ItemSet> txns;
  for (const auto& rec : ds.records) txns.push_back(rec.items);
  AprioriConfig cfg;
  cfg.min_support = 0.08;
  cfg.max_pattern_length = 3;
  const MiningResult direct = apriori(txns, cfg);
  for (const std::size_t parts : {2u, 4u, 8u}) {
    const auto partitions = split(txns, parts);
    const SonResult son = son_mine(partitions, cfg);
    EXPECT_EQ(as_map(son.frequent), as_map(direct.frequent))
        << parts << " partitions";
  }
}

TEST(Son, CompletenessUnionCoversGlobal) {
  const auto txns = classic_market_basket();
  AprioriConfig cfg;
  cfg.min_support = 2.0 / 9.0;
  const auto partitions = split(txns, 3);
  const SonResult son = son_mine(partitions, cfg);
  const MiningResult direct = apriori(txns, cfg);
  // Every globally frequent pattern must appear in the candidate union:
  // union = frequent + false positives.
  EXPECT_EQ(son.union_candidates, son.frequent.size() + son.false_positives);
  EXPECT_EQ(as_map(son.frequent), as_map(direct.frequent));
}

TEST(Son, SkewedPartitionsInflateFalsePositives) {
  // Build two topic blocks; skewed split puts each topic in its own
  // partition, balanced split mixes them.
  common::Rng rng(5);
  std::vector<ItemSet> topic_a, topic_b;
  for (int i = 0; i < 150; ++i) {
    ItemSet t;
    for (int j = 0; j < 5; ++j) {
      t.push_back(static_cast<data::Item>(rng.zipf(15, 1.2)));
    }
    data::normalize(t);
    topic_a.push_back(t);
    ItemSet u;
    for (int j = 0; j < 5; ++j) {
      u.push_back(static_cast<data::Item>(100 + rng.zipf(15, 1.2)));
    }
    data::normalize(u);
    topic_b.push_back(u);
  }
  AprioriConfig cfg;
  cfg.min_support = 0.1;
  // Skewed: partition 0 = all of topic A, partition 1 = all of topic B.
  const std::vector<std::vector<ItemSet>> skewed{topic_a, topic_b};
  // Balanced: each partition gets half of each topic.
  std::vector<std::vector<ItemSet>> balanced(2);
  for (int i = 0; i < 150; ++i) {
    balanced[i % 2].push_back(topic_a[i]);
    balanced[(i + 1) % 2].push_back(topic_b[i]);
  }
  const SonResult s_skew = son_mine(skewed, cfg);
  const SonResult s_bal = son_mine(balanced, cfg);
  EXPECT_GT(s_skew.false_positives, s_bal.false_positives);
  EXPECT_EQ(as_map(s_skew.frequent), as_map(s_bal.frequent));
}

TEST(Son, TracksPerPartitionWork) {
  const auto txns = classic_market_basket();
  AprioriConfig cfg;
  cfg.min_support = 0.2;
  const auto partitions = split(txns, 3);
  const SonResult son = son_mine(partitions, cfg);
  EXPECT_EQ(son.local_work.size(), 3u);
  EXPECT_EQ(son.global_work.size(), 3u);
  for (const auto w : son.local_work) EXPECT_GT(w, 0u);
}

TEST(Son, EmptyPartitionTolerated) {
  const auto txns = classic_market_basket();
  std::vector<std::vector<ItemSet>> partitions{txns, {}};
  AprioriConfig cfg;
  cfg.min_support = 2.0 / 9.0;
  const SonResult son = son_mine(partitions, cfg);
  const MiningResult direct = apriori(txns, cfg);
  EXPECT_EQ(as_map(son.frequent), as_map(direct.frequent));
}

TEST(CandidateUnion, Dedupes) {
  MiningResult a, b;
  a.frequent = {Pattern{{1}, 3}, Pattern{{1, 2}, 2}};
  b.frequent = {Pattern{{1}, 4}, Pattern{{3}, 2}};
  const std::vector<MiningResult> locals{a, b};
  const auto u = candidate_union(locals);
  EXPECT_EQ(u, (std::vector<ItemSet>{{1}, {1, 2}, {3}}));
}

}  // namespace
}  // namespace hetsim::mining
