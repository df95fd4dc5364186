#include "mining/apriori.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "check/check.h"
#include "common/error.h"

namespace hetsim::mining {

namespace {

using Word = std::uint64_t;
constexpr std::size_t kWordBits = 64;

/// The ItemSet invariant: strictly ascending (sorted, no duplicates).
bool is_normalized(std::span<const data::Item> items) {
  return std::adjacent_find(items.begin(), items.end(),
                            std::greater_equal<>()) == items.end();
}

/// Interns item ids as 0, 1, 2, ... in first-seen order: a flat
/// open-addressing table (linear probing, Fibonacci hashing) kept at
/// most half full.
class ItemIndex {
 public:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  explicit ItemIndex(std::size_t expected) {
    rehash(std::bit_ceil(std::max<std::size_t>(16, 2 * expected)));
  }

  /// The id of `item`, assigned on first sight.
  std::uint32_t intern(data::Item item) {
    Slot* s = &slots_[slot(item)];
    if (s->id_plus_one == 0) {
      if (2 * (items_.size() + 1) > slots_.size()) {
        rehash(2 * slots_.size());
        s = &slots_[slot(item)];
      }
      items_.push_back(item);
      *s = {item, static_cast<std::uint32_t>(items_.size())};
    }
    return s->id_plus_one - 1;
  }

  /// The id of `item`, or kAbsent.
  [[nodiscard]] std::uint32_t find(data::Item item) const {
    return slots_[slot(item)].id_plus_one - 1;
  }

  /// The item of each id.
  [[nodiscard]] const std::vector<data::Item>& items() const {
    return items_;
  }

 private:
  struct Slot {
    data::Item item = 0;
    std::uint32_t id_plus_one = 0;  // 0: empty
  };

  [[nodiscard]] std::size_t slot(data::Item item) const {
    auto s = static_cast<std::size_t>((item * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (slots_[s].id_plus_one != 0 && slots_[s].item != item) {
      s = (s + 1) & mask_;
    }
    return s;
  }

  void rehash(std::size_t capacity) {
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (std::uint32_t id = 0; id < items_.size(); ++id) {
      slots_[slot(items_[id])] = {items_[id], id + 1};
    }
  }

  std::vector<Slot> slots_;
  std::vector<data::Item> items_;
  std::size_t mask_ = 0;
  int shift_ = 0;
};

/// Vertical layout: row r is a ceil(T/64)-word tid-bitset whose bit t is
/// set when transaction t holds the row's pattern.
struct TidBitsets {
  std::size_t words = 0;
  std::vector<Word> bits;

  explicit TidBitsets(std::size_t transactions, std::size_t rows = 0)
      : words((transactions + kWordBits - 1) / kWordBits),
        bits(rows * words, 0) {}

  [[nodiscard]] const Word* row(std::size_t r) const {
    return bits.data() + r * words;
  }
  Word* add_row() {
    bits.resize(bits.size() + words, 0);
    return bits.data() + bits.size() - words;
  }
  void set(std::size_t r, std::size_t tid) {
    bits[r * words + tid / kWordBits] |= Word{1} << (tid % kWordBits);
  }
};

std::uint32_t popcount(const Word* row, std::size_t words) {
  std::uint32_t n = 0;
  for (std::size_t w = 0; w < words; ++w) {
    n += static_cast<std::uint32_t>(std::popcount(row[w]));
  }
  return n;
}

/// out = a & b over `words` words; returns the popcount of out.
std::uint32_t and_into(const Word* a, const Word* b, Word* out,
                       std::size_t words) {
  std::uint32_t n = 0;
  for (std::size_t w = 0; w < words; ++w) {
    out[w] = a[w] & b[w];
    n += static_cast<std::uint32_t>(std::popcount(out[w]));
  }
  return n;
}

/// Frequent itemsets of one level, stored flat: pattern p is
/// items[p*k, p*k + k), in lexicographic order. Items are dense ids
/// whose order matches the item ids they stand for.
struct Level {
  std::size_t k = 0;
  std::vector<std::uint32_t> items;

  [[nodiscard]] std::size_t size() const { return items.size() / k; }
  [[nodiscard]] std::span<const std::uint32_t> at(std::size_t p) const {
    return {items.data() + p * k, k};
  }
  [[nodiscard]] bool contains(std::span<const std::uint32_t> pattern) const {
    std::size_t lo = 0, hi = size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const auto m = at(mid);
      if (std::lexicographical_compare(m.begin(), m.end(), pattern.begin(),
                                       pattern.end())) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < size() && std::ranges::equal(at(lo), pattern);
  }
};

/// Number of k-subsets of an f-set (exact: each step is C(f, i+1)).
std::uint64_t binomial(std::size_t f, std::size_t k) {
  std::uint64_t c = 1;
  for (std::size_t i = 0; i < k; ++i) c = c * (f - i) / (i + 1);
  return c;
}

/// The metered cost of counting one level of `num_candidates` k-itemsets
/// the level-wise hash-probe way. Each transaction is filtered to the
/// items some candidate holds (size f); it costs nothing when f < k, one
/// probe per candidate when its f^k subsets would outnumber 4x the
/// candidates, and one hash probe per k-subset otherwise.
std::uint64_t level_charge(std::span<const std::uint32_t> txn_start,
                           std::span<const std::uint32_t> txn_items,
                           const std::vector<char>& in_candidate,
                           std::size_t k, std::uint64_t num_candidates) {
  const double probe_threshold = static_cast<double>(num_candidates) * 4.0;
  std::uint64_t ops = 0;
  for (std::size_t t = 0; t + 1 < txn_start.size(); ++t) {
    std::size_t f = 0;
    for (std::uint32_t i = txn_start[t]; i < txn_start[t + 1]; ++i) {
      f += static_cast<std::size_t>(in_candidate[txn_items[i]]);
    }
    if (f < k) continue;
    const double subsets =
        std::pow(static_cast<double>(f), static_cast<double>(k));
    ops += subsets > probe_threshold ? num_candidates : binomial(f, k);
  }
  return ops;
}

}  // namespace

MiningResult apriori(std::span<const data::ItemSet> transactions,
                     const AprioriConfig& config) {
  common::require<common::ConfigError>(
      config.min_support > 0.0 && config.min_support <= 1.0,
      "apriori: min_support must be in (0, 1]");
  common::require<common::ConfigError>(config.max_pattern_length >= 1,
                                       "apriori: max_pattern_length >= 1");
  MiningResult result;
  if (transactions.empty()) return result;
  const auto min_count = static_cast<std::uint32_t>(std::max<double>(
      1.0, std::ceil(config.min_support *
                     static_cast<double>(transactions.size()))));

  // Level 1: plain frequency count, one op per item occurrence. Each
  // occurrence's interned id is kept for the vertical pass below.
  ItemIndex index(1024);
  std::vector<std::uint32_t> item_counts;
  std::vector<std::uint32_t> occurrences;
  std::size_t total_items = 0;
  for (const data::ItemSet& txn : transactions) total_items += txn.size();
  occurrences.reserve(total_items);
  for (const data::ItemSet& txn : transactions) {
    HETSIM_DCHECK(is_normalized(txn)) << " apriori: unsorted transaction";
    for (const data::Item it : txn) {
      const std::uint32_t id = index.intern(it);
      if (id == item_counts.size()) item_counts.push_back(0);
      ++item_counts[id];
      occurrences.push_back(id);
    }
    result.work_ops += txn.size();
  }
  result.candidates_generated += item_counts.size();
  std::vector<std::uint32_t> frequent_ids;
  for (std::uint32_t id = 0; id < item_counts.size(); ++id) {
    if (item_counts[id] >= min_count) frequent_ids.push_back(id);
  }
  const std::vector<data::Item>& items_of = index.items();
  std::sort(frequent_ids.begin(), frequent_ids.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return items_of[a] < items_of[b];
            });
  std::vector<data::Item> frequent_items;
  std::size_t frequent_occurrences = 0;
  for (const std::uint32_t id : frequent_ids) {
    frequent_items.push_back(items_of[id]);
    result.frequent.push_back(Pattern{{items_of[id]}, item_counts[id]});
    frequent_occurrences += item_counts[id];
  }
  const std::size_t n_items = frequent_items.size();
  if (config.max_pattern_length < 2 || n_items < 2) return result;

  // Dense ids: the i-th smallest frequent item becomes i, so dense order
  // is item order. Each transaction keeps only its frequent items (every
  // candidate of every later level is built from them), and each
  // frequent item gets its tid-bitset.
  std::vector<std::uint32_t> dense_of(item_counts.size(), ItemIndex::kAbsent);
  for (std::uint32_t d = 0; d < n_items; ++d) dense_of[frequent_ids[d]] = d;
  std::vector<std::uint32_t> txn_start{0};
  std::vector<std::uint32_t> txn_items;
  txn_start.reserve(transactions.size() + 1);
  txn_items.reserve(frequent_occurrences);
  TidBitsets level_bits(transactions.size(), n_items);
  std::size_t occ = 0;
  for (std::size_t t = 0; t < transactions.size(); ++t) {
    for (const std::size_t end = occ + transactions[t].size(); occ < end;
         ++occ) {
      const std::uint32_t d = dense_of[occurrences[occ]];
      if (d == ItemIndex::kAbsent) continue;
      txn_items.push_back(d);
      level_bits.set(d, t);
    }
    txn_start.push_back(static_cast<std::uint32_t>(txn_items.size()));
  }
  Level level{1, {}};
  for (std::uint32_t d = 0; d < n_items; ++d) level.items.push_back(d);

  std::vector<Word> scratch(level_bits.words);
  std::vector<char> in_candidate(n_items);
  std::vector<std::uint32_t> cand;
  std::vector<std::uint32_t> sub;
  for (std::uint32_t k = 2;
       k <= config.max_pattern_length && level.size() >= 2; ++k) {
    // Join L_{k-1} patterns sharing their first k-2 items (one op per
    // pair tried), prune candidates with an infrequent (k-1)-subset (one
    // op per subset looked up), and count each survivor as the AND of
    // its two parents' tid-bitsets. The parents are frequent by
    // construction. Candidates come out in lexicographic order.
    const bool keep_bits = k < config.max_pattern_length;
    Level next{k, {}};
    TidBitsets next_bits(transactions.size());
    std::fill(in_candidate.begin(), in_candidate.end(), 0);
    std::uint64_t num_candidates = 0;
    sub.resize(k - 1);
    const std::size_t n = level.size();
    for (std::size_t i = 0; i < n; ++i) {
      const auto pi = level.at(i);
      for (std::size_t j = i + 1; j < n; ++j) {
        ++result.work_ops;
        const auto pj = level.at(j);
        if (!std::equal(pi.begin(), pi.end() - 1, pj.begin())) break;
        cand.assign(pi.begin(), pi.end());
        cand.push_back(pj.back());
        bool keep = true;
        for (std::size_t drop = 0; keep && drop + 2 < k; ++drop) {
          std::copy(cand.begin(), cand.begin() + drop, sub.begin());
          std::copy(cand.begin() + drop + 1, cand.end(), sub.begin() + drop);
          ++result.work_ops;
          keep = level.contains(sub);
        }
        if (!keep) continue;
        ++num_candidates;
        for (const std::uint32_t d : cand) in_candidate[d] = 1;
        const std::uint32_t support =
            and_into(level_bits.row(i), level_bits.row(j), scratch.data(),
                     scratch.size());
        if (support < min_count) continue;
        data::ItemSet items;
        items.reserve(k);
        for (const std::uint32_t d : cand) items.push_back(frequent_items[d]);
        result.frequent.push_back(Pattern{std::move(items), support});
        next.items.insert(next.items.end(), cand.begin(), cand.end());
        if (keep_bits) {
          std::copy(scratch.begin(), scratch.end(), next_bits.add_row());
        }
      }
    }
    result.candidates_generated += num_candidates;
    result.work_ops +=
        level_charge(txn_start, txn_items, in_candidate, k, num_candidates);
    level = std::move(next);
    level_bits = std::move(next_bits);
  }
  HETSIM_DCHECK(std::is_sorted(result.frequent.begin(), result.frequent.end(),
                               [](const Pattern& a, const Pattern& b) {
                                 if (a.items.size() != b.items.size()) {
                                   return a.items.size() < b.items.size();
                                 }
                                 return a.items < b.items;
                               }));
  return result;
}

std::vector<std::uint32_t> count_support(
    std::span<const data::ItemSet> transactions,
    std::span<const data::ItemSet> candidates, std::uint64_t& work_ops) {
  // Metered as one containment test per (transaction, candidate) pair.
  work_ops += static_cast<std::uint64_t>(transactions.size()) *
              static_cast<std::uint64_t>(candidates.size());
  std::vector<std::uint32_t> counts(candidates.size(), 0);
  // One tid-bitset per item some candidate holds; a candidate's support
  // is the popcount of the AND of its items' rows.
  ItemIndex row_of(candidates.size());
  for (const data::ItemSet& c : candidates) {
    HETSIM_DCHECK(is_normalized(c)) << " count_support: unsorted candidate";
    for (const data::Item it : c) row_of.intern(it);
  }
  TidBitsets bits(transactions.size(), row_of.items().size());
  for (std::size_t t = 0; t < transactions.size(); ++t) {
    HETSIM_DCHECK(is_normalized(transactions[t]))
        << " count_support: unsorted transaction";
    for (const data::Item it : transactions[t]) {
      const std::uint32_t r = row_of.find(it);
      if (r != ItemIndex::kAbsent) bits.set(r, t);
    }
  }
  std::vector<Word> scratch(bits.words);
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const data::ItemSet& cand = candidates[c];
    if (cand.empty()) {
      counts[c] = static_cast<std::uint32_t>(transactions.size());
      continue;
    }
    const Word* acc = bits.row(row_of.find(cand[0]));
    std::uint32_t n = cand.size() == 1 ? popcount(acc, bits.words) : 0;
    for (std::size_t i = 1; i < cand.size(); ++i) {
      n = and_into(acc, bits.row(row_of.find(cand[i])), scratch.data(),
                   bits.words);
      acc = scratch.data();
    }
    counts[c] = n;
  }
  return counts;
}

}  // namespace hetsim::mining
