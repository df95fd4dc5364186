#include "stratify/kmodes.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <utility>

#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "simd/simd.h"

namespace hetsim::stratify {

namespace {

/// Score entries (points × (strata + 1)) of one assignment-step block,
/// at most 256 points: the rows stay in L1/L2 while every attribute's
/// codes stream past.
constexpr std::size_t kScoreBlockEntries = std::size_t{1} << 16;

/// Points ahead that encoding prefetches a column value.
constexpr std::size_t kGatherAhead = 16;

constexpr std::uint32_t kUnassigned = UINT32_MAX;

/// Contiguous runs of `items` per pool lane: the fan-out of the per-
/// attribute steps, one chunk (and one scratch) per lane.
std::size_t per_lane(std::size_t items, const par::ThreadPool& pool) {
  return std::max<std::size_t>(
      1, (items + pool.num_threads() - 1) / pool.num_threads());
}

/// Open-addressing value → first-seen id table (linear probing, power-
/// of-two capacity at most half full), reused for every column one lane
/// encodes: bumping the epoch empties it in O(1). Minhash values are
/// already well mixed, so one multiply spreads them over the slots.
class ValueTable {
 public:
  void clear() {
    ++epoch_;
    entries_.clear();
  }

  std::uint32_t intern(std::uint64_t v) {
    if (2 * (entries_.size() + 1) > slots_.size()) grow();
    Slot* const s = find(v);
    if (s->epoch != epoch_) {
      *s = {v, static_cast<std::uint32_t>(entries_.size()), epoch_};
      entries_.emplace_back(v, s->id);
    }
    return s->id;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// rank[id] = position of value `id` in ascending value order. Sorts
  /// the entries, so call it once the column is interned.
  void ranks(std::vector<std::uint32_t>& rank) {
    std::sort(entries_.begin(), entries_.end());
    rank.resize(entries_.size());
    for (std::size_t r = 0; r < entries_.size(); ++r) {
      rank[entries_[r].second] = static_cast<std::uint32_t>(r);
    }
  }

 private:
  struct Slot {
    std::uint64_t value = 0;
    std::uint32_t id = 0;
    std::uint32_t epoch = 0;
  };

  Slot* find(std::uint64_t v) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t h =
        static_cast<std::size_t>((v * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
    while (slots_[h].epoch == epoch_ && slots_[h].value != v) {
      h = (h + 1) & mask;
    }
    return &slots_[h];
  }

  void grow() {
    slots_.assign(std::max<std::size_t>(1024, slots_.size() * 2), Slot{});
    for (const auto& [v, id] : entries_) *find(v) = {v, id, epoch_};
  }

  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 1;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries_;
};

/// The sketches dictionary-encoded once per solve: column j holds each
/// point's rank among that attribute's distinct values, so code order is
/// value order and every per-value table below is a dense array.
template <typename Code>
struct Columns {
  std::size_t n = 0;
  /// codes[j * n + i] = code of point i's attribute j.
  std::vector<Code> codes;
  /// distinct[j] = number of codes in column j.
  std::vector<std::uint32_t> distinct;

  [[nodiscard]] const Code* column(std::size_t j) const {
    return codes.data() + j * n;
  }
};

/// Encode with `Code`-wide codes, or nothing when some column has more
/// distinct values than `Code` can number.
template <typename Code>
std::optional<Columns<Code>> encode(
    const std::vector<sketch::Sketch>& sketches, par::ThreadPool& pool) {
  constexpr std::size_t kMaxCodes =
      std::size_t{std::numeric_limits<Code>::max()} + 1;
  const std::size_t k_attr = sketches.front().size();
  Columns<Code> cols;
  cols.n = sketches.size();
  cols.codes.resize(cols.n * k_attr);
  cols.distinct.resize(k_attr);
  std::vector<std::uint8_t> too_wide(k_attr);
  const std::size_t run = per_lane(k_attr, pool);
  pool.parallel_for(k_attr, run, [&](std::size_t begin, std::size_t end) {
    ValueTable table;
    std::vector<std::uint32_t> rank;
    for (std::size_t j = begin; j < end; ++j) {
      Code* const col = cols.codes.data() + j * cols.n;
      table.clear();
      // First-seen ids number the distinct values as the final codes
      // do, so they fit `Code` whenever the column does. Each point's
      // row is its own allocation, so the column read is a gather; the
      // prefetch runs it ahead of the table probes.
      for (std::size_t i = 0; i < cols.n; ++i) {
        if (i + kGatherAhead < cols.n) {
          __builtin_prefetch(sketches[i + kGatherAhead].data() + j);
        }
        col[i] = static_cast<Code>(table.intern(sketches[i][j]));
      }
      if (table.size() > kMaxCodes) {
        too_wide[j] = 1;
        return;
      }
      table.ranks(rank);
      for (std::size_t i = 0; i < cols.n; ++i) {
        col[i] = static_cast<Code>(rank[col[i]]);
      }
      cols.distinct[j] = static_cast<std::uint32_t>(table.size());
    }
  });
  if (std::find(too_wide.begin(), too_wide.end(), 1) != too_wide.end()) {
    return std::nullopt;
  }
  return cols;
}

/// centers[j * num_strata + c] = codes of attribute j in center c.
using Centers = std::vector<std::vector<std::uint32_t>>;

/// Assignment-step lookup for one attribute, dense over its codes:
/// owner[p] tells which centers hold code p. A value below num_strata is
/// the one center holding it. num_strata means none: scoring adds it to
/// a sink column, so the common miss costs no branch. num_strata + 1 + t
/// means several: held[t] starts the run of (p, center) pairs.
struct Owners {
  std::vector<std::uint32_t> owner;
  /// Every (code, center) pair of the centers, sorted: the runs behind
  /// shared codes, and the entries the next rebuild resets.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> held;
  /// Distinct codes any center holds: the candidates one scoring pass
  /// abstractly considers (the work meter).
  std::uint32_t distinct_held = 0;
};

/// Rebuild attribute j's owners from the centers.
void index_owners(const Centers& centers, std::size_t j,
                  std::uint32_t num_strata, Owners& owners) {
  auto& held = owners.held;
  for (const auto& pair : held) owners.owner[pair.first] = num_strata;
  held.clear();
  for (std::uint32_t c = 0; c < num_strata; ++c) {
    for (const std::uint32_t p : centers[j * num_strata + c]) {
      held.emplace_back(p, c);
    }
  }
  std::sort(held.begin(), held.end());
  owners.distinct_held = 0;
  for (std::size_t t = 0, u = 0; t < held.size(); t = u) {
    const std::uint32_t p = held[t].first;
    while (u < held.size() && held[u].first == p) ++u;
    owners.owner[p] = u - t == 1
                          ? held[t].second
                          : num_strata + 1 + static_cast<std::uint32_t>(t);
    ++owners.distinct_held;
  }
}

/// (count, code) of one candidate center value.
using CodeCount = std::pair<std::uint32_t, std::uint32_t>;

/// The up-to-L codes of a stratum's count row with the highest counts,
/// ranked (count desc, code asc) — value ascending on ties, since code
/// order is value order. A threshold scan: only a count above `floor`,
/// the L-th best count so far, can still enter, so once L candidates are
/// known the kernel skips every row entry at or below it. Candidates
/// collect in `top` and are cut back to the best L whenever 2L gather;
/// the kept set (not its order) is the center slot.
void top_codes(const std::uint32_t* row, std::size_t d, std::size_t l,
               const simd::Kernels& kern, std::vector<CodeCount>& top,
               std::vector<std::uint32_t>& slot) {
  const auto ranked_before = [](const CodeCount& a, const CodeCount& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  };
  const auto keep_best = [&] {
    std::nth_element(top.begin(),
                     top.begin() + static_cast<std::ptrdiff_t>(l - 1),
                     top.end(), ranked_before);
    top.resize(l);
  };
  top.clear();
  std::uint32_t floor = 0;
  for (std::size_t p = kern.find_above_u32(row, d, floor); p < d;
       p += 1 + kern.find_above_u32(row + p + 1, d - p - 1, floor)) {
    top.emplace_back(row[p], static_cast<std::uint32_t>(p));
    if (top.size() == 2 * l) {
      keep_best();
      floor = top.back().first;
    }
  }
  if (top.size() > l) keep_best();
  slot.clear();
  for (const auto& entry : top) slot.push_back(entry.second);
}

/// Per-chunk tallies of the assignment step, reduced in chunk order so
/// the totals are identical for every thread count.
struct AssignStats {
  std::uint64_t objective = 0;
  std::uint64_t zero_match = 0;
  std::uint64_t ops = 0;
};

/// Update-step scratch, one per lane for the whole solve: a dense count
/// row over the codes of the attribute in hand (all zero between
/// strata) and the top-L candidates.
struct UpdateScratch {
  std::vector<std::uint32_t> counts;
  std::vector<CodeCount> top;
};

template <typename Code>
Stratification solve(const Columns<Code>& cols, const KModesConfig& config,
                     std::uint32_t num_strata, par::ThreadPool& pool) {
  const std::size_t n = cols.n;
  const std::size_t k_attr = cols.distinct.size();

  Stratification out;
  out.num_strata = num_strata;

  // Init: distinct random points seed the centers.
  common::Rng rng(config.seed);
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(order[i], order[i + rng.bounded(n - i)]);
  }
  Centers centers(k_attr * num_strata);
  std::vector<Owners> owners(k_attr);
  for (std::size_t j = 0; j < k_attr; ++j) {
    for (std::uint32_t c = 0; c < num_strata; ++c) {
      centers[j * num_strata + c] = {cols.column(j)[order[c]]};
    }
    owners[j].owner.assign(cols.distinct[j], num_strata);
    index_owners(centers, j, num_strata, owners[j]);
  }

  const std::size_t chunk = par::chunk_or(config.par, 1024);
  const std::size_t attrs_per_lane = per_lane(k_attr, pool);
  // One dispatch resolution for the whole solve: every top-L scan of
  // every iteration goes through the same kernel table.
  const simd::Kernels& kern = simd::dispatch();
  std::vector<UpdateScratch> update_scratch(
      (k_attr + attrs_per_lane - 1) / attrs_per_lane);
  // Score rows carry one sink column past the centers (see Owners).
  const std::size_t row_width = std::size_t{num_strata} + 1;
  const std::size_t score_block =
      std::clamp<std::size_t>(kScoreBlockEntries / row_width, 1, 256);

  std::vector<std::uint32_t> assignment(n, kUnassigned);
  std::vector<std::uint32_t> next(n);
  std::vector<std::uint8_t> refresh(num_strata);
  // Members of the strata whose centers the update step rebuilds, grouped
  // by stratum in ascending point order.
  std::vector<std::uint32_t> member_start(num_strata + 1);
  std::vector<std::uint32_t> members(n);
  for (std::uint32_t iter = 0; iter < config.max_iterations; ++iter) {
    out.iterations = iter + 1;
    // Scoring work per point: every center-held code is (abstractly)
    // considered once, so the meter is a single multiply per chunk.
    std::uint64_t values_per_point = 0;
    for (const Owners& o : owners) values_per_point += o.distinct_held;
    // Assignment step: per-point work is independent (each point writes
    // only next[i]), so chunks fan out; the scalar tallies reduce in
    // ascending chunk order. Within a chunk, blocks of points are scored
    // attribute by attribute through the dense owner lookups. Tie-break
    // contract (kmodes.h): strict `score > best` over ascending center
    // ids keeps the LOWEST center on ties.
    const AssignStats stats = pool.parallel_reduce<AssignStats>(
        n, chunk, AssignStats{},
        [&](std::size_t begin, std::size_t end) {
          AssignStats local;
          local.ops = (end - begin) * values_per_point;
          std::vector<std::uint32_t> score(std::min(score_block, end - begin) *
                                           row_width);
          for (std::size_t b0 = begin; b0 < end; b0 += score_block) {
            const std::size_t b1 = std::min(end, b0 + score_block);
            std::fill(score.begin(), score.end(), 0U);
            for (std::size_t j = 0; j < k_attr; ++j) {
              const Code* const col = cols.column(j);
              const std::uint32_t* const owner = owners[j].owner.data();
              const auto& held = owners[j].held;
              for (std::size_t i = b0; i < b1; ++i) {
                std::uint32_t* const row = score.data() + (i - b0) * row_width;
                const std::uint32_t e = owner[col[i]];
                if (e <= num_strata) {
                  ++row[e];
                  continue;
                }
                for (std::size_t t = e - num_strata - 1;
                     t < held.size() && held[t].first == col[i]; ++t) {
                  ++row[held[t].second];
                }
              }
            }
            for (std::size_t i = b0; i < b1; ++i) {
              const std::uint32_t* const row =
                  score.data() + (i - b0) * row_width;
              std::uint32_t best_c = 0;
              std::uint32_t best_score = 0;
              for (std::uint32_t c = 0; c < num_strata; ++c) {
                if (row[c] > best_score) {
                  best_score = row[c];
                  best_c = c;
                }
              }
              if (best_score == 0) {
                // No center shares any attribute: hash fallback keeps the
                // point placed deterministically (tracked for the L
                // ablation).
                best_c = static_cast<std::uint32_t>(common::hash_u64(i) %
                                                    num_strata);
                ++local.zero_match;
              }
              local.objective += best_score;
              next[i] = best_c;
            }
          }
          return local;
        },
        [](AssignStats acc, AssignStats part) {
          acc.objective += part.objective;
          acc.zero_match += part.zero_match;
          acc.ops += part.ops;
          return acc;
        });
    out.objective = stats.objective;
    out.zero_match_assignments = stats.zero_match;
    out.work_ops += stats.ops;
    // A stratum's center is a function of its member set alone, so only
    // a stratum a point entered or left needs a new one; one that lost
    // every member keeps its old center.
    bool changed = false;
    std::fill(refresh.begin(), refresh.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (next[i] != assignment[i]) {
        changed = true;
        refresh[next[i]] = 1;
        if (assignment[i] != kUnassigned) refresh[assignment[i]] = 1;
      }
    }
    assignment.swap(next);
    if (!changed) break;
    // Update step, metered as a scan of every member's attributes in
    // every non-empty stratum: that is each point once per attribute.
    out.work_ops += static_cast<std::uint64_t>(n) * k_attr;
    // Counting sort of the refreshed strata's members.
    std::fill(member_start.begin(), member_start.end(), 0U);
    for (const std::uint32_t c : assignment) {
      if (refresh[c] != 0) ++member_start[c + 1];
    }
    for (std::uint32_t c = 0; c < num_strata; ++c) {
      member_start[c + 1] += member_start[c];
    }
    std::vector<std::uint32_t> cursor(member_start.begin(),
                                      member_start.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t c = assignment[i];
      if (refresh[c] != 0) members[cursor[c]++] = static_cast<std::uint32_t>(i);
    }
    // Attributes fan out, one contiguous run per lane. Per attribute and
    // refreshed, non-empty stratum, the members' codes count into the
    // dense row, the row yields the top-L codes and is zeroed again. Each
    // lane writes only its attributes' centers and owner lookups, so the
    // result is identical for every pool size.
    pool.parallel_for(
        k_attr, attrs_per_lane, [&](std::size_t begin, std::size_t end) {
          UpdateScratch& scratch = update_scratch[begin / attrs_per_lane];
          for (std::size_t j = begin; j < end; ++j) {
            const std::size_t d = cols.distinct[j];
            const Code* const col = cols.column(j);
            if (scratch.counts.size() < d) scratch.counts.resize(d);
            std::uint32_t* const row = scratch.counts.data();
            for (std::uint32_t c = 0; c < num_strata; ++c) {
              const std::span<const std::uint32_t> group(
                  members.data() + member_start[c],
                  member_start[c + 1] - member_start[c]);
              if (group.empty()) continue;
              for (const std::uint32_t r : group) ++row[col[r]];
              top_codes(row, d, config.composite_l, kern, scratch.top,
                        centers[j * num_strata + c]);
              std::fill(row, row + d, 0U);
            }
            index_owners(centers, j, num_strata, owners[j]);
          }
        });
  }

  out.assignment = std::move(assignment);
  out.stratum_sizes.assign(num_strata, 0);
  for (const std::uint32_t c : out.assignment) ++out.stratum_sizes[c];
  return out;
}

}  // namespace

Stratification composite_kmodes(const std::vector<sketch::Sketch>& sketches,
                                const KModesConfig& config) {
  common::require<common::ConfigError>(!sketches.empty(),
                                       "composite_kmodes: no points");
  common::require<common::ConfigError>(
      config.num_strata >= 1 && config.composite_l >= 1 &&
          config.max_iterations >= 1,
      "composite_kmodes: invalid config");
  const std::size_t n = sketches.size();
  const std::size_t k_attr = sketches.front().size();
  for (const auto& s : sketches) {
    common::require<common::ConfigError>(s.size() == k_attr,
                                         "composite_kmodes: ragged sketches");
  }
  const std::uint32_t num_strata =
      std::min<std::uint32_t>(config.num_strata,
                              static_cast<std::uint32_t>(n));
  par::ThreadPool& pool = par::resolve(config.par);
  // Code width comes from the input, never from a setting: 16 bits when
  // every column fits them, else 32.
  if (const auto narrow = encode<std::uint16_t>(sketches, pool)) {
    return solve(*narrow, config, num_strata, pool);
  }
  return solve(*encode<std::uint32_t>(sketches, pool), config, num_strata,
               pool);
}

}  // namespace hetsim::stratify
