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

/// Points ahead that encoding prefetches a column value.
constexpr std::size_t kGatherAhead = 16;

constexpr std::uint32_t kUnassigned = UINT32_MAX;

/// Contiguous runs of `items` per pool lane: the fan-out of the per-
/// attribute and per-point steps, one chunk (and one scratch) per lane.
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

/// centers[j * num_strata + c] = codes of attribute j in center c,
/// ascending.
using Centers = std::vector<std::vector<std::uint32_t>>;

/// Distinct codes any center holds in attribute j: the candidates one
/// scoring pass abstractly considers (the work meter).
std::uint32_t distinct_held(const Centers& centers, std::size_t j,
                            std::uint32_t num_strata,
                            std::vector<std::uint32_t>& held) {
  held.clear();
  for (std::uint32_t c = 0; c < num_strata; ++c) {
    const auto& slot = centers[j * num_strata + c];
    held.insert(held.end(), slot.begin(), slot.end());
  }
  std::sort(held.begin(), held.end());
  return static_cast<std::uint32_t>(
      std::unique(held.begin(), held.end()) - held.begin());
}

/// The points holding each code of each column, ascending, built once
/// per solve by a counting sort of the encoded columns. `Point` is 16
/// bits when every point id fits: chosen from the input, as `Code` is.
template <typename Point>
struct Postings {
  std::size_t n = 0;
  /// points[j * n + start[base[j] + p] ...] = the points whose attribute
  /// j holds code p; the run ends where code p + 1's starts, or at n.
  std::vector<Point> points;
  /// Offset of each code's run within its column, in [0, n).
  std::vector<Point> start;
  /// base[j] = index of column j's first code in `start`.
  std::vector<std::size_t> base;

  [[nodiscard]] std::span<const Point> holders(std::size_t j,
                                               std::uint32_t p) const {
    const std::size_t first = base[j] + p;
    const std::size_t end = first + 1 < base[j + 1] ? start[first + 1] : n;
    return {points.data() + j * n + start[first], end - start[first]};
  }
};

template <typename Point, typename Code>
Postings<Point> index_points(const Columns<Code>& cols,
                             par::ThreadPool& pool) {
  const std::size_t n = cols.n;
  const std::size_t k_attr = cols.distinct.size();
  Postings<Point> post;
  post.n = n;
  post.points.resize(n * k_attr);
  post.base.resize(k_attr + 1);
  for (std::size_t j = 0; j < k_attr; ++j) {
    post.base[j + 1] = post.base[j] + cols.distinct[j];
  }
  post.start.resize(post.base[k_attr]);
  pool.parallel_for(
      k_attr, per_lane(k_attr, pool), [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint32_t> cursor;
        for (std::size_t j = begin; j < end; ++j) {
          const Code* const col = cols.column(j);
          cursor.assign(cols.distinct[j], 0U);
          for (std::size_t i = 0; i < n; ++i) ++cursor[col[i]];
          std::uint32_t sum = 0;
          for (std::size_t p = 0; p < cursor.size(); ++p) {
            post.start[post.base[j] + p] = static_cast<Point>(sum);
            sum += std::exchange(cursor[p], sum);
          }
          Point* const out = post.points.data() + j * n;
          for (std::size_t i = 0; i < n; ++i) {
            out[cursor[col[i]]++] = static_cast<Point>(i);
          }
        }
      });
  return post;
}

/// One code entering (or leaving) one attribute of one center: +1 (or
/// -1) on that center's score for every point holding the code.
struct Delta {
  std::uint32_t attr = 0;
  std::uint32_t code = 0;
  std::uint32_t center = 0;
  bool enter = true;
};

/// (count, code) of one candidate center value.
using CodeCount = std::pair<std::uint32_t, std::uint32_t>;

/// The up-to-L codes of a stratum's count row with the highest counts,
/// ranked (count desc, code asc) — value ascending on ties, since code
/// order is value order. A threshold scan: only a count above `floor`,
/// the L-th best count so far, can still enter, so once L candidates are
/// known the kernel skips every row entry at or below it. Candidates
/// collect in `top` and are cut back to the best L whenever 2L gather;
/// the kept codes, ascending, are the center slot.
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
  std::sort(slot.begin(), slot.end());
}

/// Per-lane tallies of the assignment step, reduced in lane order.
struct AssignStats {
  std::uint64_t objective = 0;
  std::uint64_t zero_match = 0;
  std::uint64_t ops = 0;
};

/// Update-step scratch, one per lane for the whole solve: a dense count
/// row over the codes of the attribute in hand (all zero between
/// strata), the top-L candidates, a rebuilt center's previous codes and
/// the score deltas the lane's rebuilds emit.
struct UpdateScratch {
  std::vector<std::uint32_t> counts;
  std::vector<CodeCount> top;
  std::vector<std::uint32_t> old_slot;
  std::vector<Delta> deltas;
};

/// Emit a delta for every code in exactly one of two ascending slots:
/// entering if only `now` holds it, leaving if only `was` does.
void diff_slots(const std::vector<std::uint32_t>& was,
                const std::vector<std::uint32_t>& now, std::uint32_t attr,
                std::uint32_t center, std::vector<Delta>& deltas) {
  auto left = was.begin();
  auto kept = now.begin();
  while (left != was.end() || kept != now.end()) {
    if (kept == now.end() || (left != was.end() && *left < *kept)) {
      deltas.push_back({attr, *left++, center, false});
    } else if (left == was.end() || *kept < *left) {
      deltas.push_back({attr, *kept++, center, true});
    } else {
      ++left;
      ++kept;
    }
  }
}

/// The solve over `Code`-wide columns, `Point`-wide postings and
/// `Score`-wide score rows. Every point keeps one score per center, the
/// number of its attributes whose code that center holds, across
/// iterations: the update step emits a delta per code entering or
/// leaving a rebuilt (attribute, center) pair, and the assignment step
/// applies only those before it takes each row's arg-max.
template <typename Code, typename Point, typename Score>
Stratification solve(const Columns<Code>& cols, const KModesConfig& config,
                     std::uint32_t num_strata, par::ThreadPool& pool) {
  const std::size_t n = cols.n;
  const std::size_t k_attr = cols.distinct.size();

  Stratification out;
  out.num_strata = num_strata;

  const Postings<Point> postings = index_points<Point>(cols, pool);
  const std::size_t attrs_per_lane = per_lane(k_attr, pool);
  std::vector<UpdateScratch> update_scratch(
      (k_attr + attrs_per_lane - 1) / attrs_per_lane);

  // Init: distinct random points seed the centers. Score rows start at
  // zero, so every seeded code enters as a delta.
  common::Rng rng(config.seed);
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(order[i], order[i + rng.bounded(n - i)]);
  }
  Centers centers(k_attr * num_strata);
  std::vector<std::uint32_t> held(k_attr);
  std::vector<std::uint32_t> held_scratch;
  for (std::size_t j = 0; j < k_attr; ++j) {
    for (std::uint32_t c = 0; c < num_strata; ++c) {
      const std::uint32_t code = cols.column(j)[order[c]];
      centers[j * num_strata + c] = {code};
      update_scratch[0].deltas.push_back(
          {static_cast<std::uint32_t>(j), code, c, true});
    }
    held[j] = distinct_held(centers, j, num_strata, held_scratch);
  }

  const std::size_t points_per_lane = per_lane(n, pool);
  // One dispatch resolution for the whole solve: every top-L scan of
  // every iteration goes through the same kernel table.
  const simd::Kernels& kern = simd::dispatch();
  std::vector<Score> score(n * num_strata, Score{0});

  std::vector<std::uint32_t> assignment(n, kUnassigned);
  std::vector<std::uint32_t> next(n);
  std::vector<std::uint8_t> refresh(num_strata);
  // Members of the strata whose centers the update step rebuilds, grouped
  // by stratum in ascending point order.
  std::vector<std::uint32_t> member_start(num_strata + 1);
  std::vector<std::uint32_t> members(n);
  for (std::uint32_t iter = 0; iter < config.max_iterations; ++iter) {
    out.iterations = iter + 1;
    // Scoring work per point, metered as a full rescore: every
    // center-held code is (abstractly) considered once.
    std::uint64_t values_per_point = 0;
    for (const std::uint32_t h : held) values_per_point += h;
    // Assignment step over contiguous point ranges, one per lane: each
    // lane applies every delta to its own points' rows, clipping each
    // posting list to its range by binary search, then takes their
    // arg-max; the scalar tallies reduce in ascending lane order. A
    // leaving code adds the score type's all-ones, which wraps to -1.
    // Tie-break contract (kmodes.h): strict `score > best` over
    // ascending center ids keeps the LOWEST center on ties.
    const AssignStats stats = pool.parallel_reduce<AssignStats>(
        n, points_per_lane, AssignStats{},
        [&](std::size_t begin, std::size_t end) {
          for (const UpdateScratch& lane : update_scratch) {
            for (const Delta& d : lane.deltas) {
              const std::span<const Point> pts =
                  postings.holders(d.attr, d.code);
              const Score step = d.enter ? Score{1} : static_cast<Score>(~0U);
              for (auto it = std::lower_bound(pts.begin(), pts.end(), begin);
                   it != pts.end() && *it < end; ++it) {
                Score& s = score[std::size_t{*it} * num_strata + d.center];
                s = static_cast<Score>(s + step);
              }
            }
          }
          AssignStats local;
          local.ops = (end - begin) * values_per_point;
          for (std::size_t i = begin; i < end; ++i) {
            const Score* const row = score.data() + i * num_strata;
            std::uint32_t best_c = 0;
            Score best_score = 0;
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
              best_c =
                  static_cast<std::uint32_t>(common::hash_u64(i) % num_strata);
              ++local.zero_match;
            }
            local.objective += best_score;
            next[i] = best_c;
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
    // dense row, the row yields the top-L codes and is zeroed again, and
    // the codes that entered or left the center become deltas. Each lane
    // writes only its attributes' centers, meters and its own deltas, so
    // the result is identical for every pool size.
    pool.parallel_for(
        k_attr, attrs_per_lane, [&](std::size_t begin, std::size_t end) {
          UpdateScratch& scratch = update_scratch[begin / attrs_per_lane];
          scratch.deltas.clear();
          std::vector<std::uint32_t> held_codes;
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
              std::vector<std::uint32_t>& slot = centers[j * num_strata + c];
              scratch.old_slot.swap(slot);
              top_codes(row, d, config.composite_l, kern, scratch.top, slot);
              diff_slots(scratch.old_slot, slot,
                         static_cast<std::uint32_t>(j), c, scratch.deltas);
              std::fill(row, row + d, 0U);
            }
            held[j] = distinct_held(centers, j, num_strata, held_codes);
          }
        });
  }

  out.assignment = std::move(assignment);
  out.stratum_sizes.assign(num_strata, 0);
  for (const std::uint32_t c : out.assignment) ++out.stratum_sizes[c];
  return out;
}

/// Pick the point-id and score widths from the input, as the code width
/// is: 16-bit point ids when every id fits, 8-bit scores when a score
/// (at most the attribute count) does.
template <typename Code>
Stratification solve_columns(const Columns<Code>& cols,
                             const KModesConfig& config,
                             std::uint32_t num_strata, par::ThreadPool& pool) {
  constexpr std::size_t kNarrowPoints =
      std::size_t{std::numeric_limits<std::uint16_t>::max()} + 1;
  const bool narrow_points = cols.n <= kNarrowPoints;
  const bool narrow_scores =
      cols.distinct.size() <= std::numeric_limits<std::uint8_t>::max();
  if (narrow_points) {
    return narrow_scores
               ? solve<Code, std::uint16_t, std::uint8_t>(cols, config,
                                                          num_strata, pool)
               : solve<Code, std::uint16_t, std::uint32_t>(cols, config,
                                                           num_strata, pool);
  }
  return narrow_scores
             ? solve<Code, std::uint32_t, std::uint8_t>(cols, config,
                                                        num_strata, pool)
             : solve<Code, std::uint32_t, std::uint32_t>(cols, config,
                                                         num_strata, pool);
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
    return solve_columns(*narrow, config, num_strata, pool);
  }
  return solve_columns(*encode<std::uint32_t>(sketches, pool), config,
                       num_strata, pool);
}

}  // namespace hetsim::stratify
