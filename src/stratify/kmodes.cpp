#include "stratify/kmodes.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/arena.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "simd/simd.h"

namespace hetsim::stratify {

namespace {

/// Assignment-step view of ALL centers at once, flattened and inverted:
/// attribute j's slot [offsets[j], offsets[j+1]) holds the sorted union
/// of every center's composite values for that attribute, and the
/// centers owning the value at position p are listed in
/// center_ids[center_offsets[p], center_offsets[p+1]) (CSR). Scoring a
/// point then costs ONE binary search per attribute — not one
/// membership probe per (attribute, center) — and the index is two
/// contiguous allocations instead of strata × k_attr heap-hopping inner
/// vectors.
struct CenterIndex {
  std::vector<std::uint64_t> values;
  std::vector<std::uint32_t> offsets;         // size k_attr + 1
  std::vector<std::uint32_t> center_offsets;  // size values.size() + 1
  std::vector<std::uint32_t> center_ids;
};

CenterIndex build_index(
    const std::vector<std::vector<std::vector<std::uint64_t>>>& centers,
    std::size_t k_attr) {
  CenterIndex idx;
  idx.offsets.reserve(k_attr + 1);
  idx.offsets.push_back(0);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> pairs;
  for (std::size_t j = 0; j < k_attr; ++j) {
    pairs.clear();
    for (std::uint32_t c = 0; c < centers.size(); ++c) {
      for (const std::uint64_t v : centers[c][j]) pairs.emplace_back(v, c);
    }
    std::sort(pairs.begin(), pairs.end());
    for (std::size_t t = 0; t < pairs.size(); ++t) {
      if (t == 0 || pairs[t].first != pairs[t - 1].first) {
        idx.values.push_back(pairs[t].first);
        idx.center_offsets.push_back(
            static_cast<std::uint32_t>(idx.center_ids.size()));
      }
      idx.center_ids.push_back(pairs[t].second);
    }
    idx.offsets.push_back(static_cast<std::uint32_t>(idx.values.size()));
  }
  idx.center_offsets.push_back(
      static_cast<std::uint32_t>(idx.center_ids.size()));
  return idx;
}

/// Per-center matched-attribute counts of point `sig`, accumulated into
/// `score` (caller-provided, one slot per center, zeroed here). The
/// per-attribute probe goes through `kern.find_sorted_u64` — callers
/// hoist the dispatch() table out of their point loops — which on
/// vector ISAs replaces the serially-dependent cmov search with wide
/// equality scans over the (typically short) per-attribute segment.
/// Work metering lives with the caller — one scoring pass abstractly
/// considers index.values.size() candidates.
void match_scores(const sketch::Sketch& sig, const CenterIndex& index,
                  const simd::Kernels& kern,
                  std::vector<std::uint32_t>& score) {
  std::fill(score.begin(), score.end(), 0u);
  const std::uint64_t* const vals = index.values.data();
  const std::uint32_t* const off = index.offsets.data();
  const std::uint32_t* const coff = index.center_offsets.data();
  const std::uint32_t* const cids = index.center_ids.data();
  for (std::size_t j = 0; j < sig.size(); ++j) {
    const std::int64_t hit =
        kern.find_sorted_u64(vals + off[j], off[j + 1] - off[j], sig[j]);
    if (hit >= 0) {
      const auto p = off[j] + static_cast<std::uint32_t>(hit);
      for (std::uint32_t t = coff[p]; t < coff[p + 1]; ++t) ++score[cids[t]];
    }
  }
}

/// Attributes gathered per block by update_center: eight u64 values are
/// a 64-byte cache line's worth of a sketch row.
constexpr std::size_t kAttrBlock = 8;

/// Reusable scratch for update_center, one per update lane for the whole
/// solve: an epoch-tagged open-addressing frequency table (power-of-two
/// capacity, linear probing). Bumping the epoch invalidates every entry
/// in O(1), so no per-attribute clearing; `used` remembers which slots
/// this attribute touched so collection never scans the whole table.
/// `block` holds one attribute block of the stratum's members,
/// column-major: block[b * m + r] is the block's b-th attribute of
/// member r, for a stratum of m members.
struct UpdateScratch {
  struct Slot {
    std::uint64_t value = 0;
    std::uint32_t count = 0;
    std::uint32_t epoch = 0;
  };
  std::vector<Slot> table;
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> used;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> runs;
  std::vector<std::uint64_t> block;
};

/// Rebuild a center as the top-L values per attribute over its members.
/// Members are gathered kAttrBlock attributes at a time into the
/// scratch's column block, so each member row is read once per block and
/// the frequency count scans contiguous memory. Counting uses the scratch
/// hash table (minhash values are already well-mixed, one multiply
/// spreads them over the table); ranking stays (frequency desc, value
/// asc) — a total order, so the selected composite values are
/// deterministic regardless of probe order or table size.
void update_center(const std::vector<sketch::Sketch>& sketches,
                   std::span<const std::uint32_t> members,
                   std::uint32_t composite_l,
                   std::vector<std::vector<std::uint64_t>>& center,
                   UpdateScratch& scratch, std::uint64_t& ops) {
  const std::size_t m = members.size();
  std::size_t cap = 16;
  while (cap < m * 2) cap <<= 1;
  if (scratch.table.size() < cap) scratch.table.resize(cap);
  if (scratch.block.size() < m * kAttrBlock) {
    scratch.block.resize(m * kAttrBlock);
  }
  const std::size_t mask = scratch.table.size() - 1;
  const auto ranked_before = [](const std::pair<std::uint64_t, std::uint32_t>& a,
                                const std::pair<std::uint64_t, std::uint32_t>& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  const std::size_t k = center.size();
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t jj = j % kAttrBlock;
    if (jj == 0) {
      const std::size_t width = std::min(kAttrBlock, k - j);
      for (std::size_t r = 0; r < m; ++r) {
        const std::uint64_t* const row = sketches[members[r]].data() + j;
        for (std::size_t b = 0; b < width; ++b) {
          scratch.block[b * m + r] = row[b];
        }
      }
    }
    ops += m;
    ++scratch.epoch;
    scratch.used.clear();
    for (const std::uint64_t v :
         std::span<const std::uint64_t>(scratch.block.data() + jj * m, m)) {
      std::size_t h =
          static_cast<std::size_t>((v * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
      while (true) {
        UpdateScratch::Slot& s = scratch.table[h];
        if (s.epoch != scratch.epoch) {
          s = {v, 1, scratch.epoch};
          scratch.used.push_back(static_cast<std::uint32_t>(h));
          break;
        }
        if (s.value == v) {
          ++s.count;
          break;
        }
        h = (h + 1) & mask;
      }
    }
    scratch.runs.clear();
    for (const std::uint32_t h : scratch.used) {
      scratch.runs.emplace_back(scratch.table[h].value, scratch.table[h].count);
    }
    if (scratch.runs.size() > composite_l) {
      std::partial_sort(scratch.runs.begin(),
                        scratch.runs.begin() + composite_l, scratch.runs.end(),
                        ranked_before);
      scratch.runs.resize(composite_l);
    } else {
      std::sort(scratch.runs.begin(), scratch.runs.end(), ranked_before);
    }
    auto& slot = center[j];
    slot.clear();
    for (const auto& run : scratch.runs) slot.push_back(run.first);
  }
}

/// Per-chunk tallies of the assignment step, reduced in chunk order so
/// the totals are identical for every thread count.
struct AssignStats {
  std::uint64_t objective = 0;
  std::uint64_t zero_match = 0;
  std::uint64_t ops = 0;
  bool changed = false;
};

}  // namespace

Stratification composite_kmodes(const std::vector<sketch::Sketch>& sketches,
                                const KModesConfig& config) {
  common::require<common::ConfigError>(!sketches.empty(),
                                       "composite_kmodes: no points");
  common::require<common::ConfigError>(
      config.num_strata >= 1 && config.composite_l >= 1,
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

  Stratification out;
  out.num_strata = num_strata;
  out.assignment.assign(n, 0);

  // Init: distinct random points seed the centers.
  common::Rng rng(config.seed);
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(order[i], order[i + rng.bounded(n - i)]);
  }
  std::vector<std::vector<std::vector<std::uint64_t>>> centers(
      num_strata,
      std::vector<std::vector<std::uint64_t>>(k_attr));
  for (std::uint32_t c = 0; c < num_strata; ++c) {
    const sketch::Sketch& seed_point = sketches[order[c]];
    for (std::size_t j = 0; j < k_attr; ++j) centers[c][j] = {seed_point[j]};
  }

  par::ThreadPool& pool = par::resolve(config.par);
  const std::size_t chunk = par::chunk_or(config.par, 1024);
  // One dispatch resolution for the whole solve: every chunk of every
  // iteration probes through the same kernel table.
  const simd::Kernels& kern = simd::dispatch();
  // Update-step fan-out: one contiguous run of strata per lane, so the
  // chunks never outnumber the lanes and each owns one scratch for the
  // whole solve.
  const std::size_t strata_per_lane =
      (num_strata + pool.num_threads() - 1) / pool.num_threads();
  std::vector<UpdateScratch> update_scratch(
      (num_strata + strata_per_lane - 1) / strata_per_lane);
  std::vector<std::uint64_t> stratum_ops(num_strata);
  // Member lists, rebuilt every iteration.
  common::Arena arena;

  std::vector<std::uint32_t> assignment(n, UINT32_MAX);
  for (std::uint32_t iter = 0; iter < config.max_iterations; ++iter) {
    out.iterations = iter + 1;
    const CenterIndex index = build_index(centers, k_attr);
    // Scoring work per point: every candidate value in the index is
    // (abstractly) considered once, so the meter is a single multiply
    // per chunk instead of an increment inside the hot loop.
    const std::uint64_t values_per_point = index.values.size();
    // Assignment step: per-point work is independent (each point writes
    // only assignment[i]), so chunks fan out; the scalar tallies reduce
    // in ascending chunk order. Tie-break contract (kmodes.h): strict
    // `score > best` over ascending center ids keeps the LOWEST center
    // on ties, exactly as the serial code always did.
    const AssignStats stats = pool.parallel_reduce<AssignStats>(
        n, chunk, AssignStats{},
        [&](std::size_t begin, std::size_t end) {
          AssignStats local;
          local.ops = (end - begin) * values_per_point;
          std::vector<std::uint32_t> score(num_strata);
          for (std::size_t i = begin; i < end; ++i) {
            match_scores(sketches[i], index, kern, score);
            std::uint32_t best_c = 0;
            std::uint32_t best_score = 0;
            for (std::uint32_t c = 0; c < num_strata; ++c) {
              if (score[c] > best_score) {
                best_score = score[c];
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
            if (assignment[i] != best_c) {
              assignment[i] = best_c;
              local.changed = true;
            }
          }
          return local;
        },
        [](AssignStats acc, AssignStats part) {
          acc.objective += part.objective;
          acc.zero_match += part.zero_match;
          acc.ops += part.ops;
          acc.changed = acc.changed || part.changed;
          return acc;
        });
    out.objective = stats.objective;
    out.zero_match_assignments = stats.zero_match;
    out.work_ops += stats.ops;
    if (!stats.changed) break;
    // Update step. Member lists are a counting sort into one flat arena
    // span (stable, so each stratum lists its points in ascending order
    // exactly like the per-stratum vectors it replaces) — no num_strata
    // heap vectors reallocated every iteration.
    auto offsets = arena.alloc_span<std::uint32_t>(num_strata + 1);
    auto cursor = arena.alloc_span<std::uint32_t>(num_strata);
    auto flat = arena.alloc_span<std::uint32_t>(n);
    std::fill(offsets.begin(), offsets.end(), 0u);
    for (std::size_t i = 0; i < n; ++i) ++offsets[assignment[i] + 1];
    for (std::uint32_t c = 0; c < num_strata; ++c) {
      offsets[c + 1] += offsets[c];
      cursor[c] = offsets[c];
    }
    for (std::size_t i = 0; i < n; ++i) {
      flat[cursor[assignment[i]]++] = static_cast<std::uint32_t>(i);
    }
    // The strata then rebuild in parallel: on graph-replicated's input
    // (uk_like(1.0), 64 hashes, 4 threads) the serial rebuild took
    // 0.84-0.93 s of a 1.04-1.13 s solve, against 0.17-0.20 s for the
    // parallel assignment step. Each stratum reads the immutable
    // sketches and its member span and writes only centers[c] and
    // stratum_ops[c]; the ops are summed in stratum order, so centers
    // and work_ops are identical for every pool size.
    std::fill(stratum_ops.begin(), stratum_ops.end(), 0u);
    pool.parallel_for(
        num_strata, strata_per_lane, [&](std::size_t begin, std::size_t end) {
          UpdateScratch& scratch = update_scratch[begin / strata_per_lane];
          for (std::size_t c = begin; c < end; ++c) {
            const std::span<const std::uint32_t> members =
                flat.subspan(offsets[c], offsets[c + 1] - offsets[c]);
            if (members.empty()) continue;  // keep the old center
            update_center(sketches, members, config.composite_l, centers[c],
                          scratch, stratum_ops[c]);
          }
        });
    for (const std::uint64_t ops : stratum_ops) out.work_ops += ops;
    arena.reset();
  }

  out.assignment = std::move(assignment);
  out.stratum_sizes.assign(num_strata, 0);
  for (const std::uint32_t c : out.assignment) ++out.stratum_sizes[c];
  return out;
}

}  // namespace hetsim::stratify
