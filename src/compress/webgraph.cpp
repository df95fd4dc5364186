#include "compress/webgraph.h"

#include <algorithm>

#include "common/error.h"
#include "compress/bitio.h"

namespace hetsim::compress {

namespace {

/// Lists per reference-choice chunk: the chunk geometry depends on the
/// list count, never on the pool.
constexpr std::size_t kListChunk = 32;

/// Buffers one encoder reuses from list to list.
struct EncodeScratch {
  std::vector<std::uint32_t> residuals;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> intervals;
  std::vector<std::uint32_t> leftovers;
};

/// Split strictly ascending `residuals` into maximal runs of consecutive
/// ids of length >= min_interval (the intervals) and the leftover
/// singletons.
void split_intervals(const std::vector<std::uint32_t>& residuals,
                     std::uint32_t min_interval,
                     std::vector<std::pair<std::uint32_t, std::uint32_t>>& intervals,
                     std::vector<std::uint32_t>& leftovers) {
  intervals.clear();
  leftovers.clear();
  std::size_t i = 0;
  while (i < residuals.size()) {
    std::size_t j = i + 1;
    while (j < residuals.size() && residuals[j] == residuals[j - 1] + 1) ++j;
    const auto run = static_cast<std::uint32_t>(j - i);
    if (run >= min_interval) {
      intervals.emplace_back(residuals[i], run);
    } else {
      for (std::size_t k = i; k < j; ++k) leftovers.push_back(residuals[k]);
    }
    i = j;
  }
}

template <typename Writer>
void write_gaps(Writer& bw, const std::vector<std::uint32_t>& values,
                std::uint32_t zeta_k) {
  std::uint32_t last = 0;
  bool first = true;
  for (const std::uint32_t v : values) {
    if (first) {
      bw.write_zeta(static_cast<std::uint64_t>(v) + 1, zeta_k);
      first = false;
    } else {
      bw.write_zeta(v - last, zeta_k);
    }
    last = v;
  }
}

/// Encode one list against an optional reference into `bw` (a BitWriter,
/// or a BitCounter to price a candidate). Returns the number of copied
/// edges.
template <typename Writer>
std::size_t encode_list(Writer& bw, const std::vector<std::uint32_t>& list,
                        const std::vector<std::uint32_t>* ref,
                        std::uint32_t ref_offset,
                        const WebGraphCodecConfig& cfg, EncodeScratch& scratch) {
  bw.write_gamma(list.size() + 1);
  if (list.empty()) return 0;
  bw.write_gamma(ref_offset + 1);  // 0 = standalone
  std::size_t copied = 0;
  const std::vector<std::uint32_t>* residuals = &list;
  if (ref_offset > 0) {
    // Copy bitmap over the reference list; residuals = list minus
    // reference, in one merge pass.
    scratch.residuals.clear();
    std::size_t li = 0;
    for (const std::uint32_t rv : *ref) {
      while (li < list.size() && list[li] < rv) {
        scratch.residuals.push_back(list[li++]);
      }
      const bool copy = li < list.size() && list[li] == rv;
      bw.write_bits(copy ? 1 : 0, 1);
      if (copy) {
        ++copied;
        ++li;
      }
    }
    scratch.residuals.insert(scratch.residuals.end(),
                             list.begin() + static_cast<std::ptrdiff_t>(li),
                             list.end());
    residuals = &scratch.residuals;
  }
  if (cfg.min_interval >= 2) {
    split_intervals(*residuals, cfg.min_interval, scratch.intervals,
                    scratch.leftovers);
    bw.write_gamma(scratch.intervals.size() + 1);
    std::uint32_t prev_end = 0;
    bool first = true;
    for (const auto& [left, len] : scratch.intervals) {
      // Left bounds ascending; gap from the previous interval's end.
      bw.write_zeta(static_cast<std::uint64_t>(left - prev_end) + (first ? 1 : 0),
                    cfg.zeta_k);
      bw.write_gamma(len - cfg.min_interval + 1);
      prev_end = left + len;
      first = false;
    }
    write_gaps(bw, scratch.leftovers, cfg.zeta_k);
  } else {
    write_gaps(bw, *residuals, cfg.zeta_k);
  }
  return copied;
}

/// Reference offset for lists[i] (0 = standalone): the window candidate
/// whose encoding a BitCounter prices lowest, the earliest on a tie.
/// Reads only the input lists, never another list's choice. Adds the
/// trials' metered work to `ops`.
std::uint32_t choose_reference(
    const std::vector<std::vector<std::uint32_t>>& lists, std::size_t i,
    const WebGraphCodecConfig& cfg, EncodeScratch& scratch, std::uint64_t& ops) {
  const auto& list = lists[i];
  for (std::size_t j = 1; j < list.size(); ++j) {
    common::require<common::ConfigError>(list[j - 1] < list[j],
                                         "compress_adjacency: list not "
                                         "strictly ascending");
  }
  BitCounter standalone;
  encode_list(standalone, list, nullptr, 0, cfg, scratch);
  std::uint64_t best_bits = standalone.bit_count();
  ops += list.size() + 1;
  std::uint32_t best_ref = 0;
  if (list.empty()) return best_ref;
  const auto window =
      static_cast<std::uint32_t>(std::min<std::size_t>(cfg.ref_window, i));
  for (std::uint32_t r = 1; r <= window; ++r) {
    const auto& ref = lists[i - r];
    if (ref.empty()) continue;
    BitCounter trial;
    encode_list(trial, list, &ref, r, cfg, scratch);
    ops += list.size() + ref.size();
    if (trial.bit_count() < best_bits) {
      best_bits = trial.bit_count();
      best_ref = r;
    }
  }
  return best_ref;
}

}  // namespace

std::string compress_adjacency(const std::vector<std::vector<std::uint32_t>>& lists,
                               const WebGraphCodecConfig& config,
                               WebGraphStats* stats) {
  common::require<common::ConfigError>(config.zeta_k >= 1 && config.zeta_k <= 16,
                                       "compress_adjacency: invalid zeta_k");
  // The choices are independent, so they fan out over chunks of lists;
  // each list writes only its own slots, and one scratch serves a chunk.
  std::vector<std::uint32_t> best_refs(lists.size(), 0);
  std::vector<std::uint64_t> trial_ops(lists.size(), 0);
  par::resolve(config.par).parallel_for(
      lists.size(), kListChunk, [&](std::size_t begin, std::size_t end) {
        EncodeScratch scratch;
        for (std::size_t i = begin; i < end; ++i) {
          best_refs[i] = choose_reference(lists, i, config, scratch, trial_ops[i]);
        }
      });

  // Write the stream serially, in list order.
  WebGraphStats local;
  WebGraphStats& st = stats ? *stats : local;
  st.lists = lists.size();
  BitWriter bw;
  EncodeScratch scratch;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    const auto& list = lists[i];
    const std::uint32_t best_ref = best_refs[i];
    st.edges += list.size();
    st.work_ops += trial_ops[i];
    const auto* ref = best_ref > 0 ? &lists[i - best_ref] : nullptr;
    const std::size_t copied = encode_list(bw, list, ref, best_ref, config, scratch);
    if (best_ref > 0) {
      ++st.referenced_lists;
      st.copied_edges += copied;
    }
  }
  st.compressed_bits = bw.bit_count();
  return bw.finish();
}

std::vector<std::vector<std::uint32_t>> decompress_adjacency(
    std::string_view data, std::size_t num_lists,
    const WebGraphCodecConfig& config) {
  constexpr std::uint64_t kIdSpace = 1ULL << 32;
  BitReader br(data);
  std::vector<std::vector<std::uint32_t>> lists;
  lists.reserve(num_lists);
  for (std::size_t i = 0; i < num_lists; ++i) {
    const std::uint64_t degree = br.read_gamma() - 1;
    if (degree == 0) {
      lists.emplace_back();
      continue;
    }
    const std::uint64_t ref_offset = br.read_gamma() - 1;
    std::vector<std::uint32_t> copied;
    if (ref_offset > 0) {
      common::require<common::StoreError>(ref_offset <= i,
                                          "decompress_adjacency: bad reference");
      const auto& ref = lists[i - ref_offset];
      for (const std::uint32_t rv : ref) {
        if (br.read_bits(1)) copied.push_back(rv);
      }
    }
    common::require<common::StoreError>(copied.size() <= degree,
                                        "decompress_adjacency: bitmap copies "
                                        "more than the degree");
    std::uint64_t residual_count = degree - copied.size();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;  // (left, len)
    if (config.min_interval >= 2) {
      const std::uint64_t interval_count = br.read_gamma() - 1;
      std::uint64_t prev_end = 0;
      for (std::uint64_t k = 0; k < interval_count; ++k) {
        const std::uint64_t raw_gap = br.read_zeta(config.zeta_k);
        const std::uint64_t gap = k == 0 ? raw_gap - 1 : raw_gap;
        const std::uint64_t len = br.read_gamma() - 1 + config.min_interval;
        common::require<common::StoreError>(
            gap <= kIdSpace - prev_end && len <= kIdSpace - prev_end - gap,
            "decompress_adjacency: interval past the id range");
        common::require<common::StoreError>(
            len <= residual_count,
            "decompress_adjacency: intervals exceed the degree");
        residual_count -= len;
        intervals.emplace_back(prev_end + gap, len);
        prev_end += gap + len;
      }
    }
    // Each remaining value is a residual costing at least one bit, so
    // the degree is bounded by the copies, the intervals and the bits
    // left — checked before any buffer is sized by it.
    common::require<common::StoreError>(
        residual_count <= br.bits_remaining(),
        "decompress_adjacency: degree exceeds the remaining bits");
    std::vector<std::uint32_t> residuals;
    residuals.reserve(residual_count);
    std::uint32_t last = 0;
    for (std::uint64_t j = 0; j < residual_count; ++j) {
      if (j == 0) {
        last = static_cast<std::uint32_t>(br.read_zeta(config.zeta_k) - 1);
      } else {
        last += static_cast<std::uint32_t>(br.read_zeta(config.zeta_k));
      }
      residuals.push_back(last);
    }
    if (!intervals.empty()) {
      std::vector<std::uint32_t> interval_values;
      interval_values.reserve(degree - copied.size() - residuals.size());
      for (const auto& [left, len] : intervals) {
        for (std::uint64_t v = left; v < left + len; ++v) {
          interval_values.push_back(static_cast<std::uint32_t>(v));
        }
      }
      std::vector<std::uint32_t> merged;
      merged.reserve(residuals.size() + interval_values.size());
      std::merge(residuals.begin(), residuals.end(), interval_values.begin(),
                 interval_values.end(), std::back_inserter(merged));
      residuals = std::move(merged);
    }
    std::vector<std::uint32_t> list;
    list.reserve(degree);
    std::merge(copied.begin(), copied.end(), residuals.begin(), residuals.end(),
               std::back_inserter(list));
    lists.push_back(std::move(list));
  }
  return lists;
}

std::uint64_t raw_adjacency_bytes(
    const std::vector<std::vector<std::uint32_t>>& lists) noexcept {
  std::uint64_t bytes = 0;
  for (const auto& l : lists) bytes += 4 + 4ull * l.size();
  return bytes;
}

}  // namespace hetsim::compress
