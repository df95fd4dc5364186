// BV-style adjacency-list compression (paper reference [27]).
//
// Each vertex's sorted neighbour list is encoded either standalone or by
// reference to one of the previous `ref_window` lists: a copy bitmap
// selects inherited neighbours and the residuals are gap-encoded with
// zeta_k codes. Reference selection prices every window candidate with a
// BitCounter (code lengths only, no bytes) and keeps the cheapest — which
// is exactly why the SimilarTogether partition layout helps: similar
// lists inside a partition make references short and bitmaps dense. A
// list's choice reads only the input lists in its window, so the choices
// are made in parallel over lists; the stream is then written serially
// in list order, identical for every pool size.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "par/pool.h"

namespace hetsim::compress {

struct WebGraphCodecConfig {
  /// How many previous lists are candidate references (0 disables
  /// reference compression).
  std::uint32_t ref_window = 7;
  /// zeta parameter for residual gaps.
  std::uint32_t zeta_k = 3;
  /// BV intervalization: maximal runs of >= min_interval consecutive
  /// ids among the residuals are coded as (left, length) pairs instead
  /// of unit gaps — a large win on locality-heavy graphs where pages
  /// link to consecutive neighbours. 0 or 1 disables; compressor and
  /// decompressor must agree.
  std::uint32_t min_interval = 0;
  /// Fan-out for reference selection (chunks of 32 lists). Speed only:
  /// bytes and stats are identical for every pool size.
  par::Options par{};
};

struct WebGraphStats {
  std::uint64_t lists = 0;
  std::uint64_t edges = 0;
  std::uint64_t referenced_lists = 0;  // lists that used a reference
  std::uint64_t copied_edges = 0;
  std::uint64_t compressed_bits = 0;
  /// Abstract work of reference selection, by formula: list.size() + 1
  /// for the standalone trial, list.size() + ref.size() per reference.
  std::uint64_t work_ops = 0;
};

/// Compress adjacency lists (each strictly ascending). Returns the bit
/// stream; `stats` (optional) receives size/work counters.
[[nodiscard]] std::string compress_adjacency(
    const std::vector<std::vector<std::uint32_t>>& lists,
    const WebGraphCodecConfig& config = {}, WebGraphStats* stats = nullptr);

/// Decompress `num_lists` adjacency lists from a compress_adjacency
/// stream (must use the same config). A corrupt or truncated stream
/// throws StoreError.
[[nodiscard]] std::vector<std::vector<std::uint32_t>> decompress_adjacency(
    std::string_view data, std::size_t num_lists,
    const WebGraphCodecConfig& config = {});

/// Raw size of an adjacency set in bytes (4 bytes per edge + 4 per list
/// header), the numerator of the paper's compression ratios.
[[nodiscard]] std::uint64_t raw_adjacency_bytes(
    const std::vector<std::vector<std::uint32_t>>& lists) noexcept;

}  // namespace hetsim::compress
