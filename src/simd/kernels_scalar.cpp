// Portable scalar kernels — the reference semantics every vector lane
// must reproduce bit-for-bit, and the fallback on hosts with neither
// AVX2 nor NEON.
#include <algorithm>

#include "simd/kernels.h"
#include "simd/simd.h"

namespace hetsim::simd::detail {

std::uint64_t minhash_min_run_scalar(std::uint64_t a, std::uint64_t b,
                                     const std::uint64_t* items, std::size_t n,
                                     std::uint64_t acc) {
  // 4 independent min accumulators break the serial min-dependency
  // chain so the (a·x+b) mod 2^61−1 pipeline stays full (PR-3 shape).
  std::uint64_t m0 = acc;
  std::uint64_t m1 = ~0ULL;
  std::uint64_t m2 = ~0ULL;
  std::uint64_t m3 = ~0ULL;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = std::min(m0, permute61(a, b, items[i] + 1));
    m1 = std::min(m1, permute61(a, b, items[i + 1] + 1));
    m2 = std::min(m2, permute61(a, b, items[i + 2] + 1));
    m3 = std::min(m3, permute61(a, b, items[i + 3] + 1));
  }
  for (; i < n; ++i) {
    m0 = std::min(m0, permute61(a, b, items[i] + 1));
  }
  return std::min(std::min(m0, m1), std::min(m2, m3));
}

std::size_t find_above_u32_scalar(const std::uint32_t* row, std::size_t len,
                                  std::uint32_t threshold) {
  for (std::size_t i = 0; i < len; ++i) {
    if (row[i] > threshold) return i;
  }
  return len;
}

}  // namespace hetsim::simd::detail
