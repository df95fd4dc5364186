// Min-wise hashing of item sets (paper section III-C step 2).
//
// True min-wise independent permutations are too expensive over a large
// universe, so — like the paper — we use min-wise independent *linear*
// permutations (Bohman, Cooper, Frieze):
//
//     h_{a,b}(x) = (a·x + b) mod p,   p = 2^61 - 1 (Mersenne prime)
//
// The sketch of a set S is (min_{x∈S} h_1(x), ..., min_{x∈S} h_k(x)); the
// fraction of equal components of two sketches is an unbiased estimator
// of the Jaccard similarity of the underlying sets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "data/itemset.h"
#include "par/pool.h"
#include "simd/simd.h"

namespace hetsim::sketch {

namespace detail {

/// Mersenne prime 2^61 - 1: (a*x + b) mod p reduces with shifts only and
/// a*x fits in __uint128_t for a, x < p.
inline constexpr std::uint64_t kSketchPrime = simd::kPrime61;

/// h_{a,b}(x) = (a·(x+1) + b) mod 2^61−1 — the single definition of the
/// permutation arithmetic, now hosted in simd::permute61 so every ISA
/// lane (AVX2, NEON, scalar) and MinHasher::permute funnel through one
/// formula and can never drift. The +1 keeps item 0 out of the
/// multiplier's kernel.
inline constexpr std::uint64_t linear_permute(std::uint64_t a,
                                              std::uint64_t b,
                                              std::uint64_t x) noexcept {
  return simd::permute61(a, b, x + 1);
}

}  // namespace detail

/// One minhash signature; component j is the minimum of permutation j.
using Sketch = std::vector<std::uint64_t>;

struct SketchConfig {
  /// Number of independent permutations (sketch length). More hashes
  /// shrink the Jaccard estimation error at O(1/sqrt(k)).
  std::uint32_t num_hashes = 64;
  std::uint64_t seed = 17;
};

class MinHasher {
 public:
  explicit MinHasher(SketchConfig config = {});

  [[nodiscard]] std::uint32_t num_hashes() const noexcept {
    return static_cast<std::uint32_t>(a_.size());
  }

  /// Sketch a normalized item set. Empty sets sketch to all-sentinel
  /// (they compare equal to each other, Jaccard 1). Hash-major over item
  /// batches through the simd::dispatch() min-run kernel; results are
  /// byte-identical on every ISA lane.
  [[nodiscard]] Sketch sketch(std::span<const data::Item> items) const;

  /// Sketch every record of a dataset (row i = record i), fanned out
  /// over `par` in record chunks. Results are identical for every
  /// thread count.
  [[nodiscard]] std::vector<Sketch> sketch_all(
      const std::vector<data::Record>& records,
      const par::Options& par = {}) const;

  /// Estimated Jaccard similarity: fraction of matching components.
  [[nodiscard]] static double estimate_jaccard(const Sketch& a, const Sketch& b);

  /// Value of permutation j at item x (exposed for tests).
  [[nodiscard]] std::uint64_t permute(std::uint32_t j, data::Item x) const;

  /// Sentinel value sketched by empty sets; larger than any hash output.
  static constexpr std::uint64_t kEmptySentinel = ~0ULL;

 private:
  /// Fold `items` into `sig`, which holds num_hashes() entries (all
  /// kEmptySentinel for a fresh sketch).
  void sketch_into(std::span<const data::Item> items, Sketch& sig) const;

  std::vector<std::uint64_t> a_;  // multipliers, in [1, p-1]
  std::vector<std::uint64_t> b_;  // offsets, in [0, p-1]
};

}  // namespace hetsim::sketch
