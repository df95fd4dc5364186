#include "sketch/minhash.h"

#include <algorithm>
#include <array>

#include "check/check.h"
#include "common/error.h"
#include "common/rng.h"

namespace hetsim::sketch {

namespace {

constexpr std::uint64_t kPrime = detail::kSketchPrime;

/// Items per tile of the sketch kernel: one tile of the input stays in
/// L1 while every permutation sweeps it, so a huge record costs one
/// cache pass per batch instead of one per (item, hash) pair.
constexpr std::size_t kItemBatch = 1024;

/// Records per chunk of sketch_all's fan-out.
constexpr std::size_t kRecordChunk = 256;

}  // namespace

MinHasher::MinHasher(SketchConfig config) {
  common::require<common::ConfigError>(config.num_hashes >= 1,
                                       "MinHasher: need at least one hash");
  common::Rng rng(config.seed);
  a_.resize(config.num_hashes);
  b_.resize(config.num_hashes);
  for (std::uint32_t j = 0; j < config.num_hashes; ++j) {
    a_[j] = 1 + rng.bounded(kPrime - 1);
    b_[j] = rng.bounded(kPrime);
    // Permutation validity over GF(2^61-1): a=0 (or a,b >= p) would
    // collapse h_j to a constant and silently wreck every Jaccard
    // estimate downstream.
    HETSIM_INVARIANT(a_[j] >= 1 && a_[j] < kPrime)
        << ": hash " << j << " drew degenerate multiplier a=" << a_[j];
    HETSIM_INVARIANT(b_[j] < kPrime)
        << ": hash " << j << " drew out-of-field offset b=" << b_[j];
  }
}

std::uint64_t MinHasher::permute(std::uint32_t j, data::Item x) const {
  // Hot inner-loop probe (the A/B bench baselines sweep it per item):
  // an out-of-range j is a caller bug, not user input, so the bound is
  // a debug contract rather than a per-call throw check.
  HETSIM_DCHECK(j < a_.size()) << ": MinHasher hash index out of range";
  const std::uint64_t h = detail::linear_permute(a_[j], b_[j], x);
  HETSIM_DCHECK_LT(h, kPrime);
  return h;
}

Sketch MinHasher::sketch(std::span<const data::Item> items) const {
  Sketch sig(a_.size(), kEmptySentinel);
  sketch_into(items, sig);
  return sig;
}

void MinHasher::sketch_into(std::span<const data::Item> items,
                            Sketch& sig) const {
  if (items.empty()) return;
  const std::size_t k = a_.size();
  const simd::Kernels& kern = simd::dispatch();
  // Hash-major over item tiles: each tile is staged once as
  // zero-extended u64 lanes (what the vector kernels consume) and then
  // swept by every permutation while it sits in L1 — one widening pass
  // per tile instead of one per (item, hash) pair. The tile lives on
  // the stack (8 KB) and is left uninitialised: only its first `len`
  // entries are read.
  std::array<std::uint64_t, kItemBatch> staged;
  for (std::size_t base = 0; base < items.size(); base += kItemBatch) {
    const std::size_t len = std::min(items.size() - base, kItemBatch);
    for (std::size_t i = 0; i < len; ++i) {
      staged[i] = items[base + i];
    }
    for (std::size_t j = 0; j < k; ++j) {
      sig[j] = kern.minhash_min_run(a_[j], b_[j], staged.data(), len, sig[j]);
    }
  }
}

std::vector<Sketch> MinHasher::sketch_all(
    const std::vector<data::Record>& records, const par::Options& par) const {
  // Every row is allocated here, on the calling thread: rows malloc'd on
  // pool lanes come from per-thread malloc arenas and raise peak RSS.
  std::vector<Sketch> out(records.size(), Sketch(a_.size(), kEmptySentinel));
  par::resolve(par).parallel_for(
      records.size(), kRecordChunk, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          sketch_into(records[i].items, out[i]);
        }
      });
  return out;
}

double MinHasher::estimate_jaccard(const Sketch& a, const Sketch& b) {
  common::require<common::ConfigError>(a.size() == b.size() && !a.empty(),
                                       "estimate_jaccard: size mismatch");
  std::size_t match = 0;
  for (std::size_t j = 0; j < a.size(); ++j) match += a[j] == b[j] ? 1 : 0;
  return static_cast<double>(match) / static_cast<double>(a.size());
}

}  // namespace hetsim::sketch
