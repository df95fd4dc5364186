// Tests for the runtime-dispatched vector layer: ISA selection, the
// arena allocator, randomized kernel equivalence against the scalar
// reference, byte-identity of sketches and k-modes assignments across
// every runnable ISA, and a golden sketch fixture pinning the exact
// permutation arithmetic against accidental drift.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "simd/simd.h"
#include "sketch/minhash.h"
#include "stratify/kmodes.h"

namespace hetsim {
namespace {

using simd::Isa;
using simd::kPrime61;

std::vector<Isa> runnable_isas() {
  std::vector<Isa> out{Isa::kScalar};
  for (const Isa isa : {Isa::kAvx2, Isa::kNeon}) {
    if (simd::isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

TEST(SimdDispatch, ScalarIsAlwaysRunnable) {
  EXPECT_TRUE(simd::isa_supported(Isa::kScalar));
  EXPECT_EQ(simd::kernels_for(Isa::kScalar).isa, Isa::kScalar);
  EXPECT_TRUE(simd::isa_supported(simd::best_isa()));
}

TEST(SimdDispatch, OverrideForcesAndRestores) {
  const Isa ambient = simd::active_isa();
  {
    simd::ScopedIsaOverride forced(Isa::kScalar);
    EXPECT_EQ(simd::active_isa(), Isa::kScalar);
    EXPECT_EQ(simd::dispatch().isa, Isa::kScalar);
    {
      simd::ScopedIsaOverride nested(simd::best_isa());
      EXPECT_EQ(simd::active_isa(), simd::best_isa());
    }
    EXPECT_EQ(simd::active_isa(), Isa::kScalar);
  }
  EXPECT_EQ(simd::active_isa(), ambient);
}

TEST(SimdDispatch, IsaNamesAreStable) {
  EXPECT_EQ(simd::isa_name(Isa::kScalar), "scalar");
  EXPECT_EQ(simd::isa_name(Isa::kAvx2), "avx2");
  EXPECT_EQ(simd::isa_name(Isa::kNeon), "neon");
}

TEST(Arena, SpansStayValidUntilReset) {
  common::Arena arena(64);  // small first block forces growth
  std::vector<std::span<std::uint64_t>> spans;
  for (std::uint64_t i = 0; i < 32; ++i) {
    auto s = arena.alloc_span<std::uint64_t>(16);
    std::fill(s.begin(), s.end(), i);
    spans.push_back(s);
  }
  // Growth must never have moved an earlier span's storage.
  for (std::uint64_t i = 0; i < spans.size(); ++i) {
    for (const std::uint64_t v : spans[i]) EXPECT_EQ(v, i);
  }
}

TEST(Arena, ResetKeepsOneBlockAndReusesIt) {
  common::Arena arena(64);
  (void)arena.alloc_span<std::uint64_t>(512);
  const std::size_t grown = arena.capacity_bytes();
  arena.reset();
  EXPECT_LE(arena.capacity_bytes(), grown);
  const void* first = arena.alloc_span<std::byte>(64).data();
  arena.reset();
  const void* second = arena.alloc_span<std::byte>(64).data();
  EXPECT_EQ(first, second);  // steady state: same block, no malloc
}

TEST(Arena, HonorsAlignment) {
  common::Arena arena;
  (void)arena.alloc_span<char>(3);  // misalign the bump cursor
  const auto d = arena.alloc_span<double>(4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % alignof(double), 0u);
  const auto z = arena.alloc_span<std::uint64_t>(0);
  EXPECT_TRUE(z.empty());
}

// Scalar reference for the min-run kernel, written independently of the
// kernel implementations (plain loop over simd::permute61).
std::uint64_t reference_min_run(std::uint64_t a, std::uint64_t b,
                                const std::vector<std::uint64_t>& items,
                                std::uint64_t acc) {
  std::uint64_t best = acc;
  for (const std::uint64_t x : items) {
    best = std::min(best, simd::permute61(a, b, x + 1));
  }
  return best;
}

TEST(SimdKernels, MinRunMatchesReferenceOnEveryIsa) {
  common::Rng rng(11);
  for (const Isa isa : runnable_isas()) {
    const simd::Kernels& kern = simd::kernels_for(isa);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::uint64_t> items(rng.bounded(70));
      for (auto& x : items) x = rng.bounded(1ULL << 32);
      if (!items.empty()) {
        // Plant the extremes: item 2^32−1 overflows a naive 32-bit x+1
        // staging, item 0 exercises the +1 offset.
        items[rng.bounded(items.size())] = 0xffffffffULL;
        items[rng.bounded(items.size())] = 0;
      }
      const std::uint64_t a = 1 + rng.bounded(kPrime61 - 1);
      const std::uint64_t b = rng.bounded(kPrime61);
      const std::uint64_t acc = trial % 3 == 0 ? ~0ULL : rng.bounded(kPrime61);
      EXPECT_EQ(kern.minhash_min_run(a, b, items.data(), items.size(), acc),
                reference_min_run(a, b, items, acc))
          << simd::isa_name(isa) << " trial " << trial;
    }
  }
}

TEST(SimdKernels, EqualCountMatchesReferenceOnEveryIsa) {
  common::Rng rng(12);
  for (const Isa isa : runnable_isas()) {
    const simd::Kernels& kern = simd::kernels_for(isa);
    for (int trial = 0; trial < 100; ++trial) {
      const std::size_t n = rng.bounded(130);
      std::vector<std::uint64_t> a(n);
      std::vector<std::uint64_t> b(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Bias toward collisions and include the all-ones sentinel.
        a[i] = rng.bounded(4) == 0 ? ~0ULL : rng.bounded(8);
        b[i] = rng.bounded(2) == 0 ? a[i] : rng.bounded(8);
      }
      std::size_t want = 0;
      for (std::size_t i = 0; i < n; ++i) want += a[i] == b[i] ? 1 : 0;
      EXPECT_EQ(kern.equal_count_u64(a.data(), b.data(), n), want)
          << simd::isa_name(isa) << " trial " << trial;
    }
  }
}

std::size_t find_above_reference(const std::vector<std::uint32_t>& row,
                                 std::size_t offset, std::size_t len,
                                 std::uint32_t threshold) {
  for (std::size_t i = 0; i < len; ++i) {
    if (row[offset + i] > threshold) return i;
  }
  return len;
}

TEST(SimdKernels, FindAboveMatchesReferenceOnEveryIsa) {
  // Every lane must return the scalar reference's index for every row
  // length 0-67 (each vector width's body and tail), from aligned and
  // unaligned starts, at the extreme thresholds 0 and UINT32_MAX, at
  // values taken from the row itself (the `>` boundary) and at random
  // ones. Rows mix zeros, the all-ones value and counts that straddle
  // the sign bit the AVX2 lane flips.
  common::Rng rng(13);
  for (const Isa isa : runnable_isas()) {
    const simd::Kernels& kern = simd::kernels_for(isa);
    for (std::size_t len = 0; len <= 67; ++len) {
      for (int trial = 0; trial < 6; ++trial) {
        std::vector<std::uint32_t> row(len + 1);
        for (auto& v : row) {
          switch (rng.bounded(5)) {
            case 0:
              v = UINT32_MAX;
              break;
            case 1:
              v = 0x80000000U + static_cast<std::uint32_t>(rng.bounded(4)) - 2;
              break;
            case 2:
              v = static_cast<std::uint32_t>(rng.bounded(1ULL << 32));
              break;
            default:
              v = trial < 3 ? 0 : static_cast<std::uint32_t>(rng.bounded(9));
          }
        }
        std::vector<std::uint32_t> thresholds{
            0, UINT32_MAX, 0x7fffffffU, 0x80000000U,
            static_cast<std::uint32_t>(rng.bounded(1ULL << 32))};
        if (len > 0) thresholds.push_back(row[rng.bounded(len)]);
        for (const std::size_t offset : {0u, 1u}) {
          for (const std::uint32_t t : thresholds) {
            EXPECT_EQ(kern.find_above_u32(row.data() + offset, len, t),
                      find_above_reference(row, offset, len, t))
                << simd::isa_name(isa) << " len " << len << " offset "
                << offset << " threshold " << t;
          }
        }
      }
    }
  }
}

std::vector<data::Record> random_records(common::Rng& rng, std::size_t n) {
  std::vector<data::Record> records(n);
  for (auto& r : records) {
    r.items.resize(rng.bounded(60));
    for (auto& x : r.items) {
      x = static_cast<data::Item>(rng.bounded(1ULL << 32));
    }
    std::sort(r.items.begin(), r.items.end());
    r.items.erase(std::unique(r.items.begin(), r.items.end()), r.items.end());
  }
  return records;
}

TEST(SimdEquivalence, SketchesAreByteIdenticalAcrossIsas) {
  common::Rng rng(14);
  const std::vector<data::Record> records = random_records(rng, 200);
  const sketch::MinHasher hasher({.num_hashes = 48, .seed = 99});

  std::vector<sketch::Sketch> baseline;
  {
    simd::ScopedIsaOverride forced(Isa::kScalar);
    baseline = hasher.sketch_all(records);
  }
  for (const Isa isa : runnable_isas()) {
    simd::ScopedIsaOverride forced(isa);
    EXPECT_EQ(hasher.sketch_all(records), baseline) << simd::isa_name(isa);
  }
}

TEST(SimdEquivalence, JaccardIsIdenticalAcrossIsas) {
  common::Rng rng(15);
  const std::vector<data::Record> records = random_records(rng, 40);
  const sketch::MinHasher hasher({.num_hashes = 64, .seed = 7});
  const std::vector<sketch::Sketch> sketches = hasher.sketch_all(records);
  std::vector<double> baseline;
  {
    simd::ScopedIsaOverride forced(Isa::kScalar);
    for (std::size_t i = 1; i < sketches.size(); ++i) {
      baseline.push_back(
          sketch::MinHasher::estimate_jaccard(sketches[0], sketches[i]));
    }
  }
  for (const Isa isa : runnable_isas()) {
    simd::ScopedIsaOverride forced(isa);
    for (std::size_t i = 1; i < sketches.size(); ++i) {
      EXPECT_EQ(sketch::MinHasher::estimate_jaccard(sketches[0], sketches[i]),
                baseline[i - 1])
          << simd::isa_name(isa);
    }
  }
}

TEST(SimdEquivalence, KModesAssignmentsAreIdenticalAcrossIsas) {
  common::Rng rng(16);
  const std::vector<data::Record> records = random_records(rng, 300);
  const sketch::MinHasher hasher({.num_hashes = 32, .seed = 3});
  const std::vector<sketch::Sketch> sketches = hasher.sketch_all(records);
  stratify::KModesConfig config;
  config.num_strata = 8;
  config.composite_l = 3;

  stratify::Stratification baseline;
  {
    simd::ScopedIsaOverride forced(Isa::kScalar);
    baseline = stratify::composite_kmodes(sketches, config);
  }
  for (const Isa isa : runnable_isas()) {
    simd::ScopedIsaOverride forced(isa);
    const stratify::Stratification got =
        stratify::composite_kmodes(sketches, config);
    EXPECT_EQ(got.assignment, baseline.assignment) << simd::isa_name(isa);
    EXPECT_EQ(got.objective, baseline.objective) << simd::isa_name(isa);
    EXPECT_EQ(got.iterations, baseline.iterations) << simd::isa_name(isa);
  }
}

// Golden fixture: pins the exact permutation arithmetic. If any lane —
// or a future refactor of the scalar path — changes a single output
// bit, this fails without needing a second ISA present to diff against.
TEST(SimdEquivalence, GoldenSketchFixture) {
  const sketch::MinHasher hasher({.num_hashes = 4, .seed = 17});
  const std::vector<data::Item> items{0, 1, 42, 4096, 0xffffffffU};
  const sketch::Sketch got =
      hasher.sketch(std::span<const data::Item>(items));
  const sketch::Sketch want = {
      119881662275500721ULL,
      227810495014918211ULL,
      443241455915740102ULL,
      52479995371912899ULL,
  };
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace hetsim
