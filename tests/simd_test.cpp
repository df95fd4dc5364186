// Tests for the runtime-dispatched vector layer: ISA selection,
// randomized kernel equivalence against the scalar reference, sketches
// against a naive per-item minimum across staging tiles, byte-identity
// of sketches and k-modes assignments across every runnable ISA, and a
// golden sketch fixture pinning the exact permutation arithmetic
// against accidental drift.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "par/pool.h"
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

TEST(SimdEquivalence, SketchesMatchNaiveMinimumAcrossStagingTiles) {
  // The sketch stages items in tiles of 1,024: sets of 0, 1 and 1,023
  // items fit one tile, 1,024 fills it exactly, and 1,025 and 2,500
  // carry the running minimum across two and three tiles. Every lane,
  // through sketch() and through sketch_all() on one and four pool
  // lanes, must equal the per-item minimum of each permutation.
  common::Rng rng(17);
  const sketch::MinHasher hasher({.num_hashes = 24, .seed = 5});
  std::vector<data::Record> records;
  for (const std::size_t n : {0u, 1u, 1023u, 1024u, 1025u, 2500u}) {
    data::Record r;
    r.items.resize(n);
    for (auto& x : r.items) {
      x = static_cast<data::Item>(rng.bounded(1ULL << 32));
    }
    if (n > 0) {
      r.items[rng.bounded(n)] = 0;
      r.items[n - 1] = 0xffffffffU;  // the last tile's last slot
    }
    records.push_back(std::move(r));
  }
  std::vector<sketch::Sketch> want;
  for (const data::Record& r : records) {
    sketch::Sketch sig(hasher.num_hashes(), sketch::MinHasher::kEmptySentinel);
    for (std::uint32_t j = 0; j < hasher.num_hashes(); ++j) {
      for (const data::Item x : r.items) {
        sig[j] = std::min(sig[j], hasher.permute(j, x));
      }
    }
    want.push_back(std::move(sig));
  }
  par::ThreadPool one(1);
  par::ThreadPool four(4);
  for (const Isa isa : runnable_isas()) {
    simd::ScopedIsaOverride forced(isa);
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(hasher.sketch(records[i].items), want[i])
          << simd::isa_name(isa) << " items " << records[i].items.size();
    }
    EXPECT_EQ(hasher.sketch_all(records, {.pool = &one}), want)
        << simd::isa_name(isa);
    EXPECT_EQ(hasher.sketch_all(records, {.pool = &four}), want)
        << simd::isa_name(isa);
  }
}

TEST(SimdEquivalence, JaccardIsIdenticalAcrossIsas) {
  // estimate_jaccard is a plain loop; the ISA-specific work is the
  // sketching, so each forced lane sketches the records itself.
  common::Rng rng(15);
  const std::vector<data::Record> records = random_records(rng, 40);
  const sketch::MinHasher hasher({.num_hashes = 64, .seed = 7});
  const auto estimates = [&] {
    const std::vector<sketch::Sketch> sketches = hasher.sketch_all(records);
    std::vector<double> out;
    for (std::size_t i = 1; i < sketches.size(); ++i) {
      out.push_back(
          sketch::MinHasher::estimate_jaccard(sketches[0], sketches[i]));
    }
    return out;
  };
  std::vector<double> baseline;
  {
    simd::ScopedIsaOverride forced(Isa::kScalar);
    baseline = estimates();
  }
  for (const Isa isa : runnable_isas()) {
    simd::ScopedIsaOverride forced(isa);
    EXPECT_EQ(estimates(), baseline) << simd::isa_name(isa);
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
