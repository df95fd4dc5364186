// Unit tests for hetsim::common: rng, hashing, stats, allocation, table.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <sstream>

#include "common/allocation.h"
#include "common/bytes.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace hetsim::common {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
}

TEST(Rng, BoundedCoversAllResidues) {
  Rng rng(11);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 1000; ++i) ++seen[rng.bounded(5)];
  for (const int c : seen) EXPECT_GT(c, 100);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stdev(), 1.0, 0.05);
}

TEST(Rng, ZipfSkewsTowardSmallValues) {
  Rng rng(15);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.zipf(100, 1.0)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
  // Every draw in range.
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 20000);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(21);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Hash, Mix64Avalanches) {
  // Flipping one input bit should change roughly half the output bits.
  const std::uint64_t base = mix64(0x12345678);
  int diff_bits = 0;
  const std::uint64_t flipped = mix64(0x12345678 ^ 1);
  for (int b = 0; b < 64; ++b) {
    if (((base ^ flipped) >> b) & 1) ++diff_bits;
  }
  EXPECT_GT(diff_bits, 20);
  EXPECT_LT(diff_bits, 44);
}

TEST(Hash, BytesStableAndDistinct) {
  EXPECT_EQ(hash_bytes("hello"), hash_bytes("hello"));
  EXPECT_NE(hash_bytes("hello"), hash_bytes("hellp"));
  EXPECT_NE(hash_bytes(""), hash_bytes(std::string_view("\0", 1)));
}

TEST(Hash, CombineOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(OnlineStats, MeanVarianceMatchClosedForm) {
  OnlineStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, SingleSampleHasZeroVariance) {
  OnlineStats s;
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(LinearFit, RecoversExactLine) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(3.5 * x + 2.0);
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 3.5, 1e-12);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineHasHighR2) {
  Rng rng(3);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    const double x = static_cast<double>(i);
    xs.push_back(x);
    ys.push_back(2.0 * x + 10.0 + rng.normal(0, 1.0));
  }
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 0.05);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(LinearFit, DegenerateXGivesFlatFit) {
  std::vector<double> xs{2, 2, 2};
  std::vector<double> ys{1, 2, 3};
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(Polynomial, FitsQuadraticExactly) {
  std::vector<double> xs{0, 1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(1.0 + 2.0 * x + 0.5 * x * x);
  const std::vector<double> c = fit_polynomial(xs, ys, 2);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_NEAR(c[0], 1.0, 1e-9);
  EXPECT_NEAR(c[1], 2.0, 1e-9);
  EXPECT_NEAR(c[2], 0.5, 1e-9);
  EXPECT_NEAR(eval_polynomial(c, 10.0), 1.0 + 20.0 + 50.0, 1e-6);
}

TEST(Polynomial, RejectsUnderdeterminedSystems) {
  std::vector<double> xs{1, 2};
  std::vector<double> ys{1, 2};
  EXPECT_THROW((void)fit_polynomial(xs, ys, 2), std::invalid_argument);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
}

TEST(Allocation, SharesSumToTotal) {
  const auto shares = proportional_allocation({1.0, 2.0, 3.0}, 100);
  EXPECT_EQ(std::accumulate(shares.begin(), shares.end(), std::size_t{0}),
            100u);
  EXPECT_NEAR(static_cast<double>(shares[2]), 50.0, 1.0);
}

TEST(Allocation, ZeroWeightsSplitEvenly) {
  const auto shares = proportional_allocation({0.0, 0.0, 0.0}, 10);
  EXPECT_EQ(shares[0] + shares[1] + shares[2], 10u);
  EXPECT_LE(shares[0] - shares[2], 1u);
}

TEST(Allocation, NegativeWeightsTreatedAsZero) {
  const auto shares = proportional_allocation({-5.0, 1.0}, 10);
  EXPECT_EQ(shares[0], 0u);
  EXPECT_EQ(shares[1], 10u);
}

TEST(Allocation, ExactProportionsNoRemainder) {
  const auto shares = proportional_allocation({1.0, 1.0, 2.0}, 8);
  EXPECT_EQ(shares[0], 2u);
  EXPECT_EQ(shares[1], 2u);
  EXPECT_EQ(shares[2], 4u);
}

TEST(Bytes, U32RoundTrip) {
  std::string buf;
  append_u32(buf, 0xdeadbeef);
  append_u32(buf, 0);
  append_u32(buf, 1);
  EXPECT_EQ(read_u32(buf, 0), 0xdeadbeefu);
  EXPECT_EQ(read_u32(buf, 4), 0u);
  EXPECT_EQ(read_u32(buf, 8), 1u);
}

TEST(Bytes, U64RoundTrip) {
  std::string buf;
  append_u64(buf, 0x123456789abcdef0ULL);
  ASSERT_EQ(buf.size(), 8u);
  // Little-endian: the low word first.
  EXPECT_EQ(read_u32(buf, 0), 0x9abcdef0u);
  EXPECT_EQ(read_u32(buf, 4), 0x12345678u);
}

TEST(Bytes, TruncatedReadThrows) {
  std::string buf = "abc";
  EXPECT_THROW((void)read_u32(buf, 0), StoreError);
}

TEST(Table, RendersAllRows) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row_numeric("b", {2.5}, 1);
  std::ostringstream os;
  t.print(os, "title");
  const std::string s = os.str();
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

}  // namespace
}  // namespace hetsim::common
