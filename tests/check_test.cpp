// Tests for the correctness-tooling layer (src/check/): the contract
// macros. The death tests prove the fail-fast paths actually abort with a
// diagnosable message — a contract that cannot fire is worse than no
// contract.
#include <gtest/gtest.h>

#include "check/check.h"
#include "common/allocation.h"
#include "common/error.h"

namespace {

// ---- contract macros -------------------------------------------------------

TEST(Check, PassingContractsAreSilent) {
  HETSIM_CHECK(2 + 2 == 4);
  HETSIM_CHECK(true) << "never rendered";
  HETSIM_CHECK_EQ(3, 3);
  HETSIM_CHECK_NE(3, 4);
  HETSIM_CHECK_LT(3, 4);
  HETSIM_CHECK_LE(3, 3);
  HETSIM_CHECK_GT(4, 3);
  HETSIM_CHECK_GE(4, 4);
  HETSIM_INVARIANT(1 == 1);
  HETSIM_DCHECK(true);
  HETSIM_DCHECK_EQ(1, 1);
}

TEST(Check, StreamedContextIsLazy) {
  // The streamed expression must not be evaluated on the passing path.
  int evaluations = 0;
  const auto count_eval = [&evaluations] {
    ++evaluations;
    return "ctx";
  };
  HETSIM_CHECK(true) << count_eval();
  EXPECT_EQ(evaluations, 0);
}

using CheckDeathTest = ::testing::Test;

TEST(CheckDeathTest, CheckPrintsExpressionLocationAndContext) {
  const int records = 7;
  EXPECT_DEATH(HETSIM_CHECK(records == 8) << " saw " << records,
               "HETSIM CHECK failed: records == 8 at .*check_test.cpp:"
               ".* saw 7");
}

TEST(CheckDeathTest, CheckEqPrintsBothOperands) {
  const int lhs = 3;
  const int rhs = 4;
  EXPECT_DEATH(HETSIM_CHECK_EQ(lhs, rhs),
               "CHECK failed: lhs == rhs at .*\\(with 3 vs 4\\)");
}

TEST(CheckDeathTest, InvariantIsTaggedAsInvariant) {
  EXPECT_DEATH(HETSIM_INVARIANT(false), "HETSIM INVARIANT failed: false");
}

#if HETSIM_DCHECK_ENABLED
TEST(CheckDeathTest, DcheckFiresWhenEnabled) {
  EXPECT_DEATH(HETSIM_DCHECK(1 == 2), "HETSIM DCHECK failed: 1 == 2");
  EXPECT_DEATH(HETSIM_DCHECK_GE(1, 2), "\\(with 1 vs 2\\)");
}
#else
TEST(Check, DcheckCompiledOutStillTypeChecksOperands) {
  int evaluations = 0;
  HETSIM_DCHECK([&] {
    ++evaluations;
    return false;
  }());
  EXPECT_EQ(evaluations, 0);
}
#endif

// ---- retrofitted contracts: proportional_allocation edge cases -------------

TEST(AllocationContract, TotalZeroGivesAllZeroShares) {
  const auto shares = hetsim::common::proportional_allocation({1.0, 2.0}, 0);
  EXPECT_EQ(shares, (std::vector<std::size_t>{0, 0}));
}

TEST(AllocationContract, AllZeroWeightsConserveTotal) {
  const auto shares =
      hetsim::common::proportional_allocation({0.0, 0.0, 0.0, 0.0}, 7);
  EXPECT_EQ(shares[0] + shares[1] + shares[2] + shares[3], 7u);
  // Remainder spreads from the front, one record at a time.
  EXPECT_EQ(shares, (std::vector<std::size_t>{2, 2, 2, 1}));
}

TEST(AllocationContract, AllNegativeWeightsFallBackToEqualSplit) {
  const auto shares =
      hetsim::common::proportional_allocation({-1.0, -2.0, -3.0}, 9);
  EXPECT_EQ(shares, (std::vector<std::size_t>{3, 3, 3}));
}

TEST(AllocationContract, MixedSignWeightsIgnoreNegatives) {
  const auto shares =
      hetsim::common::proportional_allocation({-10.0, 1.0, 3.0}, 8);
  EXPECT_EQ(shares[0], 0u);
  EXPECT_EQ(shares[1] + shares[2], 8u);
  EXPECT_EQ(shares[2], 6u);
}

TEST(AllocationContract, EmptyWeightsStillThrowConfigError) {
  EXPECT_THROW(hetsim::common::proportional_allocation({}, 5),
               hetsim::common::ConfigError);
}

}  // namespace
