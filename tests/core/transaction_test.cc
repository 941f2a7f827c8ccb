#include "core/transaction.h"

#include <gtest/gtest.h>

namespace ufim {
namespace {

TEST(TransactionTest, SortsUnitsByItem) {
  Transaction t({{3, 0.5}, {1, 0.2}, {2, 0.9}});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].item, 1u);
  EXPECT_EQ(t[1].item, 2u);
  EXPECT_EQ(t[2].item, 3u);
}

TEST(TransactionTest, DropsNonPositiveProbabilities) {
  Transaction t({{1, 0.0}, {2, -0.5}, {3, 0.7}});
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].item, 3u);
}

TEST(TransactionTest, SortedUnitsStillDropZeroAndClampAboveOne) {
  // Ids already strictly increasing: the units are kept as they are only
  // when every probability is also in (0,1].
  Transaction zero({{1, 0.5}, {2, 0.0}, {4, 1.0}});
  ASSERT_EQ(zero.size(), 2u);
  EXPECT_EQ(zero[0].item, 1u);
  EXPECT_EQ(zero[1].item, 4u);
  Transaction above({{1, 0.5}, {3, 1.5}});
  ASSERT_EQ(above.size(), 2u);
  EXPECT_EQ(above[1].prob, 1.0);
}

TEST(TransactionTest, ClampsProbabilitiesAboveOne) {
  Transaction t({{1, 1.5}});
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].prob, 1.0);
}

TEST(TransactionTest, DeduplicatesKeepingLast) {
  Transaction t({{1, 0.3}, {1, 0.8}});
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].prob, 0.8);
}

TEST(TransactionTest, ProbabilityOf) {
  Transaction t({{1, 0.3}, {5, 0.9}});
  EXPECT_EQ(t.ProbabilityOf(1), 0.3);
  EXPECT_EQ(t.ProbabilityOf(5), 0.9);
  EXPECT_EQ(t.ProbabilityOf(2), 0.0);
  EXPECT_EQ(t.ProbabilityOf(9), 0.0);
}

TEST(TransactionTest, ItemsetProbabilityIsProductOfMembers) {
  Transaction t({{1, 0.5}, {2, 0.4}, {3, 0.9}});
  EXPECT_DOUBLE_EQ(t.ItemsetProbability(Itemset({1})), 0.5);
  EXPECT_DOUBLE_EQ(t.ItemsetProbability(Itemset({1, 2})), 0.2);
  EXPECT_DOUBLE_EQ(t.ItemsetProbability(Itemset({1, 2, 3})), 0.18);
}

TEST(TransactionTest, ItemsetProbabilityZeroWhenMemberAbsent) {
  Transaction t({{1, 0.5}, {3, 0.9}});
  EXPECT_EQ(t.ItemsetProbability(Itemset({1, 2})), 0.0);
  EXPECT_EQ(t.ItemsetProbability(Itemset({4})), 0.0);
}

TEST(TransactionTest, EmptyItemsetHasZeroProbabilityByConvention) {
  Transaction t({{1, 0.5}});
  EXPECT_EQ(t.ItemsetProbability(Itemset()), 0.0);
}

}  // namespace
}  // namespace ufim
