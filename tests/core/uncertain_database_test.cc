#include "core/uncertain_database.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "gen/benchmark_datasets.h"

namespace ufim {
namespace {

TEST(UncertainDatabaseTest, EmptyDatabase) {
  UncertainDatabase db;
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.num_items(), 0u);
  EXPECT_TRUE(db.Validate().ok());
}

TEST(UncertainDatabaseTest, NumItemsTracksMaxId) {
  UncertainDatabase db;
  db.Add(Transaction({{2, 0.5}}));
  EXPECT_EQ(db.num_items(), 3u);
  db.Add(Transaction({{7, 0.5}}));
  EXPECT_EQ(db.num_items(), 8u);
}

TEST(UncertainDatabaseTest, AppendMaintainsNumItemsEagerly) {
  // The append-path cache contract: num_items() is consistent with the
  // transactions immediately after every Append — updated as part of
  // the call, never invalidated for a later lazy fill.
  UncertainDatabase db;
  const std::vector<Transaction> first = {Transaction({{2, 0.5}}),
                                          Transaction({{5, 0.9}, {6, 0.1}})};
  db.Append(first);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.num_items(), 7u);

  // A batch whose largest item is below the current maximum leaves the
  // universe unchanged (it never shrinks)...
  db.Append(std::vector<Transaction>{Transaction({{0, 0.3}})});
  EXPECT_EQ(db.num_items(), 7u);

  // ...a batch with a new largest item (or empty transactions mixed in)
  // grows it within the same call.
  db.Append(std::vector<Transaction>{Transaction(std::vector<ProbItem>{}),
                                     Transaction({{9, 0.4}})});
  EXPECT_EQ(db.size(), 5u);
  EXPECT_EQ(db.num_items(), 10u);

  // Batch append is equivalent to per-transaction Add.
  UncertainDatabase one_by_one;
  for (const Transaction& t : db.transactions()) one_by_one.Add(t);
  EXPECT_EQ(one_by_one.num_items(), db.num_items());
  EXPECT_EQ(one_by_one.size(), db.size());

  // An empty batch is a no-op.
  db.Append({});
  EXPECT_EQ(db.size(), 5u);
  EXPECT_EQ(db.num_items(), 10u);
  EXPECT_TRUE(db.Validate().ok());
}

TEST(UncertainDatabaseTest, PaperTable1Stats) {
  UncertainDatabase db = MakePaperTable1();
  DatabaseStats stats = db.ComputeStats();
  EXPECT_EQ(stats.num_transactions, 4u);
  EXPECT_EQ(stats.num_items, 6u);
  EXPECT_DOUBLE_EQ(stats.avg_length, 16.0 / 4.0);
  EXPECT_NEAR(stats.density, 4.0 / 6.0, 1e-12);
}

TEST(UncertainDatabaseTest, ItemExpectedSupportMatchesPaperExample1) {
  // Paper Example 1: esup(A) = 2.1, esup(C) = 2.6.
  UncertainDatabase db = MakePaperTable1();
  EXPECT_NEAR(db.ItemExpectedSupport(kItemA), 2.1, 1e-12);
  EXPECT_NEAR(db.ItemExpectedSupport(kItemC), 2.6, 1e-12);
  EXPECT_NEAR(db.ItemExpectedSupport(kItemB), 1.4, 1e-12);
  EXPECT_NEAR(db.ItemExpectedSupport(kItemD), 1.2, 1e-12);
  EXPECT_NEAR(db.ItemExpectedSupport(kItemE), 1.3, 1e-12);
  EXPECT_NEAR(db.ItemExpectedSupport(kItemF), 1.8, 1e-12);
}

TEST(UncertainDatabaseTest, ItemsetExpectedSupport) {
  UncertainDatabase db = MakePaperTable1();
  // {A, C}: T1 0.8*0.9 + T2 0.8*0.9 + T3 0.5*0.8 = 0.72+0.72+0.40 = 1.84.
  EXPECT_NEAR(db.ExpectedSupport(Itemset({kItemA, kItemC})), 1.84, 1e-12);
}

TEST(UncertainDatabaseTest, ContainmentProbabilitiesSkipZeros) {
  UncertainDatabase db = MakePaperTable1();
  auto probs = db.ContainmentProbabilities(Itemset({kItemA, kItemC}));
  ASSERT_EQ(probs.size(), 3u);  // A and C co-occur in T1, T2, T3 only
  EXPECT_NEAR(probs[0], 0.72, 1e-12);
  EXPECT_NEAR(probs[1], 0.72, 1e-12);
  EXPECT_NEAR(probs[2], 0.40, 1e-12);
}

TEST(UncertainDatabaseTest, PrefixTakesFirstN) {
  UncertainDatabase db = MakePaperTable1();
  UncertainDatabase two = db.Prefix(2);
  EXPECT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], db[0]);
  EXPECT_EQ(two[1], db[1]);
  EXPECT_EQ(db.Prefix(99).size(), 4u);
  EXPECT_EQ(db.Prefix(0).size(), 0u);
}

TEST(UncertainDatabaseTest, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(MakePaperTable1().Validate().ok());
}

TEST(UncertainDatabaseTest, ValidateRejectsIdsAboveTheViewBound) {
  UncertainDatabase db = MakePaperTable1();
  db.Add(Transaction({{1, 0.5}, {4000000000u, 0.5}}));
  Status status = db.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("transaction 4"), std::string::npos)
      << status.ToString();

  UncertainDatabase at_bound;
  at_bound.Add(Transaction({{1, 0.5}, {kMaxItemId, 0.5}}));
  EXPECT_TRUE(at_bound.Validate().ok());
  at_bound.Add(Transaction({{kMaxItemId + 1, 0.5}}));
  EXPECT_EQ(at_bound.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(UncertainDatabaseTest, ValidateRejectsNaNProbability) {
  // The Transaction constructor's p <= 0 / p > 1 filters both let NaN
  // through, so Validate is the check that has to catch it.
  UncertainDatabase db;
  db.Add(Transaction({{0, 0.5}, {1, std::numeric_limits<double>::quiet_NaN()}}));
  ASSERT_EQ(db[0].size(), 2u);
  Status status = db.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ufim
