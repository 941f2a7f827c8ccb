#include "core/flat_view.h"

#include <gtest/gtest.h>

#include <vector>

#include "algo/apriori_framework.h"
#include "common/rng.h"
#include "gen/benchmark_datasets.h"
#include "testing/random_db.h"

namespace ufim {
namespace {

using testing_util::MakeRandomDatabase;
using testing_util::RandomDbSpec;

/// A spread of random itemsets over the database's item universe: all
/// singletons, all pairs, and a handful of larger sets.
std::vector<Itemset> SampleItemsets(const UncertainDatabase& db,
                                    std::uint64_t seed) {
  const std::size_t n = db.num_items();
  std::vector<Itemset> out;
  for (ItemId i = 0; i < n; ++i) out.push_back(Itemset{i});
  for (ItemId i = 0; i < n; ++i) {
    for (ItemId j = i + 1; j < n; ++j) out.push_back(Itemset({i, j}));
  }
  Rng rng(seed);
  for (int k = 0; k < 8; ++k) {
    std::vector<ItemId> items;
    for (ItemId i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.4)) items.push_back(i);
    }
    if (items.size() >= 2) out.push_back(Itemset(std::move(items)));
  }
  return out;
}

TEST(FlatViewTest, HorizontalLayoutRoundTripsTransactions) {
  UncertainDatabase db = MakeRandomDatabase({.seed = 11});
  FlatView view(db);
  ASSERT_EQ(view.num_transactions(), db.size());
  EXPECT_EQ(view.num_items(), db.num_items());
  for (std::size_t t = 0; t < db.size(); ++t) {
    auto units = view.TransactionUnits(static_cast<TransactionId>(t));
    ASSERT_EQ(units.size(), db[t].size());
    for (std::size_t u = 0; u < units.size(); ++u) {
      EXPECT_EQ(units[u], db[t][u]);
    }
  }
}

TEST(FlatViewTest, VerticalPostingsMatchTransactionMembership) {
  UncertainDatabase db = MakeRandomDatabase({.seed = 12});
  FlatView view(db);
  std::size_t total_postings = 0;
  for (ItemId item = 0; item < db.num_items(); ++item) {
    auto tids = view.PostingTids(item);
    auto probs = view.PostingProbs(item);
    ASSERT_EQ(tids.size(), probs.size());
    total_postings += tids.size();
    for (std::size_t i = 0; i < tids.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(tids[i - 1], tids[i]) << "tids must ascend";
      }
      EXPECT_EQ(probs[i], db[tids[i]].ProbabilityOf(item));
    }
  }
  EXPECT_EQ(total_postings, view.num_units());
}

TEST(FlatViewTest, ProbabilityLookupMatchesTransaction) {
  UncertainDatabase db = MakeRandomDatabase({.seed = 13});
  FlatView view(db);
  for (std::size_t t = 0; t < db.size(); ++t) {
    for (ItemId item = 0; item < db.num_items() + 2; ++item) {
      EXPECT_EQ(view.Probability(static_cast<TransactionId>(t), item),
                db[t].ProbabilityOf(item));
    }
  }
}

TEST(FlatViewTest, CachedItemMomentsMatchScanBasedSupports) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    UncertainDatabase db = MakeRandomDatabase(
        {.seed = seed, .num_transactions = 40, .num_items = 10});
    FlatView view(db);
    for (ItemId item = 0; item < db.num_items(); ++item) {
      EXPECT_NEAR(view.ItemExpectedSupport(item), db.ItemExpectedSupport(item),
                  1e-12);
    }
  }
}

TEST(FlatViewTest, ExpectedSupportMatchesScanOnRandomizedDatabases) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    UncertainDatabase db = MakeRandomDatabase(
        {.seed = seed, .num_transactions = 30, .num_items = 9});
    FlatView view(db);
    for (const Itemset& itemset : SampleItemsets(db, seed * 7)) {
      EXPECT_NEAR(view.ExpectedSupport(itemset), db.ExpectedSupport(itemset),
                  1e-9)
          << itemset.ToString() << " seed " << seed;
    }
  }
}

TEST(FlatViewTest, ContainmentProbabilitiesMatchScanOnRandomizedDatabases) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    UncertainDatabase db = MakeRandomDatabase(
        {.seed = seed, .num_transactions = 30, .num_items = 9});
    FlatView view(db);
    for (const Itemset& itemset : SampleItemsets(db, seed * 11)) {
      const std::vector<double> expected = db.ContainmentProbabilities(itemset);
      const std::vector<double> actual = view.ContainmentProbabilities(itemset);
      ASSERT_EQ(actual.size(), expected.size()) << itemset.ToString();
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_NEAR(actual[i], expected[i], 1e-12) << itemset.ToString();
      }
    }
  }
}

TEST(FlatViewTest, UnderflowedProductsAreNotContainmentProbabilities) {
  // Four transactions whose products underflow to +0.0 and one whose
  // products are normal: only the normal ones are (nonzero) containment
  // probabilities, exactly as in the row-oriented database.
  std::vector<Transaction> txns(
      4, Transaction({{0, 1e-200}, {1, 1e-200}, {3, 1e-200}}));
  txns.push_back(Transaction({{0, 0.5}, {1, 0.5}, {3, 0.5}}));
  const UncertainDatabase db{std::move(txns)};
  const FlatView view(db);
  EXPECT_EQ(view.ContainmentProbabilities(Itemset({0, 1})),
            std::vector<double>{0.25});
  EXPECT_EQ(view.ContainmentProbabilities(Itemset({0, 1, 3})),
            std::vector<double>{0.125});
  for (const Itemset& itemset : {Itemset({0, 1}), Itemset({0, 3}),
                                 Itemset({0, 1, 3})}) {
    EXPECT_EQ(view.ContainmentProbabilities(itemset),
              db.ContainmentProbabilities(itemset))
        << itemset.ToString();
  }
}

TEST(FlatViewTest, EvaluateCandidatesMatchesRowScanBaseline) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    UncertainDatabase db = MakeRandomDatabase(
        {.seed = seed, .num_transactions = 50, .num_items = 8});
    FlatView view(db);
    std::vector<Itemset> candidates;
    for (const Itemset& s : SampleItemsets(db, seed * 13)) {
      if (s.size() >= 2) candidates.push_back(s);
    }
    auto columnar =
        EvaluateCandidates(view, candidates, /*collect_probs=*/true);
    auto rows =
        EvaluateCandidatesRowScan(db, candidates, /*collect_probs=*/true);
    ASSERT_EQ(columnar.size(), rows.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      EXPECT_NEAR(columnar[c].esup, rows[c].esup, 1e-9)
          << candidates[c].ToString();
      EXPECT_NEAR(columnar[c].sq_sum, rows[c].sq_sum, 1e-9);
      ASSERT_EQ(columnar[c].probs.size(), rows[c].probs.size())
          << candidates[c].ToString();
      for (std::size_t i = 0; i < rows[c].probs.size(); ++i) {
        EXPECT_NEAR(columnar[c].probs[i], rows[c].probs[i], 1e-12);
      }
    }
  }
}

TEST(FlatViewTest, PrefixSliceMatchesPrefixDatabase) {
  UncertainDatabase db = MakeRandomDatabase(
      {.seed = 21, .num_transactions = 40, .num_items = 8});
  FlatView full(db);
  for (std::size_t n : {0u, 1u, 17u, 40u, 100u}) {
    FlatView sliced = full.Prefix(n);
    UncertainDatabase prefix_db = db.Prefix(n);
    ASSERT_EQ(sliced.num_transactions(), prefix_db.size());
    for (const Itemset& itemset : SampleItemsets(db, 5)) {
      EXPECT_NEAR(sliced.ExpectedSupport(itemset),
                  prefix_db.ExpectedSupport(itemset), 1e-9)
          << "prefix " << n << " " << itemset.ToString();
    }
    for (ItemId item = 0; item < db.num_items(); ++item) {
      EXPECT_NEAR(sliced.ItemExpectedSupport(item),
                  prefix_db.ItemExpectedSupport(item), 1e-12);
    }
  }
}

TEST(FlatViewTest, PrefixSliceSharesStorage) {
  UncertainDatabase db = MakeRandomDatabase({.seed = 22});
  FlatView full(db);
  FlatView sliced = full.Prefix(db.size() / 2);
  EXPECT_FALSE(sliced.IsFullView());
  EXPECT_TRUE(full.IsFullView());
  // Same underlying arrays: the slice's horizontal span aliases the
  // full view's.
  ASSERT_GT(sliced.num_transactions(), 0u);
  EXPECT_EQ(sliced.TransactionUnits(0).data(), full.TransactionUnits(0).data());
}

TEST(FlatViewTest, EmptyDatabase) {
  FlatView view((UncertainDatabase()));
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.num_units(), 0u);
  EXPECT_EQ(view.num_items(), 0u);
  EXPECT_TRUE(view.ContainmentProbabilities(Itemset{3}).empty());
  EXPECT_EQ(view.ItemExpectedSupport(3), 0.0);
}

TEST(FlatViewTest, PaperTable1ItemSupports) {
  UncertainDatabase db = MakePaperTable1();
  FlatView view(db);
  // esup(A) = 2.1 (paper Example 1).
  EXPECT_NEAR(view.ItemExpectedSupport(kItemA), 2.1, 1e-12);
}

}  // namespace
}  // namespace ufim
