#include "core/miner_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "gen/benchmark_datasets.h"
#include "testing/paper_arms.h"

namespace ufim {
namespace {

// Literal on purpose: a registration dropped from an algorithm's
// translation unit must fail here, not silently shrink a derived list.
constexpr std::string_view kEveryFactoryName[] = {
    "UApriori",   "UFP-growth", "UH-Mine",   "BruteForceExpected",
    "DPNB",       "DPB",        "DCNB",      "DCB",
    "PDUApriori", "NDUApriori", "NDUH-Mine", "MCSampling",
    "BruteForceProbabilistic"};

TEST(MinerRegistryTest, RoundTripsEveryFactoryName) {
  for (std::string_view name : kEveryFactoryName) {
    const MinerEntry* entry = MinerRegistry::Global().Find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_EQ(entry->name, name);
    std::unique_ptr<Miner> miner = MinerRegistry::Global().Create(name);
    ASSERT_NE(miner, nullptr) << name;
    EXPECT_EQ(miner->name(), name);
    // The registered family must agree with what the miner accepts.
    const bool expects_esup =
        entry->family == TaskFamily::kExpectedSupport;
    EXPECT_EQ(miner->Supports(MiningTask(ExpectedSupportParams{})),
              expects_esup)
        << name;
    EXPECT_EQ(miner->Supports(MiningTask(ProbabilisticParams{})),
              !expects_esup)
        << name;
  }
}

TEST(MinerRegistryTest, UnknownNameIsNull) {
  EXPECT_EQ(MinerRegistry::Global().Find("NoSuchMiner"), nullptr);
  EXPECT_EQ(MinerRegistry::Global().Create("NoSuchMiner"), nullptr);
}

TEST(MinerRegistryTest, ProductionNamesExcludeBruteForce) {
  const std::vector<std::string> production =
      MinerRegistry::Global().Names(/*production_only=*/true);
  EXPECT_EQ(std::count(production.begin(), production.end(),
                       "BruteForceExpected"),
            0);
  EXPECT_EQ(std::count(production.begin(), production.end(),
                       "BruteForceProbabilistic"),
            0);
  // 3 expected-support + 4 exact + 3 approximate + MCSampling + TopK =
  // 12 production algorithms.
  EXPECT_EQ(production.size(), 12u);
  EXPECT_EQ(MinerRegistry::Global()
                .NamesOf(TaskFamily::kExpectedSupport, /*production_only=*/true)
                .size(),
            3u);
  EXPECT_EQ(MinerRegistry::Global()
                .NamesOf(TaskFamily::kProbabilistic, /*production_only=*/true)
                .size(),
            8u);
  EXPECT_EQ(MinerRegistry::Global()
                .NamesOf(TaskFamily::kTopK, /*production_only=*/true)
                .size(),
            1u);
}

// The FactoryTest cases predate the registry; they keep their names and
// now check the same taxonomy through MinerRegistry.
template <std::size_t N>
std::vector<std::string> Sorted(const std::string_view (&names)[N]) {
  std::vector<std::string> sorted(std::begin(names), std::end(names));
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

void ExpectCreates(std::string_view name, TaskFamily family) {
  const MinerEntry* entry = MinerRegistry::Global().Find(name);
  ASSERT_NE(entry, nullptr) << name;
  EXPECT_EQ(entry->family, family) << name;
  std::unique_ptr<Miner> miner = MinerRegistry::Global().Create(name);
  ASSERT_NE(miner, nullptr) << name;
  EXPECT_EQ(miner->name(), name);
}

TEST(FactoryTest, CreatesEveryExpectedMiner) {
  for (std::string_view name : testing_util::kExpectedArms) {
    ExpectCreates(name, TaskFamily::kExpectedSupport);
  }
  ExpectCreates("BruteForceExpected", TaskFamily::kExpectedSupport);
}

TEST(FactoryTest, CreatesEveryProbabilisticMiner) {
  for (std::string_view name : testing_util::kExactArms) {
    ExpectCreates(name, TaskFamily::kProbabilistic);
  }
  for (std::string_view name : testing_util::kApproxArms) {
    ExpectCreates(name, TaskFamily::kProbabilistic);
  }
  ExpectCreates("MCSampling", TaskFamily::kProbabilistic);
  ExpectCreates("BruteForceProbabilistic", TaskFamily::kProbabilistic);
}

TEST(FactoryTest, ExactnessFlagsMatchTaxonomy) {
  // The production probabilistic miners split by is_exact() into the 4
  // exact arms (DP/DC) and the 3 approximate arms plus MCSampling (the
  // paper's reference [11], not an arm).
  const MinerRegistry& registry = MinerRegistry::Global();
  std::vector<std::string> exact;
  std::vector<std::string> approx;
  for (const std::string& name : registry.NamesOf(
           TaskFamily::kProbabilistic, /*production_only=*/true)) {
    (registry.Create(name)->is_exact() ? exact : approx).push_back(name);
  }
  std::erase(approx, "MCSampling");
  EXPECT_EQ(exact, Sorted(testing_util::kExactArms));
  EXPECT_EQ(approx, Sorted(testing_util::kApproxArms));
}

TEST(FactoryTest, EnumerationHelpersExcludeBruteForce) {
  // The production expected-support family is exactly the 3
  // expected-support arms: the brute-force oracle is registered but
  // never enumerated as an arm.
  const std::vector<std::string> expected =
      MinerRegistry::Global().NamesOf(TaskFamily::kExpectedSupport,
                                      /*production_only=*/true);
  EXPECT_EQ(expected, Sorted(testing_util::kExpectedArms));
  EXPECT_EQ(std::count(expected.begin(), expected.end(), "BruteForceExpected"),
            0);
  EXPECT_EQ(std::size(testing_util::kExpectedArms), 3u);
  EXPECT_EQ(std::size(testing_util::kExactArms), 4u);
  EXPECT_EQ(std::size(testing_util::kApproxArms), 3u);
}

TEST(MinerRegistryTest, OptionsReachUApriori) {
  // Both configurations must produce identical results (pruning is an
  // optimization); this smoke-tests the options plumbing.
  UncertainDatabase db = MakePaperTable1();
  ExpectedSupportParams params;
  params.min_esup = 0.3;
  MinerOptions on;
  on.decremental_pruning = true;
  MinerOptions off;
  off.decremental_pruning = false;
  auto a = MinerRegistry::Global().Create("UApriori", on)->Mine(db, params);
  auto b = MinerRegistry::Global().Create("UApriori", off)->Mine(db, params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ItemsetsOnly(), b->ItemsetsOnly());
}

TEST(MinerRegistryTest, TopKIsAFirstClassMiner) {
  const MinerEntry* entry = MinerRegistry::Global().Find("TopK");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->family, TaskFamily::kTopK);
  std::unique_ptr<Miner> miner = MinerRegistry::Global().Create("TopK");
  ASSERT_NE(miner, nullptr);
  EXPECT_TRUE(miner->Supports(MiningTask(TopKParams{})));
  EXPECT_FALSE(miner->Supports(MiningTask(ExpectedSupportParams{})));
  EXPECT_FALSE(miner->Supports(MiningTask(ProbabilisticParams{})));
  EXPECT_TRUE(miner->is_exact());

  FlatView view((MakePaperTable1()));
  TopKParams params;
  params.k = 2;
  auto result = miner->Mine(view, MiningTask(params));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  // Descending expected support: {C} 2.6 then {A} 2.1 (paper Example 1).
  EXPECT_NEAR((*result)[0].expected_support, 2.6, 1e-12);
  EXPECT_NEAR((*result)[1].expected_support, 2.1, 1e-12);

  auto wrong = miner->Mine(view, MiningTask(ExpectedSupportParams{}));
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

TEST(MinerRegistryTest, UnifiedFacadeDispatchesOnTask) {
  UncertainDatabase db = MakePaperTable1();
  FlatView view(db);
  std::unique_ptr<Miner> miner = MinerRegistry::Global().Create("UApriori");
  ASSERT_NE(miner, nullptr);

  ExpectedSupportParams params;
  params.min_esup = 0.5;
  auto ok = miner->Mine(view, MiningTask(params));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 2u);  // {A}, {C} per paper Example 1

  // The wrong task family is rejected, not silently coerced.
  auto wrong = miner->Mine(view, MiningTask(ProbabilisticParams{}));
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

TEST(MinerRegistryTest, DatabaseOverloadRejectsIdsAboveTheViewBound) {
  // A view would size its per-item arrays by the id 4000000000 and abort
  // with std::bad_alloc; the database overload rejects it first.
  UncertainDatabase db;
  db.Add(Transaction({{4000000000u, 0.5}, {1, 0.5}}));
  ASSERT_EQ(db.num_items(), std::size_t{4000000001});
  std::unique_ptr<Miner> miner = MinerRegistry::Global().Create("UApriori");
  ASSERT_NE(miner, nullptr);
  ExpectedSupportParams params;
  params.min_esup = 0.3;
  auto rejected = miner->Mine(db, MiningTask(params));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("4000000000"), std::string::npos)
      << rejected.status().ToString();
}

TEST(MinerRegistryTest, EveryMinerRunsThroughUnifiedFacadeOverFlatView) {
  UncertainDatabase db = MakePaperTable1();
  FlatView view(db);
  for (std::string_view name : kEveryFactoryName) {
    const MinerEntry* entry = MinerRegistry::Global().Find(name);
    ASSERT_NE(entry, nullptr) << name;
    MiningTask task;
    if (entry->family == TaskFamily::kExpectedSupport) {
      ExpectedSupportParams params;
      params.min_esup = 0.3;
      task = params;
    } else {
      ProbabilisticParams params;
      params.min_sup = 0.4;
      params.pft = 0.5;
      task = params;
    }
    auto result = MinerRegistry::Global().Create(name)->Mine(view, task);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_GT(result->size(), 0u) << name;
  }
}

TEST(MinerRegistryTest, SelfRegistrationAcceptsNewAlgorithms) {
  // A miner registered at runtime is immediately creatable by name —
  // the plug-in path a new algorithm's translation unit uses.
  class Stub final : public ExpectedSupportMiner {
   public:
    std::string_view name() const override { return "StubMiner"; }
    Result<MiningResult> MineExpected(
        const FlatView&, const ExpectedSupportParams&) const override {
      return MiningResult();
    }
  };
  MinerRegistry::Global().Register(
      MinerEntry{"StubMiner", TaskFamily::kExpectedSupport,
                 /*production=*/false,
                 [](const MinerOptions&) { return std::make_unique<Stub>(); }});
  std::unique_ptr<Miner> miner = MinerRegistry::Global().Create("StubMiner");
  ASSERT_NE(miner, nullptr);
  EXPECT_EQ(miner->name(), "StubMiner");
  auto result = miner->Mine(FlatView(MakePaperTable1()),
                            MiningTask(ExpectedSupportParams{}));
  EXPECT_TRUE(result.ok());
}

}  // namespace
}  // namespace ufim
