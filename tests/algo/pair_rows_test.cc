// Pair rows vs the posting join: EvaluateCandidates counts pairs by
// walking the first item's transactions and larger candidates by posting
// joins, and both must report, per candidate, exactly the moments of a
// per-candidate JoinPostingsBatched Kahan sum — compared bit for bit
// (memcmp), at 1, 2 and 8 threads, with and without collected probs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "algo/apriori_framework.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "core/flat_view.h"
#include "core/streaming_flat_view.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "testing/random_db.h"

namespace ufim {
namespace {

using testing_util::MakeStreamBatch;
using testing_util::StreamBatchSpec;

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// The reference: one posting join per candidate, every product Kahan
/// summed in tid order, nonzero products kept as probs.
CandidateStats JoinReference(const FlatView& view, const Itemset& candidate) {
  CandidateStats out;
  KahanSum esup;
  JoinScratch scratch;
  view.JoinPostingsBatched(candidate, scratch, [&](const JoinBatch& batch) {
    for (const double prod : batch.prods) {
      esup.Add(prod);
      out.sq_sum += prod * prod;
      if (prod != 0.0) out.probs.push_back(prod);
    }
    return true;
  });
  out.esup = esup.value();
  return out;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Asserts EvaluateCandidates == JoinReference bit for bit for every
/// candidate, at every thread count, with and without probs.
void ExpectMatchesJoin(const FlatView& view,
                       const std::vector<Itemset>& candidates,
                       const std::string& label) {
  std::vector<CandidateStats> want;
  want.reserve(candidates.size());
  for (const Itemset& c : candidates) want.push_back(JoinReference(view, c));
  for (const bool collect_probs : {false, true}) {
    for (const std::size_t threads : kThreadCounts) {
      const std::vector<CandidateStats> got =
          EvaluateCandidates(view, candidates, collect_probs,
                             /*decremental_threshold=*/-1.0, threads);
      ASSERT_EQ(got.size(), candidates.size());
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const std::string where = label + " " + candidates[c].ToString() +
                                  " @" + std::to_string(threads) +
                                  (collect_probs ? " probs" : "");
        EXPECT_TRUE(SameBits(got[c].esup, want[c].esup))
            << where << ": " << got[c].esup << " vs " << want[c].esup;
        EXPECT_TRUE(SameBits(got[c].sq_sum, want[c].sq_sum)) << where;
        if (!collect_probs) {
          EXPECT_TRUE(got[c].probs.empty()) << where;
          continue;
        }
        ASSERT_EQ(got[c].probs.size(), want[c].probs.size()) << where;
        EXPECT_TRUE(std::equal(got[c].probs.begin(), got[c].probs.end(),
                               want[c].probs.begin(), SameBits))
            << where;
      }
    }
  }
}

/// Pairs of the `top` most frequent items, plus the triples those pairs
/// generate and one duplicated pair, shuffled together so pairs and
/// joins interleave.
std::vector<Itemset> MixedCandidates(const FlatView& view, std::size_t top,
                                     std::size_t max_triples) {
  std::vector<ItemStats> items = CollectItemStats(view);
  std::sort(items.begin(), items.end(),
            [](const ItemStats& a, const ItemStats& b) {
              return a.esup > b.esup;
            });
  items.resize(std::min(items.size(), top));
  std::vector<Itemset> singles;
  for (const ItemStats& is : items) singles.push_back(Itemset{is.item});
  std::sort(singles.begin(), singles.end());
  std::vector<Itemset> pairs = GenerateCandidates(singles, nullptr);
  std::vector<Itemset> triples = GenerateCandidates(pairs, nullptr);
  if (triples.size() > max_triples) triples.resize(max_triples);
  std::vector<Itemset> out = pairs;
  out.insert(out.end(), triples.begin(), triples.end());
  out.push_back(pairs.front());
  std::shuffle(out.begin(), out.end(), std::mt19937(17));
  return out;
}

TEST(PairRowsTest, KosarakLikeMatchesJoin) {
  const UncertainDatabase db = AssignGaussianProbabilities(
      MakeKosarakLike(3000, /*seed=*/5), 0.5, 0.5, /*seed=*/6);
  const FlatView view(db);
  const std::vector<Itemset> cands = MixedCandidates(view, 40, 400);
  ASSERT_GT(cands.size(), 700u);
  ExpectMatchesJoin(view, cands, "kosarak");
}

TEST(PairRowsTest, LongZipfRowsMatchJoin) {
  Rng rng(91);
  StreamBatchSpec spec;
  spec.num_items = 60;
  spec.item_skew = 1.1;
  spec.avg_length = 24.0;
  const UncertainDatabase db{MakeStreamBatch(rng, spec, 1500)};
  const FlatView view(db);
  ExpectMatchesJoin(view, MixedCandidates(view, 30, 300), "zipf");
}

TEST(PairRowsTest, StreamingDeltaAndSeamSlicesMatchJoin) {
  Rng rng(92);
  StreamBatchSpec spec;
  spec.num_items = 24;
  spec.avg_length = 8.0;
  CompactionPolicy never;
  never.max_delta_ratio = 1e9;
  StreamingFlatView sv(UncertainDatabase{MakeStreamBatch(rng, spec, 2500)},
                       never);
  sv.AssertSoleWriter();  // single-threaded test body: sole writer
  sv.Append(MakeStreamBatch(rng, spec, 1500));
  ASSERT_TRUE(sv.has_delta());
  const FlatView view = sv.View();
  const std::vector<Itemset> cands = MixedCandidates(view, 24, 500);
  ExpectMatchesJoin(view, cands, "stream");
  // Base-only, delta-only and seam-straddling slices.
  ExpectMatchesJoin(view.Slice(0, 2500), cands, "slice[0,2500)");
  ExpectMatchesJoin(view.Slice(2500, 4000), cands, "slice[2500,4000)");
  ExpectMatchesJoin(view.Slice(1700, 3300), cands, "slice[1700,3300)");
}

TEST(PairRowsTest, UnderflowingUnitsMatchJoin) {
  // 1e-200 units: a product of two underflows to +0.0, which stays in
  // the sums but not in the probs; a product with a normal unit does not.
  Rng rng(93);
  StreamBatchSpec spec;
  spec.num_items = 12;
  spec.avg_length = 6.0;
  std::vector<Transaction> txns = MakeStreamBatch(rng, spec, 800);
  for (std::size_t t = 0; t < txns.size(); ++t) {
    std::vector<ProbItem> units(txns[t].begin(), txns[t].end());
    for (std::size_t u = 0; u < units.size(); ++u) {
      if ((t + u) % 3 == 0) units[u].prob = 1e-200;
    }
    txns[t] = Transaction(std::move(units));
  }
  const UncertainDatabase db{std::move(txns)};
  const FlatView view(db);
  const std::vector<Itemset> cands = MixedCandidates(view, 12, 200);
  ExpectMatchesJoin(view, cands, "tiny");
  // The fixture must actually produce underflowed products.
  bool underflow = false;
  for (const Itemset& c : cands) {
    JoinScratch scratch;
    view.JoinPostingsBatched(c, scratch, [&](const JoinBatch& batch) {
      for (const double prod : batch.prods) underflow |= prod == 0.0;
      return true;
    });
  }
  EXPECT_TRUE(underflow);
}

}  // namespace
}  // namespace ufim
