// Parallel execution layer: sequential vs 2/4/8-thread candidate
// counting.
//
// Measured:
//   * EvaluateCandidates over the QUEST level-2 candidate set at 1/2/4/8
//     threads (pair rows: workers claim one first item at a time),
//   * the same over a 100k-transaction Kosarak-like view at the three
//     min_esup points of the e2ebench `esup` workload, with UApriori's
//     decremental threshold (BM_PairLevelKosarak, recorded in
//     BENCH_pair_rows.json).
//
// Results are recorded in BENCH_parallel.json. Speedups require real
// cores: on a single-core container every multi-thread configuration
// degenerates to ~1x (scheduling overhead included), which the recorded
// environment block makes explicit.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "algo/apriori_framework.h"
#include "bench_datasets.h"
#include "core/flat_view.h"

namespace ufim::bench {
namespace {

constexpr double kMinEsupRatio = 0.005;

/// Frequent-item pairs: the level-2 candidate set UApriori would scan.
std::vector<Itemset> Level2Candidates(const FlatView& view) {
  const double threshold =
      kMinEsupRatio * static_cast<double>(view.num_transactions());
  std::vector<ItemStats> stats = CollectItemStats(view);
  std::vector<Itemset> frequent;
  for (const ItemStats& is : stats) {
    if (is.esup >= threshold) frequent.push_back(Itemset{is.item});
  }
  return GenerateCandidates(frequent, nullptr);
}

void BM_EvaluateCandidatesThreads(benchmark::State& state) {
  const UncertainDatabase db = QuestDb(static_cast<std::size_t>(state.range(0)));
  const FlatView view(db);
  const std::vector<Itemset> candidates = Level2Candidates(view);
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    auto stats = EvaluateCandidates(view, candidates, /*collect_probs=*/false,
                                    /*decremental_threshold=*/-1.0, threads);
    benchmark::DoNotOptimize(stats);
  }
  state.counters["candidates"] = static_cast<double>(candidates.size());
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_EvaluateCandidatesThreads)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{5000, 10000}, {1, 2, 4, 8}});

/// Level-2 counting as UApriori runs it on the e2ebench `esup` data
/// shape: Kosarak-like, 100k transactions, min_esup in per-mille/10
/// (20, 15, 10 = 0.002, 0.0015, 0.001), decremental threshold on.
void BM_PairLevelKosarak(benchmark::State& state) {
  static const FlatView view(KosarakDb(100000));
  const double min_esup = static_cast<double>(state.range(0)) / 10000.0;
  const double threshold =
      min_esup * static_cast<double>(view.num_transactions());
  std::vector<Itemset> frequent;
  for (const ItemStats& is : CollectItemStats(view)) {
    if (is.esup >= threshold) frequent.push_back(Itemset{is.item});
  }
  const std::vector<Itemset> candidates = GenerateCandidates(frequent, nullptr);
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    auto stats = EvaluateCandidates(view, candidates, /*collect_probs=*/false,
                                    threshold, threads);
    benchmark::DoNotOptimize(stats);
  }
  state.counters["candidates"] = static_cast<double>(candidates.size());
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_PairLevelKosarak)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{20, 15, 10}, {1, 4}});

}  // namespace
}  // namespace ufim::bench

BENCHMARK_MAIN();
