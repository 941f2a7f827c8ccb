// FlatView columnar support counting vs. the row-scan baseline, on the
// QUEST scalability family (the acceptance gate for the columnar
// refactor: columnar counting must not be slower than re-walking
// row-oriented transactions).
//
// Measured per dataset size:
//   * level-2 candidate evaluation (the hot loop of every Apriori-style
//     miner) through EvaluateCandidates over a prebuilt FlatView vs
//     EvaluateCandidatesRowScan over the database rows, and
//   * a full UApriori run through the unified Miner facade, view
//     prebuilt vs built inside the timed region (view construction
//     amortization).
//
// Also measured: ReadDataset, the set-up step before any view exists, on
// files WriteDataset wrote for a Kosarak-like 100k and an Accident-like
// 20k database (the sizes of the benchmark's esup and prob workloads).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "algo/apriori_framework.h"
#include "bench_datasets.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "io/dataset_io.h"

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

void BM_EvaluateCandidatesFlatView(benchmark::State& state) {
  const UncertainDatabase db = QuestDb(static_cast<std::size_t>(state.range(0)));
  const FlatView view(db);
  const std::vector<Itemset> candidates = Level2Candidates(view);
  for (auto _ : state) {
    auto stats = EvaluateCandidates(view, candidates, /*collect_probs=*/false);
    benchmark::DoNotOptimize(stats);
  }
  state.counters["candidates"] = static_cast<double>(candidates.size());
}
BENCHMARK(BM_EvaluateCandidatesFlatView)
    ->Unit(benchmark::kMillisecond)
    ->Arg(2000)
    ->Arg(5000)
    ->Arg(10000);

void BM_EvaluateCandidatesRowScan(benchmark::State& state) {
  const UncertainDatabase db = QuestDb(static_cast<std::size_t>(state.range(0)));
  const FlatView view(db);
  const std::vector<Itemset> candidates = Level2Candidates(view);
  for (auto _ : state) {
    auto stats =
        EvaluateCandidatesRowScan(db, candidates, /*collect_probs=*/false);
    benchmark::DoNotOptimize(stats);
  }
  state.counters["candidates"] = static_cast<double>(candidates.size());
}
BENCHMARK(BM_EvaluateCandidatesRowScan)
    ->Unit(benchmark::kMillisecond)
    ->Arg(2000)
    ->Arg(5000)
    ->Arg(10000);

void BM_UAprioriOverPrebuiltView(benchmark::State& state) {
  const UncertainDatabase db = QuestDb(static_cast<std::size_t>(state.range(0)));
  const FlatView view(db);
  auto miner = MinerRegistry::Global().Create("UApriori");
  ExpectedSupportParams params;
  params.min_esup = kMinEsupRatio;
  for (auto _ : state) {
    auto result = miner->Mine(view, MiningTask(params));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_UAprioriOverPrebuiltView)
    ->Unit(benchmark::kMillisecond)
    ->Arg(2000)
    ->Arg(10000);

void BM_UAprioriWithViewBuild(benchmark::State& state) {
  const UncertainDatabase db = QuestDb(static_cast<std::size_t>(state.range(0)));
  auto miner = MinerRegistry::Global().Create("UApriori");
  ExpectedSupportParams params;
  params.min_esup = kMinEsupRatio;
  for (auto _ : state) {
    auto result = miner->Mine(db, MiningTask(params));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_UAprioriWithViewBuild)
    ->Unit(benchmark::kMillisecond)
    ->Arg(2000)
    ->Arg(10000);

/// Arg 0: Kosarak-like 100k transactions; arg 1: Accident-like 20k.
void BM_ReadDataset(benchmark::State& state) {
  const bool kosarak = state.range(0) == 0;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (kosarak ? "bench_read_kosarak.udb" : "bench_read_accident.udb"))
          .string();
  const UncertainDatabase written =
      kosarak ? KosarakDb(100000) : AccidentDb(20000);
  if (!WriteDataset(written, path).ok()) {
    state.SkipWithError("cannot write the dataset file");
    return;
  }
  std::size_t units = 0;
  for (const Transaction& t : written) units += t.size();
  const double file_mb =
      static_cast<double>(std::filesystem::file_size(path)) / 1e6;
  for (auto _ : state) {
    Result<UncertainDatabase> db = ReadDataset(path);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(db);
  }
  std::remove(path.c_str());
  state.SetLabel(kosarak ? "kosarak100k" : "accident20k");
  state.counters["file_MB"] = file_mb;
  state.counters["units"] = static_cast<double>(units);
  state.counters["MB_per_s"] = benchmark::Counter(
      file_mb * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReadDataset)->Unit(benchmark::kMillisecond)->Arg(0)->Arg(1);

}  // namespace
}  // namespace ufim::bench

BENCHMARK_MAIN();
