// Parallel execution layer on the QUEST scalability family: sequential
// vs 2/4/8-thread candidate counting, and sharded vs monolithic mining.
//
// Measured:
//   * EvaluateCandidates over the level-2 candidate set at 1/2/4/8
//     threads (pair rows: workers claim one first item at a time),
//   * the same over a 100k-transaction Kosarak-like view at the three
//     min_esup points of the e2ebench `esup` workload, with UApriori's
//     decremental threshold (BM_PairLevelKosarak, recorded in
//     BENCH_pair_rows.json), and
//   * a full UApriori run through ShardedMiner at 1/2/4/8 shards with
//     matching thread counts, against the unsharded single-thread run;
//     sharded rows also carry a one-off breakdown (shard phase, recount,
//     candidate-union size; see ReplayShardPhases).
//
// Results are recorded in BENCH_parallel.json. Speedups require real
// cores: on a single-core container every multi-thread configuration
// degenerates to ~1x (scheduling overhead included), which the recorded
// environment block makes explicit.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <set>
#include <vector>

#include "algo/apriori_framework.h"
#include "bench_datasets.h"
#include "common/thread_pool.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "core/sharded_miner.h"

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

/// Where a sharded run's time goes, from one replay of ShardedMiner's
/// two phases through the same public calls (the timed loop runs the
/// miner itself, untouched). Phase 1 is timed three ways: as
/// ShardedMiner runs it (shards in parallel, each shard mine nesting its
/// own parallel loops at the same thread count), with one thread per
/// shard mine (a gap to the first is nested oversubscription), and with
/// the shards mined back to back on one thread (the work the shard
/// phase parallelizes). Phase 2 is the exact recount of the candidate
/// union, whose size is set against the globally frequent itemsets.
struct ShardPhases {
  double shard_ms = 0;         ///< phase 1 as ShardedMiner runs it
  double shard_inner1_ms = 0;  ///< phase 1, one thread per shard mine
  double shard_serial_ms = 0;  ///< phase 1, shards back to back
  double shard_candidates = 0; ///< candidates generated across the shards
  double recount_ms = 0;       ///< phase 2
  std::size_t union_size = 0;  ///< distinct shard-local frequent itemsets
  std::size_t frequent = 0;    ///< globally frequent itemsets
};

ShardPhases ReplayShardPhases(const FlatView& view, std::size_t shards,
                              std::size_t threads,
                              const ExpectedSupportParams& params) {
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  const std::size_t n = view.num_transactions();
  ShardPhases out;
  std::set<Itemset> candidates;
  struct Config {
    std::size_t loop_threads;
    std::size_t inner_threads;
    double* ms;
  };
  for (const Config& config : {Config{threads, threads, &out.shard_ms},
                               Config{threads, 1, &out.shard_inner1_ms},
                               Config{1, 1, &out.shard_serial_ms}}) {
    MinerOptions options;
    options.num_threads = config.inner_threads;
    const auto inner = MinerRegistry::Global().Create("UApriori", options);
    std::vector<MiningResult> local(shards);
    const Clock::time_point t0 = Clock::now();
    ParallelForDynamic(
        shards, config.loop_threads, [&](std::size_t s, std::size_t) {
          local[s] = inner
                         ->Mine(view.Slice(s * n / shards,
                                           (s + 1) * n / shards),
                                MiningTask(params))
                         .value();
        });
    *config.ms = ms_since(t0);
    out.shard_candidates = 0;
    for (const MiningResult& r : local) {
      out.shard_candidates +=
          static_cast<double>(r.counters().candidates_generated);
      for (const FrequentItemset& fi : r.itemsets()) {
        candidates.insert(fi.itemset);
      }
    }
  }
  std::vector<Itemset> singles;
  std::vector<Itemset> larger;
  for (const Itemset& is : candidates) {
    (is.size() == 1 ? singles : larger).push_back(is);
  }
  MiningResult result;
  const Clock::time_point t0 = Clock::now();
  RecountExpectedCandidates(view, singles, larger,
                            params.min_esup * static_cast<double>(n), threads,
                            result);
  out.recount_ms = ms_since(t0);
  out.union_size = candidates.size();
  out.frequent = result.size();
  return out;
}

void BM_ShardedUApriori(benchmark::State& state) {
  const UncertainDatabase db = QuestDb(static_cast<std::size_t>(state.range(0)));
  const FlatView view(db);
  const std::size_t shards = static_cast<std::size_t>(state.range(1));
  const std::size_t threads = shards;  // one worker per shard
  MinerOptions options;
  options.num_threads = threads;
  ExpectedSupportParams params;
  params.min_esup = kMinEsupRatio;
  double candidates = 0;
  for (auto _ : state) {
    if (shards <= 1) {
      auto miner = MinerRegistry::Global().Create("UApriori");
      auto result = miner->Mine(view, MiningTask(params));
      candidates =
          static_cast<double>(result.value().counters().candidates_generated);
      benchmark::DoNotOptimize(result);
    } else {
      ShardedMiner miner(MinerRegistry::Global().Create("UApriori", options),
                         shards, threads);
      auto result = miner.Mine(view, MiningTask(params));
      benchmark::DoNotOptimize(result);
    }
  }
  state.counters["shards"] = static_cast<double>(shards);
  if (shards <= 1) {
    state.counters["candidates"] = candidates;
  } else {
    const ShardPhases phases =
        ReplayShardPhases(view, shards, threads, params);
    state.counters["shard_ms"] = phases.shard_ms;
    state.counters["shard_inner1_ms"] = phases.shard_inner1_ms;
    state.counters["shard_serial_ms"] = phases.shard_serial_ms;
    state.counters["candidates"] = phases.shard_candidates;
    state.counters["recount_ms"] = phases.recount_ms;
    state.counters["union"] = static_cast<double>(phases.union_size);
    state.counters["frequent"] = static_cast<double>(phases.frequent);
  }
}
BENCHMARK(BM_ShardedUApriori)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{10000}, {1, 2, 4, 8}});

}  // namespace
}  // namespace ufim::bench

BENCHMARK_MAIN();
