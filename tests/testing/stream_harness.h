#ifndef UFIM_TESTS_TESTING_STREAM_HARNESS_H_
#define UFIM_TESTS_TESTING_STREAM_HARNESS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/delta_miner.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "core/streaming_flat_view.h"
#include "core/uncertain_database.h"
#include "testing/random_db.h"

namespace ufim::testing_util {

/// The work counters the differential compares bit for bit.
inline void ExpectSameCounters(const MiningCounters& a,
                               const MiningCounters& b,
                               const std::string& label) {
  EXPECT_EQ(a.candidates_generated, b.candidates_generated) << label;
  EXPECT_EQ(a.candidates_pruned_apriori, b.candidates_pruned_apriori) << label;
  EXPECT_EQ(a.candidates_rejected_bound, b.candidates_rejected_bound) << label;
  EXPECT_EQ(a.exact_tail_evals, b.exact_tail_evals) << label;
  EXPECT_EQ(a.database_scans, b.database_scans) << label;
}

/// One seeded, randomized append/compact/mine schedule for the streaming
/// differential harness. Everything — batch sizes (including empty
/// batches), transaction contents (long-tail item skew, duplicate item
/// draws, empty transactions), the streaming compaction policy, and the
/// forced-compaction points — is a pure function of `seed`, so a failure
/// reproduces from its seed alone.
struct StreamScheduleSpec {
  std::uint64_t seed = 1;
  std::size_t num_ops = 5;     ///< MineNext calls in the schedule
  std::size_t max_batch = 8;   ///< batch sizes drawn from [0, max_batch]
  std::size_t item_growth = 2; ///< item-universe growth per op (unseen items)
  double force_compact_prob = 0.25;  ///< explicit Compact() before a mine
  double snapshot_prob = 0.35;  ///< Snapshot() after a mine, re-checked at end
  double min_esup = 0.2;
  /// Popularity drift: op k draws its batch with popularity_shift
  /// k * drift, so item skew moves between batches and the rarest member
  /// of a pooled itemset (its join driver) can change mid-stream.
  std::size_t drift = 0;
  StreamBatchSpec batch;       ///< item/probability regime of the stream
};

/// Runs one schedule under the currently forced intersect kernel with
/// `algorithm` as the shard miner at `num_threads`, checking after every
/// `MineNext`:
///
///  1. **Layout transparency (bit-identical):** a streaming `DeltaMiner`
///     under a randomized compaction policy plus random forced
///     compactions, against a second `DeltaMiner` fed the same batches
///     whose policy compacts after *every* append — i.e. whose base is a
///     full from-scratch rebuild at each step. Results (itemsets,
///     expected supports, variances) and `MiningCounters` must match
///     bit for bit: mining may never observe whether postings are
///     contiguous or split at the base/delta seam.
///  2. **Semantic exactness:** the streaming result against the plain
///     (non-incremental) registry miner run on the accumulated database
///     built from scratch. Itemset sets must match exactly; moments are
///     compared to 1e-9 (the plain miner may legally accumulate in a
///     different — e.g. tree-path — order).
///  3. **Incremental recount (bit-identical):** the streaming result
///     against a replay that mines each appended suffix with the plain
///     miner on the from-scratch database and recounts the union of
///     their results in full (`RecountExpectedCandidates` without
///     running states) — results and `MiningCounters`. This is what pins
///     the DeltaMiner's carried-forward moments, which check 1 cannot
///     (both of its miners carry them). The replay also counts *driver
///     flips*: a pooled itemset of three or more items whose join driver
///     differs from the one at the previous recount.
///  4. **Snapshot and view immutability (bit-identical):** schedule
///     steps take a `Snapshot()` handle and a live `View()` mid-stream
///     and record a baseline mined over the snapshot at capture time;
///     after the whole schedule — every later append, policy
///     compaction, and forced compaction — both are re-mined and must
///     reproduce that baseline bit for bit (results and
///     `MiningCounters`) and report the same item universe, proving
///     mutations never touch storage that was handed out.
///
/// `final_result`, when given, receives the final streaming result so
/// callers can additionally pin bit-equality across thread counts;
/// `driver_flips`, when given, is increased by the flips check 3 saw.
inline void RunStreamDifferential(const StreamScheduleSpec& spec,
                                  std::string_view algorithm,
                                  std::size_t num_threads,
                                  MiningResult* final_result = nullptr,
                                  std::size_t* driver_flips = nullptr) {
  Rng rng(spec.seed);

  // Draw the whole schedule up front so every variant sees identical
  // data regardless of how it consumes randomness internally.
  std::vector<std::vector<Transaction>> batches;
  std::vector<bool> force_compact;
  std::vector<bool> take_snapshot;
  batches.reserve(spec.num_ops);
  for (std::size_t op = 0; op < spec.num_ops; ++op) {
    StreamBatchSpec bs = spec.batch;
    bs.num_items += op * spec.item_growth;  // later batches grow the universe
    bs.popularity_shift = op * spec.drift;
    const std::size_t size = rng.UniformInt(0, spec.max_batch);
    batches.push_back(MakeStreamBatch(rng, bs, size));
    force_compact.push_back(rng.Bernoulli(spec.force_compact_prob));
    take_snapshot.push_back(rng.Bernoulli(spec.snapshot_prob));
  }

  // Randomized streaming policy: anything from compact-almost-always to
  // compact-never (so forced compactions and the seam path both get
  // exercised), against the compact-every-append rebuild reference.
  constexpr double kRatios[] = {0.05, 0.25, 1.0, 1e9};
  CompactionPolicy streaming_policy;
  streaming_policy.max_delta_ratio = kRatios[rng.UniformInt(0, 3)];
  streaming_policy.min_delta_units = rng.UniformInt(0, 32);
  CompactionPolicy rebuild_policy;
  rebuild_policy.max_delta_ratio = 0.0;
  rebuild_policy.min_delta_units = 0;

  ExpectedSupportParams params;
  params.min_esup = spec.min_esup;
  MinerOptions options;
  options.num_threads = num_threads;

  Result<std::unique_ptr<DeltaMiner>> streaming =
      MakeDeltaMiner(algorithm, params, options, streaming_policy);
  Result<std::unique_ptr<DeltaMiner>> rebuild =
      MakeDeltaMiner(algorithm, params, options, rebuild_policy);
  std::unique_ptr<Miner> plain =
      MinerRegistry::Global().Create(algorithm, options);
  EXPECT_TRUE(streaming.ok()) << streaming.status().ToString();
  EXPECT_TRUE(rebuild.ok()) << rebuild.status().ToString();
  EXPECT_NE(plain, nullptr);
  if (!streaming.ok() || !rebuild.ok() || plain == nullptr) return;

  struct TakenSnapshot {
    std::size_t op = 0;
    StreamingSnapshot snap;
    FlatView live;  ///< a View() taken beside the snapshot
    std::size_t num_items = 0;  ///< the item universe at capture
    MiningResult at_capture;
  };
  std::vector<TakenSnapshot> snapshots;

  UncertainDatabase accumulated;
  // Check 3's replay: the suffix-shard candidate pool, the transactions
  // its shards cover, and each pooled itemset's driver at the last
  // recount.
  std::set<Itemset> pool;
  std::size_t mined_upto = 0;
  std::map<Itemset, std::size_t> drivers;
  for (std::size_t op = 0; op < batches.size(); ++op) {
    const std::string label = "seed=" + std::to_string(spec.seed) +
                              " op=" + std::to_string(op) +
                              " threads=" + std::to_string(num_threads);
    if (force_compact[op]) streaming.value()->Compact();

    Result<MiningResult> a = streaming.value()->MineNext(batches[op]);
    Result<MiningResult> b = rebuild.value()->MineNext(batches[op]);
    ASSERT_TRUE(a.ok()) << label << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << label << ": " << b.status().ToString();
    // The rebuild reference must really be the contiguous layout.
    EXPECT_FALSE(rebuild.value()->view().has_delta()) << label;

    ASSERT_EQ(a.value().size(), b.value().size()) << label;
    for (std::size_t i = 0; i < a.value().size(); ++i) {
      EXPECT_EQ(a.value()[i].itemset, b.value()[i].itemset) << label;
      EXPECT_EQ(a.value()[i].expected_support, b.value()[i].expected_support)
          << label << " " << b.value()[i].itemset.ToString();
      EXPECT_EQ(a.value()[i].variance, b.value()[i].variance)
          << label << " " << b.value()[i].itemset.ToString();
    }
    ExpectSameCounters(a.value().counters(), b.value().counters(), label);

    // Semantic exactness against a from-scratch non-incremental run.
    accumulated.Append(batches[op]);
    const FlatView full(accumulated);
    Result<MiningResult> c = plain->Mine(full, MiningTask(params));
    ASSERT_TRUE(c.ok()) << label << ": " << c.status().ToString();
    MiningResult reference = std::move(c).value();
    reference.SortCanonical();
    ASSERT_EQ(a.value().size(), reference.size()) << label;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(a.value()[i].itemset, reference[i].itemset) << label;
      EXPECT_NEAR(a.value()[i].expected_support,
                  reference[i].expected_support, 1e-9)
          << label << " " << reference[i].itemset.ToString();
      EXPECT_NEAR(a.value()[i].variance, reference[i].variance, 1e-9)
          << label << " " << reference[i].itemset.ToString();
    }
    // Incremental recount against the replayed pool, counted in full.
    MiningResult replayed;
    if (!batches[op].empty()) {
      Result<MiningResult> local = plain->Mine(
          full.Slice(mined_upto, full.num_transactions()), MiningTask(params));
      ASSERT_TRUE(local.ok()) << label << ": " << local.status().ToString();
      replayed.counters() += local.value().counters();
      for (const FrequentItemset& fi : local.value().itemsets()) {
        pool.insert(fi.itemset);
      }
      mined_upto = full.num_transactions();
    }
    EXPECT_EQ(streaming.value()->candidate_pool_size(), pool.size()) << label;
    std::vector<Itemset> singles;
    std::vector<Itemset> larger;
    for (const Itemset& is : pool) {
      (is.size() == 1 ? singles : larger).push_back(is);
      if (is.size() < 3) continue;
      const std::size_t driver = full.JoinDriver(is);
      const auto [it, fresh] = drivers.emplace(is, driver);
      if (!fresh && it->second != driver) {
        it->second = driver;
        if (driver_flips != nullptr) ++*driver_flips;
      }
    }
    RecountExpectedCandidates(
        full, singles, larger,
        params.min_esup * static_cast<double>(full.num_transactions()),
        num_threads, replayed);
    replayed.SortCanonical();
    ASSERT_EQ(a.value().size(), replayed.size()) << label;
    for (std::size_t i = 0; i < replayed.size(); ++i) {
      EXPECT_EQ(a.value()[i].itemset, replayed[i].itemset) << label;
      EXPECT_EQ(a.value()[i].expected_support, replayed[i].expected_support)
          << label << " " << replayed[i].itemset.ToString();
      EXPECT_EQ(a.value()[i].variance, replayed[i].variance)
          << label << " " << replayed[i].itemset.ToString();
    }
    ExpectSameCounters(a.value().counters(), replayed.counters(), label);

    // Snapshot step: hold the streaming state as a snapshot and as a
    // live view, and record a bitwise baseline over the snapshot;
    // checked again after the schedule.
    if (take_snapshot[op]) {
      // Single-threaded schedule: this thread is the sole writer, so it
      // may also acquire snapshots.
      streaming.value()->view().AssertSoleWriter();
      TakenSnapshot taken;
      taken.op = op;
      taken.snap = streaming.value()->view().Snapshot();
      taken.live = streaming.value()->view().View();
      taken.num_items = taken.live.num_items();
      Result<MiningResult> at_capture =
          plain->Mine(taken.snap.view(), MiningTask(params));
      ASSERT_TRUE(at_capture.ok())
          << label << ": " << at_capture.status().ToString();
      taken.at_capture = std::move(at_capture).value();
      snapshots.push_back(std::move(taken));
    }

    if (final_result != nullptr) *final_result = std::move(a).value();
  }

  // Every snapshot and live view taken along the way must re-mine
  // bit-identically to its capture-time baseline, whatever the stream
  // did afterwards.
  const auto expect_baseline = [&](const TakenSnapshot& taken,
                                   const FlatView& view,
                                   const std::string& kind) {
    const std::string label = "seed=" + std::to_string(spec.seed) + " " +
                              kind + "-op=" + std::to_string(taken.op) +
                              " threads=" + std::to_string(num_threads);
    // An append into storage a view shares would leave the re-mine
    // intact (the view reads only its own transactions) but grow the
    // universe it reports.
    EXPECT_EQ(view.num_items(), taken.num_items) << label;
    Result<MiningResult> again = plain->Mine(view, MiningTask(params));
    ASSERT_TRUE(again.ok()) << label << ": " << again.status().ToString();
    ASSERT_EQ(again.value().size(), taken.at_capture.size()) << label;
    for (std::size_t i = 0; i < taken.at_capture.size(); ++i) {
      EXPECT_EQ(again.value()[i].itemset, taken.at_capture[i].itemset)
          << label;
      EXPECT_EQ(again.value()[i].expected_support,
                taken.at_capture[i].expected_support)
          << label << " " << taken.at_capture[i].itemset.ToString();
      EXPECT_EQ(again.value()[i].variance, taken.at_capture[i].variance)
          << label << " " << taken.at_capture[i].itemset.ToString();
    }
    ExpectSameCounters(again.value().counters(), taken.at_capture.counters(),
                       label);
  };
  for (const TakenSnapshot& taken : snapshots) {
    expect_baseline(taken, taken.snap.view(), "snapshot");
    expect_baseline(taken, taken.live, "live-view");
  }
}

}  // namespace ufim::testing_util

#endif  // UFIM_TESTS_TESTING_STREAM_HARNESS_H_
