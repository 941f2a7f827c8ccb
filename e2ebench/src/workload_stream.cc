// `stream`: a Kosarak-like stream replayed through
// MakeDeltaMiner("UApriori") with the default CompactionPolicy.
//
// Why: the same FlatView and join layer as `esup`, used differently. It
// mixes writes (Append, compaction) with reads (suffix mine, snapshot
// recount) over segmented base+delta postings, and neither the prob
// layer nor pattern growth does any work, so a join change that helps
// contiguous reads but hurts seam-straddling joins shows up here.

#include <array>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/delta_miner.h"
#include "core/miner_registry.h"
#include "core/sharded_miner.h"
#include "core/streaming_flat_view.h"
#include "eval/memory_tracker.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "harness.h"

namespace e2e {

namespace {

constexpr std::size_t kTransactions = 100000;
/// A 40k-transaction warm prefix and 20 batches of 3000: with the default
/// policy (compact above 25% delta) and ~8.1 units per transaction the
/// pass compacts after batches 4, 9 and 15, each decision at least 7%
/// away from its threshold, so every seed sees the same schedule.
constexpr std::size_t kWarmPrefix = 40000;
constexpr std::size_t kBatch = 3000;
constexpr double kMinEsup = 0.002;
/// Below this many expected occurrences per batch (min_esup x batch) the
/// suffix shard's threshold falls under a handful of occurrences and
/// nearly every itemset of the batch becomes a SON candidate: a 64-txn
/// batch at min_esup 0.005 (0.32 occurrences) runs ~160x slower than a
/// 256-txn one. Such a configuration does not compile.
constexpr double kMinBatchOccurrences = 4;
static_assert(kMinEsup * static_cast<double>(kBatch) >= kMinBatchOccurrences,
              "stream: min_esup x batch is in the SON degenerate regime "
              "(nearly every itemset of a batch is a candidate)");
/// About 450 batches in a 20 s run: p97 leaves at least ten beyond it.
constexpr double kTailPercentile = 97;
constexpr double kRelTol = 1e-9;

using Batch = std::span<const ufim::Transaction>;

/// Layer totals of the traced replay, over the streamed batches.
struct StreamTally {
  double append_ms = 0;
  std::size_t appended_txns = 0;
  std::size_t compactions = 0;
  double compact_ms = 0;
  double snapshot_ms = 0;
  double suffix_mine_ms = 0;
  double recount_ms = 0;
};

/// DeltaMiner::MineNext rebuilt from the public StreamingFlatView
/// Append/Snapshot, FlatView::Slice, the inner Miner::Mine and
/// RecountExpectedCandidates, so each step gets its own span and time.
class StreamReplay {
 public:
  explicit StreamReplay(std::size_t threads) : threads_(threads) {
    ufim::MinerOptions options;
    options.num_threads = threads;
    inner_ = ufim::MinerRegistry::Global().Create("UApriori", options);
  }

  std::size_t pool_size() const { return pool_.size(); }

  ufim::Result<ufim::MiningResult> Step(Run& run, Batch batch,
                                        StreamTally* tally) {
    Tracer& tracer = run.tracer();
    const ufim::MiningTask task = ufim::ExpectedSupportParams{kMinEsup};
    ufim::MiningResult result;
    // This replay is the stream's only writer.
    view_.AssertSoleWriter();
    view_.BeginAppend();
    std::int64_t t0 = NowNs();
    {
      Span s(tracer, "core", "stream.Append");
      view_.Append(batch);
    }
    tally->append_ms += MsSince(t0);
    tally->appended_txns += batch.size();
    const std::size_t n = view_.num_transactions();
    t0 = NowNs();
    {
      Span s(tracer, "algo", "stream.suffix UApriori::Mine");
      const ufim::FlatView suffix = view_.View().Slice(mined_upto_, n);
      ufim::Result<ufim::MiningResult> local = inner_->Mine(suffix, task);
      if (!local.ok()) {
        view_.RollbackAppend();
        return local.status();
      }
      result.counters() += local->counters();
      for (const ufim::FrequentItemset& fi : local->itemsets()) {
        pool_.insert(fi.itemset);
      }
    }
    tally->suffix_mine_ms += MsSince(t0);
    mined_upto_ = n;
    t0 = NowNs();
    {
      Span s(tracer, "core", "stream.CommitAppend");
      if (view_.CommitAppend()) {
        ++tally->compactions;
        tally->compact_ms += MsSince(t0);
      }
    }
    t0 = NowNs();
    ufim::StreamingSnapshot snap;
    {
      Span s(tracer, "core", "stream.Snapshot");
      snap = view_.Snapshot();
    }
    tally->snapshot_ms += MsSince(t0);
    std::vector<ufim::Itemset> singles, larger;
    for (const ufim::Itemset& is : pool_) {
      (is.size() == 1 ? singles : larger).push_back(is);
    }
    t0 = NowNs();
    {
      Span s(tracer, "core", "stream.RecountExpectedCandidates");
      ufim::RecountExpectedCandidates(
          snap.view(), singles, larger,
          kMinEsup * static_cast<double>(snap.watermark()), threads_, result);
    }
    tally->recount_ms += MsSince(t0);
    result.SortCanonical();
    return result;
  }

 private:
  std::size_t threads_;
  std::unique_ptr<ufim::Miner> inner_;
  ufim::StreamingFlatView view_;
  std::set<ufim::Itemset> pool_;
  std::size_t mined_upto_ = 0;
};

std::unique_ptr<ufim::DeltaMiner> MakeStreamMiner(Run& run) {
  ufim::MinerOptions options;
  options.num_threads = run.threads();
  auto miner = ufim::MakeDeltaMiner("UApriori",
                                    ufim::ExpectedSupportParams{kMinEsup},
                                    options, ufim::CompactionPolicy{});
  if (!miner.ok()) {
    throw std::runtime_error("MakeDeltaMiner: " + miner.status().ToString());
  }
  return std::move(miner).value();
}

/// A DeltaMiner with the warm prefix loaded.
std::unique_ptr<ufim::DeltaMiner> WarmMiner(Run& run, Batch prefix) {
  std::unique_ptr<ufim::DeltaMiner> miner = MakeStreamMiner(run);
  run.Attempt();
  ufim::Result<ufim::MiningResult> r = miner->MineNext(prefix);
  if (!r.ok()) run.Fail("warm prefix: " + r.status().ToString());
  return miner;
}

/// What a pass over the stream does besides MineNext. An untraced run
/// has baseline passes only; a traced run cycles through all three, so
/// each kind sees the same host conditions. Only the span passes count
/// toward trace.overhead_frac, so the replay's own work does not.
enum PassKind : std::size_t {
  kBaseline = 0,  ///< MineNext alone
  kSpans = 1,     ///< MineNext under a span
  kReplay = 2,    ///< MineNext under a span, then the step-by-step replay
};

/// Per-batch latencies of closed-loop passes over the stream.
struct PassStats {
  std::vector<double> ms;
  std::vector<double> pass_peak_mb;  // heap high-water mark per pass
  std::size_t txns = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

}  // namespace

void RunStream(Run& run) {
  const Options& o = run.options();
  run.Describe("stream.min_esup", kMinEsup);
  run.Describe("stream.warm_prefix", static_cast<double>(kWarmPrefix));
  run.Describe("stream.batch", static_cast<double>(kBatch));
  run.Describe("tail_percentile", kTailPercentile);
  const std::string path = WriteDataset(
      run, ufim::AssignGaussianProbabilities(
               ufim::MakeKosarakLike(kTransactions, o.seed), 0.5, 0.5,
               o.seed + 1));
  const double file_mb = FileMegabytes(path);

  // Set-up: ReadDataset, then a DeltaMiner with the warm prefix loaded.
  std::vector<double> setup_s, read_s, warm_s;
  ufim::UncertainDatabase db;
  std::unique_ptr<ufim::DeltaMiner> miner;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    miner.reset();
    db = ufim::UncertainDatabase();
    Span span(run.tracer(), "bench", "setup");
    const std::int64_t t0 = NowNs();
    double read = 0;
    db = ReadDatasetTimed(run, path, &read);
    const std::int64_t t1 = NowNs();
    {
      Span warm(run.tracer(), "core", "core.DeltaMiner warm prefix");
      miner = WarmMiner(run, Batch(db.transactions()).first(kWarmPrefix));
    }
    const std::int64_t t2 = NowNs();
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    read_s.push_back(read);
    warm_s.push_back(static_cast<double>(t2 - t1) / 1e9);
  }
  run.Set("setup_s", Median(setup_s));
  run.Set("io.read_ms", Median(read_s) * 1e3);
  run.Set("io.read_mb_per_s", file_mb / Median(read_s));
  run.Set("core.view_build_ms", Median(warm_s) * 1e3);
  run.Set("core.units", static_cast<double>(miner->view().num_units()));

  const Batch all(db.transactions());
  const Batch prefix = all.first(kWarmPrefix);
  std::vector<Batch> batches;
  for (std::size_t lo = kWarmPrefix; lo < all.size(); lo += kBatch) {
    batches.push_back(all.subspan(lo, std::min(kBatch, all.size() - lo)));
  }
  run.Describe("stream.batches_per_pass", static_cast<double>(batches.size()));

  // Exactness contract: after the last batch the stream's answer equals a
  // from-scratch UApriori mine of every streamed transaction.
  ufim::MinerOptions options;
  options.num_threads = run.threads();
  const std::unique_ptr<ufim::Miner> scratch_miner =
      ufim::MinerRegistry::Global().Create("UApriori", options);
  const ufim::FlatView full(db);
  ufim::Result<ufim::MiningResult> reference =
      scratch_miner->Mine(full, ufim::ExpectedSupportParams{kMinEsup});
  run.Attempt();
  if (!reference.ok() || reference->size() < 2) {
    throw std::runtime_error("stream reference mine failed or is degenerate");
  }

  // Every pass streams the same batches; the first result of each batch
  // is what every later pass must reproduce bit for bit.
  std::vector<std::optional<ufim::MiningResult>> first_pass(batches.size());
  std::array<PassStats, 3> by_kind;
  StreamTally warm_tally, tally;
  std::size_t replay_passes = 0;
  std::int64_t request = 0;
  const std::size_t min_passes = run.traced() ? 3 : 1;
  const std::int64_t start = NowNs();
  for (std::size_t pass = 0;
       pass < min_passes ||
       static_cast<double>(NowNs() - start) / 1e9 < o.seconds;
       ++pass) {
    const PassKind kind =
        run.traced() ? static_cast<PassKind>(pass % 3) : kBaseline;
    PassStats& stats = by_kind[kind];
    std::optional<StreamReplay> replay;
    if (kind == kReplay) {
      replay.emplace(run.threads());
      run.Attempt();
      if (!replay->Step(run, prefix, &warm_tally).ok()) {
        run.Fail("stream replay: warm prefix");
      }
      ++replay_passes;
    }
    if (miner == nullptr) miner = WarmMiner(run, prefix);
    const std::int64_t wall0 = NowNs();
    const std::int64_t cpu0 = ProcessCpuNs();
    const ufim::ScopedPeakMemory peak;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      std::optional<Span> span;
      if (kind != kBaseline) {
        run.tracer().set_request(request++);
        span.emplace(run.tracer(), "core", "core.DeltaMiner.MineNext");
      }
      const std::int64_t t0 = NowNs();
      ufim::Result<ufim::MiningResult> r = miner->MineNext(batches[b]);
      stats.ms.push_back(MsSince(t0));
      span.reset();
      stats.txns += batches[b].size();
      run.Attempt();
      if (!r.ok()) {
        run.Fail("MineNext batch " + std::to_string(b) + ": " +
                 r.status().ToString());
        continue;
      }
      if (!first_pass[b].has_value()) {
        first_pass[b] = *r;
      } else if (!BitIdentical(*r, *first_pass[b])) {
        run.Fail("MineNext batch " + std::to_string(b) +
                 " differs from the first pass");
      }
      if (b + 1 == batches.size()) {
        const std::string diff = DiffWithin(*r, *reference, kRelTol);
        if (!diff.empty()) {
          run.Fail("stream result differs from a from-scratch mine: " + diff);
        }
      }
      if (replay.has_value()) {
        ufim::Result<ufim::MiningResult> mirrored =
            replay->Step(run, batches[b], &tally);
        run.Attempt();
        if (!mirrored.ok() || !BitIdentical(*mirrored, *r) ||
            mirrored->counters().candidates_generated !=
                r->counters().candidates_generated) {
          run.Fail("stream replay differs from MineNext at batch " +
                   std::to_string(b));
        }
      }
    }
    if (replay.has_value()) {
      run.Attempt();
      if (replay->pool_size() != miner->candidate_pool_size()) {
        run.Fail("stream replay pool differs from the DeltaMiner's");
      }
      run.Set("stream.pool_size", static_cast<double>(replay->pool_size()));
    }
    stats.pass_peak_mb.push_back(static_cast<double>(peak.PeakDeltaBytes()) /
                                 1e6);
    stats.wall_s += static_cast<double>(NowNs() - wall0) / 1e9;
    stats.cpu_s += static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
    miner.reset();
  }

  const PassStats& base = by_kind[kBaseline];
  const double p50 = Median(base.ms);
  const double tail = Percentile(base.ms, kTailPercentile);
  const double batches_per_s = CycleQueriesPerSecond(base.ms, batches.size());
  run.Set("queries_per_s", batches_per_s);
  run.Set("query_ms_p50", p50);
  run.Set("query_ms_tail", tail);
  run.Set("peak_heap_mb", Median(base.pass_peak_mb));
  run.Set("sched.cpu_per_wall", base.cpu_s / base.wall_s);
  run.Note("batch_ms_p50", p50, "ms");
  run.Note("batch_ms_tail", tail, "ms");
  run.Note("ingest_txn_per_s",
           batches_per_s * static_cast<double>(base.txns) /
               static_cast<double>(base.ms.size()),
           "txn/s");
  run.Describe("batches", static_cast<double>(base.ms.size()));
  if (!run.traced()) return;

  run.Set("trace.overhead_frac", Mean(by_kind[kSpans].ms) / Mean(base.ms) - 1);
  // Per pass over the streamed batches (the warm prefix excluded).
  const double per_pass = 1.0 / static_cast<double>(replay_passes);
  run.Set("stream.append_us_per_txn",
          tally.append_ms * 1e3 / static_cast<double>(tally.appended_txns));
  run.Set("stream.compactions",
          static_cast<double>(tally.compactions) * per_pass);
  run.Set("stream.compact_ms", tally.compact_ms * per_pass);
  run.Set("stream.snapshot_ms", tally.snapshot_ms * per_pass);
  run.Set("stream.suffix_mine_ms", tally.suffix_mine_ms * per_pass);
  run.Set("stream.recount_ms", tally.recount_ms * per_pass);
  ReplayUApriori(run, full, kMinEsup, *reference).Report(run);
}

}  // namespace e2e
