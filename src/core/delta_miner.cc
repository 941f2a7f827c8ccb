#include "core/delta_miner.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/thread_pool.h"
#include "core/miner_registry.h"
#include "core/types.h"

namespace ufim {

namespace {

/// Rolls the view's open append transaction back unless the caller
/// committed first — so every early return (and any exception unwinding
/// to the GuardMine boundary) restores the pre-append stream.
class AppendTxnGuard {
 public:
  explicit AppendTxnGuard(StreamingFlatView& view) : view_(view) {}
  ~AppendTxnGuard() {
    // The guard unwinds on behalf of the writer that created it (inside
    // MineNext's serialized batch), so the writer role transfers here.
    view_.AssertSoleWriter();
    if (view_.in_append_txn()) view_.RollbackAppend();
  }
  AppendTxnGuard(const AppendTxnGuard&) = delete;
  AppendTxnGuard& operator=(const AppendTxnGuard&) = delete;

 private:
  StreamingFlatView& view_;
};

}  // namespace

void RecountExpectedCandidates(const FlatView& view,
                               const std::vector<Itemset>& singles,
                               const std::vector<Itemset>& larger,
                               double threshold, std::size_t num_threads,
                               MiningResult& result, const RunContext* context,
                               std::span<RecountState> states) {
  PollRunContext(context);  // checkpoint: recount phase entry
  ++result.counters().database_scans;
  result.counters().candidates_generated += singles.size() + larger.size();

  for (const Itemset& s : singles) {
    const ItemId item = s.items().front();
    const double esup = view.ItemExpectedSupport(item);
    if (esup >= threshold) {
      FrequentItemset fi;
      fi.itemset = s;
      fi.expected_support = esup;
      fi.variance = esup - view.ItemSquaredSum(item);
      result.Add(std::move(fi));
    }
  }

  const std::size_t n_txn = view.num_transactions();
  std::vector<std::pair<double, double>> moments(larger.size());
  // Workers claim one candidate at a time; each join runs whole on one
  // worker through that worker's scratch, so the moments are the
  // sequential ones at every thread count.
  std::vector<JoinScratch> scratches(
      ParallelWorkerCount(larger.size(), num_threads));
  ParallelForDynamic(
      larger.size(), num_threads,
      [&](std::size_t c, std::size_t worker) {
        PollRunContext(context);  // checkpoint: one per recounted candidate
        RecountState fresh;
        RecountState& st = states.empty() ? fresh : states[c];
        const std::size_t driver = view.JoinDriver(larger[c]);
        if (driver != st.driver && larger[c].size() > 2) st = RecountState{};
        st.driver = driver;
        view.Slice(st.counted_upto, n_txn)
            .JoinPostingsBatched(
                larger[c], scratches[worker],
                [&](const JoinBatch& b) {
                  for (const double prod : b.prods) {
                    st.esup.Add(prod);
                    st.sq_sum += prod * prod;
                  }
                  return true;
                },
                driver);
        st.counted_upto = n_txn;
        moments[c] = {st.esup.value(), st.sq_sum};
      },
      context);
  for (std::size_t c = 0; c < larger.size(); ++c) {
    if (moments[c].first >= threshold) {
      FrequentItemset fi;
      fi.itemset = larger[c];
      fi.expected_support = moments[c].first;
      fi.variance = moments[c].first - moments[c].second;
      result.Add(std::move(fi));
    }
  }
}

DeltaMiner::DeltaMiner(std::unique_ptr<Miner> inner,
                       ExpectedSupportParams params, CompactionPolicy policy,
                       std::size_t num_threads)
    : inner_(std::move(inner)),
      params_(params),
      name_("Delta(" + std::string(inner_->name()) + ")"),
      num_threads_(num_threads == 0 ? HardwareThreads() : num_threads),
      view_(policy) {}

void DeltaMiner::set_run_context(RunContext context) {
  // The delta miner is the inner miner's only driver, so "no MineNext in
  // flight" (the caller's obligation) implies the inner config phase.
  inner_->AssertConfigPhase();
  inner_->set_run_context(context);  // copies share the token
  run_context_ = std::move(context);
}

Result<MiningResult> DeltaMiner::MineNext(std::span<const Transaction> batch) {
  UFIM_RETURN_IF_ERROR(params_.Validate());
  const MiningTask task = params_;
  if (!inner_->Supports(task)) {
    return Status::InvalidArgument(
        name_ + " needs an expected-support inner miner");
  }
  // Units are sorted, so a transaction's last unit holds its largest id.
  // Rejected before BeginAppend: the view would size its per-item arrays
  // by such an id.
  for (const Transaction& t : batch) {
    if (!t.empty() && t.units().back().item > kMaxItemId) {
      return Status::InvalidArgument(
          "item id " + std::to_string(t.units().back().item) +
          " above the largest loadable id " + std::to_string(kMaxItemId));
    }
  }

  // The guard converts recount-phase checkpoint throws into a clean
  // Status at this facade (the inner miner guards its own Mine).
  return internal::GuardMine([&]() -> Result<MiningResult> {
    PollRunContext(&run_context_);  // checkpoint: batch entry

    MiningResult result;
    StreamingSnapshot snap;
    std::vector<Itemset> singles;
    std::vector<Itemset> larger;
    std::vector<RecountState> states;  // parallel to `larger`
    {
      // Mutation phase, under the write mutex (serialized with any
      // concurrent explicit Compact). MineNext calls themselves are
      // caller-serialized; inside this block the thread is the stream's
      // sole writer, which is exactly the writer-role claim.
      MutexLock lock(write_mu_);
      view_.AssertSoleWriter();

      if (batch.empty()) {
        // Pure recount: no append transaction, no policy-compaction
        // side effect, no shard/watermark drift — just hold the
        // current state for phase 2.
        snap = view_.Snapshot();
      } else {
        // Transactional append: any failure before CommitAppend — inner
        // shard-mine error, cancellation, allocation failure — rolls
        // the batch back to the pre-append watermark on the way out, so
        // a retry of the same batch appends it exactly once.
        view_.BeginAppend();
        AppendTxnGuard rollback_unless_committed(view_);
        view_.Append(batch);
        const FlatView full = view_.View();
        const std::size_t n_txn = full.num_transactions();

        // Phase 1: mine the appended suffix as its own SON shard, at
        // the same min_esup ratio (the shard threshold is ratio *
        // |shard|). The slice spans the base/delta seam transparently,
        // so this works identically pre- and post-compaction.
        const FlatView suffix = full.Slice(mined_upto_, n_txn);
        Result<MiningResult> local = inner_->Mine(suffix, task);
        UFIM_RETURN_IF_ERROR(local.status());
        result.counters() += local->counters();
        const std::uint64_t admit_gen = view_.generation();
        for (const FrequentItemset& fi : local->itemsets()) {
          // emplace keeps the first admission's generation (and the
          // running moments) on re-discovery by a later shard.
          pool_.emplace(fi.itemset, PoolEntry{admit_gen, {}});
        }
        mined_upto_ = n_txn;
        ++shards_mined_;
        // The shard is mined and the pool updated — commit (running any
        // deferred compaction) before snapshotting, so a recount
        // failure leaves a consistent stream that an empty-batch call
        // re-mines, and the snapshot holds the committed state.
        view_.CommitAppend();
        snap = view_.Snapshot();
      }

      // Canonical candidate order keeps the recount independent of pool
      // insertion history (and of the unordered_map's iteration order).
      // ufim-lint: allow(unordered-iteration) order erased by the sorts below
      for (const auto& [is, entry] : pool_) {
        static_cast<void>(entry);
        (is.size() == 1 ? singles : larger).push_back(is);
      }
      std::sort(singles.begin(), singles.end());
      std::sort(larger.begin(), larger.end());
      // The recount advances copies; the saved moments move only once it
      // has succeeded, so a cancelled or failed recount leaves them as
      // they were.
      states.reserve(larger.size());
      for (const Itemset& is : larger) states.push_back(pool_.at(is).moments);
    }

    // Phase 2: exact recount of the whole candidate pool over the
    // snapshot, outside the write mutex — a concurrent explicit Compact
    // cannot perturb it (copy-on-compact leaves the snapshot's storage
    // untouched), and the result is bit-identical either way.
    // Each pooled candidate joins only the transactions its saved
    // moments have not covered yet.
    const double threshold =
        params_.min_esup * static_cast<double>(snap.watermark());
    RecountExpectedCandidates(snap.view(), singles, larger, threshold,
                              num_threads_, result, &run_context_, states);
    {
      MutexLock lock(write_mu_);
      for (std::size_t c = 0; c < larger.size(); ++c) {
        pool_.at(larger[c]).moments = states[c];
      }
    }
    result.SortCanonical();
    return result;
  });
}

std::size_t DeltaMiner::candidates_admitted_since(
    std::uint64_t generation) const {
  MutexLock lock(write_mu_);
  std::size_t n = 0;
  // ufim-lint: allow(unordered-iteration) order-independent count
  for (const auto& [is, entry] : pool_) {
    static_cast<void>(is);
    if (entry.admitted >= generation) ++n;
  }
  return n;
}

Result<std::unique_ptr<DeltaMiner>> MakeDeltaMiner(
    std::string_view algorithm, const ExpectedSupportParams& params,
    const MinerOptions& options, CompactionPolicy policy) {
  const MinerEntry* entry = MinerRegistry::Global().Find(algorithm);
  if (entry == nullptr) {
    return Status::NotFound("unknown algorithm '" + std::string(algorithm) +
                            "'");
  }
  if (entry->family != TaskFamily::kExpectedSupport) {
    return Status::InvalidArgument(
        "streaming mining supports expected-support algorithms only; '" +
        std::string(algorithm) + "' is not one");
  }
  auto miner = std::make_unique<DeltaMiner>(entry->make(options), params,
                                            policy, options.num_threads);
  miner->set_run_context(options.run_context);
  return miner;
}

}  // namespace ufim
