#ifndef UFIM_CORE_DELTA_MINER_H_
#define UFIM_CORE_DELTA_MINER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/math_util.h"
#include "common/mutex.h"
#include "common/result.h"
#include "core/miner.h"
#include "core/streaming_flat_view.h"

namespace ufim {

/// One size->=2 candidate's running recount: its expected-support Kahan
/// state and plain Σp² over the first `counted_upto` transactions of the
/// view it was counted on, and the join driver (`FlatView::JoinDriver`
/// member index) that produced them. A default state has counted
/// nothing. The recount continues it over the view's newer transactions
/// only; its whole state is these fields, so carrying it forward by
/// value gives exactly the bits of a recount from scratch.
struct RecountState {
  KahanSum esup;
  double sq_sum = 0.0;
  std::size_t counted_upto = 0;
  std::size_t driver = 0;
};

/// Phase 2 of `DeltaMiner`'s SON (partition) scheme: exact recount of a
/// candidate union over the full view. `singles` and `larger` are
/// canonically sorted, deduplicated candidate itemsets of size 1 / >= 2.
/// Singletons come straight off the view's cached moments; larger sets
/// are posting joins partitioned by candidate, so the ascending-tid Kahan
/// accumulation is the sequential one regardless of thread count.
/// Appends itemsets with expected support >= `threshold` (absolute) to
/// `result` with their exact full-view moments, and bumps its counters
/// (one database scan, one generated candidate each). Public so that
/// reference replays of a stream recount with the very code `DeltaMiner`
/// runs. `context` (optional) is polled once per size->=2 candidate join;
/// a tripped token unwinds with RunAbortedError, which the calling
/// miner's guarded facade converts to a Status.
///
/// `states`, when non-empty, holds one running state per `larger`
/// candidate (parallel to it), each counted over a prefix of this same
/// growing stream (`counted_upto` <= the view's size). A candidate then
/// joins only the view's transactions past `counted_upto`, driven from
/// the full view's current driver, and its state is advanced in place to
/// cover the whole view. If that driver differs from the state's and the
/// candidate has three or more items, the product order has changed, so
/// the state restarts from zero (a pair's single multiplication commutes
/// and never restarts). The moments equal an empty-`states` recount's
/// bit for bit. On a throw the states may be partly advanced; callers
/// pass a copy and keep it only on success.
void RecountExpectedCandidates(const FlatView& view,
                               const std::vector<Itemset>& singles,
                               const std::vector<Itemset>& larger,
                               double threshold, std::size_t num_threads,
                               MiningResult& result,
                               const RunContext* context = nullptr,
                               std::span<RecountState> states = {});

/// Incremental mining driver over a `StreamingFlatView`: the SON
/// (partition) scheme, with the shards given by arrival order. It is
/// the library's only shard-and-recount driver.
///
/// `MineNext(batch)` appends the batch, mines the *appended suffix* as
/// its own shard with the inner miner at the same min_esup ratio, unions
/// the shard-local frequent itemsets into a persistent candidate pool,
/// and recounts the pool exactly over the full view
/// (`RecountExpectedCandidates`). The suffix shards mined across the
/// stream's lifetime partition the database, so the SON pigeonhole
/// applies at every point: an itemset that is globally frequent *now*
/// was locally frequent in at least one suffix shard when that shard
/// arrived and therefore sits in the pool — the recount returns the
/// exact full-database answer, identical (itemsets and moments) to
/// mining the accumulated database from scratch. Note the pool keeps
/// every shard-local candidate, not just previously-global ones: an
/// itemset can be locally frequent long before it is globally frequent,
/// and dropping it then would lose it forever.
///
/// **Incremental recount.** Expected support and Σp² are sums over
/// transactions, so each pooled candidate keeps its running moments
/// (`RecountState`: Kahan state, Σp², the transactions covered, the join
/// driver used) and a batch joins it only over the transactions appended
/// since; a newly admitted candidate is counted once over the whole
/// stream. A batch therefore costs O(batch × pool + newly admitted
/// candidates × stream), not O(stream × pool). *Driver-reset rule:* a
/// join's products multiply the driver's (rarest member's) probability
/// by the others' in member order, so the suffix join uses the full
/// view's current driver, and a candidate of three or more items whose
/// driver changed since its moments were saved is recounted from zero.
/// The moments then equal a full recount's bit for bit. They are saved
/// only after the recount succeeds, so a failed or cancelled batch
/// leaves them untouched.
///
/// Mining the suffix works pre- and post-compaction alike: the suffix is
/// a `Slice` of the full view, and slices walk the base/delta segment
/// lists transparently. Results and counters are bit-identical whatever
/// the compaction policy (the streaming differential harness pins this).
///
/// Only expected-support tasks are supported: expected support is
/// additive across shards, which is what makes the local-threshold union
/// argument sound. Probabilistic frequentness is not additive.
///
/// **Batch sizing.** The per-shard threshold is min_esup * |batch|;
/// when that drops below ~1 expected occurrence, *every* itemset a
/// transaction contains is locally frequent and the candidate pool
/// explodes combinatorially — the classic SON degenerate regime. Keep
/// batches large enough that min_esup * batch_size stays comfortably
/// above 1 (a few occurrences); the pool then stays small and the
/// recount linear in it.
class DeltaMiner {
 public:
  /// Wraps `inner` (an expected-support miner; typically registry-made).
  /// The stream starts empty; feed transactions through `MineNext`.
  /// `num_threads` as in MinerOptions (0 = all hardware threads),
  /// applied to the suffix mining and the recount.
  DeltaMiner(std::unique_ptr<Miner> inner, ExpectedSupportParams params,
             CompactionPolicy policy = {}, std::size_t num_threads = 1);

  /// "Delta(<inner name>)".
  std::string_view name() const { return name_; }

  /// Appends `batch` to the stream and returns the exact mining result
  /// over every transaction appended so far. An empty batch re-mines the
  /// current state (recount only): it opens no append transaction,
  /// triggers no policy compaction, and moves no shard bookkeeping.
  ///
  /// **Transactional.** The append runs under the view's
  /// BeginAppend/CommitAppend protocol: the transaction keeps the
  /// pre-append storage, and the batch is written into a copy. If the
  /// inner shard mine fails (including cancellation through the
  /// attached RunContext), rollback restores the kept storage — the
  /// stream is back at its pre-append watermark, bit for bit, and the
  /// error is returned; the stream is *not* poisoned. Retrying the same
  /// batch after a transient failure appends it exactly once and yields
  /// the same result as if the failure never happened. The candidate
  /// pool and shard watermark advance only on a successful shard mine,
  /// and the batch commits before the recount, so a recount-phase
  /// failure leaves a consistent committed stream that an empty-batch
  /// retry re-mines. The pooled candidates' saved moments advance only
  /// when the recount succeeds; the retry continues them from where
  /// they were.
  ///
  /// **Threads.** Calls to MineNext must still be serialized by the
  /// caller (it is the stream's one writer), but the expensive recount
  /// phase runs over a `Snapshot()` taken at commit time, outside the
  /// miner's write mutex — so an explicit `Compact()` from another
  /// thread may overlap the recount freely without changing a bit of
  /// the result.
  Result<MiningResult> MineNext(std::span<const Transaction> batch);

  /// Attaches the cooperative cancellation / deadline / budget token,
  /// shared with the inner shard miner. `MakeDeltaMiner` forwards
  /// `MinerOptions::run_context` automatically.
  void set_run_context(RunContext context);
  const RunContext& run_context() const { return run_context_; }

  /// Read-only storage access. Mutation stays behind MineNext (and the
  /// Compact forwarder below): appending to the view directly would
  /// bypass the suffix-shard bookkeeping and silently break exactness.
  const StreamingFlatView& view() const { return view_; }

  /// Forces a compaction — a layout change only, never a result change
  /// (the differential harness pins this). Serialized with MineNext's
  /// mutation phase by the miner's write mutex, so it may be called
  /// from another thread even while a MineNext recount is in flight:
  /// the recount reads a snapshot, and copy-on-compact leaves the
  /// snapshot's storage untouched.
  void Compact() {
    MutexLock lock(write_mu_);
    view_.AssertSoleWriter();
    view_.Compact();
  }

  /// Suffix shards mined so far (== MineNext calls with a non-empty
  /// batch).
  std::size_t shards_mined() const {
    MutexLock lock(write_mu_);
    return shards_mined_;
  }

  /// Distinct shard-local frequent itemsets accumulated for recounting.
  std::size_t candidate_pool_size() const {
    MutexLock lock(write_mu_);
    return pool_.size();
  }

  /// Candidates first admitted to the pool at stream generation >=
  /// `generation` — per-generation bookkeeping for pool-growth
  /// diagnostics (a candidate's admission generation never changes;
  /// re-discovery by a later shard keeps the original).
  std::size_t candidates_admitted_since(std::uint64_t generation) const;

 private:
  std::unique_ptr<Miner> inner_;
  ExpectedSupportParams params_;
  std::string name_;
  std::size_t num_threads_;
  RunContext run_context_;

  /// Serializes stream mutation + snapshot acquisition (MineNext's
  /// append/commit phase, explicit Compact) and guards the pool and
  /// shard bookkeeping. The recount phase deliberately runs outside it.
  mutable Mutex write_mu_;
  StreamingFlatView view_;
  /// Transactions covered by mined suffix shards.
  std::size_t mined_upto_ UFIM_GUARDED_BY(write_mu_) = 0;
  std::size_t shards_mined_ UFIM_GUARDED_BY(write_mu_) = 0;
  struct PoolEntry {
    std::uint64_t admitted = 0;  ///< stream generation that admitted it
    /// Running moments of a size->=2 candidate as of the last successful
    /// recount (unused for singletons, which read the view's moments).
    RecountState moments;
  };
  std::unordered_map<Itemset, PoolEntry, ItemsetHash> pool_
      UFIM_GUARDED_BY(write_mu_);
};

/// Builds a `DeltaMiner` around a registry algorithm — the streaming
/// entry point behind the `Miner` facade: any registered expected-support
/// algorithm can serve as the shard miner. NotFound for unregistered
/// names, InvalidArgument for non-expected-support algorithms.
Result<std::unique_ptr<DeltaMiner>> MakeDeltaMiner(
    std::string_view algorithm, const ExpectedSupportParams& params,
    const MinerOptions& options = {}, CompactionPolicy policy = {});

}  // namespace ufim

#endif  // UFIM_CORE_DELTA_MINER_H_
