#ifndef UFIM_CORE_STREAMING_FLAT_VIEW_H_
#define UFIM_CORE_STREAMING_FLAT_VIEW_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/thread_annotations.h"
#include "core/flat_view.h"
#include "core/transaction.h"
#include "core/uncertain_database.h"

namespace ufim {

/// When the streaming delta is merged into the columnar base.
///
/// Appends land in the delta region in O(batch units); reads pay one
/// extra segment per item until the delta is folded back into the
/// contiguous base by an O(total units) compaction. The policy bounds
/// that read amortization: a compaction triggers automatically at the
/// end of any `Append` that leaves more than `max_delta_ratio` delta
/// units per base unit (once at least `min_delta_units` have
/// accumulated, so tiny databases don't thrash).
struct CompactionPolicy {
  /// Delta/base unit ratio above which Append compacts (strictly
  /// greater triggers). Any value <= 0 — 0 is the idiomatic spelling —
  /// means "always contiguous": compact on every append that leaves
  /// anything in the delta (the "always rebuild" reference point of the
  /// differential harness and the streaming bench).
  double max_delta_ratio = 0.25;
  /// Appends never compact before this many delta units accumulate
  /// (ignored when max_delta_ratio <= 0: always-contiguous mode
  /// compacts regardless of the gate).
  std::size_t min_delta_units = 1024;

  /// True when the stream must compact: `delta_units` probabilistic
  /// units across `delta_txns` appended transactions over a base of
  /// `base_units`. In always-contiguous mode (max_delta_ratio <= 0) the
  /// decision keys on `delta_txns`, not units — a unit-less delta of
  /// only empty transactions still folds, so the rebuild reference
  /// really is the from-scratch layout.
  bool ShouldCompact(std::size_t base_units, std::size_t delta_units,
                     std::size_t delta_txns) const {
    if (max_delta_ratio <= 0.0) return delta_txns > 0;
    if (delta_units == 0 || delta_units < min_delta_units) return false;
    return static_cast<double>(delta_units) >
           max_delta_ratio * static_cast<double>(base_units);
  }
};

/// A self-contained snapshot of a `StreamingFlatView` at one
/// generation, produced by `StreamingFlatView::Snapshot()`.
///
/// `view()` is a full `FlatView` over the stream's contents as of the
/// snapshot: it stays valid — and mines bit-identically to mining that
/// generation quiesced — across every subsequent `Append`/`Compact` on
/// the source, with no coordination (the handle shares the stream's
/// published storage, which is never written once handed out, so taking
/// one is O(1)). Any number of threads may read one handle concurrently;
/// handles are cheap to copy and keep their storage alive
/// independently of the source view's lifetime.
class StreamingSnapshot {
 public:
  /// Empty snapshot (an empty stream at generation 0).
  StreamingSnapshot() = default;

  /// The captured full view. Free-threaded: its storage is never
  /// mutated.
  const FlatView& view() const { return view_; }

  /// Stream generation the snapshot captured.
  std::uint64_t generation() const { return generation_; }

  /// Transactions in the stream when the snapshot was taken
  /// (== view().num_transactions(); the stream's watermark).
  std::size_t watermark() const { return watermark_; }

 private:
  friend class StreamingFlatView;

  FlatView view_;
  std::uint64_t generation_ = 0;
  std::size_t watermark_ = 0;
};

/// Incrementally maintained columnar storage: the streaming counterpart
/// of building a `FlatView` per batch.
///
/// `Append(transactions)` assigns the next transaction ids and writes
/// the new postings into a per-item *delta* region (horizontal CSR tail
/// plus per-item posting tail vectors) in O(batch units), plus an
/// O(delta + num_items) copy when the storage is shared (see "View
/// validity") — no O(total units) rebuild. Because appended tids are strictly greater than every
/// existing tid, each item's logical posting list is its base segment
/// followed by its delta segment, and every `FlatView` accessor and join
/// kernel walks that segment list transparently (see
/// `FlatView::PostingSegments`). `Compact()` merges the delta back into
/// the contiguous base; the policy above triggers it automatically.
///
/// **Equivalence contract.** At any point of the stream, `View()` is
/// *bit-identical* in mining behaviour to `FlatView(db)` over the same
/// transactions built from scratch: posting contents, cached per-item
/// moments (the Kahan accumulators persist across appends and
/// compactions, so they equal a from-scratch accumulation), join batch
/// boundaries, and float evaluation order all match. The randomized
/// streaming differential harness (tests/testing/stream_harness.h)
/// enforces this across append/compact/mine schedules.
///
/// **View validity (copy-on-write).** Published storage is immutable.
/// `View()`, `Snapshot()` and an open append transaction each share the
/// current storage; `Append` writes in place only into storage nobody
/// shares, and otherwise first copies it (sharing the immutable
/// compacted base, copying the policy-bounded delta and moment arrays)
/// and publishes the copy. `Compact` builds the merged base into fresh
/// storage (copy-on-compact). So a view — or any slice or copy of it —
/// reads the contents it was taken at for as long as it lives, through
/// any number of later appends, compactions and rollbacks, and
/// `Snapshot()` is an O(1) handle around the same shared pointer.
/// Whether storage is shared is a sticky flag that `View()`,
/// `Snapshot()` and `BeginAppend` set and a fresh copy or compaction
/// clears; it is deliberately not `shared_ptr::use_count()`, whose
/// relaxed read orders nothing against a reader thread that just
/// dropped its copy.
///
/// **Single-writer contract (annotated).** At most one thread at a time
/// — the serialized writer — may call `Append` / `Compact` / the
/// `BeginAppend`/`CommitAppend`/`RollbackAppend` transaction protocol,
/// or take a `Snapshot()`. The contract covers *mutators and snapshot
/// acquisition only*: reading through a view or a `StreamingSnapshot`
/// handle needs no coordination with the writer at all (its storage is
/// never written), which is what lets long-running mines overlap
/// ingestion. Taking a `View()` reads the storage pointer a mutator
/// replaces, so another thread takes one only where its own
/// synchronization orders the call with the writer's.
/// The contract is machine-checked by the `-Wthread-safety` CI leg:
/// each mutator requires the `writer_role_` capability, which a caller
/// claims via `AssertSoleWriter()` exactly where its own serialization
/// argument holds (e.g. `DeltaMiner` claims it under its write mutex).
/// A mutation call path with no claim fails the build.
class StreamingFlatView {
 public:
  explicit StreamingFlatView(CompactionPolicy policy = {});

  /// Seeds the base with `db` (equivalent to appending its transactions
  /// to an empty view and compacting).
  explicit StreamingFlatView(const UncertainDatabase& db,
                             CompactionPolicy policy = {});

  std::size_t num_transactions() const { return storage_->full_size; }
  std::size_t num_items() const { return storage_->num_items; }
  std::size_t num_units() const {
    return storage_->base->units.size() + storage_->delta_units.size();
  }

  /// Transactions currently in the delta region.
  std::size_t delta_transactions() const {
    return storage_->full_size - storage_->base_size;
  }
  std::size_t delta_units() const { return storage_->delta_units.size(); }
  bool has_delta() const { return delta_transactions() > 0; }

  /// Compactions run so far (automatic + explicit).
  std::size_t compactions() const { return compactions_; }

  /// Current generation: bumped by every mutation (Append of a
  /// non-empty batch, RollbackAppend, Compact of a non-empty delta).
  /// Monotonically increasing over the stream's life; a snapshot records
  /// the generation it captured.
  std::uint64_t generation() const { return generation_; }

  const CompactionPolicy& policy() const { return policy_; }

  /// Appends `batch` as transactions [num_transactions(),
  /// num_transactions() + batch.size()), growing the item universe when
  /// a transaction introduces a previously-unseen item. O(batch units)
  /// when no view, snapshot or transaction shares the storage, plus
  /// O(delta + num_items) to copy it first when one does, plus any
  /// triggered compaction. Returns true when the policy compacted.
  bool Append(std::span<const Transaction> batch)
      UFIM_REQUIRES(writer_role_);

  /// Merges the delta into fresh contiguous storage (O(total units));
  /// no-op without a delta. Existing views keep the storage they share.
  /// Mining results are unaffected — compaction changes the physical
  /// layout only. Must not be called inside an open append transaction.
  void Compact() UFIM_REQUIRES(writer_role_);

  /// Transactional append protocol, used by `DeltaMiner` to make a
  /// failed mine-over-append recoverable. `BeginAppend()` keeps the
  /// current storage pointer (so the transaction shares it, and the
  /// first `Append` inside copies before writing); between it and
  /// `CommitAppend()`, `Append` defers any policy compaction.
  /// `RollbackAppend()` restores the kept pointer — the exact
  /// pre-BeginAppend storage, Kahan moment accumulators included, so
  /// the equivalence contract above keeps holding after a rollback.
  /// `CommitAppend()` drops the kept pointer, then runs the deferred
  /// compaction check; like `Append` it returns true when it compacted.
  /// Both close the transaction.
  void BeginAppend() UFIM_REQUIRES(writer_role_);
  bool CommitAppend() UFIM_REQUIRES(writer_role_);
  void RollbackAppend() UFIM_REQUIRES(writer_role_);

  /// Claims the writer role to the thread-safety analysis (no runtime
  /// effect). Call it at the point where the caller's own serialization
  /// argument makes it the sole writer with no outstanding readers —
  /// see the single-writer contract in the class comment.
  void AssertSoleWriter() const UFIM_ASSERT_CAPABILITY(writer_role_) {}

  /// True between BeginAppend and Commit/RollbackAppend. Part of the
  /// writer protocol, so writer-gated too.
  bool in_append_txn() const UFIM_REQUIRES(writer_role_) {
    return txn_base_ != nullptr;
  }

  /// Full view over everything appended so far. It keeps reading these
  /// contents through any later mutation of the stream (see "View
  /// validity"); re-take it to see later appends.
  [[nodiscard]] FlatView View() const {
    shared_.store(true, std::memory_order_relaxed);
    return FlatView(storage_, 0, storage_->full_size);
  }

  /// An O(1) handle around the current storage (see
  /// `StreamingSnapshot`). Part of the writer protocol — it reads the
  /// storage pointer a mutator replaces, so it is serialized with
  /// mutations; the returned handle itself is free-threaded. Must not
  /// be called inside an open append transaction.
  [[nodiscard]] StreamingSnapshot Snapshot() const
      UFIM_REQUIRES(writer_role_);

 private:
  /// A copy of `s` that shares its base and has room for `batch`: every
  /// copied array is allocated once at its post-append size, from one
  /// counting pass over the batch, so the Append that follows never
  /// regrows (and so never copies the delta a second time).
  static std::shared_ptr<FlatView::Storage> CopyForAppend(
      const FlatView::Storage& s, std::span<const Transaction> batch,
      std::size_t num_items);

  /// Runs the policy check against the current delta and compacts when
  /// it says so; returns true when it compacted. The single home of the
  /// automatic-compaction decision (Append and CommitAppend both defer
  /// here).
  bool MaybeCompact() UFIM_REQUIRES(writer_role_);

  std::shared_ptr<FlatView::Storage> storage_;
  /// True once `storage_` may be read by someone else — set by View(),
  /// Snapshot() and BeginAppend, cleared when a copy or compaction
  /// publishes fresh storage. Atomic because View() is const and not
  /// writer-gated.
  mutable std::atomic<bool> shared_{false};
  /// The pre-BeginAppend storage while a transaction is open, else null.
  std::shared_ptr<FlatView::Storage> txn_base_ UFIM_GUARDED_BY(writer_role_);
  std::uint64_t generation_ = 0;
  CompactionPolicy policy_;
  std::size_t compactions_ = 0;

  /// The "I am the one serialized writer" capability (see class comment).
  Role writer_role_;
};

}  // namespace ufim

#endif  // UFIM_CORE_STREAMING_FLAT_VIEW_H_
