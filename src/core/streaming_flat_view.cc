#include "core/streaming_flat_view.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace ufim {

namespace {

/// A copy of `src` with capacity for `room` more elements, so the
/// push_backs that follow never reallocate.
template <typename T>
std::vector<T> CopyWithRoom(const std::vector<T>& src, std::size_t room) {
  std::vector<T> out;
  out.reserve(src.size() + room);
  out.assign(src.begin(), src.end());
  return out;
}

}  // namespace

StreamingFlatView::StreamingFlatView(CompactionPolicy policy)
    : StreamingFlatView(UncertainDatabase(), policy) {}

StreamingFlatView::StreamingFlatView(const UncertainDatabase& db,
                                     CompactionPolicy policy)
    : storage_(std::make_shared<FlatView::Storage>()), policy_(policy) {
  FlatView::BuildStorage(db, *storage_);
  storage_->delta_tids.resize(storage_->num_items);
  storage_->delta_probs.resize(storage_->num_items);
}

void StreamingFlatView::BeginAppend() {
  assert(!in_append_txn() && "append transaction already open");
  txn_base_ = storage_;
  shared_.store(true, std::memory_order_relaxed);
}

bool StreamingFlatView::CommitAppend() {
  assert(in_append_txn() && "no open append transaction");
  // Release the pre-transaction storage first, so a deferred compaction
  // never holds it beside the appended storage and the merged base.
  txn_base_.reset();
  // Deferred policy check, same rule as a bare Append's tail.
  return MaybeCompact();
}

void StreamingFlatView::RollbackAppend() {
  assert(in_append_txn() && "no open append transaction");
  // The transaction shared the pre-append storage, so every Append
  // inside it wrote into a copy; restoring the pointer restores the
  // exact pre-BeginAppend bits. Views taken before or inside the
  // transaction keep the storage they share.
  storage_ = std::move(txn_base_);
  shared_.store(true, std::memory_order_relaxed);
  ++generation_;
}

std::shared_ptr<FlatView::Storage> StreamingFlatView::CopyForAppend(
    const FlatView::Storage& s, std::span<const Transaction> batch,
    std::size_t num_items) {
  std::vector<std::size_t> room(num_items, 0);
  std::size_t units = 0;
  for (const Transaction& t : batch) {
    units += t.size();
    for (const ProbItem& u : t) ++room[u.item];
  }
  auto c = std::make_shared<FlatView::Storage>();
  c->num_items = s.num_items;
  c->full_size = s.full_size;
  c->base_size = s.base_size;
  c->base = s.base;
  c->delta_txn_offsets = CopyWithRoom(s.delta_txn_offsets, batch.size());
  c->delta_units = CopyWithRoom(s.delta_units, units);
  c->delta_tids.reserve(num_items);
  c->delta_probs.reserve(num_items);
  for (std::size_t i = 0; i < s.num_items; ++i) {
    c->delta_tids.push_back(CopyWithRoom(s.delta_tids[i], room[i]));
    c->delta_probs.push_back(CopyWithRoom(s.delta_probs[i], room[i]));
  }
  const std::size_t new_items = num_items - s.num_items;
  c->item_esup = CopyWithRoom(s.item_esup, new_items);
  c->item_sq_sum = CopyWithRoom(s.item_sq_sum, new_items);
  c->item_esup_acc = CopyWithRoom(s.item_esup_acc, new_items);
  return c;
}

bool StreamingFlatView::Append(std::span<const Transaction> batch) {
  if (!batch.empty()) {
    std::size_t num_items = storage_->num_items;
    for (const Transaction& t : batch) {
      for (const ProbItem& u : t) {
        num_items = std::max(num_items, static_cast<std::size_t>(u.item) + 1);
      }
    }
    // Copy-on-write: storage someone may read is never written. The
    // flag's ordering comes from whatever serializes View() callers
    // with the writer, so a relaxed load is enough.
    if (shared_.load(std::memory_order_relaxed)) {
      storage_ = CopyForAppend(*storage_, batch, num_items);
      shared_.store(false, std::memory_order_relaxed);
    }
    FlatView::Storage& s = *storage_;
    if (num_items > s.num_items) {
      // Previously-unseen items: grow the item-indexed arrays. The base
      // CSR stays as built (a new item simply has no base segment).
      s.num_items = num_items;
      s.delta_tids.resize(num_items);
      s.delta_probs.resize(num_items);
      s.item_esup.resize(num_items, 0.0);
      s.item_sq_sum.resize(num_items, 0.0);
      s.item_esup_acc.resize(num_items, KahanSum());
    }
    for (const Transaction& t : batch) {
      const TransactionId tid = static_cast<TransactionId>(s.full_size);
      for (const ProbItem& u : t) {
        s.delta_units.push_back(u);
        s.delta_tids[u.item].push_back(tid);
        s.delta_probs[u.item].push_back(u.prob);
        // Per-item unit order is tid-major here exactly as in a
        // from-scratch build, so continuing the persistent accumulators
        // reproduces the rebuild's moment bits at every point.
        s.item_esup_acc[u.item].Add(u.prob);
        s.item_esup[u.item] = s.item_esup_acc[u.item].value();
        s.item_sq_sum[u.item] += u.prob * u.prob;
      }
      s.delta_txn_offsets.push_back(s.delta_units.size());
      ++s.full_size;
    }
    ++generation_;
  }
  // Inside an append transaction the compaction is deferred to
  // CommitAppend, after the pre-transaction storage is released.
  if (in_append_txn()) return false;
  return MaybeCompact();
}

bool StreamingFlatView::MaybeCompact() {
  const FlatView::Storage& s = *storage_;
  if (!policy_.ShouldCompact(s.base->units.size(), s.delta_units.size(),
                             delta_transactions())) {
    return false;
  }
  Compact();
  return true;
}

void StreamingFlatView::Compact() {
  assert(!in_append_txn() && "cannot compact inside an append transaction");
  const FlatView::Storage& s = *storage_;
  if (s.full_size == s.base_size) return;

  // Copy-on-compact: the merged base is built into *fresh* storage and
  // published by swapping storage_; the retired storage is never
  // touched, so views and snapshots that still share it keep reading
  // valid, immutable data.
  const FlatView::Storage::BaseArrays& ob = *s.base;
  FlatView::Storage::BaseArrays merged;

  // Horizontal: the delta rows append directly (they already follow the
  // base rows in tid order).
  const std::size_t base_units = ob.units.size();
  merged.units.reserve(base_units + s.delta_units.size());
  merged.units.insert(merged.units.end(), ob.units.begin(), ob.units.end());
  merged.units.insert(merged.units.end(), s.delta_units.begin(),
                      s.delta_units.end());
  merged.txn_offsets.reserve(s.full_size + 1);
  merged.txn_offsets.insert(merged.txn_offsets.end(), ob.txn_offsets.begin(),
                            ob.txn_offsets.end());
  for (std::size_t d = 1; d < s.delta_txn_offsets.size(); ++d) {
    merged.txn_offsets.push_back(base_units + s.delta_txn_offsets[d]);
  }

  // Vertical: per item, the merged posting list is base postings then
  // delta postings — already globally tid-sorted, so the merge is a
  // counting pass plus contiguous copies (same layout a from-scratch
  // build would produce).
  const std::size_t base_items = s.base_num_items();
  std::vector<std::size_t> offsets(s.num_items + 1, 0);
  for (std::size_t i = 0; i < s.num_items; ++i) {
    const std::size_t base_len =
        i < base_items ? ob.item_offsets[i + 1] - ob.item_offsets[i] : 0;
    offsets[i + 1] = offsets[i] + base_len + s.delta_tids[i].size();
  }
  std::vector<TransactionId> tids(offsets.back());
  std::vector<double> probs(offsets.back());
  for (std::size_t i = 0; i < s.num_items; ++i) {
    std::size_t pos = offsets[i];
    if (i < base_items) {
      const std::size_t lo = ob.item_offsets[i];
      const std::size_t len = ob.item_offsets[i + 1] - lo;
      std::copy_n(ob.posting_tids.begin() + lo, len, tids.begin() + pos);
      std::copy_n(ob.posting_probs.begin() + lo, len, probs.begin() + pos);
      pos += len;
    }
    std::copy(s.delta_tids[i].begin(), s.delta_tids[i].end(),
              tids.begin() + pos);
    std::copy(s.delta_probs[i].begin(), s.delta_probs[i].end(),
              probs.begin() + pos);
  }
  merged.item_offsets = std::move(offsets);
  merged.posting_tids = std::move(tids);
  merged.posting_probs = std::move(probs);

  // Fresh storage: merged base, empty delta. Moments carry over — the
  // accumulators describe the logical content, which did not change.
  auto fresh = std::make_shared<FlatView::Storage>();
  fresh->num_items = s.num_items;
  fresh->full_size = s.full_size;
  fresh->base_size = s.full_size;
  fresh->base =
      std::make_shared<const FlatView::Storage::BaseArrays>(std::move(merged));
  fresh->delta_txn_offsets.assign(1, 0);
  fresh->delta_tids.resize(s.num_items);
  fresh->delta_probs.resize(s.num_items);
  fresh->item_esup = s.item_esup;
  fresh->item_sq_sum = s.item_sq_sum;
  fresh->item_esup_acc = s.item_esup_acc;

  storage_ = std::move(fresh);
  shared_.store(false, std::memory_order_relaxed);
  ++generation_;
  ++compactions_;
}

StreamingSnapshot StreamingFlatView::Snapshot() const {
  assert(!in_append_txn() && "cannot snapshot inside an append transaction");
  StreamingSnapshot snap;
  snap.generation_ = generation_;
  snap.watermark_ = storage_->full_size;
  snap.view_ = View();
  return snap;
}

}  // namespace ufim
