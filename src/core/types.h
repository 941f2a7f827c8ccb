#ifndef UFIM_CORE_TYPES_H_
#define UFIM_CORE_TYPES_H_

#include <cstdint>

namespace ufim {

/// Dense identifier of an item. Generators and loaders map raw item labels
/// to a contiguous range [0, num_items).
using ItemId = std::uint32_t;

/// Largest item id `ReadDataset` accepts. A view sizes its per-item arrays
/// (about 56 bytes an item) by the largest id, so one sparse id such as
/// 4000000000 would ask for hundreds of gigabytes; the loader rejects ids
/// above this bound with InvalidArgument instead. 2^24 ids (about 0.9 GB
/// of per-item view arrays at the bound) cover every FIMI benchmark
/// dataset, the largest of which (webdocs) has 5.3 million items.
inline constexpr ItemId kMaxItemId = (ItemId{1} << 24) - 1;

/// Number of transactions / index of a transaction in a database.
using TransactionId = std::uint32_t;

/// One probabilistic unit inside a transaction: item `item` appears in the
/// transaction with existential probability `prob` (attribute-level
/// uncertainty, independent across units — the model of Defs. 1-4 of the
/// paper).
struct ProbItem {
  ItemId item = 0;
  double prob = 0.0;

  friend bool operator==(const ProbItem& a, const ProbItem& b) {
    return a.item == b.item && a.prob == b.prob;
  }
};

}  // namespace ufim

#endif  // UFIM_CORE_TYPES_H_
