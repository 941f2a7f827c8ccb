#include "core/transaction.h"

#include <algorithm>

namespace ufim {

Transaction::Transaction(std::vector<ProbItem> units) : units_(std::move(units)) {
  // Units that are already canonical (strictly increasing ids, every p in
  // (0,1]) are kept as they are; the loader's lines almost always are.
  const auto canonical = [&] {
    for (std::size_t i = 0; i < units_.size(); ++i) {
      const ProbItem& u = units_[i];
      if (!(u.prob > 0.0 && u.prob <= 1.0)) return false;
      if (i > 0 && units_[i - 1].item >= u.item) return false;
    }
    return true;
  };
  if (canonical()) return;
  std::stable_sort(units_.begin(), units_.end(),
                   [](const ProbItem& a, const ProbItem& b) { return a.item < b.item; });
  // Deduplicate by item, keeping the last occurrence, dropping p <= 0.
  std::vector<ProbItem> cleaned;
  cleaned.reserve(units_.size());
  for (std::size_t i = 0; i < units_.size(); ++i) {
    if (i + 1 < units_.size() && units_[i + 1].item == units_[i].item) continue;
    ProbItem u = units_[i];
    if (u.prob <= 0.0) continue;
    if (u.prob > 1.0) u.prob = 1.0;
    cleaned.push_back(u);
  }
  units_ = std::move(cleaned);
}

double Transaction::ProbabilityOf(ItemId item) const {
  auto it = std::lower_bound(
      units_.begin(), units_.end(), item,
      [](const ProbItem& u, ItemId id) { return u.item < id; });
  if (it == units_.end() || it->item != item) return 0.0;
  return it->prob;
}

double Transaction::ItemsetProbability(const Itemset& itemset) const {
  // Merge walk: both sequences are sorted by item id.
  double prod = 1.0;
  auto ui = units_.begin();
  for (ItemId want : itemset) {
    while (ui != units_.end() && ui->item < want) ++ui;
    if (ui == units_.end() || ui->item != want) return 0.0;
    prod *= ui->prob;
    ++ui;
  }
  return itemset.empty() ? 0.0 : prod;
}

}  // namespace ufim
