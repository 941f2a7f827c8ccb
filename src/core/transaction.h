#ifndef UFIM_CORE_TRANSACTION_H_
#define UFIM_CORE_TRANSACTION_H_

#include <cstddef>
#include <vector>

#include "core/itemset.h"
#include "core/types.h"

namespace ufim {

/// One uncertain transaction `<tid, {y1(p1), ..., ym(pm)}>`.
///
/// Units are kept sorted by item id with strictly positive probabilities;
/// an item appears at most once. Items whose probability would be zero are
/// simply absent (equivalent under the possible-world semantics).
class Transaction {
 public:
  Transaction() = default;

  /// Constructs from arbitrary units: sorts by item, drops prob <= 0,
  /// clamps prob to at most 1, and keeps the last unit on duplicate items.
  /// Units already in that form are kept without a copy.
  explicit Transaction(std::vector<ProbItem> units);

  std::size_t size() const { return units_.size(); }
  bool empty() const { return units_.empty(); }

  const std::vector<ProbItem>& units() const { return units_; }
  const ProbItem& operator[](std::size_t i) const { return units_[i]; }

  std::vector<ProbItem>::const_iterator begin() const { return units_.begin(); }
  std::vector<ProbItem>::const_iterator end() const { return units_.end(); }

  /// Existential probability of `item` in this transaction; 0 if absent.
  double ProbabilityOf(ItemId item) const;

  /// Probability that the whole itemset appears in this transaction:
  /// the product of member probabilities (0 if any member is absent).
  /// This is Pr(X ⊆ T) under the independent unit model.
  double ItemsetProbability(const Itemset& itemset) const;

  friend bool operator==(const Transaction& a, const Transaction& b) {
    return a.units_ == b.units_;
  }

 private:
  std::vector<ProbItem> units_;
};

}  // namespace ufim

#endif  // UFIM_CORE_TRANSACTION_H_
