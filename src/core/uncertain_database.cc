#include "core/uncertain_database.h"

#include <algorithm>
#include <string>

#include "common/math_util.h"
#include "core/types.h"

namespace ufim {

UncertainDatabase::UncertainDatabase(std::vector<Transaction> transactions)
    : transactions_(std::move(transactions)) {
  for (const Transaction& t : transactions_) NoteTransaction(t);
}

void UncertainDatabase::Add(Transaction t) {
  NoteTransaction(t);
  transactions_.push_back(std::move(t));
}

void UncertainDatabase::Append(std::span<const Transaction> batch) {
  transactions_.reserve(transactions_.size() + batch.size());
  for (const Transaction& t : batch) {
    NoteTransaction(t);
    transactions_.push_back(t);
  }
}

void UncertainDatabase::NoteTransaction(const Transaction& t) {
  if (!t.empty()) {
    // Units are sorted, so back() is the transaction's largest item.
    num_items_ = std::max(num_items_,
                          static_cast<std::size_t>(t.units().back().item) + 1);
  }
}

DatabaseStats UncertainDatabase::ComputeStats() const {
  DatabaseStats s;
  s.num_transactions = transactions_.size();
  s.num_items = num_items();
  std::size_t total_units = 0;
  KahanSum prob_sum;
  for (const Transaction& t : transactions_) {
    total_units += t.size();
    for (const ProbItem& u : t) prob_sum.Add(u.prob);
  }
  if (s.num_transactions > 0) {
    s.avg_length = static_cast<double>(total_units) /
                   static_cast<double>(s.num_transactions);
  }
  if (s.num_items > 0) {
    s.density = s.avg_length / static_cast<double>(s.num_items);
  }
  if (total_units > 0) {
    s.mean_probability = prob_sum.value() / static_cast<double>(total_units);
  }
  return s;
}

double UncertainDatabase::ItemExpectedSupport(ItemId item) const {
  KahanSum sum;
  for (const Transaction& t : transactions_) sum.Add(t.ProbabilityOf(item));
  return sum.value();
}

double UncertainDatabase::ExpectedSupport(const Itemset& itemset) const {
  KahanSum sum;
  for (const Transaction& t : transactions_) {
    sum.Add(t.ItemsetProbability(itemset));
  }
  return sum.value();
}

std::vector<double> UncertainDatabase::ContainmentProbabilities(
    const Itemset& itemset) const {
  std::vector<double> probs;
  for (const Transaction& t : transactions_) {
    double p = t.ItemsetProbability(itemset);
    if (p > 0.0) probs.push_back(p);
  }
  return probs;
}

UncertainDatabase UncertainDatabase::Prefix(std::size_t n) const {
  n = std::min(n, transactions_.size());
  return UncertainDatabase(
      std::vector<Transaction>(transactions_.begin(), transactions_.begin() + n));
}

Status UncertainDatabase::Validate() const {
  for (std::size_t ti = 0; ti < transactions_.size(); ++ti) {
    const Transaction& t = transactions_[ti];
    for (std::size_t i = 0; i < t.size(); ++i) {
      const ProbItem& u = t[i];
      if (u.item > kMaxItemId) {
        return Status::InvalidArgument(
            "transaction " + std::to_string(ti) + ": item id " +
            std::to_string(u.item) + " above the largest loadable id " +
            std::to_string(kMaxItemId));
      }
      // Negated in-range test so that NaN (every comparison false) fails.
      if (!(u.prob > 0.0 && u.prob <= 1.0)) {
        return Status::InvalidArgument(
            "transaction " + std::to_string(ti) + ": probability out of (0,1]");
      }
      if (i > 0 && t[i - 1].item >= u.item) {
        return Status::Internal(
            "transaction " + std::to_string(ti) + ": units not strictly sorted");
      }
    }
  }
  return Status::OK();
}

}  // namespace ufim
