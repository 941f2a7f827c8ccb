#ifndef UFIM_TESTS_TESTING_RANDOM_DB_H_
#define UFIM_TESTS_TESTING_RANDOM_DB_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/transaction.h"
#include "core/uncertain_database.h"

namespace ufim::testing_util {

/// Parameters of a randomized test database.
struct RandomDbSpec {
  std::uint64_t seed = 1;
  std::size_t num_transactions = 12;
  std::size_t num_items = 8;
  double item_presence = 0.5;  ///< Bernoulli inclusion rate per (txn, item)
  double min_prob = 0.05;      ///< probability range of present units
  double max_prob = 1.0;
};

/// Builds a small random uncertain database. Small enough that the
/// brute-force oracle miners stay fast, varied enough (via seeds) to act
/// as property-test inputs.
inline UncertainDatabase MakeRandomDatabase(const RandomDbSpec& spec) {
  Rng rng(spec.seed);
  std::vector<Transaction> txns;
  txns.reserve(spec.num_transactions);
  for (std::size_t t = 0; t < spec.num_transactions; ++t) {
    std::vector<ProbItem> units;
    for (std::size_t i = 0; i < spec.num_items; ++i) {
      if (rng.Bernoulli(spec.item_presence)) {
        units.push_back(ProbItem{static_cast<ItemId>(i),
                                 rng.Uniform(spec.min_prob, spec.max_prob)});
      }
    }
    txns.emplace_back(std::move(units));
  }
  return UncertainDatabase(std::move(txns));
}

/// `db` cut into `k` near-equal contiguous batches, batch b holding
/// transactions [b * n / k, (b + 1) * n / k): the arrival-order shards a
/// SON stream is fed.
inline std::vector<std::vector<Transaction>> SplitIntoBatches(
    const UncertainDatabase& db, std::size_t k) {
  const std::size_t n = db.size();
  std::vector<std::vector<Transaction>> batches(k);
  for (std::size_t b = 0; b < k; ++b) {
    for (std::size_t t = b * n / k; t < (b + 1) * n / k; ++t) {
      batches[b].push_back(db[t]);
    }
  }
  return batches;
}

/// Parameters of a streaming transaction batch with a Kosarak-like
/// long-tail item popularity: item ranks are drawn from a Zipf
/// distribution, so a few head items appear in most transactions while
/// the tail is sparse — the regime where posting-length skew (and with
/// it kernel dispatch and compaction policy) actually matters.
struct StreamBatchSpec {
  std::size_t num_items = 16;
  double item_skew = 1.1;     ///< Zipf exponent of item popularity (0 = uniform)
  double avg_length = 4.0;    ///< mean units per transaction (Poisson)
  double empty_prob = 0.0;    ///< chance a transaction comes out empty
  double min_prob = 0.05;     ///< probability range of present units
  double max_prob = 1.0;
  /// Rotates popularity: Zipf rank r draws item (r - 1 + shift) mod
  /// num_items, so the most popular item is `shift`.
  std::size_t popularity_shift = 0;
};

/// Draws one batch of `n` transactions from `spec`, consuming `rng` (so
/// successive calls over one Rng produce an evolving stream; the whole
/// stream is reproducible from the Rng's seed). Items within one
/// transaction are drawn with replacement and deduplicated by the
/// `Transaction` constructor — duplicate draws land in the stream
/// exactly as dirty real-world feeds would, and the generator is used by
/// both the streaming differential harness and bench_streaming so their
/// input regimes match.
inline std::vector<Transaction> MakeStreamBatch(Rng& rng,
                                                const StreamBatchSpec& spec,
                                                std::size_t n) {
  std::vector<Transaction> batch;
  batch.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    std::vector<ProbItem> units;
    if (!rng.Bernoulli(spec.empty_prob)) {
      const unsigned len = rng.Poisson(spec.avg_length);
      units.reserve(len);
      for (unsigned u = 0; u < len; ++u) {
        // Zipf ranks are 1-based and head-heavy; rank 1 = most popular.
        const ItemId item = static_cast<ItemId>(
            (rng.Zipf(spec.num_items, spec.item_skew) - 1 +
             spec.popularity_shift) %
            spec.num_items);
        units.push_back(
            ProbItem{item, rng.Uniform(spec.min_prob, spec.max_prob)});
      }
    }
    batch.emplace_back(std::move(units));
  }
  return batch;
}

}  // namespace ufim::testing_util

#endif  // UFIM_TESTS_TESTING_RANDOM_DB_H_
