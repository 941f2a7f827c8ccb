#include "algo/apriori_framework.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/math_util.h"
#include "common/thread_pool.h"
#include "prob/bound_cascade.h"
#include "prob/chernoff.h"

namespace ufim {

std::vector<ItemStats> CollectItemStats(const FlatView& view) {
  const std::size_t n_items = view.num_items();
  std::vector<ItemStats> out;
  out.reserve(n_items);
  for (std::size_t i = 0; i < n_items; ++i) {
    const ItemId item = static_cast<ItemId>(i);
    const double esup = view.ItemExpectedSupport(item);
    if (esup > 0.0) {
      out.push_back(ItemStats{item, esup, view.ItemSquaredSum(item)});
    }
  }
  return out;
}

std::vector<Itemset> GenerateCandidates(const std::vector<Itemset>& frequent_k,
                                        std::uint64_t* pruned) {
  std::vector<Itemset> candidates;
  if (frequent_k.empty()) return candidates;
  // Membership set for the subset-pruning step (lookup only, never
  // iterated — named so the unordered-iteration lint can tell it apart
  // from the ordered result vectors).
  std::unordered_set<Itemset, ItemsetHash> frequent_lookup(frequent_k.begin(),
                                                           frequent_k.end());
  for (std::size_t i = 0; i < frequent_k.size(); ++i) {
    // frequent_k is sorted, so all joins of i share a contiguous range of
    // prefix-compatible partners directly after i.
    for (std::size_t j = i + 1; j < frequent_k.size(); ++j) {
      if (!Itemset::SharesPrefix(frequent_k[i], frequent_k[j])) break;
      Itemset joined = frequent_k[i].Union(frequent_k[j].items().back());
      // Downward closure: every k-subset must be frequent. The two join
      // parents are subsets by construction; check the remaining k-1.
      bool ok = true;
      for (std::size_t drop = 0; drop + 2 < joined.size() && ok; ++drop) {
        if (frequent_lookup.find(joined.WithoutIndex(drop)) ==
            frequent_lookup.end()) {
          ok = false;
        }
      }
      if (ok) {
        candidates.push_back(std::move(joined));
      } else if (pruned != nullptr) {
        ++*pruned;
      }
    }
  }
  return candidates;
}

namespace {

/// Joins one candidate's posting arrays through the shared FlatView
/// batch kernel, filling `stats` with esup / Σp² (+ probs when
/// requested). `decremental_threshold >= 0` abandons the join, at batch
/// granularity, once even one unit of probability per remaining driver
/// posting cannot reach the threshold — the batch boundaries are a pure
/// function of the driver length, so the abandonment schedule (and with
/// it the partial sums of abandoned candidates) is identical at every
/// thread count and under every intersect kernel.
void JoinCandidate(const FlatView& view, const Itemset& candidate,
                   bool collect_probs, double decremental_threshold,
                   JoinScratch& scratch, CandidateStats& stats) {
  const bool decremental = decremental_threshold >= 0.0;

  KahanSum esup;
  bool reserved = false;
  view.JoinPostingsBatched(candidate, scratch, [&](const JoinBatch& batch) {
    if (collect_probs && !reserved) {
      // The join emits at most one probability per driver (shortest
      // member) posting; reserving that upper bound on the first batch
      // kills the push_back reallocation churn of the exact-algorithm
      // levels.
      stats.probs.reserve(batch.driver_len);
      reserved = true;
    }
    for (const double prod : batch.prods) {
      esup.Add(prod);
      stats.sq_sum += prod * prod;
      // A product that underflowed to +0.0 stays in the sums (so their
      // bits match every other path) but is not a nonzero containment
      // probability.
      if (collect_probs && prod != 0.0) stats.probs.push_back(prod);
    }
    if (decremental && batch.driver_done < batch.driver_len) {
      // Each remaining driver posting contributes at most 1 to esup.
      const double optimistic =
          esup.value() +
          static_cast<double>(batch.driver_len - batch.driver_done);
      if (optimistic < decremental_threshold) return false;
    }
    return true;
  });
  stats.esup = esup.value();
  // The driver-length reserve is an upper bound; on sparse joins most
  // of it goes unused, and stats outlives the join inside the caller's
  // whole result vector — trim badly over-reserved candidates so the
  // retained footprint tracks actual matches.
  if (collect_probs && stats.probs.capacity() > 2 * stats.probs.size()) {
    stats.probs.shrink_to_fit();
  }
}

/// First-item candidate buckets in CSR layout: the pairs whose first
/// member is item i live in cands[offsets[i] .. offsets[i+1]), ascending
/// by candidate id. `items` lists the first items with a non-empty
/// bucket, ascending — the work units of the pair kernel.
struct CandidateBuckets {
  std::vector<std::uint32_t> offsets;  ///< size n_items + 1
  std::vector<std::uint32_t> cands;    ///< candidate ids
  std::vector<ItemId> items;           ///< first items with a pair

  CandidateBuckets(const std::vector<Itemset>& candidates,
                   const std::vector<std::uint32_t>& pair_ids,
                   std::size_t n_items) {
    offsets.assign(n_items + 1, 0);
    for (const std::uint32_t c : pair_ids) {
      ++offsets[candidates[c].items().front() + 1];
    }
    for (std::size_t i = 0; i < n_items; ++i) {
      if (offsets[i + 1] > 0) items.push_back(static_cast<ItemId>(i));
      offsets[i + 1] += offsets[i];
    }
    cands.resize(pair_ids.size());
    std::vector<std::uint32_t> fill(offsets.begin(), offsets.end() - 1);
    for (const std::uint32_t c : pair_ids) {
      cands[fill[candidates[c].items().front()]++] = c;
    }
  }
};

/// One worker's scratch for the pair kernel: a dense item -> partner
/// slot map (kNoPartner outside the bucket being counted) and the
/// partners' accumulators. Sized once per call and reset sparsely after
/// each bucket, so a bucket costs its own postings and partners only.
struct PairScratch {
  static constexpr std::uint32_t kNoPartner = ~std::uint32_t{0};

  std::vector<std::uint32_t> slot_of;  ///< dense, n_items
  std::vector<std::uint32_t> owner;    ///< per slot: its first candidate
  std::vector<KahanSum> esup;          ///< per slot
  std::vector<double> sq_sum;
  std::vector<std::vector<double>> probs;

  explicit PairScratch(std::size_t n_items)
      : slot_of(n_items, kNoPartner) {}
};

/// Counts every pair {a, b} of `a`'s bucket with one walk over `a`'s
/// postings in tid order: for each posting (tid, p_a) it reads the units
/// of `tid` after `a`, and each wanted partner b adds p_a·p_b to its own
/// accumulators. Per pair this is one Kahan sum over the matching
/// transactions in ascending tid order of a two-factor product — exactly
/// the operation sequence of the pair's posting join (two-factor
/// products commute), so the moments are bit-identical to
/// `JoinCandidate` without decremental pruning.
void CountPairBucket(const FlatView& view, const std::vector<Itemset>& candidates,
                     const CandidateBuckets& buckets, ItemId a,
                     bool collect_probs, PairScratch& s,
                     std::vector<CandidateStats>& stats) {
  const std::uint32_t* const first = buckets.cands.data() + buckets.offsets[a];
  const std::uint32_t* const last = buckets.cands.data() + buckets.offsets[a + 1];
  // Partner slots in bucket order; a duplicated pair shares its slot.
  s.owner.clear();
  ItemId max_partner = 0;
  for (const std::uint32_t* c = first; c != last; ++c) {
    const ItemId b = candidates[*c].items()[1];
    if (s.slot_of[b] == PairScratch::kNoPartner) {
      s.slot_of[b] = static_cast<std::uint32_t>(s.owner.size());
      s.owner.push_back(*c);
    }
    max_partner = std::max(max_partner, b);
  }
  const std::size_t n_slots = s.owner.size();
  s.esup.assign(n_slots, KahanSum());
  s.sq_sum.assign(n_slots, 0.0);
  if (collect_probs && s.probs.size() < n_slots) s.probs.resize(n_slots);

  const SegmentedPostings postings = view.PostingSegments(a);
  for (std::size_t si = 0; si < postings.count; ++si) {
    const PostingSegment& seg = postings.seg[si];
    for (std::size_t k = 0; k < seg.len; ++k) {
      const double pa = seg.probs[k];
      const std::span<const ProbItem> units = view.TransactionUnits(seg.tids[k]);
      auto u = std::upper_bound(
          units.begin(), units.end(), a,
          [](ItemId needle, const ProbItem& x) { return needle < x.item; });
      for (; u != units.end() && u->item <= max_partner; ++u) {
        const std::uint32_t slot = s.slot_of[u->item];
        if (slot == PairScratch::kNoPartner) continue;
        const double prod = pa * u->prob;
        s.esup[slot].Add(prod);
        s.sq_sum[slot] += prod * prod;
        // An underflowed product stays in the sums (as in the join) but
        // is not a nonzero containment probability.
        if (collect_probs && prod != 0.0) s.probs[slot].push_back(prod);
      }
    }
  }

  // The probs move out, so no worker keeps a bucket's worth of them.
  for (std::size_t slot = 0; slot < n_slots; ++slot) {
    CandidateStats& out = stats[s.owner[slot]];
    out.esup = s.esup[slot].value();
    out.sq_sum = s.sq_sum[slot];
    if (collect_probs) {
      out.probs = std::move(s.probs[slot]);
      s.probs[slot].clear();
    }
  }
  for (const std::uint32_t* c = first; c != last; ++c) {
    const std::uint32_t owner = s.owner[s.slot_of[candidates[*c].items()[1]]];
    if (owner != *c) stats[*c] = stats[owner];
  }
  for (const std::uint32_t* c = first; c != last; ++c) {
    s.slot_of[candidates[*c].items()[1]] = PairScratch::kNoPartner;
  }
}

}  // namespace

std::vector<CandidateStats> EvaluateCandidates(const FlatView& view,
                                               const std::vector<Itemset>& candidates,
                                               bool collect_probs,
                                               double decremental_threshold,
                                               std::size_t num_threads,
                                               const RunContext* context) {
  std::vector<CandidateStats> stats(candidates.size());
  if (candidates.empty()) return stats;
  const std::size_t n_items = view.num_items();

  // Pairs go to the pair kernel, everything else to the posting join. A
  // pair naming an item outside the view has no postings: zero stats.
  std::vector<std::uint32_t> pair_ids;
  std::vector<std::uint32_t> join_ids;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const std::vector<ItemId>& items = candidates[c].items();
    if (items.size() != 2) {
      join_ids.push_back(static_cast<std::uint32_t>(c));
    } else if (items[1] < n_items) {
      pair_ids.push_back(static_cast<std::uint32_t>(c));
    }
  }

  // Pair kernel: workers claim one first item at a time; each bucket is
  // counted whole by one worker into its candidates' own slots.
  if (!pair_ids.empty()) {
    const CandidateBuckets buckets(candidates, pair_ids, n_items);
    std::vector<PairScratch> scratches(
        ParallelWorkerCount(buckets.items.size(), num_threads),
        PairScratch(n_items));
    ParallelForDynamic(
        buckets.items.size(), num_threads,
        [&](std::size_t i, std::size_t worker) {
          PollRunContext(context);  // checkpoint: one per first-item bucket
          CountPairBucket(view, candidates, buckets, buckets.items[i],
                          collect_probs, scratches[worker], stats);
        },
        context);
  }

  // Posting joins: workers claim one candidate at a time, and each join
  // runs whole on one worker through that worker's JoinScratch, so the
  // accumulation (and the decremental abandonment schedule) is the
  // sequential one at every thread count.
  if (!join_ids.empty()) {
    std::vector<JoinScratch> scratches(
        ParallelWorkerCount(join_ids.size(), num_threads));
    ParallelForDynamic(
        join_ids.size(), num_threads,
        [&](std::size_t i, std::size_t worker) {
          PollRunContext(context);  // checkpoint: one per candidate join
          const std::uint32_t c = join_ids[i];
          JoinCandidate(view, candidates[c], collect_probs,
                        decremental_threshold, scratches[worker], stats[c]);
        },
        context);
  }
  return stats;
}

std::vector<CandidateStats> EvaluateCandidatesRowScan(
    const UncertainDatabase& db, const std::vector<Itemset>& candidates,
    bool collect_probs, double decremental_threshold) {
  const std::size_t n_items = db.num_items();
  const std::size_t n_cands = candidates.size();
  std::vector<CandidateStats> stats(n_cands);
  if (n_cands == 0) return stats;

  // Bucket candidates by first item: a candidate is only probed against
  // transactions containing that item.
  std::vector<std::vector<std::uint32_t>> buckets(n_items);
  for (std::size_t c = 0; c < n_cands; ++c) {
    buckets[candidates[c].items().front()].push_back(
        static_cast<std::uint32_t>(c));
  }

  std::vector<KahanSum> esup(n_cands);
  std::vector<char> active(n_cands, 1);
  const bool decremental = decremental_threshold >= 0.0;
  constexpr std::size_t kSweepPeriod = 512;

  // Dense per-transaction probability probe, reset via a touched list.
  std::vector<double> probe(n_items, 0.0);
  std::vector<ItemId> touched;
  touched.reserve(256);

  const std::size_t n_txn = db.size();
  for (std::size_t ti = 0; ti < n_txn; ++ti) {
    const Transaction& t = db[ti];
    touched.clear();
    for (const ProbItem& u : t) {
      probe[u.item] = u.prob;
      touched.push_back(u.item);
    }
    for (const ProbItem& u : t) {
      for (std::uint32_t c : buckets[u.item]) {
        if (!active[c]) continue;
        double prod = u.prob;
        const std::vector<ItemId>& items = candidates[c].items();
        for (std::size_t k = 1; k < items.size(); ++k) {
          const double p = probe[items[k]];
          if (p == 0.0) {
            prod = 0.0;
            break;
          }
          prod *= p;
        }
        if (prod > 0.0) {
          esup[c].Add(prod);
          stats[c].sq_sum += prod * prod;
          if (collect_probs) stats[c].probs.push_back(prod);
        }
      }
    }
    for (ItemId id : touched) probe[id] = 0.0;

    if (decremental && (ti + 1) % kSweepPeriod == 0) {
      const double remaining = static_cast<double>(n_txn - ti - 1);
      for (std::size_t c = 0; c < n_cands; ++c) {
        if (active[c] && esup[c].value() + remaining < decremental_threshold) {
          active[c] = 0;
        }
      }
    }
  }
  for (std::size_t c = 0; c < n_cands; ++c) stats[c].esup = esup[c].value();
  return stats;
}

namespace {

/// Verdict of the per-candidate frequency judge, with the counter deltas
/// it incurred. Counters are carried out-of-band (instead of mutated
/// inside the judge) so judging can run in parallel and still aggregate
/// deterministically in candidate order.
struct JudgeOutcome {
  std::optional<FrequentItemset> fi;
  bool bound_rejected = false;
  bool bound_accepted = false;
  bool exact_evaluated = false;
};

/// The third argument is the candidate's stable ordinal in generation
/// order across the whole run (see TailFn in the header).
using JudgeFn = std::function<JudgeOutcome(const Itemset&, CandidateStats&,
                                           std::size_t ordinal)>;

/// Applies `judge` to every candidate; candidate c carries the stable
/// ordinal `ordinal_base + c`. With `judge_threads > 1` workers claim
/// candidates one at a time (ParallelForDynamic), so the few expensive
/// exact tails the bound cascade leaves — often adjacent ordinals — spread
/// across workers instead of landing in one static chunk. Each candidate
/// is judged whole on one thread and written to its own slot, so the
/// outcome vector is identical to the serial pass for any thread-safe
/// judge.
std::vector<JudgeOutcome> JudgeAll(const std::vector<Itemset>& candidates,
                                   std::vector<CandidateStats>& stats,
                                   const JudgeFn& judge,
                                   std::size_t judge_threads,
                                   std::size_t ordinal_base,
                                   const RunContext* context) {
  std::vector<JudgeOutcome> outcomes(candidates.size());
  ParallelForDynamic(
      candidates.size(), judge_threads,
      [&](std::size_t c, std::size_t /*worker*/) {
        PollRunContext(context);  // checkpoint: one per judged candidate
        outcomes[c] = judge(candidates[c], stats[c], ordinal_base + c);
      },
      context);
  return outcomes;
}

/// Shared level-wise loop. `judge` decides frequency and produces the
/// result annotation for one candidate given its scan statistics; an
/// empty outcome marks the candidate infrequent. `num_threads`
/// parallelizes support counting, `judge_threads` the judging (> 1 only
/// for thread-safe judges).
std::vector<FrequentItemset> LevelWiseLoop(
    const FlatView& view, const JudgeFn& judge, bool collect_probs,
    double decremental_threshold, MiningCounters* counters,
    std::size_t num_threads, std::size_t judge_threads,
    const RunContext* context) {
  std::vector<FrequentItemset> results;
  PollRunContext(context);  // checkpoint: run entry

  // Level 1: items, straight off the view's cached moments; the per-item
  // posting arrays already hold the per-transaction probabilities.
  std::vector<ItemStats> item_stats = CollectItemStats(view);
  if (counters != nullptr) {
    ++counters->database_scans;
    counters->candidates_generated += item_stats.size();
  }
  std::vector<Itemset> level;
  {
    std::vector<Itemset> singles;
    std::vector<CandidateStats> stats;
    singles.reserve(item_stats.size());
    stats.reserve(item_stats.size());
    for (const ItemStats& is : item_stats) {
      singles.push_back(Itemset{is.item});
      CandidateStats cs;
      cs.esup = is.esup;
      cs.sq_sum = is.sq_sum;
      if (collect_probs) {
        // Segment-aware (not PostingProbs) so the exact probabilistic
        // algorithms run unchanged on streaming views.
        view.AppendPostingProbs(is.item, cs.probs);
      }
      stats.push_back(std::move(cs));
    }
    std::vector<JudgeOutcome> outcomes = JudgeAll(
        singles, stats, judge, judge_threads, /*ordinal_base=*/0, context);
    for (std::size_t c = 0; c < singles.size(); ++c) {
      if (counters != nullptr) {
        counters->candidates_rejected_bound += outcomes[c].bound_rejected;
        counters->candidates_accepted_bound += outcomes[c].bound_accepted;
        counters->exact_tail_evals += outcomes[c].exact_evaluated;
      }
      if (outcomes[c].fi.has_value()) {
        level.push_back(singles[c]);
        results.push_back(std::move(*outcomes[c].fi));
      }
    }
  }
  std::sort(level.begin(), level.end());

  // Stable candidate numbering in generation order: level 1 used
  // [0, #items); each later level's candidates follow contiguously. The
  // numbering is a pure function of the database and parameters — never
  // of thread count — which is what makes ordinal-derived RNG streams
  // deterministic.
  std::size_t ordinal_base = item_stats.size();

  // Levels k >= 2.
  while (!level.empty()) {
    PollRunContext(context);  // checkpoint: one per level
    std::uint64_t pruned = 0;
    std::vector<Itemset> candidates = GenerateCandidates(level, &pruned);
    if (counters != nullptr) {
      counters->candidates_pruned_apriori += pruned;
    }
    if (candidates.empty()) break;
    if (counters != nullptr) {
      ++counters->database_scans;
      counters->candidates_generated += candidates.size();
    }
    std::vector<CandidateStats> stats =
        EvaluateCandidates(view, candidates, collect_probs,
                           decremental_threshold, num_threads, context);
    std::vector<JudgeOutcome> outcomes = JudgeAll(
        candidates, stats, judge, judge_threads, ordinal_base, context);
    ordinal_base += candidates.size();
    std::vector<Itemset> next;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (counters != nullptr) {
        counters->candidates_rejected_bound += outcomes[c].bound_rejected;
        counters->candidates_accepted_bound += outcomes[c].bound_accepted;
        counters->exact_tail_evals += outcomes[c].exact_evaluated;
      }
      if (outcomes[c].fi.has_value()) {
        next.push_back(candidates[c]);
        results.push_back(std::move(*outcomes[c].fi));
      }
    }
    std::sort(next.begin(), next.end());
    level = std::move(next);
  }
  return results;
}

}  // namespace

std::vector<FrequentItemset> MineAprioriGeneric(const FlatView& view,
                                                const AprioriCallbacks& callbacks,
                                                double decremental_threshold,
                                                MiningCounters* counters,
                                                std::size_t num_threads,
                                                const RunContext* context) {
  auto judge = [&callbacks](const Itemset& itemset, CandidateStats& cs,
                            std::size_t /*ordinal*/) -> JudgeOutcome {
    JudgeOutcome out;
    if (!callbacks.is_frequent(cs.esup, cs.sq_sum)) return out;
    FrequentItemset fi;
    fi.itemset = itemset;
    fi.expected_support = cs.esup;
    fi.variance = cs.esup - cs.sq_sum;
    if (callbacks.frequent_probability) {
      fi.frequent_probability = callbacks.frequent_probability(cs.esup, cs.sq_sum);
    }
    out.fi = std::move(fi);
    return out;
  };
  // Judging stays on the calling thread: AprioriCallbacks carry no
  // thread-safety contract, and the predicates are O(1) anyway.
  return LevelWiseLoop(view, judge, /*collect_probs=*/false, decremental_threshold,
                       counters, num_threads, /*judge_threads=*/1, context);
}

std::vector<FrequentItemset> MineProbabilisticApriori(
    const FlatView& view, std::size_t msc, double pft, const TailFn& tail_fn,
    const ProbabilisticLoopOptions& options, MiningCounters* counters) {
  const bool cascade = options.prefilter == PrefilterMode::kBounds &&
                       options.certified_tail;
  auto judge = [&](const Itemset& itemset, CandidateStats& cs,
                   std::size_t ordinal) -> JudgeOutcome {
    JudgeOutcome out;
    if (options.use_chernoff && ChernoffCertifiesInfrequent(cs.esup, msc, pft)) {
      out.bound_rejected = true;
      return out;
    }
    bool accept_certified = false;
    if (cascade) {
      const TailInterval interval =
          CertifiedTailInterval(cs.esup, cs.esup - cs.sq_sum, msc);
      switch (ClassifyTail(interval, pft)) {
        case BoundDecision::kReject:
          // Certified Pr(sup >= msc) <= pft: the exact tail could only
          // confirm infrequency, so skip it — the one place the cascade
          // saves the expensive evaluation.
          out.bound_rejected = true;
          return out;
        case BoundDecision::kAccept:
          // Certified frequent — but the reported annotation must stay
          // the exact tail value (identical output with the prefilter
          // off), so fall through to the evaluation and only count it.
          accept_certified = true;
          break;
        case BoundDecision::kUndecided:
          break;
      }
    }
    out.exact_evaluated = true;
    out.bound_accepted = accept_certified;
    const double tail = tail_fn(cs.probs, msc, ordinal);
    if (!(tail > pft)) return out;
    FrequentItemset fi;
    fi.itemset = itemset;
    fi.expected_support = cs.esup;
    fi.variance = cs.esup - cs.sq_sum;
    fi.frequent_probability = tail;
    out.fi = std::move(fi);
    return out;
  };
  return LevelWiseLoop(
      view, judge, /*collect_probs=*/true,
      /*decremental_threshold=*/-1.0, counters, options.num_threads,
      /*judge_threads=*/options.parallel_tails ? options.num_threads : 1,
      options.context);
}

}  // namespace ufim
