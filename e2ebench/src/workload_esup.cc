// `esup`: expected-support queries over a resident Kosarak-like view.
//
// Why: pattern growth (UFP-tree build, per-rank mining, UH-Struct) and
// posting joins over skewed-length lists do nearly all the work here and
// the prob layer does none, so a change to the join kernels or the
// pattern-growth miners shows up on this workload and nowhere else.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/apriori_framework.h"
#include "algo/uh_struct.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "harness.h"

namespace e2e {

namespace {

constexpr std::size_t kTransactions = 100000;
/// Three thresholds make nine request types, so the pooled median falls
/// in the middle of one type's samples (UApriori at the middle threshold)
/// instead of on the edge between two types of different cost.
constexpr double kMinEsup[] = {0.002, 0.0015, 0.001};
const char* const kEsupMiners[] = {"UApriori", "UFP-growth", "UH-Mine"};
/// About 75 queries (8-9 cycles) in a 20 s run: p86 leaves at least ten
/// beyond it.
constexpr double kTailPercentile = 86;
/// Expected supports of the three miners may differ in accumulation
/// order only.
constexpr double kRelTol = 1e-9;

ufim::UncertainDatabase Generate(std::uint64_t seed) {
  return ufim::AssignGaussianProbabilities(
      ufim::MakeKosarakLike(kTransactions, seed), 0.5, 0.5, seed + 1);
}

std::string Label(const char* miner, double min_esup) {
  return std::string(miner) + "@min_esup=" + std::to_string(min_esup);
}

/// Request index of (threshold t, miner m) in the cycle.
std::size_t Index(std::size_t t, std::size_t m) {
  return t * std::size(kEsupMiners) + m;
}

ufim::FrequentItemset Found(ufim::Itemset itemset, double esup,
                            double sq_sum) {
  ufim::FrequentItemset fi;
  fi.itemset = std::move(itemset);
  fi.expected_support = esup;
  fi.variance = esup - sq_sum;
  return fi;
}

/// UH-Mine split into the UH-Struct build and the depth-first mine,
/// checked equal to the registered miner's result.
void ReplayUHMine(Run& run, const ufim::FlatView& view, double min_esup,
                  const ufim::MiningResult& expect, double* build_ms,
                  double* mine_ms) {
  Span span(run.tracer(), "algo", "replay " + Label("UH-Mine", min_esup));
  const double threshold =
      min_esup * static_cast<double>(view.num_transactions());
  ufim::UHStructEngine::Hooks hooks;
  hooks.is_frequent = [threshold](double esup, double) {
    return esup >= threshold;
  };
  std::optional<ufim::UHStructEngine> engine;
  std::int64_t t0 = NowNs();
  {
    Span build(run.tracer(), "algo", "uh.UHStructEngine");
    engine.emplace(view, std::move(hooks));
  }
  *build_ms += MsSince(t0);
  ufim::MiningResult got;
  t0 = NowNs();
  {
    Span mine(run.tracer(), "algo", "uh.Mine");
    for (ufim::FrequentItemset& fi :
         engine->Mine(&got.counters(), run.threads())) {
      got.Add(std::move(fi));
    }
  }
  *mine_ms += MsSince(t0);
  got.SortCanonical();
  run.Attempt();
  if (!BitIdentical(got, expect)) {
    run.Fail("UH-Struct replay differs from UH-Mine at min_esup " +
             std::to_string(min_esup));
  }
}

}  // namespace

AprioriReplay ReplayUApriori(Run& run, const ufim::FlatView& view,
                             double min_esup,
                             const ufim::MiningResult& expect) {
  Span span(run.tracer(), "algo", "replay " + Label("UApriori", min_esup));
  AprioriReplay out;
  const double threshold =
      min_esup * static_cast<double>(view.num_transactions());
  ufim::MiningResult got;
  std::vector<ufim::Itemset> level;
  std::int64_t t0 = NowNs();
  {
    Span gen(run.tracer(), "algo", "apriori.CollectItemStats");
    const std::vector<ufim::ItemStats> items = ufim::CollectItemStats(view);
    out.candidates += items.size();
    for (const ufim::ItemStats& is : items) {
      if (is.esup < threshold) continue;
      level.push_back(ufim::Itemset{is.item});
      got.Add(Found(ufim::Itemset{is.item}, is.esup, is.sq_sum));
    }
  }
  out.gen_ms += MsSince(t0);
  std::sort(level.begin(), level.end());
  while (!level.empty()) {
    std::uint64_t pruned = 0;
    std::vector<ufim::Itemset> candidates;
    t0 = NowNs();
    {
      Span gen(run.tracer(), "algo", "apriori.GenerateCandidates");
      candidates = ufim::GenerateCandidates(level, &pruned);
    }
    out.gen_ms += MsSince(t0);
    out.pruned += pruned;
    if (candidates.empty()) break;
    out.candidates += candidates.size();
    std::vector<ufim::CandidateStats> stats;
    t0 = NowNs();
    {
      // UApriori runs with decremental pruning at its own threshold.
      Span eval(run.tracer(), "algo", "apriori.EvaluateCandidates");
      stats = ufim::EvaluateCandidates(view, candidates,
                                       /*collect_probs=*/false, threshold,
                                       run.threads());
    }
    out.eval_ms += MsSince(t0);
    std::vector<ufim::Itemset> next;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (stats[c].esup < threshold) continue;
      next.push_back(candidates[c]);
      got.Add(Found(candidates[c], stats[c].esup, stats[c].sq_sum));
    }
    std::sort(next.begin(), next.end());
    level = std::move(next);
  }
  got.SortCanonical();
  run.Attempt();
  if (!BitIdentical(got, expect) ||
      out.candidates != expect.counters().candidates_generated ||
      out.pruned != expect.counters().candidates_pruned_apriori) {
    run.Fail("apriori level-loop replay differs from UApriori at min_esup " +
             std::to_string(min_esup));
  }
  return out;
}

void RunEsup(Run& run) {
  QueryWorkload w;
  w.generate = Generate;
  w.tail_percentile = kTailPercentile;
  for (double min_esup : kMinEsup) {
    for (const char* miner : kEsupMiners) {
      w.requests.push_back({miner, ufim::ExpectedSupportParams{min_esup},
                            Label(miner, min_esup)});
    }
  }
  w.cross_check = [](Run& run, const std::vector<ufim::MiningResult>& first) {
    for (std::size_t t = 0; t < std::size(kMinEsup); ++t) {
      const ufim::MiningResult& ref = first[Index(t, 0)];
      run.Attempt();
      if (ref.size() < 2) {
        run.Fail("esup workload is degenerate at min_esup " +
                 std::to_string(kMinEsup[t]));
      }
      for (std::size_t m = 1; m < std::size(kEsupMiners); ++m) {
        run.Attempt();
        const std::string diff = DiffWithin(first[Index(t, m)], ref, kRelTol);
        if (!diff.empty()) {
          run.Fail(Label(kEsupMiners[m], kMinEsup[t]) + " disagrees with " +
                   "UApriori: " + diff);
        }
      }
    }
  };
  w.traced_extras = [](Run& run, const ufim::FlatView& view,
                       const std::vector<ufim::MiningResult>& first) {
    AprioriReplay apriori;
    double build_ms = 0, mine_ms = 0;
    for (std::size_t t = 0; t < std::size(kMinEsup); ++t) {
      apriori += ReplayUApriori(run, view, kMinEsup[t], first[Index(t, 0)]);
      ReplayUHMine(run, view, kMinEsup[t], first[Index(t, 2)], &build_ms,
                   &mine_ms);
    }
    apriori.Report(run);
    run.Set("uh.build_ms", build_ms);
    run.Set("uh.mine_ms", mine_ms);
  };
  RunQueryWorkload(run, w);
}

}  // namespace e2e
