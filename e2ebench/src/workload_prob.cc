// `prob`: probabilistic queries over a resident dense Accident-like view.
//
// Why: exact Poisson-binomial tails and the bound cascade dominate here
// and pattern growth does almost nothing, so a change to the prob layer
// shows up on this workload and nowhere else. The request mix also puts
// the paper's exact (DPB, DCB) and approximate (NDUApriori, PDUApriori,
// NDUH-Mine) miners on one platform, scored by F1 against DPB.

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/apriori_framework.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "harness.h"
#include "prob/poisson_binomial.h"

namespace e2e {

namespace {

constexpr std::size_t kTransactions = 20000;
const ufim::ProbabilisticParams kPoints[] = {{0.15, 0.9}, {0.3, 0.9}};
const char* const kApprox[] = {"NDUApriori", "PDUApriori", "NDUH-Mine"};

/// The request cycle: every miner at the first point, where the
/// approximate miners are scored against DPB, and the exact miners also
/// at the second. With seven request types the pooled median falls in
/// the middle of one type's samples (DCB at the second point) instead
/// of on the edge between two types of very different cost.
struct MixEntry {
  const char* miner;
  std::size_t point;
};
constexpr MixEntry kMix[] = {{"DPB", 0},        {"DCB", 0},
                             {"NDUApriori", 0}, {"PDUApriori", 0},
                             {"NDUH-Mine", 0},  {"DPB", 1},
                             {"DCB", 1}};
/// About 52 queries (7-8 cycles) in a 20 s run: p79 leaves at least ten
/// beyond it and falls inside the samples of DPB at the second point.
constexpr double kTailPercentile = 79;
constexpr double kRelTol = 1e-9;

ufim::UncertainDatabase Generate(std::uint64_t seed) {
  return ufim::AssignGaussianProbabilities(
      ufim::MakeAccidentLike(kTransactions, seed), 0.5, 0.5, seed + 1);
}

std::string Label(const std::string& miner,
                  const ufim::ProbabilisticParams& p) {
  return miner + "@min_sup=" + std::to_string(p.min_sup) +
         ",pft=" + std::to_string(p.pft);
}

/// Position of (miner, point) in the request cycle.
std::size_t Index(const std::string& miner, std::size_t point) {
  for (std::size_t i = 0; i < std::size(kMix); ++i) {
    if (miner == kMix[i].miner && point == kMix[i].point) return i;
  }
  throw std::logic_error(miner + " is not in the prob request mix");
}

/// Work of the exact tails, summed over every replay (workers add to it
/// concurrently).
struct TailTally {
  std::atomic<std::uint64_t> evals{0};
  std::atomic<std::int64_t> cpu_ns{0};
  std::atomic<std::uint64_t> dp_cells{0};
};

/// DPB or DCB replayed through MineProbabilisticApriori with a tail
/// function that times each PoissonBinomialTailDP/DC call on the worker
/// that runs it; checked equal (itemsets, moments, probabilities and
/// counters) to the registered miner's result.
ufim::MiningCounters ReplayExact(Run& run, const ufim::FlatView& view,
                                 const ufim::ProbabilisticParams& point,
                                 bool dp, const ufim::MiningResult& expect,
                                 TailTally& tally) {
  const std::string name = dp ? "DPB" : "DCB";
  Span span(run.tracer(), "algo", "replay " + Label(name, point));
  const SpanRef parent = span.ref();
  Tracer& tracer = run.tracer();
  const std::size_t msc = point.MinSupportCount(view.num_transactions());
  // The bounds prefilter lets DP abandon a tail that cannot exceed pft.
  const double reject_threshold = point.pft;
  const std::size_t fft_threshold = ufim::MinerOptions{}.dc_fft_threshold;
  const ufim::TailFn tail = [&](const std::vector<double>& probs,
                                std::size_t k, std::size_t) {
    Span eval(tracer, "prob",
              dp ? "prob.PoissonBinomialTailDP" : "prob.PoissonBinomialTailDC",
              parent);
    const std::int64_t c0 = ThreadCpuNs();
    double p = 0;
    if (dp) {
      thread_local ufim::DpScratch scratch;
      p = ufim::PoissonBinomialTailDP(probs, k, reject_threshold, scratch);
      tally.dp_cells += probs.size() * k;
    } else {
      p = ufim::PoissonBinomialTailDC(probs, k, fft_threshold);
    }
    tally.cpu_ns += ThreadCpuNs() - c0;
    ++tally.evals;
    return p;
  };
  ufim::ProbabilisticLoopOptions loop;
  loop.use_chernoff = true;
  loop.prefilter = ufim::PrefilterMode::kBounds;
  loop.num_threads = run.threads();
  loop.parallel_tails = true;
  ufim::MiningResult got;
  for (ufim::FrequentItemset& fi : ufim::MineProbabilisticApriori(
           view, msc, point.pft, tail, loop, &got.counters())) {
    got.Add(std::move(fi));
  }
  got.SortCanonical();
  const ufim::MiningCounters& want = expect.counters();
  const ufim::MiningCounters& have = got.counters();
  run.Attempt();
  if (!BitIdentical(got, expect) ||
      have.candidates_generated != want.candidates_generated ||
      have.candidates_rejected_bound != want.candidates_rejected_bound ||
      have.candidates_accepted_bound != want.candidates_accepted_bound ||
      have.exact_tail_evals != want.exact_tail_evals) {
    run.Fail("MineProbabilisticApriori replay differs from " +
             Label(name, point));
  }
  return have;
}

}  // namespace

void RunProb(Run& run) {
  QueryWorkload w;
  w.generate = Generate;
  w.tail_percentile = kTailPercentile;
  w.options.prefilter = ufim::PrefilterMode::kBounds;
  for (const MixEntry& e : kMix) {
    w.requests.push_back(
        {e.miner, kPoints[e.point], Label(e.miner, kPoints[e.point])});
  }
  w.cross_check = [](Run& run, const std::vector<ufim::MiningResult>& first) {
    for (std::size_t p = 0; p < std::size(kPoints); ++p) {
      const ufim::MiningResult& dpb = first[Index("DPB", p)];
      run.Attempt(2);
      if (dpb.empty()) {
        run.Fail("prob workload is degenerate at " + Label("DPB", kPoints[p]));
      }
      const std::string diff =
          DiffWithin(first[Index("DCB", p)], dpb, kRelTol);
      if (!diff.empty()) {
        run.Fail(Label("DCB", kPoints[p]) + " disagrees with DPB: " + diff);
      }
    }
  };
  w.traced_extras = [](Run& run, const ufim::FlatView& view,
                       const std::vector<ufim::MiningResult>& first) {
    for (const char* approx : kApprox) {
      run.Set(std::string("algo.") + approx + ".f1_vs_exact",
              F1(first[Index(approx, 0)], first[Index("DPB", 0)]));
    }
    TailTally tally;
    std::uint64_t candidates = 0, decisive = 0;
    for (std::size_t p = 0; p < std::size(kPoints); ++p) {
      for (bool dp : {true, false}) {
        const ufim::MiningCounters c = ReplayExact(
            run, view, kPoints[p], dp, first[Index(dp ? "DPB" : "DCB", p)],
            tally);
        candidates += c.candidates_generated;
        decisive += c.candidates_rejected_bound + c.candidates_accepted_bound;
      }
    }
    run.Set("prob.tail_evals", static_cast<double>(tally.evals.load()));
    run.Set("prob.tail_cpu_ms", static_cast<double>(tally.cpu_ns.load()) / 1e6);
    run.Set("prob.dp_cells", static_cast<double>(tally.dp_cells.load()));
    run.Set("prob.decisive_frac", static_cast<double>(decisive) /
                                      static_cast<double>(candidates));
  };
  RunQueryWorkload(run, w);
}

}  // namespace e2e
