// Ablation: result-level quality of the approximate probabilistic miners
// against the exact DP reference, run through the modern FlatView +
// MinerRegistry harness (§3.3 / Tables 8 and 9 at mining granularity
// rather than per-distribution — `bench/micro_distributions.cc` keeps
// the distributional distances). Each cell mines the same view with the
// exact DPNB and one approximation and reports set precision/recall plus
// the mean absolute frequent-probability error over the agreed itemsets:
// Normal-approximation error vanishes as the support vectors grow (CLT),
// which is why NDU tracks DP on the dense regimes, while sampling error
// is governed by the sample budget alone.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_datasets.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "eval/experiment.h"
#include "eval/metrics.h"

namespace ufim::bench {
namespace {

void QualityCase(benchmark::State& state, const FlatView& view,
                 const std::string& algorithm,
                 const ProbabilisticParams& params) {
  for (auto _ : state) {
    auto exact = RunRegisteredExperiment("DPNB", view, params);
    auto approx = RunRegisteredExperiment(algorithm, view, params);
    if (!exact.ok() || !approx.ok()) {
      state.SkipWithError((exact.ok() ? approx : exact).status().ToString().c_str());
      return;
    }
    const PrecisionRecall pr =
        ComputePrecisionRecall(approx->result, exact->result);
    state.counters["precision"] = pr.precision;
    state.counters["recall"] = pr.recall;
    state.counters["exact_frequent"] = static_cast<double>(pr.exact_size);
    state.counters["approx_frequent"] = static_cast<double>(pr.approx_size);
    // Probability accuracy over the intersection (both sides report a
    // frequent probability for these itemsets).
    double abs_err_sum = 0.0;
    std::size_t compared = 0;
    for (const FrequentItemset& fi : exact->result.itemsets()) {
      const FrequentItemset* hit = approx->result.Find(fi.itemset);
      if (hit == nullptr || !hit->frequent_probability.has_value() ||
          !fi.frequent_probability.has_value()) {
        continue;
      }
      abs_err_sum +=
          std::abs(*hit->frequent_probability - *fi.frequent_probability);
      ++compared;
    }
    state.counters["mean_abs_prob_err"] =
        compared == 0 ? 0.0 : abs_err_sum / static_cast<double>(compared);
  }
}

void RegisterAll() {
  struct Workload {
    const char* dataset;
    UncertainDatabase (*db)(std::size_t);
    std::size_t n;
    double min_sup;
    double pft;
  };
  // Sizes chosen so the DP reference stays tractable at Iterations(1);
  // the probability regimes mirror Table 7 (dense Gaussian(0.5, 0.5)
  // vs sparse low-probability assignments).
  static const Workload kWorkloads[] = {
      {"Accident", &AccidentDb, 1500, 0.25, 0.9},
      {"Kosarak", &KosarakDb, 4000, 0.002, 0.9},
      {"Gazelle", &GazelleDb, 2500, 0.01, 0.9},
  };
  static const char* kApprox[] = {"NDUApriori", "PDUApriori", "NDUH-Mine",
                                  "MCSampling"};
  for (const Workload& w : kWorkloads) {
    static std::vector<std::unique_ptr<FlatView>> views;
    views.push_back(std::make_unique<FlatView>(w.db(w.n)));
    const FlatView* view = views.back().get();
    for (const char* algo : kApprox) {
      std::string name = std::string("approx_quality/") + w.dataset + "/" +
                         algo + "_vs_DPNB";
      ProbabilisticParams params;
      params.min_sup = w.min_sup;
      params.pft = w.pft;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [view, algo, params](benchmark::State& state) {
            QualityCase(state, *view, algo, params);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

}  // namespace
}  // namespace ufim::bench

int main(int argc, char** argv) {
  ufim::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
