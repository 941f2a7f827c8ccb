// The paper's experimental platform: every figure and table of §4 as one
// sweep driver, so all eight algorithms run under identical conditions
// (same datasets, same harness, same measurement).
//
// Each preset below is one figure panel group; its rows are named
// `<prefix>/[<dataset>/]<arm>/<axis>=<value>`. Select presets with
// google-benchmark's own filter, e.g.
//
//   ./paper_figures --benchmark_filter='^fig5/'       # Figure 5(a)-(d)
//   ./paper_figures --benchmark_filter='^table8_9/'   # Tables 8 and 9
//   ./paper_figures --benchmark_list_tests            # every row
//
// Every figure row runs `RunExperiment(miner, db, task)` once: wall time
// (which includes the FlatView build) is the bench metric, peak heap and
// the mining counters are reported as counters. The process exits
// non-zero when any row fails or the filter matches nothing.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_datasets.h"
#include "core/miner_registry.h"
#include "eval/experiment.h"
#include "eval/metrics.h"

namespace ufim::bench {
namespace {

using Arms = std::vector<const char*>;

const Arms kExpectedArms = {"UApriori", "UFP-growth", "UH-Mine"};
const Arms kExactArms = {"DPNB", "DPB", "DCNB", "DCB"};
const Arms kApproxArms = {"PDUApriori", "NDUApriori", "NDUH-Mine"};
/// The approximate miners against the best exact miner (Figure 6).
const Arms kDcbAndApproxArms = {"DCB", "PDUApriori", "NDUApriori",
                                "NDUH-Mine"};

const std::vector<double> kPfts = {0.1, 0.3, 0.5, 0.7, 0.9};
const std::vector<double> kSkews = {0.8, 1.2, 1.6, 2.0};

/// One curve family of a figure: a dataset swept along one axis.
struct Sweep {
  /// "min_esup", "min_sup", "pft", "n" (Quest T25I15D{n}) or "skew"
  /// (Connect-like with Zipf-assigned probabilities).
  std::string_view axis;
  std::vector<double> values;
  /// Named family ("Connect", "Accident", "Kosarak", "Gazelle"), also the
  /// row-name segment; nullptr on the n and skew axes.
  const char* dataset = nullptr;
  std::size_t n = 0;       ///< dataset size, except on the n axis
  double threshold = 0.0;  ///< min_esup/min_sup, except on those axes
};

/// The paper's pft everywhere except on the pft axis.
constexpr double kPft = 0.9;

struct Preset {
  const char* prefix;
  TaskFamily family;  ///< which MiningTask the sweeps build
  Arms arms;          ///< registry names
  std::vector<Sweep> sweeps;
};

const std::vector<Preset> kFigures = {
    // Figure 4(a)-(h): expected-support miners vs min_esup on two dense
    // and two sparse datasets. Expected shape (§4.2): UApriori fastest
    // on the dense datasets at high min_esup, UH-Mine fastest on the
    // sparse datasets and at low thresholds, UFP-growth slowest and
    // most memory-hungry throughout.
    {"fig4", TaskFamily::kExpectedSupport, kExpectedArms,
     {{"min_esup", {0.9, 0.8, 0.7, 0.6, 0.5, 0.4}, "Connect", 2000},
      {"min_esup", {0.5, 0.4, 0.3, 0.2, 0.1}, "Accident", 3000},
      {"min_esup", {0.1, 0.05, 0.01, 0.005, 0.0025, 0.001}, "Kosarak", 10000},
      {"min_esup", {0.1, 0.01, 0.001, 0.0005}, "Gazelle", 5000}}},
    // Figure 4(i)-(j): Quest scalability, n from 2k to 32k (paper: 20k
    // to 320k), min_esup = 0.02. Expected shape: linear time and memory
    // in n, with UApriori's memory the flattest (no auxiliary
    // structure).
    {"fig4_scalability", TaskFamily::kExpectedSupport, kExpectedArms,
     {{.axis = "n", .values = {2000, 4000, 8000, 16000, 32000},
       .threshold = 0.02}}},
    // Figure 4(k)-(l): Zipf-distributed probabilities, min_esup = 0.1.
    // Expected shape: time and memory fall as the skew rises (more
    // zero-probability units, fewer frequent itemsets), with UH-Mine
    // gradually overtaking UApriori.
    {"fig4_zipf", TaskFamily::kExpectedSupport, kExpectedArms,
     {{.axis = "skew", .values = kSkews, .n = 1500, .threshold = 0.1}}},
    // Figure 5(a)-(d): exact miners vs min_sup, pft = 0.9. Thresholds
    // sit below the top items' expected supports (mean unit probability
    // 0.5), the regime where the exact computations dominate. Expected
    // shape (§4.3): DCB fastest, DPNB slowest; Chernoff-pruned variants
    // beat their unpruned twins; DP variants use less memory than DC
    // variants; density is *not* the deciding factor.
    {"fig5", TaskFamily::kProbabilistic, kExactArms,
     {{"min_sup", {0.4, 0.35, 0.3, 0.25, 0.2, 0.15}, "Accident", 4000},
      {"min_sup", {0.25, 0.2, 0.15, 0.1, 0.05, 0.02}, "Kosarak", 6000}}},
    // Figure 5(e)-(h): exact miners vs pft. Expected shape (§4.3): pft
    // has little impact on time or memory (most frequent probabilities
    // saturate near 1), DCB remains fastest, DPNB slowest.
    {"fig5_pft", TaskFamily::kProbabilistic, kExactArms,
     {{"pft", kPfts, "Accident", 4000, 0.25},
      {"pft", kPfts, "Kosarak", 6000, 0.1}}},
    // Figure 5(i)-(j): exact miners on Quest, min_sup = 0.02. Expected
    // shape: linear-ish growth, with the DC variants' curves flatter
    // than the DP variants' (O(N log N) vs O(N² min_sup) per itemset).
    {"fig5_scalability", TaskFamily::kProbabilistic, kExactArms,
     {{.axis = "n", .values = {500, 1000, 2000, 4000}, .threshold = 0.02}}},
    // Figure 5(k)-(l): exact miners under Zipf probabilities, min_sup =
    // 0.1. Expected shape: time and memory decrease mildly with skew;
    // the skew is not a dominant factor (§4.3).
    {"fig5_zipf", TaskFamily::kProbabilistic, kExactArms,
     {{.axis = "skew", .values = kSkews, .n = 800, .threshold = 0.1}}},
    // Figure 6(a)-(d): approximate miners against DCB vs min_sup,
    // pft = 0.9. Expected shape (§4.4): the Apriori-framework
    // approximations win on the dense dataset, NDUH-Mine wins on the
    // sparse one, DCB is the slowest and most memory-hungry throughout.
    {"fig6", TaskFamily::kProbabilistic, kDcbAndApproxArms,
     {{"min_sup", {0.5, 0.4, 0.3, 0.2, 0.1, 0.05}, "Accident", 1500},
      {"min_sup", {0.1, 0.05, 0.01, 0.005, 0.0025, 0.001}, "Kosarak", 5000}}},
    // Figure 6(e)-(h): approximate miners and DCB vs pft. Expected
    // shape: pft has almost no effect on time or memory; the dataset's
    // density decides the ranking (§4.4).
    {"fig6_pft", TaskFamily::kProbabilistic, kDcbAndApproxArms,
     {{"pft", kPfts, "Accident", 1500, 0.2},
      {"pft", kPfts, "Kosarak", 5000, 0.01}}},
    // Figure 6(i)-(j): approximate miners on Quest, min_sup = 0.02.
    // Expected shape: linear time/memory; all three stay far below the
    // exact miners at the same sizes (compare fig5_scalability), with
    // NDUH-Mine best overall.
    {"fig6_scalability", TaskFamily::kProbabilistic, kApproxArms,
     {{.axis = "n", .values = {2000, 4000, 8000, 16000, 32000},
       .threshold = 0.02}}},
    // Figure 6(k)-(l): approximate miners under Zipf probabilities,
    // min_sup = 0.1. Expected shape: time/memory fall with skew;
    // PDUApriori gradually becomes the fastest at high skew (§4.4).
    {"fig6_zipf", TaskFamily::kProbabilistic, kApproxArms,
     {{.axis = "skew", .values = kSkews, .n = 1500, .threshold = 0.1}}},
};

// Tables 8 and 9: precision and recall of the approximate miners against
// the exact result (DCB, the first arm), sweeping min_sup on
// Accident-like (Table 8) and Kosarak-like (Table 9) at pft = 0.9.
// Expected shape: precision and recall ~1 throughout, with a few false
// positives at the lowest thresholds and the Normal-based miners at
// least as accurate as the Poisson-based one. One row per point; the
// tables are printed after the run.
const Preset kAccuracy = {
    "table8_9", TaskFamily::kProbabilistic, kDcbAndApproxArms,
    {{"min_sup", {0.2, 0.3, 0.4, 0.5, 0.6}, "Accident", 1500},
     {"min_sup", {0.0025, 0.005, 0.01, 0.05, 0.1}, "Kosarak", 5000}}};

// Table 10: the winner-summary matrix. Runs every arm of each group on a
// representative dense and sparse configuration and prints which
// algorithm won on time and memory per (group, dataset) cell. Dense
// cells use Connect-like (density 0.33, mean prob 0.95) with a high
// threshold; sparse cells use Kosarak-like with a low one. The exact
// group keeps Accident-like for its dense cell (exact mining on
// Connect-like explodes combinatorially, as the paper's 1-hour timeouts
// show).
struct SummaryCell {
  const char* group;
  const char* density;
  const char* dataset;
  std::size_t n;
  const Arms& arms;
  MiningTask task;
};

const std::vector<SummaryCell> kSummaryCells = {
    {"expected-support", "dense", "Connect", 2000, kExpectedArms,
     ExpectedSupportParams{0.5}},
    {"expected-support", "sparse", "Kosarak", 10000, kExpectedArms,
     ExpectedSupportParams{0.0005}},
    {"exact-probabilistic", "dense", "Accident", 1500, kExactArms,
     ProbabilisticParams{0.3, kPft}},
    {"exact-probabilistic", "sparse", "Kosarak", 10000, kExactArms,
     ProbabilisticParams{0.05, kPft}},
    {"approx-probabilistic", "dense", "Connect", 2000, kApproxArms,
     ProbabilisticParams{0.45, kPft}},
    {"approx-probabilistic", "sparse", "Kosarak", 10000, kApproxArms,
     ProbabilisticParams{0.0005, kPft}},
};

// ---------------------------------------------------------------------------
// Sweep points.

UncertainDatabase Generate(std::string_view family, std::size_t n,
                           double skew) {
  if (family == "Connect") return ConnectDb(n);
  if (family == "Accident") return AccidentDb(n);
  if (family == "Kosarak") return KosarakDb(n);
  if (family == "Gazelle") return GazelleDb(n);
  if (family == "Quest") return QuestDb(n);
  return ZipfDenseDb(skew, n);  // "Zipf": Connect-like, Zipf probabilities
}

/// One dataset instance, generated on first use (so listing or a filtered
/// run generates only what it mines) and then shared by every row mining
/// it.
const UncertainDatabase& Dataset(const std::string& family, std::size_t n,
                                 double skew = 0.0) {
  using Key = std::tuple<std::string, std::size_t, double>;
  static auto* cache = new std::map<Key, UncertainDatabase>();
  const Key key{family, n, skew};
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, Generate(family, n, skew)).first;
  }
  return it->second;
}

const UncertainDatabase& DatasetAt(const Sweep& sweep, double value) {
  if (sweep.axis == "n") {
    return Dataset("Quest", static_cast<std::size_t>(value));
  }
  if (sweep.axis == "skew") return Dataset("Zipf", sweep.n, value);
  return Dataset(sweep.dataset, sweep.n);
}

/// `[<dataset>/]<arm>/<axis>=<value>`; the arm is omitted when empty.
std::string RowSuffix(const Sweep& sweep, std::string_view arm, double value) {
  std::string name =
      sweep.dataset == nullptr ? "" : std::string(sweep.dataset) + "/";
  if (!arm.empty()) name += std::string(arm) + "/";
  return name + std::string(sweep.axis) + "=" +
         (sweep.axis == "n" ? std::to_string(static_cast<std::size_t>(value))
                            : std::to_string(value));
}

MiningTask TaskAt(TaskFamily family, const Sweep& sweep, double value) {
  const bool threshold_axis =
      sweep.axis == "min_esup" || sweep.axis == "min_sup";
  const double threshold = threshold_axis ? value : sweep.threshold;
  if (family == TaskFamily::kExpectedSupport) {
    return ExpectedSupportParams{threshold};
  }
  return ProbabilisticParams{threshold, sweep.axis == "pft" ? value : kPft};
}

// ---------------------------------------------------------------------------
// Row bodies.

int failures = 0;

void Fail(benchmark::State& state, const std::string& message) {
  ++failures;
  state.SkipWithError(message.c_str());
}

std::unique_ptr<Miner> Create(benchmark::State& state, const char* arm) {
  std::unique_ptr<Miner> miner = MinerRegistry::Global().Create(arm);
  if (miner == nullptr) {
    Fail(state, std::string("algorithm '") + arm + "' is not registered");
  }
  return miner;
}

/// One figure row; the counters are the figures' series (frequent
/// itemsets, peak heap) plus the per-definition pruning counters.
void FigureRow(benchmark::State& state, const char* arm,
               const UncertainDatabase& db, const MiningTask& task) {
  std::unique_ptr<Miner> miner = Create(state, arm);
  if (miner == nullptr) return;
  for (auto _ : state) {
    Result<ExperimentMeasurement> m = RunExperiment(*miner, db, task);
    if (!m.ok()) {
      Fail(state, m.status().ToString());
      return;
    }
    state.counters["frequent"] = static_cast<double>(m->num_frequent);
    state.counters["peak_MB"] = static_cast<double>(m->peak_bytes) / 1e6;
    const MiningCounters& c = m->counters;
    if (std::holds_alternative<ExpectedSupportParams>(task)) {
      state.counters["candidates"] =
          static_cast<double>(c.candidates_generated);
    } else {
      state.counters["rejected_bound"] =
          static_cast<double>(c.candidates_rejected_bound);
      state.counters["accepted_bound"] =
          static_cast<double>(c.candidates_accepted_bound);
      state.counters["exact_tail_evals"] =
          static_cast<double>(c.exact_tail_evals);
    }
  }
}

/// Runs every arm once on `db`; false (the row failed) on any error.
bool RunArms(benchmark::State& state, const Arms& arms,
             const UncertainDatabase& db, const MiningTask& task,
             std::vector<ExperimentMeasurement>* runs) {
  for (const char* arm : arms) {
    std::unique_ptr<Miner> miner = Create(state, arm);
    if (miner == nullptr) return false;
    Result<ExperimentMeasurement> m = RunExperiment(*miner, db, task);
    if (!m.ok()) {
      Fail(state, m.status().ToString());
      return false;
    }
    runs->push_back(std::move(m).value());
  }
  return true;
}

/// (dataset, min_sup) -> accuracy of each approximate arm, for the
/// Table 8/9 printout.
std::map<std::pair<std::string, double>, std::vector<PrecisionRecall>>
    accuracy_results;

void AccuracyRow(benchmark::State& state, const std::string& dataset,
                 const UncertainDatabase& db, const MiningTask& task) {
  const Arms& arms = kAccuracy.arms;
  for (auto _ : state) {
    std::vector<ExperimentMeasurement> runs;
    if (!RunArms(state, arms, db, task, &runs)) return;
    std::vector<PrecisionRecall> row;
    for (std::size_t i = 1; i < arms.size(); ++i) {
      row.push_back(ComputePrecisionRecall(runs[i].result, runs[0].result));
      state.counters[std::string(arms[i]) + "_P"] = row.back().precision;
      state.counters[std::string(arms[i]) + "_R"] = row.back().recall;
    }
    state.counters["exact_frequent"] =
        static_cast<double>(runs[0].num_frequent);
    accuracy_results[{dataset, std::get<ProbabilisticParams>(task).min_sup}] =
        std::move(row);
  }
}

/// Per kSummaryCells entry, the arms' measurements (mined itemsets
/// dropped), for the Table 10 printout.
std::vector<std::vector<ExperimentMeasurement>> summary_results;

void Table10(benchmark::State& state) {
  for (auto _ : state) {
    summary_results.clear();
    for (const SummaryCell& cell : kSummaryCells) {
      std::vector<ExperimentMeasurement>& runs = summary_results.emplace_back();
      if (!RunArms(state, cell.arms, Dataset(cell.dataset, cell.n), cell.task,
                   &runs)) {
        return;
      }
      for (ExperimentMeasurement& m : runs) m.result = MiningResult();
    }
  }
}

// ---------------------------------------------------------------------------
// Registration and the post-run tables.

template <typename Body>
void Register(const std::string& name, Body body) {
  benchmark::RegisterBenchmark(name.c_str(), std::move(body))
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
}

void RegisterAll() {
  for (const Preset& preset : kFigures) {
    for (const Sweep& sweep : preset.sweeps) {
      for (double value : sweep.values) {
        const MiningTask task = TaskAt(preset.family, sweep, value);
        for (const char* arm : preset.arms) {
          Register(std::string(preset.prefix) + "/" +
                       RowSuffix(sweep, arm, value),
                   [arm, &sweep, value, task](benchmark::State& state) {
                     FigureRow(state, arm, DatasetAt(sweep, value), task);
                   });
        }
      }
    }
  }
  for (const Sweep& sweep : kAccuracy.sweeps) {
    for (double value : sweep.values) {
      const MiningTask task = TaskAt(kAccuracy.family, sweep, value);
      Register(std::string(kAccuracy.prefix) + "/" +
                   RowSuffix(sweep, "", value),
               [&sweep, value, task](benchmark::State& state) {
                 AccuracyRow(state, sweep.dataset, DatasetAt(sweep, value),
                             task);
               });
    }
  }
  Register("ufim::bench::Table10", Table10);
}

void PrintAccuracyTables() {
  if (accuracy_results.empty()) return;
  for (const char* dataset : {"Accident", "Kosarak"}) {
    std::printf("\n%s (Table %s layout): min_sup | PDUApriori P R | "
                "NDUApriori P R | NDUH-Mine P R\n",
                dataset, std::string(dataset) == "Accident" ? "8" : "9");
    for (const auto& [key, row] : accuracy_results) {
      if (key.first != dataset) continue;
      std::printf("  %-8.4g |", key.second);
      for (const PrecisionRecall& pr : row) {
        std::printf("  %.2f %.2f |", pr.precision, pr.recall);
      }
      std::printf("\n");
    }
  }
}

void PrintSummary() {
  if (summary_results.empty()) return;
  std::printf("\nTable 10 reproduction — winners per (group, dataset):\n");
  std::printf("%-22s %-8s %-14s %-14s\n", "group", "dataset", "time winner",
              "memory winner");
  for (std::size_t i = 0; i < summary_results.size(); ++i) {
    const std::vector<ExperimentMeasurement>& ms = summary_results[i];
    if (ms.empty()) continue;
    const ExperimentMeasurement* best_time = &ms[0];
    const ExperimentMeasurement* best_mem = &ms[0];
    for (const ExperimentMeasurement& m : ms) {
      if (m.millis < best_time->millis) best_time = &m;
      if (m.peak_bytes < best_mem->peak_bytes) best_mem = &m;
    }
    std::printf("%-22s %-8s %-14s %-14s\n", kSummaryCells[i].group,
                kSummaryCells[i].density, best_time->algorithm.c_str(),
                best_mem->algorithm.c_str());
    for (const ExperimentMeasurement& m : ms) {
      std::printf("    %-14s %10.1f ms %10.2f MB\n", m.algorithm.c_str(),
                  m.millis, static_cast<double>(m.peak_bytes) / 1e6);
    }
  }
}

}  // namespace

int Main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  const std::size_t matched = benchmark::RunSpecifiedBenchmarks();
  PrintAccuracyTables();
  PrintSummary();
  benchmark::Shutdown();
  return matched == 0 || failures > 0 ? 1 : 0;
}

}  // namespace ufim::bench

int main(int argc, char** argv) { return ufim::bench::Main(argc, argv); }
