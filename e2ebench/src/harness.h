#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/flat_view.h"
#include "core/miner.h"
#include "core/mining_result.h"
#include "core/uncertain_database.h"
#include "trace.h"

namespace e2e {

/// Miner threads: 4, capped at the host's hardware threads.
inline constexpr std::size_t kMaxThreads = 4;
/// Set-up (read + view build) is repeated this often; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Directory for the generated dataset and the trace file.
  std::string work_dir;
};

/// One benchmark run: the options, the tracer, failure accounting, the
/// self-description and the metrics, printed by `Finish`.
class Run {
 public:
  explicit Run(Options options);

  const Options& options() const { return options_; }
  Tracer& tracer() { return tracer_; }
  bool traced() const { return options_.trace; }
  std::size_t threads() const { return threads_; }

  /// Self-description entry ("nproc", "seed", "esup.transactions", ...).
  void Describe(const std::string& key, const std::string& value);
  void Describe(const std::string& key, double value);

  /// Counts operations; a failed one is also logged to stderr.
  void Attempt(std::size_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what);

  /// Records a metric. Names must come from the benchmark's metric
  /// tables; the result JSON carries the end-to-end ones in an untraced
  /// run and the per-layer ones in a traced run.
  void Set(const std::string& name, double value);
  /// A human-readable extra line (the workload-specific spelling of a
  /// metric, e.g. ingest_txn_per_s), printed but not part of the JSON.
  void Note(const std::string& name, double value, const std::string& unit);

  /// Prints the self-description and the summary, writes the trace file
  /// (traced runs), and prints the result JSON as the last stdout line.
  /// Returns the process exit code: 0 only when every check passed.
  int Finish();

 private:
  Options options_;
  Tracer tracer_;
  std::size_t threads_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::pair<std::string, std::string>> description_;
  std::map<std::string, double> metrics_;
  std::vector<std::string> notes_;
};

/// Percentile by linear interpolation between order statistics
/// (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// Closed-loop throughput: `per_cycle` requests over the median duration
/// of the whole cycles in `ms` (request latencies in send order).
double CycleQueriesPerSecond(const std::vector<double>& ms,
                             std::size_t per_cycle);

/// Same itemsets in the same order with bit-identical moments and
/// frequent probabilities.
bool BitIdentical(const ufim::MiningResult& a, const ufim::MiningResult& b);
/// Empty when `got` holds the same itemsets as `want` and every expected
/// support agrees to `rel_tol` relative; otherwise what differs.
std::string DiffWithin(const ufim::MiningResult& got,
                       const ufim::MiningResult& want, double rel_tol);
/// F1 score of `approx`'s itemset set against `exact`'s (1 when both
/// are empty).
double F1(const ufim::MiningResult& approx, const ufim::MiningResult& exact);

/// Writes the generated dataset under the work directory and returns
/// its path; the timed program only ever sees what ReadDataset loads
/// from it.
std::string WriteDataset(Run& run, const ufim::UncertainDatabase& db);
double FileMegabytes(const std::string& path);

/// Reads `path` under an io.read span; records the elapsed seconds.
ufim::UncertainDatabase ReadDatasetTimed(Run& run, const std::string& path,
                                         double* seconds);

/// One request type of a query workload: a registry miner and a task.
struct QueryRequest {
  std::string miner;
  ufim::MiningTask task;
  std::string label;
};

/// A closed-loop query workload over a resident FlatView: one client
/// sends the requests in a fixed cycle, each only after the previous
/// one returned, for whole cycles until the run's seconds are used.
struct QueryWorkload {
  ufim::UncertainDatabase (*generate)(std::uint64_t seed);
  std::vector<QueryRequest> requests;
  /// Percentile reported as query_ms_tail (see BENCHMARK.json).
  double tail_percentile = 90;
  ufim::MinerOptions options;
  /// Checks across request types on the warm-up results (one per
  /// request, in request order).
  std::function<void(Run&, const std::vector<ufim::MiningResult>&)> cross_check;
  /// Traced run only: replays and per-layer metrics over the view.
  std::function<void(Run&, const ufim::FlatView&,
                     const std::vector<ufim::MiningResult>&)>
      traced_extras;
};

void RunQueryWorkload(Run& run, const QueryWorkload& workload);

/// Layer totals of UApriori's level loop replayed through the public
/// CollectItemStats / GenerateCandidates / EvaluateCandidates.
struct AprioriReplay {
  double gen_ms = 0;   ///< item stats + candidate generation
  double eval_ms = 0;  ///< candidate evaluation (posting joins / sweep)
  std::uint64_t candidates = 0;
  std::uint64_t pruned = 0;

  AprioriReplay& operator+=(const AprioriReplay& o) {
    gen_ms += o.gen_ms;
    eval_ms += o.eval_ms;
    candidates += o.candidates;
    pruned += o.pruned;
    return *this;
  }
  void Report(Run& run) const {
    run.Set("apriori.gen_ms", gen_ms);
    run.Set("apriori.eval_ms", eval_ms);
    run.Set("apriori.candidates", static_cast<double>(candidates));
    run.Set("apriori.pruned", static_cast<double>(pruned));
  }
};

/// Replays UApriori at `min_esup` over `view` with the run's threads and
/// checks the outcome (itemsets, moments, counters) equal to `expect`,
/// the result of UApriori::Mine on the same view.
AprioriReplay ReplayUApriori(Run& run, const ufim::FlatView& view,
                             double min_esup, const ufim::MiningResult& expect);

void RunEsup(Run& run);
void RunProb(Run& run);
void RunStream(Run& run);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
