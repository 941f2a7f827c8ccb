#include "harness.h"

#include <sys/utsname.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.h"
#include "core/miner_registry.h"
#include "core/simd_intersect.h"
#include "eval/memory_tracker.h"
#include "eval/metrics.h"
#include "io/dataset_io.h"

namespace e2e {

namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},           {"queries_per_s", "1/s"},
      {"query_ms_p50", "ms"},     {"query_ms_tail", "ms"},
      {"peak_heap_mb", "MB"},
  };
  return defs;
}

/// Every miner of the esup and prob request mixes, and the approximate
/// ones scored against DPB.
const char* const kMiners[] = {"UApriori",   "UFP-growth", "UH-Mine",
                               "DPB",        "DCB",        "NDUApriori",
                               "PDUApriori", "NDUH-Mine"};
const char* const kApproxMiners[] = {"NDUApriori", "PDUApriori", "NDUH-Mine"};

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {{"io.read_ms", "ms"},
                                {"io.read_mb_per_s", "MB/s"},
                                {"core.view_build_ms", "ms"},
                                {"core.units", "count"}};
    for (const char* m : kMiners) {
      const std::string p = std::string("algo.") + m;
      d.push_back({p + ".ms_p50", "ms"});
      d.push_back({p + ".cpu_per_wall", "ratio"});
      d.push_back({p + ".speedup_4t", "ratio"});
      d.push_back({p + ".candidates", "count"});
      d.push_back({p + ".itemsets", "count"});
    }
    for (const char* m : kApproxMiners) {
      d.push_back({std::string("algo.") + m + ".f1_vs_exact", "ratio"});
    }
    const MetricDef rest[] = {
        {"apriori.gen_ms", "ms"},          {"apriori.eval_ms", "ms"},
        {"apriori.candidates", "count"},   {"apriori.pruned", "count"},
        {"uh.build_ms", "ms"},             {"uh.mine_ms", "ms"},
        {"prob.tail_evals", "count"},      {"prob.tail_cpu_ms", "ms"},
        {"prob.dp_cells", "count"},        {"prob.decisive_frac", "ratio"},
        {"stream.append_us_per_txn", "us"}, {"stream.compactions", "count"},
        {"stream.compact_ms", "ms"},       {"stream.snapshot_ms", "ms"},
        {"stream.suffix_mine_ms", "ms"},   {"stream.recount_ms", "ms"},
        {"stream.pool_size", "count"},     {"sched.cpu_per_wall", "ratio"},
        {"trace.overhead_frac", "ratio"},  {"self_ms.io", "ms"},
        {"self_ms.core", "ms"},            {"self_ms.algo", "ms"},
        {"self_ms.prob", "ms"},
    };
    d.insert(d.end(), std::begin(rest), std::end(rest));
    return d;
  }();
  return defs;
}

const MetricDef* FindMetric(const std::string& name) {
  for (const auto* table : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& m : *table) {
      if (m.name == name) return &m;
    }
  }
  return nullptr;
}

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

Run::Run(Options options)
    : options_(std::move(options)),
      tracer_(options_.trace),
      threads_(std::min(kMaxThreads, ufim::HardwareThreads())) {
  utsname un{};
  uname(&un);
  Describe("workload", options_.workload);
  Describe("seed", static_cast<double>(options_.seed));
  Describe("seconds", options_.seconds);
  Describe("trace", options_.trace ? "1" : "0");
  Describe("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  Describe("kernel", std::string(un.sysname) + " " + un.release + " " +
                         un.machine);
  Describe("compiler", UFIM_E2E_COMPILER);
  Describe("build_type", UFIM_E2E_BUILD_TYPE);
  Describe("intersect_kernel",
           ufim::IntersectKernelName(ufim::ForcedIntersectKernel()));
  Describe("simd_available", ufim::SimdIntersectAvailable() ? "1" : "0");
  Describe("threads", static_cast<double>(threads_));
  Describe("heap_hooks", ufim::memory_tracker::HooksInstalled() ? "1" : "0");
}

void Run::Describe(const std::string& key, const std::string& value) {
  description_.emplace_back(key, value);
}

void Run::Describe(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  Describe(key, std::string(buf));
}

void Run::Fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

void Run::Set(const std::string& name, double value) {
  if (FindMetric(name) == nullptr) {
    throw std::logic_error("unknown metric " + name);
  }
  metrics_[name] = value;
}

void Run::Note(const std::string& name, double value,
               const std::string& unit) {
  notes_.push_back(name + " = " + FormatNumber(value) + " " + unit);
}

int Run::Finish() {
  std::string trace_path;
  if (traced()) {
    for (const auto& [layer, ms] : tracer_.SelfMsByLayer()) {
      if (layer != "bench") Set("self_ms." + layer, ms);
    }
    trace_path = options_.work_dir + "/trace-" + options_.workload + "-seed" +
                 std::to_string(options_.seed) + ".json";
    Describe("trace_file", trace_path);
    Describe("trace_spans", static_cast<double>(tracer_.num_spans()));
  }
  std::string meta = "{";
  for (const auto& [key, value] : description_) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
    if (meta.size() > 1) meta += ",";
    meta += JsonString(key) + ":" + JsonString(value);
  }
  meta += "}";
  if (!trace_path.empty() && !tracer_.WriteChromeTrace(trace_path, meta)) {
    Fail("cannot write trace file " + trace_path);
  }

  const std::vector<MetricDef>& reported =
      traced() ? PerLayerMetrics() : EndToEndMetrics();
  for (const auto& [name, value] : metrics_) {
    std::printf("%s = %s %s\n", name.c_str(), FormatNumber(value).c_str(),
                FindMetric(name)->unit.c_str());
  }
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());

  std::string metrics = "{";
  for (const MetricDef& m : reported) {
    auto it = metrics_.find(m.name);
    double value = 0.0;
    if (it != metrics_.end()) {
      value = it->second;
    } else if (!traced()) {
      Fail("metric " + m.name + " was not measured");
    }
    if (!std::isfinite(value)) {
      Fail("metric " + m.name + " is not finite");
      value = 0.0;
    }
    if (metrics.size() > 1) metrics += ",";
    metrics += JsonString(m.name) + ":{\"value\":" + FormatNumber(value) +
               ",\"unit\":" + JsonString(m.unit) + "}";
  }
  metrics += "}";
  const std::size_t attempted = std::max<std::size_t>(attempted_, 1);
  std::printf("error_rate = %s (%zu of %zu operations failed)\n",
              FormatNumber(static_cast<double>(failed_) /
                           static_cast<double>(attempted))
                  .c_str(),
              failed_, attempted);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              failed_ == 0 ? "true" : "false", attempted, failed_,
              metrics.c_str());
  std::fflush(stdout);
  return failed_ == 0 ? 0 : 1;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

bool BitIdentical(const ufim::MiningResult& a, const ufim::MiningResult& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ufim::FrequentItemset& x = a[i];
    const ufim::FrequentItemset& y = b[i];
    if (!(x.itemset == y.itemset) ||
        x.expected_support != y.expected_support ||
        x.variance != y.variance ||
        x.frequent_probability != y.frequent_probability) {
      return false;
    }
  }
  return true;
}

std::string DiffWithin(const ufim::MiningResult& got,
                       const ufim::MiningResult& want, double rel_tol) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " itemsets, expected " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i].itemset == want[i].itemset)) {
      return "itemset " + got[i].itemset.ToString() + " where " +
             want[i].itemset.ToString() + " was expected";
    }
    const double a = got[i].expected_support;
    const double b = want[i].expected_support;
    if (std::fabs(a - b) > rel_tol * std::max(std::fabs(a), std::fabs(b))) {
      return "esup of " + got[i].itemset.ToString() + " is " + FormatNumber(a) +
             ", expected " + FormatNumber(b);
    }
  }
  return "";
}

double F1(const ufim::MiningResult& approx, const ufim::MiningResult& exact) {
  const ufim::PrecisionRecall pr = ufim::ComputePrecisionRecall(approx, exact);
  const std::size_t sizes = pr.approx_size + pr.exact_size;
  if (sizes == 0) return 1.0;
  return 2.0 * static_cast<double>(pr.intersection) /
         static_cast<double>(sizes);
}

std::string WriteDataset(Run& run, const ufim::UncertainDatabase& db) {
  const Options& o = run.options();
  // One file per workload, overwritten by the next run.
  const std::string path = o.work_dir + "/" + o.workload + ".udb";
  const ufim::Status s = ufim::WriteDataset(db, path);
  if (!s.ok()) throw std::runtime_error("WriteDataset: " + s.ToString());
  run.Describe("dataset.transactions", static_cast<double>(db.size()));
  run.Describe("dataset.items", static_cast<double>(db.num_items()));
  run.Describe("dataset.file_mb", FileMegabytes(path));
  return path;
}

double FileMegabytes(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) / 1e6;
}

ufim::UncertainDatabase ReadDatasetTimed(Run& run, const std::string& path,
                                         double* seconds) {
  Span span(run.tracer(), "io", "io.ReadDataset");
  const std::int64_t t0 = NowNs();
  ufim::Result<ufim::UncertainDatabase> db = ufim::ReadDataset(path);
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  if (!db.ok()) throw std::runtime_error("ReadDataset: " + db.status().ToString());
  return std::move(db).value();
}

namespace {

/// Latencies and CPU use of the cycles of one mode (traced or not).
struct LoopStats {
  std::vector<double> ms;             // per request, in send order
  std::vector<double> cpu_ms;         // process CPU per request
  std::vector<std::size_t> type;      // request index per sample
  std::vector<double> cycle_peak_mb;  // heap high-water mark per cycle
  double wall_s = 0;
  double cpu_s = 0;
};

/// Runs whole request cycles until `seconds` have passed. With
/// `alternate`, every other cycle records spans, so the untraced cycles
/// (`[0]`) and the traced ones (`[1]`) see the same host conditions and
/// their difference is the tracing overhead alone.
std::array<LoopStats, 2> ClosedLoop(
    Run& run, const std::vector<QueryRequest>& requests,
    const std::vector<std::unique_ptr<ufim::Miner>>& miners,
    const ufim::FlatView& view, const std::vector<ufim::MiningResult>& first,
    double seconds, bool alternate) {
  std::array<LoopStats, 2> by_mode;
  Tracer& tracer = run.tracer();
  const std::int64_t start = NowNs();
  std::int64_t request_id = 0;
  const std::size_t min_cycles = alternate ? 2 : 1;
  for (std::size_t cycle = 0;
       cycle < min_cycles ||
       static_cast<double>(NowNs() - start) / 1e9 < seconds;
       ++cycle) {
    const bool spans = alternate && cycle % 2 == 1;
    LoopStats& stats = by_mode[spans ? 1 : 0];
    const std::int64_t wall0 = NowNs();
    const std::int64_t cpu0 = ProcessCpuNs();
    const ufim::ScopedPeakMemory peak;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      std::optional<Span> root, call;
      if (spans) {
        tracer.set_request(request_id++);
        root.emplace(tracer, "bench", "request " + requests[i].label);
        call.emplace(tracer, "algo", "algo." + requests[i].miner + ".Mine");
      }
      const std::int64_t c0 = ProcessCpuNs();
      const std::int64_t t0 = NowNs();
      ufim::Result<ufim::MiningResult> r =
          miners[i]->Mine(view, requests[i].task);
      const std::int64_t t1 = NowNs();
      const std::int64_t c1 = ProcessCpuNs();
      call.reset();
      root.reset();
      run.Attempt();
      if (!r.ok()) {
        run.Fail(requests[i].label + ": " + r.status().ToString());
      } else if (!BitIdentical(*r, first[i])) {
        run.Fail(requests[i].label + ": result differs from its first run");
      }
      stats.ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      stats.cpu_ms.push_back(static_cast<double>(c1 - c0) / 1e6);
      stats.type.push_back(i);
    }
    stats.cycle_peak_mb.push_back(static_cast<double>(peak.PeakDeltaBytes()) /
                                  1e6);
    stats.wall_s += static_cast<double>(NowNs() - wall0) / 1e9;
    stats.cpu_s += static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
  }
  return by_mode;
}

}  // namespace

double CycleQueriesPerSecond(const std::vector<double>& ms,
                             std::size_t per_cycle) {
  std::vector<double> cycle_s;
  for (std::size_t lo = 0; lo + per_cycle <= ms.size(); lo += per_cycle) {
    double s = 0;
    for (std::size_t i = lo; i < lo + per_cycle; ++i) s += ms[i] / 1e3;
    cycle_s.push_back(s);
  }
  return static_cast<double>(per_cycle) / Median(cycle_s);
}

namespace {

void SetQueryMetrics(Run& run, const LoopStats& loop, std::size_t per_cycle,
                     double tail_percentile) {
  run.Set("queries_per_s", CycleQueriesPerSecond(loop.ms, per_cycle));
  run.Set("query_ms_p50", Median(loop.ms));
  run.Set("query_ms_tail", Percentile(loop.ms, tail_percentile));
  run.Set("peak_heap_mb", Median(loop.cycle_peak_mb));
  run.Set("sched.cpu_per_wall", loop.cpu_s / loop.wall_s);
  run.Describe("queries", static_cast<double>(loop.ms.size()));
}

}  // namespace

void RunQueryWorkload(Run& run, const QueryWorkload& workload) {
  const Options& o = run.options();
  run.Describe("tail_percentile", workload.tail_percentile);
  run.Describe("request_types", static_cast<double>(workload.requests.size()));
  const std::string path = WriteDataset(run, workload.generate(o.seed));
  const double file_mb = FileMegabytes(path);

  // Set-up: ReadDataset, then the FlatView every query runs against.
  std::vector<double> setup_s, read_s, build_s;
  ufim::UncertainDatabase db;
  ufim::FlatView view;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    db = ufim::UncertainDatabase();
    view = ufim::FlatView();
    Span span(run.tracer(), "bench", "setup");
    const std::int64_t t0 = NowNs();
    double read = 0;
    db = ReadDatasetTimed(run, path, &read);
    const std::int64_t t1 = NowNs();
    {
      Span build(run.tracer(), "core", "core.FlatView");
      view = ufim::FlatView(db);
    }
    const std::int64_t t2 = NowNs();
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    read_s.push_back(read);
    build_s.push_back(static_cast<double>(t2 - t1) / 1e9);
  }
  run.Set("setup_s", Median(setup_s));
  run.Set("io.read_ms", Median(read_s) * 1e3);
  run.Set("io.read_mb_per_s", file_mb / Median(read_s));
  run.Set("core.view_build_ms", Median(build_s) * 1e3);
  run.Set("core.units", static_cast<double>(view.num_units()));

  ufim::MinerOptions options = workload.options;
  options.num_threads = run.threads();
  std::vector<std::unique_ptr<ufim::Miner>> miners;
  for (const QueryRequest& req : workload.requests) {
    miners.push_back(ufim::MinerRegistry::Global().Create(req.miner, options));
    if (miners.back() == nullptr) {
      throw std::runtime_error("miner " + req.miner + " is not registered");
    }
  }

  // Warm-up: one call per request type fills caches and the thread pool,
  // and gives the result every later repeat must reproduce bit for bit.
  std::vector<ufim::MiningResult> first(workload.requests.size());
  for (std::size_t i = 0; i < workload.requests.size(); ++i) {
    ufim::Result<ufim::MiningResult> r =
        miners[i]->Mine(view, workload.requests[i].task);
    run.Attempt();
    if (!r.ok()) {
      run.Fail(workload.requests[i].label + ": " + r.status().ToString());
      continue;
    }
    first[i] = std::move(r).value();
  }
  workload.cross_check(run, first);

  if (!run.traced()) {
    const LoopStats loop = ClosedLoop(run, workload.requests, miners, view,
                                      first, o.seconds, false)[0];
    SetQueryMetrics(run, loop, workload.requests.size(),
                    workload.tail_percentile);
    return;
  }

  // Traced run: untraced and traced cycles alternate; the untraced ones
  // give the baseline for the tracing overhead and the scheduler's
  // CPU/wall, the traced ones the per-miner figures.
  const std::array<LoopStats, 2> loop = ClosedLoop(
      run, workload.requests, miners, view, first, o.seconds, true);
  const LoopStats& base = loop[0];
  const LoopStats& traced = loop[1];
  SetQueryMetrics(run, base, workload.requests.size(),
                  workload.tail_percentile);
  run.Set("trace.overhead_frac", Mean(traced.ms) / Mean(base.ms) - 1);

  // Per miner: latency and CPU/wall over the traced cycles; work counts
  // from the warm-up results; speed-up from one extra 1-thread call per
  // request type, which must reproduce the 4-thread result.
  ufim::MinerOptions serial = workload.options;
  serial.num_threads = 1;
  std::map<std::string, std::vector<double>> miner_ms;
  std::map<std::string, double> miner_cpu, miner_wall, t1_ms, t4_ms;
  for (std::size_t s = 0; s < traced.ms.size(); ++s) {
    const std::string& m = workload.requests[traced.type[s]].miner;
    miner_ms[m].push_back(traced.ms[s]);
    miner_cpu[m] += traced.cpu_ms[s];
    miner_wall[m] += traced.ms[s];
  }
  std::map<std::string, double> candidates, itemsets;
  for (std::size_t i = 0; i < workload.requests.size(); ++i) {
    const QueryRequest& req = workload.requests[i];
    std::vector<double> type_ms;
    for (std::size_t s = 0; s < traced.ms.size(); ++s) {
      if (traced.type[s] == i) type_ms.push_back(traced.ms[s]);
    }
    t4_ms[req.miner] += Median(type_ms);
    std::unique_ptr<ufim::Miner> one =
        ufim::MinerRegistry::Global().Create(req.miner, serial);
    Span span(run.tracer(), "algo", "algo." + req.miner + ".Mine(1 thread)");
    const std::int64_t t0 = NowNs();
    ufim::Result<ufim::MiningResult> r = one->Mine(view, req.task);
    t1_ms[req.miner] += MsSince(t0);
    run.Attempt();
    if (!r.ok() || !BitIdentical(*r, first[i])) {
      run.Fail(req.label + ": 1-thread result differs from the " +
               std::to_string(run.threads()) + "-thread result");
    }
    candidates[req.miner] +=
        static_cast<double>(first[i].counters().candidates_generated);
    itemsets[req.miner] += static_cast<double>(first[i].size());
  }
  for (const auto& [m, samples] : miner_ms) {
    const std::string p = "algo." + m;
    run.Set(p + ".ms_p50", Median(samples));
    run.Set(p + ".cpu_per_wall", miner_cpu[m] / miner_wall[m]);
    run.Set(p + ".speedup_4t", t1_ms[m] / t4_ms[m]);
    run.Set(p + ".candidates", candidates[m]);
    run.Set(p + ".itemsets", itemsets[m]);
  }
  workload.traced_extras(run, view, first);
}

}  // namespace e2e
