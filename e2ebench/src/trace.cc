#include "trace.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

namespace e2e {

namespace {

std::int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Small per-thread ids for the trace's "tid" column.
int ThreadIndex() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

/// Open spans of the calling thread, innermost last: the implicit parent.
thread_local std::vector<std::int64_t> open_spans;

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MsSince(std::int64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e6;
}

std::int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

std::int64_t Tracer::Push(const char* layer, std::string name,
                          std::int64_t parent, std::int64_t request) {
  const int tid = ThreadIndex();
  const std::int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Record{layer, std::move(name), start, -1, parent, request,
                          tid});
  const auto id = static_cast<std::int64_t>(spans_.size()) - 1;
  open_spans.push_back(id);
  return id;
}

std::int64_t Tracer::Begin(const char* layer, std::string name) {
  if (!enabled_) return -1;
  const std::int64_t parent = open_spans.empty() ? -1 : open_spans.back();
  return Push(layer, std::move(name), parent, request_);
}

std::int64_t Tracer::BeginChild(const char* layer, std::string name,
                                SpanRef parent) {
  if (!enabled_) return -1;
  return Push(layer, std::move(name), parent.id, parent.request);
}

void Tracer::End(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t end = NowNs();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

SpanRef Tracer::Ref(std::int64_t id) const {
  if (id < 0) return {};
  std::lock_guard<std::mutex> lock(mu_);
  return SpanRef{id, spans_[static_cast<std::size_t>(id)].request};
}

std::size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Record& r : spans_) {
    if (r.parent >= 0 && r.end_ns >= 0) {
      children[static_cast<std::size_t>(r.parent)].emplace_back(r.start_ns,
                                                                r.end_ns);
    }
  }
  std::map<std::string, double> self_ms;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (r.end_ns < 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = r.start_ns;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, cursor);
      hi = std::min(hi, r.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self_ms[r.layer] += static_cast<double>(r.end_ns - r.start_ns - covered) / 1e6;
  }
  return self_ms;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& metadata_json) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":";
  out += metadata_json;
  out += ",\"traceEvents\":[";
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    char buf[256];
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      if (r.end_ns < 0) continue;
      if (!first) out += ',';
      first = false;
      out += "{\"name\":";
      AppendJsonString(out, r.name);
      std::snprintf(buf, sizeof buf,
                    ",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                    "\"parent\":%lld,\"request\":%lld}}",
                    r.layer, r.tid, static_cast<double>(r.start_ns - origin) / 1e3,
                    static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                    static_cast<long long>(i), static_cast<long long>(r.parent),
                    static_cast<long long>(r.request));
      out += buf;
    }
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace e2e
