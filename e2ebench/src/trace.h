#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

/// Wall clock in nanoseconds (steady).
std::int64_t NowNs();
/// CPU time of the whole process / of the calling thread, in nanoseconds.
std::int64_t ProcessCpuNs();
std::int64_t ThreadCpuNs();
/// Milliseconds elapsed since `t0` (a NowNs() reading).
double MsSince(std::int64_t t0);

/// Identifies an open span so that work running on another thread (a
/// pool worker evaluating a tail for the span's Mine call) can record a
/// child of it.
struct SpanRef {
  std::int64_t id = -1;
  std::int64_t request = -1;
};

/// In-memory span recorder for the traced run. Spans (name, layer,
/// start, end, parent, request id, thread) are kept in memory and
/// written once at exit as Chrome trace-event JSON, which Perfetto and
/// chrome://tracing open. A disabled tracer records nothing and reads no
/// clock, so the untraced run pays only a branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Request id stamped on spans the request thread opens from now on.
  void set_request(std::int64_t request) { request_ = request; }

  /// Opens a span whose parent is the calling thread's innermost open
  /// span. Returns its id (-1 when disabled).
  std::int64_t Begin(const char* layer, std::string name);
  /// Opens a span under an explicit parent, from any thread.
  std::int64_t BeginChild(const char* layer, std::string name, SpanRef parent);
  void End(std::int64_t id);
  SpanRef Ref(std::int64_t id) const;

  std::size_t num_spans() const;

  /// Self time per layer over every closed span: a span's duration minus
  /// the part of its interval covered by its children (the union, since
  /// children on pool workers overlap).
  std::map<std::string, double> SelfMsByLayer() const;

  /// Writes the spans as Chrome trace-event JSON; `metadata_json` (an
  /// object) is stored under "otherData". Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata_json) const;

 private:
  struct Record {
    const char* layer;
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
    std::int64_t request;
    int tid;
  };
  std::int64_t Push(const char* layer, std::string name, std::int64_t parent,
                    std::int64_t request);

  const bool enabled_;
  std::int64_t request_ = -1;
  mutable std::mutex mu_;
  std::vector<Record> spans_;  // guarded by mu_
};

/// RAII span on the calling thread.
class Span {
 public:
  Span(Tracer& tracer, const char* layer, std::string name)
      : tracer_(tracer), id_(tracer.Begin(layer, std::move(name))) {}
  Span(Tracer& tracer, const char* layer, std::string name, SpanRef parent)
      : tracer_(tracer),
        id_(tracer.BeginChild(layer, std::move(name), parent)) {}
  ~Span() { tracer_.End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  SpanRef ref() const { return tracer_.Ref(id_); }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
