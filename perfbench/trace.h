// In-memory span recorder for the benchmark's traced pass.
//
// The traced pass wraps each call into a library layer in a span (name,
// start, end, parent span, request id). Spans stay in memory while the pass
// runs and are written out as JSON lines when it ends, so recording costs a
// clock read and a vector append per span.
#ifndef T2H_PERFBENCH_TRACE_H_
#define T2H_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: a layer function's metric name
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;   ///< index of the enclosing span, -1 for a root
  int request = -1;  ///< request id shared by every span of one request

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// Opens a span and returns its index.
  int Begin(const char* name, int parent, int request) {
    spans_.push_back({name, NowNanos(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[span].end_ns = NowNanos(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of its interval
  /// that its children cover (overlapping children are counted once).
  std::vector<double> SelfMicros() const;

  /// Durations in microseconds of every span called `name`, in order.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes one JSON object per span (with its self time) to `path`.
  /// Returns false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span: opened on construction, closed on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, int request)
      : tracer_(tracer), index_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // T2H_PERFBENCH_TRACE_H_
