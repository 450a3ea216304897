#pragma once
// The benchmark's own in-memory span recorder. Spans are recorded by the
// benchmark around each call it makes into a layer's public functions —
// never by the program's internal tracing (TraceScope would arm those
// too). A span is named "<layer>.<function>"; its self time is its
// duration minus the part its child spans cover.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;        ///< "<layer>.<function>", or "request" / "check"
  std::string workload;
  std::uint64_t request = 0;  ///< request id within the workload's pass
  Clock::time_point start, end;
  std::ptrdiff_t parent = -1;  ///< index into SpanRecorder::spans(), -1 = root
  int hit = -1;                ///< cache getters: 1 hit, 0 miss, -1 n/a

  double ms() const { return ms_between(start, end); }
  std::string layer() const { return name.substr(0, name.find('.')); }
};

/// Single-threaded recorder: the benchmark's client thread opens and closes
/// spans in LIFO order (every layer call under test runs on it — the
/// traced run pins every worker count to 1).
class SpanRecorder {
public:
  /// Opens a span under the innermost open one; returns its index.
  std::size_t open(std::string name);
  void close(std::size_t index);

  /// Subsequent spans belong to this workload / request.
  void set_workload(std::string w) { workload_ = std::move(w); }
  void set_request(std::uint64_t id) { request_ = id; }

  std::vector<Span>& spans() { return spans_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span (duration minus its children's).
  std::vector<double> self_ms() const;

  /// Chrome trace-event document ("X" events, one track per workload,
  /// span id / parent / request in args) with `other` as "otherData".
  std::string chrome_json(const std::string& other) const;

private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::string workload_;
  std::uint64_t request_ = 0;
};

/// RAII span: opened on construction, closed on destruction.
class SpanScope {
public:
  SpanScope(SpanRecorder& rec, std::string name)
      : rec_(rec), index_(rec.open(std::move(name))) {}
  ~SpanScope() { rec_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::size_t index() const { return index_; }

private:
  SpanRecorder& rec_;
  std::size_t index_;
};

/// Runs `f` under a span named `name` and returns its result.
template <typename F>
auto traced(SpanRecorder& rec, const char* name, F&& f) {
  const SpanScope scope(rec, name);
  return std::forward<F>(f)();
}

} // namespace perfbench
