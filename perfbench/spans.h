// In-memory span recorder for the traced run.
//
// The benchmark's own code opens a span around each call into a layer
// (setup phases, RunUntil steps, RunScenario calls, isolated probes). Spans
// are kept in memory and written out once, at exit. Every span carries the
// identifier of the workload episode or scenario it belongs to, and the
// index of the span that encloses it (-1 at the root).
//
// A null recorder means "untraced": ScopedSpan then records nothing.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // Static string.
  int64_t start_ns = 0;   // Since the recorder was created.
  int64_t end_ns = -1;    // -1 while open.
  int32_t parent = -1;
  uint32_t trace_id = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  // Identifier stamped on spans opened from now on.
  void SetTraceId(uint32_t id) { trace_id_ = id; }
  uint32_t NewTraceId() { return ++last_trace_id_; }

  // Opens a span under the innermost open one; returns its index.
  int32_t Begin(const char* name);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  double DurationUs(int32_t index) const {
    const Span& s = spans_[static_cast<size_t>(index)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }

  // Writes every span as one JSON document; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  int64_t NowNs() const;

  int64_t origin_ns_ = 0;
  uint32_t trace_id_ = 0;
  uint32_t last_trace_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), index_(recorder != nullptr ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
