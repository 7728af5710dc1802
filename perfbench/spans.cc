#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder() : origin_ns_(SteadyNs()) { spans_.reserve(1 << 16); }

int64_t SpanRecorder::NowNs() const { return SteadyNs() - origin_ns_; }

int32_t SpanRecorder::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.trace_id = trace_id_;
  const auto index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void SpanRecorder::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close innermost first (ScopedSpan is RAII).
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"schema\":\"perfbench-spans-v1\",\"spans\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\":%zu,\"name\":\"%s\",\"trace\":%u,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i == 0 ? "" : ",", i, s.name, s.trace_id, s.parent,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
