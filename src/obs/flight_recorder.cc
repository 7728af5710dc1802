#include "src/obs/flight_recorder.h"

#include <cstdint>
#include <cstdio>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/common/check.h"

namespace tiger {
namespace {

// Replaces one 64-byte ring slot. With SSE2 the four 16-byte stores are
// non-temporal: they neither wait on a read-for-ownership of the (cold, last
// touched a full ring-wrap ago) destination line nor install it in the
// cache, so the recorder leaves the protocol's working set alone. x86-64
// always has SSE2; elsewhere a plain copy keeps the code correct.
inline void StoreSlot(void* dst, const void* src) {
#if defined(__SSE2__)
  const __m128i* s = static_cast<const __m128i*>(src);
  __m128i* d = static_cast<__m128i*>(dst);
  _mm_stream_si128(d + 0, _mm_load_si128(s + 0));
  _mm_stream_si128(d + 1, _mm_load_si128(s + 1));
  _mm_stream_si128(d + 2, _mm_load_si128(s + 2));
  _mm_stream_si128(d + 3, _mm_load_si128(s + 3));
#else
  __builtin_memcpy(dst, src, 64);
#endif
}

// Orders the streaming stores before any read of the ring (dump paths).
inline void FlushStores() {
#if defined(__SSE2__)
  _mm_sfence();
#endif
}

}  // namespace

FlightRecorder::FlightRecorder(Options options, int num_cubs)
    : options_(options), num_cubs_(num_cubs) {
  TIGER_CHECK(options_.capacity > 0);
  TIGER_CHECK(options_.checkpoint_capacity > 0);
  TIGER_CHECK(num_cubs_ > 0);
  // Both rings are fully materialized here so the record path never grows
  // anything: steady state is slot reuse only.
  ring_.resize(options_.capacity);
  checkpoints_.resize(options_.checkpoint_capacity);
  for (Checkpoint& ckpt : checkpoints_) {
    ckpt.cubs.resize(static_cast<size_t>(num_cubs_));
  }
}

void FlightRecorder::OnTraceEvent(const TraceEvent& event) {
  ++recorded_;
  PackedEvent p;
  p.when_us = event.when.micros();
  p.flow = event.flow;
  p.viewer = event.args.viewer;
  p.slot = event.args.slot;
  p.a = event.args.a;
  p.b = event.args.b;
  const int64_t dur = event.dur.micros();
  p.dur_us = dur >= INT64_C(0xFFFFFFFF) ? UINT32_MAX
             : dur < 0                  ? 0
                                        : static_cast<uint32_t>(dur);
  p.track = event.track;
  p.type = static_cast<uint8_t>(event.type);
  p.phase = static_cast<uint8_t>(event.phase);
  StoreSlot(&ring_[write_], &p);
  // write_ < capacity always holds, so a compare beats a hardware divide.
  if (++write_ == ring_.size()) {
    write_ = 0;
  }
  if (size_ < ring_.size()) {
    ++size_;
  } else {
    ++evicted_;
  }
  // Deliberately no retention handling here: aging events out eagerly would
  // mean reading ring lines on the record path. The horizon is applied when
  // a dump (or window_size()) renders the window.
}

int64_t FlightRecorder::WindowHorizonUs() const {
  if (size_ == 0) {
    return INT64_MIN;
  }
  const size_t cap = ring_.size();
  const size_t newest = write_ == 0 ? cap - 1 : write_ - 1;
  return ring_[newest].when_us - options_.retention.micros();
}

size_t FlightRecorder::window_size() const {
  FlushStores();
  const int64_t horizon = WindowHorizonUs();
  const size_t cap = ring_.size();
  size_t head = write_ >= size_ ? write_ - size_ : write_ + cap - size_;
  size_t in_window = 0;
  for (size_t i = 0; i < size_; ++i) {
    if (ring_[(head + i) % cap].when_us >= horizon) {
      ++in_window;
    }
  }
  return in_window;
}

FlightRecorder::Checkpoint* FlightRecorder::BeginCheckpoint(TimePoint when) {
  size_t slot;
  if (ckpt_size_ < checkpoints_.size()) {
    slot = (ckpt_head_ + ckpt_size_) % checkpoints_.size();
    ++ckpt_size_;
  } else {
    slot = ckpt_head_;
    ckpt_head_ = (ckpt_head_ + 1) % checkpoints_.size();
  }
  Checkpoint& ckpt = checkpoints_[slot];
  ckpt.used = true;
  ckpt.when = when;
  ckpt.viewers = 0;
  ckpt.blocks = 0;
  ckpt.late = 0;
  ckpt.lost = 0;
  ckpt.failed_cubs = 0;
  for (CubDigest& digest : ckpt.cubs) {
    digest = CubDigest{};
  }
  return &ckpt;
}

std::vector<TraceEvent> FlightRecorder::WindowEvents() const {
  std::vector<TraceEvent> events;
  if (size_ == 0) {
    return events;
  }
  FlushStores();
  const int64_t horizon = WindowHorizonUs();
  const size_t cap = ring_.size();
  size_t head = write_ >= size_ ? write_ - size_ : write_ + cap - size_;
  events.reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    const PackedEvent& p = ring_[(head + i) % cap];
    if (p.when_us < horizon) {
      continue;
    }
    TraceEvent e;
    e.seq = events.size() + 1;  // Renumbered for the dump renderers.
    e.when = TimePoint::FromMicros(p.when_us);
    e.dur = Duration::Micros(p.dur_us);
    e.flow = p.flow;
    e.track = p.track;
    e.type = static_cast<TraceEventType>(p.type);
    e.phase = static_cast<TracePhase>(p.phase);
    e.args.viewer = p.viewer;
    e.args.slot = p.slot;
    e.args.a = p.a;
    e.args.b = p.b;
    events.push_back(e);
  }
  return events;
}

std::string FlightRecorder::CheckpointsText() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line), "checkpoints %zu retained (cadence %lld us)\n",
                ckpt_size_, static_cast<long long>(options_.checkpoint_cadence.micros()));
  out += line;
  for (size_t i = 0; i < ckpt_size_; ++i) {
    const Checkpoint& ckpt = checkpoints_[(ckpt_head_ + i) % checkpoints_.size()];
    std::snprintf(line, sizeof(line),
                  "@%lld viewers=%lld blocks=%lld late=%lld lost=%lld failed_cubs=%d\n",
                  static_cast<long long>(ckpt.when.micros()),
                  static_cast<long long>(ckpt.viewers), static_cast<long long>(ckpt.blocks),
                  static_cast<long long>(ckpt.late), static_cast<long long>(ckpt.lost),
                  ckpt.failed_cubs);
    out += line;
    for (size_t c = 0; c < ckpt.cubs.size(); ++c) {
      const CubDigest& d = ckpt.cubs[c];
      std::snprintf(line, sizeof(line),
                    "  cub%zu entries=%u holds=%u failed=%u failed_seen=%u received=%lld "
                    "blocks_sent=%lld\n",
                    c, d.entries, d.holds, d.failed, d.failed_seen,
                    static_cast<long long>(d.records_received),
                    static_cast<long long>(d.blocks_sent));
      out += line;
    }
  }
  return out;
}

}  // namespace tiger
