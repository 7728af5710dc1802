#include "probes.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "host.h"
#include "src/common/rng.h"
#include "src/core/messages.h"
#include "src/core/wire.h"
#include "src/net/network.h"
#include "src/schedule/schedule_view.h"
#include "src/sim/simulator.h"

namespace perfbench {

using tiger::Duration;
using tiger::TimePoint;

namespace {

constexpr int kReps = 5;

template <typename Fn>
double MedianNs(Fn&& once_ns) {
  std::vector<double> samples;
  for (int i = 0; i < kReps; ++i) {
    samples.push_back(once_ns());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Hold model: the heap stays at `depth` pending events while each iteration
// schedules one event and fires the earliest.
double ScheduleFireNs(int64_t depth) {
  tiger::Simulator sim;
  tiger::Rng rng(7);
  int64_t fired = 0;
  auto cb = [&fired] { ++fired; };
  for (int64_t i = 0; i < std::max<int64_t>(depth, 1); ++i) {
    sim.ScheduleAfter(Duration::Micros(rng.UniformInt(1, 10'000'000)), cb);
  }
  constexpr int kOps = 200'000;
  std::vector<int64_t> delays(kOps);
  for (int64_t& d : delays) {
    d = rng.UniformInt(1, 10'000'000);
  }
  const double t0 = WallSeconds();
  for (int i = 0; i < kOps; ++i) {
    sim.ScheduleAfter(Duration::Micros(delays[static_cast<size_t>(i)]), cb);
    sim.Step();
  }
  const double ns = (WallSeconds() - t0) * 1e9 / kOps;
  TIGER_CHECK(fired >= kOps) << "probe events did not fire";
  return ns;
}

double HopNs() {
  tiger::Simulator sim;
  tiger::Network net(&sim, tiger::NetworkConfig(), tiger::Rng(11));
  tiger::SinkEndpoint a;
  tiger::SinkEndpoint b;
  const tiger::NetAddress from = net.Attach(&a, "a", 155'000'000);
  const tiger::NetAddress to = net.Attach(&b, "b", 155'000'000);
  auto payload = std::make_shared<tiger::HeartbeatMsg>();
  constexpr int kBatch = 1000;
  constexpr int kRounds = 50;
  const double t0 = WallSeconds();
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kBatch; ++i) {
      net.Send(from, to, tiger::HeartbeatMsg::WireBytes(), payload);
    }
    sim.Run();
  }
  return (WallSeconds() - t0) * 1e9 / (kBatch * kRounds);
}

tiger::ViewerStateRecord MakeRecord(uint32_t slot, int64_t sequence, TimePoint due) {
  tiger::ViewerStateRecord record;
  record.viewer = tiger::ViewerId(slot + 1);
  record.client_address = slot;
  record.instance = tiger::PlayInstanceId(slot + 1);
  record.file = tiger::FileId(slot % 64);
  record.position = sequence;
  record.slot = tiger::SlotId(slot);
  record.sequence = sequence;
  record.bitrate_bps = 2'000'000;
  record.due = due;
  return record;
}

void WireNs(int batch_records, double* encode_ns, double* decode_ns) {
  tiger::ViewerStateBatchMsg msg;
  for (int i = 0; i < batch_records; ++i) {
    msg.Add(MakeRecord(static_cast<uint32_t>(i), i, TimePoint::Zero() + Duration::Seconds(i)));
  }
  constexpr int kIters = 20'000;
  std::vector<uint8_t> frame;
  size_t sink = 0;
  double t0 = WallSeconds();
  for (int i = 0; i < kIters; ++i) {
    frame = tiger::EncodeMessage(msg);
    sink += frame.size();
  }
  *encode_ns = (WallSeconds() - t0) * 1e9 / (static_cast<double>(kIters) * batch_records);
  t0 = WallSeconds();
  for (int i = 0; i < kIters; ++i) {
    sink += tiger::DecodeMessage(frame) != nullptr ? 1 : 0;
  }
  *decode_ns = (WallSeconds() - t0) * 1e9 / (static_cast<double>(kIters) * batch_records);
  if (sink == 0) {
    *decode_ns += 1;  // Unreachable; keeps the loops observable.
  }
}

// Each record arrives twice, as on the double-forwarded ring: one new
// entry, one duplicate. Eviction keeps the view at its steady-state size.
double ApplyNs() {
  tiger::ScheduleView view(Duration::Seconds(3));
  constexpr uint32_t kSlots = 256;
  constexpr int kRounds = 100;
  double busy = 0;
  int64_t calls = 0;
  for (int r = 0; r < kRounds; ++r) {
    const TimePoint now = TimePoint::Zero() + Duration::Seconds(r);
    std::vector<tiger::ViewerStateRecord> records;
    for (uint32_t s = 0; s < kSlots; ++s) {
      records.push_back(MakeRecord(
          s, r, now + Duration::Seconds(5) + Duration::Micros(s * (1'000'000 / kSlots))));
    }
    const double t0 = WallSeconds();
    for (const auto& record : records) {
      view.ApplyViewerState(record, now);
      view.ApplyViewerState(record, now);
    }
    busy += WallSeconds() - t0;
    calls += 2 * kSlots;
    view.EvictBefore(now - Duration::Seconds(4), now);
  }
  return busy * 1e9 / static_cast<double>(calls);
}

}  // namespace

UnitCosts RunProbes(int64_t pending_depth, int batch_records, SpanRecorder* spans) {
  UnitCosts costs;
  batch_records = std::clamp(batch_records, 1, 32);
  {
    ScopedSpan span(spans, "probe.sim_schedule_fire");
    costs.schedule_fire_ns = MedianNs([&] { return ScheduleFireNs(pending_depth); });
  }
  {
    ScopedSpan span(spans, "probe.net_hop");
    costs.hop_ns = MedianNs([] { return HopNs(); });
  }
  {
    ScopedSpan span(spans, "probe.wire_codec");
    std::vector<double> enc;
    std::vector<double> dec;
    for (int i = 0; i < kReps; ++i) {
      double e = 0;
      double d = 0;
      WireNs(batch_records, &e, &d);
      enc.push_back(e);
      dec.push_back(d);
    }
    std::sort(enc.begin(), enc.end());
    std::sort(dec.begin(), dec.end());
    costs.encode_ns_per_record = enc[kReps / 2];
    costs.decode_ns_per_record = dec[kReps / 2];
  }
  {
    ScopedSpan span(spans, "probe.schedule_apply");
    costs.apply_ns = MedianNs([] { return ApplyNs(); });
  }
  return costs;
}

}  // namespace perfbench
