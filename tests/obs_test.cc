// Unit tests for the observability layer: the FlightRecorder's bounded
// window + checkpoint rings, and the SloMonitor's
// burn-rate math, probe breaches and deterministic state rendering.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/slo_monitor.h"
#include "src/stats/qos.h"

namespace tiger {
namespace {

TimePoint At(int64_t seconds) { return TimePoint::Zero() + Duration::Seconds(seconds); }

TraceEvent EventAt(int64_t seconds, uint64_t seq = 0) {
  TraceEvent e;
  e.seq = seq;
  e.when = At(seconds);
  e.track = 0;
  e.type = TraceEventType::kBlockSent;
  return e;
}

TEST(FlightRecorderTest, RetainsOnlyTheTimeWindow) {
  FlightRecorder::Options options;
  options.retention = Duration::Seconds(5);
  options.capacity = 100;
  FlightRecorder recorder(options, /*num_cubs=*/2);
  for (int64_t s = 0; s <= 10; ++s) {
    recorder.OnTraceEvent(EventAt(s, static_cast<uint64_t>(s)));
  }
  // Newest is at 10s; everything older than 5s ago (i.e. before 5s) falls
  // outside the window. Those events still sit in the (non-full) ring —
  // retention is applied at render time, not on the record path — so the
  // capacity-eviction counter stays at zero and a dump's "dropped" figure is
  // recorded() - window_size().
  EXPECT_EQ(recorder.recorded(), 11u);
  EXPECT_EQ(recorder.window_size(), 6u);
  EXPECT_EQ(recorder.evicted(), 0u);
  EXPECT_EQ(recorder.recorded() - recorder.window_size(), 5u);
  const std::vector<TraceEvent> window = recorder.WindowEvents();
  ASSERT_EQ(window.size(), 6u);
  EXPECT_EQ(window.front().when, At(5));
  EXPECT_EQ(window.back().when, At(10));
}

TEST(FlightRecorderTest, CapacityEvictsOldestEvenInsideWindow) {
  FlightRecorder::Options options;
  options.retention = Duration::Seconds(1000);
  options.capacity = 4;
  FlightRecorder recorder(options, 1);
  for (int64_t s = 0; s < 10; ++s) {
    recorder.OnTraceEvent(EventAt(s));
  }
  EXPECT_EQ(recorder.window_size(), 4u);
  EXPECT_EQ(recorder.evicted(), 6u);
  const std::vector<TraceEvent> window = recorder.WindowEvents();
  ASSERT_EQ(window.size(), 4u);
  EXPECT_EQ(window.front().when, At(6));
  EXPECT_EQ(window.back().when, At(9));
}

TEST(FlightRecorderTest, WindowEventsRenumbersSeqOldestFirst) {
  FlightRecorder::Options options;
  options.capacity = 8;
  FlightRecorder recorder(options, 1);
  for (int64_t s = 0; s < 3; ++s) {
    recorder.OnTraceEvent(EventAt(s, /*seq=*/900 + static_cast<uint64_t>(s)));
  }
  const std::vector<TraceEvent> window = recorder.WindowEvents();
  ASSERT_EQ(window.size(), 3u);
  for (size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].seq, i + 1);  // Renumbered for the dump renderers.
  }
}

TEST(FlightRecorderTest, CheckpointRingReusesOldestSlot) {
  FlightRecorder::Options options;
  options.checkpoint_capacity = 2;
  FlightRecorder recorder(options, /*num_cubs=*/3);
  for (int64_t s = 1; s <= 3; ++s) {
    FlightRecorder::Checkpoint* ckpt = recorder.BeginCheckpoint(At(s));
    ASSERT_NE(ckpt, nullptr);
    ASSERT_EQ(ckpt->cubs.size(), 3u);  // Preallocated to the cub count.
    ckpt->viewers = s;
    ckpt->cubs[0].entries = static_cast<uint32_t>(s);
  }
  EXPECT_EQ(recorder.checkpoint_count(), 2u);
  const std::string text = recorder.CheckpointsText();
  // The @1s checkpoint was overwritten; @2s and @3s survive, oldest first.
  EXPECT_EQ(text.find("@1000000"), std::string::npos);
  const size_t at2 = text.find("@2000000");
  const size_t at3 = text.find("@3000000");
  ASSERT_NE(at2, std::string::npos);
  ASSERT_NE(at3, std::string::npos);
  EXPECT_LT(at2, at3);
}

TEST(FlightRecorderTest, ReusedCheckpointSlotIsZeroed) {
  FlightRecorder::Options options;
  options.checkpoint_capacity = 1;
  FlightRecorder recorder(options, 2);
  FlightRecorder::Checkpoint* first = recorder.BeginCheckpoint(At(1));
  first->viewers = 7;
  first->cubs[1].holds = 9;
  FlightRecorder::Checkpoint* second = recorder.BeginCheckpoint(At(2));
  EXPECT_EQ(second, first);  // Same slot, recycled in place.
  EXPECT_EQ(second->viewers, 0);
  EXPECT_EQ(second->cubs[1].holds, 0u);
  EXPECT_EQ(second->when, At(2));
}

// ---------------------------------------------------------------------------
// SloMonitor

// Delivers `blocks` clean blocks (spread across `viewers`) and `glitches`
// lost blocks for viewer 0, stamped `when`.
void Feed(QosLedger* ledger, TimePoint when, int blocks, int glitches, int viewers = 4) {
  static int64_t position = 0;
  for (int b = 0; b < blocks; ++b) {
    ledger->RecordClientBlock(ViewerId(static_cast<uint32_t>(b % viewers)));
  }
  for (int g = 0; g < glitches; ++g) {
    ledger->RecordClientLost(when, ViewerId(0), position++);
  }
}

TEST(SloMonitorTest, QuietRunNeverBreaches) {
  QosLedger ledger;
  SloMonitor::Options options;
  SloMonitor monitor(&ledger, options);
  int breaches = 0;
  monitor.SetIncidentHandler([&](const std::string&) { ++breaches; });
  for (int64_t s = 1; s <= 30; ++s) {
    Feed(&ledger, At(s), /*blocks=*/100, /*glitches=*/0);
    monitor.Evaluate(At(s));
  }
  EXPECT_EQ(breaches, 0);
  EXPECT_EQ(monitor.state().breach_ticks, 0);
  EXPECT_EQ(monitor.state().burn_short, 0.0);
  EXPECT_TRUE(monitor.state().first_breach_reason.empty());
}

TEST(SloMonitorTest, FastBurnMathAndBreach) {
  QosLedger ledger;
  SloMonitor::Options options;
  options.glitch_budget = 0.01;   // 1 glitch per 100 blocks allowed.
  options.fast_burn = 10.0;       // Page at 10x: 10 glitches per 100 blocks.
  options.slow_burn = 1000.0;          // Park the slow-window rule...
  options.viewer_glitch_budget = 1e9;  // ...and the per-viewer rule.
  SloMonitor monitor(&ledger, options);
  std::vector<std::string> reasons;
  monitor.SetIncidentHandler([&](const std::string& r) { reasons.push_back(r); });
  // Warm up below the threshold, then burst well above it.
  for (int64_t s = 1; s <= 3; ++s) {
    Feed(&ledger, At(s), 100, 0);
    monitor.Evaluate(At(s));
  }
  EXPECT_TRUE(reasons.empty());
  Feed(&ledger, At(4), 100, 20);
  monitor.Evaluate(At(4));
  // Short window covers the whole run so far: 20 glitches / 400 delivered
  // blocks = 0.05 rate → 5x burn: no page yet.
  EXPECT_TRUE(reasons.empty());
  Feed(&ledger, At(5), 20, 80);
  monitor.Evaluate(At(5));
  // Now 100 glitches / 420 blocks ≈ 0.238 rate → ≈24x burn.
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], "slo_fast_burn");
  EXPECT_GE(monitor.state().burn_short, options.fast_burn);
  EXPECT_EQ(monitor.state().first_breach_reason, "slo_fast_burn");
  EXPECT_EQ(monitor.state().first_breach_when, At(5));
}

TEST(SloMonitorTest, ProbeBreachOutranksBurn) {
  QosLedger ledger;
  SloMonitor::Options options;
  // Park the budget rules so only the probe can breach (the glitch burst
  // below would otherwise page on its own in later ticks).
  options.glitch_budget = 1e9;
  options.viewer_glitch_budget = 1e9;
  SloMonitor monitor(&ledger, options);
  int64_t violation_count = 0;
  monitor.AddBreachProbe("invariant_violation", [&] { return violation_count; });
  std::vector<std::string> reasons;
  monitor.SetIncidentHandler([&](const std::string& r) { reasons.push_back(r); });
  Feed(&ledger, At(1), 10, 10);  // Massive burn *and* a probe delta...
  violation_count = 3;
  monitor.Evaluate(At(1));
  // ...but the probe is the incident, not the symptom: it names the breach.
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], "invariant_violation");
  // Flat probe afterwards: no re-breach from the same counter value.
  monitor.Evaluate(At(2));
  monitor.Evaluate(At(3));
  EXPECT_EQ(monitor.state().breach_ticks, 1);
}

TEST(SloMonitorTest, ProbeBaselineSnapshotAtRegistration) {
  QosLedger ledger;
  SloMonitor monitor(&ledger, SloMonitor::Options());
  int64_t count = 42;  // Pre-existing violations must not fire the probe.
  monitor.AddBreachProbe("invariant_violation", [&] { return count; });
  int breaches = 0;
  monitor.SetIncidentHandler([&](const std::string&) { ++breaches; });
  monitor.Evaluate(At(1));
  EXPECT_EQ(breaches, 0);
  count = 43;
  monitor.Evaluate(At(2));
  EXPECT_EQ(breaches, 1);
}

TEST(SloMonitorTest, WorstViewerBudget) {
  QosLedger ledger;
  SloMonitor::Options options;
  options.glitch_budget = 1e9;  // Park the fleet rules.
  options.viewer_glitch_budget = 0.5;
  SloMonitor monitor(&ledger, options);
  std::vector<std::string> reasons;
  monitor.SetIncidentHandler([&](const std::string& r) { reasons.push_back(r); });
  // Viewer 1 is healthy; viewer 0 loses every other block.
  for (int i = 0; i < 10; ++i) {
    ledger.RecordClientBlock(ViewerId(0));
    ledger.RecordClientBlock(ViewerId(1));
  }
  for (int i = 0; i < 6; ++i) {
    ledger.RecordClientLost(At(1), ViewerId(0), i);
  }
  monitor.Evaluate(At(1));
  // Viewer 0: 6 glitches / 10 blocks = 0.6 rate → 1.2x of its 0.5 budget.
  EXPECT_EQ(monitor.state().worst_viewer, 0u);
  EXPECT_NEAR(monitor.state().worst_viewer_burn, 1.2, 1e-9);
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], "viewer_budget_exhausted");
}

TEST(SloMonitorTest, StateJsonIsDeterministic) {
  auto run = [] {
    QosLedger ledger;
    SloMonitor monitor(&ledger, SloMonitor::Options());
    int64_t probe = 0;
    monitor.AddBreachProbe("audit_divergence", [&] { return probe; });
    for (int64_t s = 1; s <= 10; ++s) {
      Feed(&ledger, At(s), 50, s == 7 ? 5 : 0);
      monitor.Evaluate(At(s));
    }
    return monitor.StateJson();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"tiger-slo-v1\""), std::string::npos);
  EXPECT_NE(a.find("\"audit_divergence\""), std::string::npos);
}

}  // namespace
}  // namespace tiger
