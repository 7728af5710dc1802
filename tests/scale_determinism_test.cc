// Large-shape determinism smoke: the 100-cub control plane, run twice from
// one seed, must be bit-for-bit reproducible.
//
// The zero-allocation work recycles hash-map nodes (schedule-view buckets,
// seen-instance entries) and pre-mints bucket stashes at construction; any of
// those could silently perturb hash-map iteration order — and with it event
// order, metrics, and traces — while every small-shape golden still passed.
// This smoke runs the big shape the scale sweep measures and compares every
// observable dump byte-for-byte: the time-series CSV/JSON, the Chrome trace
// (with spliced counter tracks), aggregate protocol counters, per-cub control
// traffic, and the event count itself. Wall-clock never enters any of them,
// so equality is exact or the run is nondeterministic.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/core/system.h"
#include "src/net/network.h"

namespace tiger {
namespace {

constexpr int kCubs = 100;
constexpr double kLoad = 0.5;
// Past the ~20s seen-instance retention horizon, so eviction, node recycling
// and re-admission — the machinery most likely to disturb iteration order —
// all run inside the compared window.
constexpr Duration kRunFor = Duration::Seconds(24);

struct RunDump {
  uint64_t events = 0;
  std::string timeseries_csv;
  std::string timeseries_json;
  std::string chrome_trace;
  std::string control_bps;  // One formatted line per sampled cub.
  Cub::Counters counters;
};

RunDump RunOnce(uint64_t seed) {
  TigerConfig config;
  config.shape.num_cubs = kCubs;
  config.simulate_data_plane = false;
  TigerSystem system(config, seed);
  system.EnableTimeSeries(Duration::Seconds(1));
  SinkEndpoint sink;
  NetAddress sink_addr = system.net().Attach(&sink, "sink", config.client_nic_bps);
  const int streams = static_cast<int>(static_cast<double>(config.MaxStreams()) * kLoad);
  FileId file = system
                    .AddFile("content", config.max_stream_bps,
                             config.block_play_time * (config.shape.TotalDisks() + 600))
                    .value();
  EXPECT_EQ(system.BootstrapStreams(streams, sink_addr, file, config.max_stream_bps), streams);
  system.Start();
  system.sim().RunUntil(TimePoint::Zero() + kRunFor);

  RunDump dump;
  dump.events = system.sim().processed_events();
  dump.timeseries_csv = system.timeseries()->Csv();
  dump.timeseries_json = system.timeseries()->Json();
  dump.chrome_trace = system.tracer()->ChromeJson(system.timeseries()->ChromeCounterEvents());
  dump.counters = system.TotalCubCounters();
  for (int c = 0; c < kCubs; c += 9) {
    char line[64];
    std::snprintf(line, sizeof(line), "cub %d: %.6f bps\n", c,
                  system.CubControlTrafficBps(CubId(static_cast<uint32_t>(c)),
                                              TimePoint::Zero(), system.sim().Now()));
    dump.control_bps += line;
  }
  return dump;
}

TEST(ScaleDeterminismTest, SameSeedTwiceIsByteIdenticalAt100Cubs) {
  RunDump a = RunOnce(11);
  RunDump b = RunOnce(11);
  // A third run from a different seed guards against the dumps being
  // degenerate constants, which would make the equalities below vacuous.
  RunDump c = RunOnce(12);
  EXPECT_NE(a.chrome_trace, c.chrome_trace);

  EXPECT_GT(a.events, 100000u) << "shape unexpectedly idle";
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.timeseries_csv, b.timeseries_csv);
  EXPECT_EQ(a.timeseries_json, b.timeseries_json);
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);
  EXPECT_EQ(a.control_bps, b.control_bps);
  EXPECT_EQ(a.counters.records_received, b.counters.records_received);
  EXPECT_EQ(a.counters.records_new, b.counters.records_new);
  EXPECT_EQ(a.counters.records_duplicate, b.counters.records_duplicate);
  EXPECT_EQ(a.counters.blocks_sent, b.counters.blocks_sent);
  EXPECT_EQ(a.counters.inserts, b.counters.inserts);

  // The ring is actually doing schedule management, not idling: forwarding
  // traffic flows and the view accepts records throughout.
  EXPECT_GT(a.counters.records_new, 0);
  EXPECT_NE(a.control_bps.find("cub 0:"), std::string::npos);
}

// --- sharded engine (DESIGN.md §6h) -----------------------------------------
//
// The parallel engine's contract is stronger than same-seed reproducibility:
// for a fixed shard count, every observable dump must be byte-identical
// across *thread counts*. This sweep runs the 100-cub shape on 8 shards with
// 1 worker thread and again with 4, under full instrumentation (time series,
// tracing, the schedule checker's journaled hooks and barrier scan), and
// compares the time-series CSV, the merged trace text dump, the folded
// metrics, the checker's report and the event count byte-for-byte.

constexpr Duration kShardedRunFor = Duration::Seconds(12);

struct ShardedDump {
  uint64_t events = 0;
  uint64_t clamped_posts = 0;
  std::string timeseries_csv;
  std::string trace_text;
  std::string audit_report;
  std::string fault_log;
  std::string qos_summary;
  // The invariant checker's findings plus its activity counts, rendered as
  // text so the whole journaled/barrier-aligned path is byte-compared.
  std::string violation_summary;
  int64_t violations = 0;
  int64_t checks_run = 0;
  int64_t checker_inserts = 0;
  Cub::Counters counters;
};

ShardedDump RunShardedOnce(uint64_t seed, int shards, int threads,
                           bool profiled = false) {
  TigerConfig config;
  config.shape.num_cubs = kCubs;
  config.simulate_data_plane = false;
  config.sim_shards = shards;
  config.sim_threads = threads;
  TigerSystem system(config, seed);
  system.EnableTimeSeries(Duration::Seconds(1));
  system.EnableInvariantChecker();
  if (profiled) {
    system.EnableProfiling();
  }
  SinkEndpoint sink;
  NetAddress sink_addr = system.net().Attach(&sink, "sink", config.client_nic_bps);
  const int streams = static_cast<int>(static_cast<double>(config.MaxStreams()) * kLoad);
  FileId file = system
                    .AddFile("content", config.max_stream_bps,
                             config.block_play_time * (config.shape.TotalDisks() + 600))
                    .value();
  EXPECT_EQ(system.BootstrapStreams(streams, sink_addr, file, config.max_stream_bps), streams);
  system.Start();
  system.RunUntil(TimePoint::Zero() + kShardedRunFor);

  ShardedDump dump;
  dump.events = system.processed_events();
  dump.clamped_posts = system.engine() != nullptr ? system.engine()->clamped_posts() : 0;
  dump.timeseries_csv = system.timeseries()->Csv();
  dump.trace_text = system.TraceTextDump();
  dump.audit_report = system.invariant_checker()->ReportJson();
  dump.fault_log = system.fault_stats().EventLog();
  dump.qos_summary = system.qos_ledger().SummaryText();
  const InvariantChecker& checker = *system.invariant_checker();
  dump.violations = static_cast<int64_t>(checker.violations().size());
  dump.checks_run = checker.checks_run();
  dump.checker_inserts = checker.insert_count();
  dump.violation_summary = "checks " + std::to_string(dump.checks_run) + " inserts " +
                           std::to_string(dump.checker_inserts) + "\n";
  for (const InvariantChecker::Violation& violation : checker.violations()) {
    dump.violation_summary += std::to_string(violation.when.micros()) + " " +
                              std::to_string(static_cast<int>(violation.kind)) + " " +
                              violation.what + "\n";
  }
  dump.counters = system.TotalCubCounters();
  return dump;
}

TEST(ScaleDeterminismTest, ShardedOutputIsThreadCountInvariantAt100Cubs) {
  ShardedDump one = RunShardedOnce(11, /*shards=*/8, /*threads=*/1);
  ShardedDump four = RunShardedOnce(11, /*shards=*/8, /*threads=*/4);
  // A different seed guards against the dumps being degenerate constants.
  ShardedDump other = RunShardedOnce(12, /*shards=*/8, /*threads=*/4);
  EXPECT_NE(one.trace_text, other.trace_text);

  EXPECT_GT(one.events, 50000u) << "shape unexpectedly idle";
  EXPECT_EQ(one.events, four.events);
  // The lookahead contract held: no cross-shard post ever needed clamping.
  EXPECT_EQ(one.clamped_posts, 0u);
  EXPECT_EQ(four.clamped_posts, 0u);
  EXPECT_EQ(one.timeseries_csv, four.timeseries_csv);
  EXPECT_EQ(one.trace_text, four.trace_text);
  EXPECT_EQ(one.audit_report, four.audit_report);
  EXPECT_EQ(one.fault_log, four.fault_log);
  EXPECT_EQ(one.qos_summary, four.qos_summary);
  // The sharded checker path: hooks journaled from shard threads, the scan
  // run at barriers — clean and thread-count-invariant.
  EXPECT_EQ(one.violations, 0) << one.violation_summary;
  EXPECT_EQ(four.violations, 0) << four.violation_summary;
  EXPECT_GT(one.checks_run, 0);
  EXPECT_GT(one.checker_inserts, 0);
  EXPECT_EQ(one.violation_summary, four.violation_summary);
  EXPECT_EQ(one.counters.records_received, four.counters.records_received);
  EXPECT_EQ(one.counters.records_new, four.counters.records_new);
  EXPECT_EQ(one.counters.blocks_sent, four.counters.blocks_sent);
  EXPECT_EQ(one.counters.inserts, four.counters.inserts);

  // Actually exercising the ring, not idling.
  EXPECT_GT(one.counters.records_new, 0);
  EXPECT_NE(one.trace_text.find("cub"), std::string::npos);
}

// The self-profiler's contract (DESIGN.md §6i): enabling it has zero effect
// on logical execution. Every observable dump from a profiled run must be
// byte-identical to the unprofiled run above — same seed, same shard count,
// same thread count, full instrumentation.
TEST(ScaleDeterminismTest, ProfiledShardedRunIsByteIdenticalToUnprofiled) {
  ShardedDump plain = RunShardedOnce(11, /*shards=*/8, /*threads=*/4);
  ShardedDump prof = RunShardedOnce(11, /*shards=*/8, /*threads=*/4,
                                    /*profiled=*/true);

  EXPECT_GT(plain.events, 50000u) << "shape unexpectedly idle";
  EXPECT_EQ(plain.events, prof.events);
  EXPECT_EQ(plain.clamped_posts, prof.clamped_posts);
  EXPECT_EQ(plain.timeseries_csv, prof.timeseries_csv);
  EXPECT_EQ(plain.trace_text, prof.trace_text);
  EXPECT_EQ(plain.audit_report, prof.audit_report);
  EXPECT_EQ(plain.fault_log, prof.fault_log);
  EXPECT_EQ(plain.qos_summary, prof.qos_summary);
  EXPECT_EQ(plain.counters.records_received, prof.counters.records_received);
  EXPECT_EQ(plain.counters.records_new, prof.counters.records_new);
  EXPECT_EQ(plain.counters.blocks_sent, prof.counters.blocks_sent);
  EXPECT_EQ(plain.counters.inserts, prof.counters.inserts);
}

}  // namespace
}  // namespace tiger
