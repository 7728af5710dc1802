#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "host.h"
#include "stats.h"
#include "src/client/testbed.h"
#include "src/common/rng.h"
#include "src/core/config.h"
#include "src/core/messages.h"
#include "src/core/system.h"
#include "src/frontier/runner.h"
#include "src/frontier/scenario.h"
#include "src/net/network.h"

namespace perfbench {

using tiger::CubId;
using tiger::Duration;
using tiger::FileId;
using tiger::TigerConfig;
using tiger::TigerSystem;
using tiger::TimePoint;

namespace {

// RunUntil step of the measured span (sim.step_wall_us_*).
constexpr Duration kStep = Duration::Millis(100);

// --- ring_serial / ring_sharded -------------------------------------------

constexpr double kRingLoad = 0.9;
// Warm-up outlasts the protocol's longest settling horizon (the ~20 s
// seen-instance retention window).
constexpr Duration kRingWarmup = Duration::Seconds(30);

// The measured span is cut into chunks of equal simulated length, each one
// timed sample. The first kRingFingerprintChunks chunks are the fixed span
// whose simulated statistics every run of a seed must reproduce; further
// chunks only add timing samples.
struct RingShape {
  int cubs;
  int shards;
  int threads;
  Duration chunk;
};

RingShape RingShapeOf(Workload workload) {
  return workload == Workload::kRingSerial ? RingShape{100, 1, 1, Duration::Seconds(4)}
                                           : RingShape{250, 8, 4, Duration::Seconds(2)};
}

constexpr int kRingFingerprintChunks = 5;
constexpr int kRingMaxChunks = 400;

struct RingBed {
  tiger::SinkEndpoint sink;  // Declared first: outlives the system's network.
  std::unique_ptr<TigerSystem> system;
  int streams = 0;
};

std::unique_ptr<RingBed> SetUpRing(Workload workload, uint64_t seed, int threads,
                                   SpanRecorder* spans, SetupTimes* times) {
  const RingShape shape = RingShapeOf(workload);
  const double t0 = WallSeconds();
  ScopedSpan setup_span(spans, "setup");
  auto bed = std::make_unique<RingBed>();
  TigerConfig config;
  config.shape.num_cubs = shape.cubs;
  config.simulate_data_plane = false;
  config.sim_shards = shape.shards;
  config.sim_threads = threads > 0 ? threads : shape.threads;
  {
    ScopedSpan span(spans, "setup.construct");
    bed->system = std::make_unique<TigerSystem>(config, seed);
  }
  const double t1 = WallSeconds();
  TigerSystem& system = *bed->system;
  const tiger::NetAddress sink = system.net().Attach(&bed->sink, "sink", config.client_nic_bps);
  FileId file;
  {
    ScopedSpan span(spans, "setup.content");
    // Long enough that no stream reaches end-of-file before the last chunk:
    // bootstrapped streams start anywhere in the first TotalDisks() blocks.
    const Duration horizon = kRingWarmup + shape.chunk * kRingMaxChunks;
    file = system
               .AddFile("content", config.max_stream_bps,
                        config.block_play_time * config.shape.TotalDisks() + horizon +
                            Duration::Seconds(60))
               .value();
  }
  const double t2 = WallSeconds();
  {
    ScopedSpan span(spans, "setup.bootstrap");
    bed->streams = static_cast<int>(static_cast<double>(config.MaxStreams()) * kRingLoad);
    const int made = system.BootstrapStreams(bed->streams, sink, file, config.max_stream_bps);
    TIGER_CHECK(made == bed->streams) << "bootstrap placed " << made << " of " << bed->streams;
    system.Start();
  }
  const double t3 = WallSeconds();
  times->construct_s = t1 - t0;
  times->content_s = t2 - t1;
  times->bootstrap_s = t3 - t2;
  times->total_s = t3 - t0;
  times->rss_mb = CurrentRssMb();
  return bed;
}

size_t PendingEvents(TigerSystem& system) {
  if (!system.sharded()) {
    return system.sim().pending_events();
  }
  size_t total = 0;
  for (int s = 0; s < system.engine()->shards(); ++s) {
    total += system.engine()->shard(s).pending_events();
  }
  return total;
}

// Host time and sampled simulator state over a measured span.
struct SpanStats {
  double pending_sum = 0;
  int64_t pending_samples = 0;
  int64_t busy_windows = 0;  // Windows that dispatched at least one event.
};

// Runs [from, to) in kStep steps and returns its timing. Untraced, each step
// is one RunUntil call. Traced, each step is a span; on the sharded engine
// the step is further driven one engine window at a time, each window its
// own span.
Sample RunSpan(TigerSystem& system, TimePoint from, TimePoint to, SpanRecorder* spans,
               SpanStats* stats, EpisodeResult* result) {
  ScopedSpan measure_span(spans, "measure");
  const bool by_window = spans != nullptr && system.sharded();
  const Duration window = by_window ? system.engine()->window() : kStep;
  Sample sample;
  const double wall0 = WallSeconds();
  const double cpu0 = ProcessCpuSeconds();
  for (TimePoint t = from; t < to;) {
    const TimePoint step_end = std::min(t + kStep, to);
    if (spans == nullptr) {
      system.RunUntil(step_end);
    } else {
      ScopedSpan step(spans, "sim.run_until_step");
      if (by_window) {
        for (TimePoint w = t; w < step_end;) {
          const TimePoint w_end = std::min(w + window, step_end);
          const uint64_t before = system.processed_events();
          ScopedSpan win(spans, "engine.window");
          system.RunUntil(w_end);
          if (system.processed_events() != before) {
            ++stats->busy_windows;
          }
          w = w_end;
        }
      } else {
        system.RunUntil(step_end);
      }
    }
    stats->pending_sum += static_cast<double>(PendingEvents(system));
    ++stats->pending_samples;
    t = step_end;
  }
  sample.wall_s = WallSeconds() - wall0;
  sample.cpu_s = ProcessCpuSeconds() - cpu0;
  if (spans != nullptr) {
    const auto& all = spans->spans();
    for (size_t i = static_cast<size_t>(measure_span.index()) + 1; i < all.size(); ++i) {
      const std::string name = all[i].name;
      if (name == "sim.run_until_step") {
        result->step_wall_us.push_back(spans->DurationUs(static_cast<int32_t>(i)));
      } else if (name == "engine.window") {
        result->window_wall_us.push_back(spans->DurationUs(static_cast<int32_t>(i)));
      }
    }
  }
  return sample;
}

// Control-plane totals over the cubs and the controller.
struct NetTotals {
  double ctl_bytes = 0;
  double ctl_msgs = 0;
  double cub_ctl_bytes = 0;  // The cubs' share of the two above.
  double cub_ctl_msgs = 0;
  double data_bytes = 0;
};

NetTotals ReadNet(TigerSystem& system) {
  NetTotals totals;
  tiger::Network& net = system.net();
  auto add_ctl = [&](tiger::NetAddress node) {
    totals.ctl_bytes += net.ControlBytesSent(node).Total();
    totals.ctl_msgs += static_cast<double>(net.ControlMessagesSent(node));
  };
  for (int c = 0; c < system.cub_count(); ++c) {
    const tiger::NetAddress node = system.addresses().CubAddress(CubId(static_cast<uint32_t>(c)));
    add_ctl(node);
    totals.data_bytes += net.DataBytesSent(node).Total();
  }
  totals.cub_ctl_bytes = totals.ctl_bytes;
  totals.cub_ctl_msgs = totals.ctl_msgs;
  add_ctl(system.addresses().controller);
  return totals;
}

int64_t Oversubscriptions(TigerSystem& system) {
  int64_t total = 0;
  for (size_t n = 0; n < system.net().node_count(); ++n) {
    total += system.net().OversubscriptionEvents(static_cast<tiger::NetAddress>(n));
  }
  return total;
}

// Layer statistics every system-driven workload reports over its measured
// span [a, b]. `before` holds the counters sampled at a.
struct Snapshot {
  tiger::Cub::Counters cubs;
  NetTotals net;
  uint64_t events = 0;
};

Snapshot TakeSnapshot(TigerSystem& system) {
  return Snapshot{system.TotalCubCounters(), ReadNet(system), system.processed_events()};
}

void FillSystemStats(TigerSystem& system, const Snapshot& before, TimePoint a, TimePoint b,
                     const SpanStats& span, double stream_s, EpisodeResult* r) {
  const Snapshot after = TakeSnapshot(system);
  const tiger::Cub::Counters& c0 = before.cubs;
  const tiger::Cub::Counters& c1 = after.cubs;
  auto& sim = r->sim;
  const double events = static_cast<double>(after.events - before.events);
  const double received = static_cast<double>(c1.records_received - c0.records_received);
  sim["sim.events"] = events;
  sim["sim.events_per_stream_s"] = events / stream_s;
  sim["sim.pending_events"] = span.pending_sum / static_cast<double>(span.pending_samples);
  sim["net.ctl_bytes"] = after.net.ctl_bytes - before.net.ctl_bytes;
  sim["net.ctl_msgs"] = after.net.ctl_msgs - before.net.ctl_msgs;
  sim["net.ctl_bytes_per_stream_s"] = sim["net.ctl_bytes"] / stream_s;
  sim["net.ctl_msgs_per_stream_s"] = sim["net.ctl_msgs"] / stream_s;
  sim["net.data_bytes_per_stream_s"] = (after.net.data_bytes - before.net.data_bytes) / stream_s;
  sim["net.oversubscriptions"] = static_cast<double>(Oversubscriptions(system));
  double max_bps = 0;
  for (int c = 0; c < system.cub_count(); ++c) {
    max_bps = std::max(max_bps, system.CubControlTrafficBps(CubId(static_cast<uint32_t>(c)), a, b));
  }
  sim["net.ctl_bps_per_cub_max"] = max_bps;
  sim["core.vstate_received"] = received;
  sim["core.vstate_recv_per_stream_s"] = received / stream_s;
  sim["core.vstate_dup_frac"] =
      received > 0 ? static_cast<double>(c1.records_duplicate - c0.records_duplicate) / received
                   : 0;
  sim["core.inserts"] = static_cast<double>(c1.inserts - c0.inserts);
  sim["core.deschedules_applied"] =
      static_cast<double>(c1.deschedules_applied - c0.deschedules_applied);
  sim["core.records_too_late"] = static_cast<double>(c1.records_too_late - c0.records_too_late);
  sim["core.records_conflict"] = static_cast<double>(c1.records_conflict - c0.records_conflict);
  sim["core.blocks_sent"] = static_cast<double>(c1.blocks_sent - c0.blocks_sent);
  sim["core.server_missed_blocks"] =
      static_cast<double>(c1.server_missed_blocks - c0.server_missed_blocks);
  sim["core.buffer_stalls"] = static_cast<double>(c1.buffer_stalls - c0.buffer_stalls);
  sim["core.mirror_recoveries"] =
      static_cast<double>(c1.mirror_recoveries - c0.mirror_recoveries);
  sim["core.takeovers"] = static_cast<double>(c1.takeovers - c0.takeovers);
  sim["core.cub_cpu_mean"] = system.MeanCubCpu(a, b);
  sim["disk.util_mean"] = system.MeanDiskUtilization(a, b);
  sim["disk.read_errors"] = static_cast<double>(c1.disk_read_errors - c0.disk_read_errors);
  sim["engine.clamped_posts"] =
      system.sharded() ? static_cast<double>(system.engine()->clamped_posts()) : 0;
  // Mean records per viewer-state batch. On the ring, cub control traffic
  // is only batches (40 B header + 100 B per record) and heartbeats (48 B),
  // so both message counts follow from the cubs' message and byte totals.
  if (!system.config().simulate_data_plane) {
    const double bytes = after.net.cub_ctl_bytes - before.net.cub_ctl_bytes;
    const double msgs = after.net.cub_ctl_msgs - before.net.cub_ctl_msgs;
    const double heartbeats =
        (bytes - static_cast<double>(tiger::kViewerStateWireBytes) * received -
         static_cast<double>(tiger::kMessageHeaderBytes) * msgs) /
        static_cast<double>(tiger::HeartbeatMsg::WireBytes() - tiger::kMessageHeaderBytes);
    const double batches = msgs - heartbeats;
    sim["core.vstate_batch_records"] = batches > 0 ? received / batches : 0;
  }

  if (span.busy_windows > 0) {
    const double sim_s = (b - a).seconds();
    r->traced_sim["engine.windows_per_sim_s"] = static_cast<double>(span.busy_windows) / sim_s;
    r->traced_sim["engine.events_per_window"] = events / static_cast<double>(span.busy_windows);
  }
}

EpisodeResult RunRing(Workload workload, const EpisodeOptions& options) {
  EpisodeResult r;
  SpanRecorder* spans = options.spans;
  std::unique_ptr<RingBed> bed = SetUpRing(workload, options.seed, options.sim_threads, spans,
                                           &r.setup);
  TigerSystem& system = *bed->system;
  r.threads = system.config().sim_threads;
  {
    ScopedSpan span(spans, "warmup");
    system.RunUntil(TimePoint::Zero() + kRingWarmup);
  }
  const Duration chunk = RingShapeOf(workload).chunk;
  const TimePoint a = TimePoint::Zero() + kRingWarmup;
  const TimePoint b = a + chunk * kRingFingerprintChunks;
  const double chunk_stream_s = static_cast<double>(bed->streams) * chunk.seconds();
  const Snapshot before = TakeSnapshot(system);
  SpanStats span;
  double measured = 0;
  TimePoint t = a;
  // Every bootstrapped stream is served once per block play time, in every
  // chunk, and never misses while no cub has failed: a chunk that serves
  // fewer has lost streams, and its stream-seconds would overstate the work.
  const double services_per_chunk = chunk_stream_s / system.config().block_play_time.seconds();
  tiger::Cub::Counters last = system.TotalCubCounters();
  auto run_chunk = [&](TimePoint from, SpanStats* stats) {
    r.samples.push_back(RunSpan(system, from, from + chunk, spans, stats, &r));
    r.samples.back().stream_s = chunk_stream_s;
    measured += r.samples.back().wall_s;
    const tiger::Cub::Counters now = system.TotalCubCounters();
    const double served = static_cast<double>(now.blocks_sent - last.blocks_sent);
    const int64_t missed = now.server_missed_blocks - last.server_missed_blocks;
    last = now;
    if (missed > 0 || std::abs(served - services_per_chunk) > 0.01 * services_per_chunk) {
      r.check_failures.push_back("ring: a chunk served " + std::to_string(served) +
                                 " slots and missed " + std::to_string(missed) +
                                 " with no failure at 90% load; expected " +
                                 std::to_string(services_per_chunk) + " and 0");
    }
  };
  for (int k = 0; k < kRingFingerprintChunks; ++k, t = t + chunk) {
    run_chunk(t, &span);
  }
  const double stream_s = chunk_stream_s * kRingFingerprintChunks;
  FillSystemStats(system, before, a, b, span, stream_s, &r);
  SpanStats extra;
  for (int k = kRingFingerprintChunks; k < kRingMaxChunks && measured < options.measure_s;
       ++k, t = t + chunk) {
    run_chunk(t, &extra);
  }
  if (system.sharded() && system.engine()->clamped_posts() != 0) {
    r.check_failures.push_back("engine: cross-shard posts clamped (lookahead violated)");
  }

  // Failure share: every slot service due is an operation; a server-missed
  // block is a failure.
  const double missed = r.sim["core.server_missed_blocks"];
  r.attempted = static_cast<int64_t>(r.sim["core.blocks_sent"] + missed);
  r.failed = static_cast<int64_t>(missed);
  return r;
}

// --- vod_churn --------------------------------------------------------------

constexpr Duration kVodWarmup = Duration::Seconds(60);
constexpr Duration kVodMeasured = Duration::Seconds(90);
constexpr Duration kVodFailAt = Duration::Seconds(90);  // 30 s into the measured span.
constexpr int kVodFiles = 64;
constexpr Duration kVodFileLength = Duration::Seconds(600);
constexpr double kVodLoad = 0.9;
constexpr int64_t kVodMinPlayS = 20;
constexpr int64_t kVodMaxPlayS = 60;

struct VodPlay {
  Duration arrival;
  Duration length;
  int file = 0;
  tiger::ViewerClient* viewer = nullptr;  // Set when the play arrives.
};

// Open-loop Poisson arrivals in simulated time, sized by Little's law so the
// offered concurrency is kVodLoad of the schedule's slots.
std::vector<VodPlay> GeneratePlays(uint64_t seed, int64_t slots, Duration horizon) {
  tiger::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  const double mean_play_s = static_cast<double>(kVodMinPlayS + kVodMaxPlayS) / 2.0;
  const double rate = kVodLoad * static_cast<double>(slots) / mean_play_s;
  const Duration mean_gap = Duration::SecondsF(1.0 / rate);
  std::vector<VodPlay> plays;
  for (Duration t = rng.Exponential(mean_gap); t < horizon; t = t + rng.Exponential(mean_gap)) {
    VodPlay play;
    play.arrival = t;
    play.length = Duration::Seconds(rng.UniformInt(kVodMinPlayS, kVodMaxPlayS));
    play.file = static_cast<int>(rng.UniformInt(0, kVodFiles - 1));
    plays.push_back(play);
  }
  return plays;
}

struct VodBed {
  std::unique_ptr<tiger::Testbed> bed;
  std::vector<VodPlay> plays;
};

std::unique_ptr<VodBed> SetUpVod(uint64_t seed, SpanRecorder* spans, SetupTimes* times) {
  const double t0 = WallSeconds();
  ScopedSpan setup_span(spans, "setup");
  auto v = std::make_unique<VodBed>();
  {
    ScopedSpan span(spans, "setup.construct");
    v->bed = std::make_unique<tiger::Testbed>(TigerConfig(), seed);
  }
  const double t1 = WallSeconds();
  {
    ScopedSpan span(spans, "setup.content");
    v->bed->AddContent(kVodFiles, kVodFileLength);
  }
  const double t2 = WallSeconds();
  {
    ScopedSpan span(spans, "setup.bootstrap");
    tiger::Testbed* bed = v->bed.get();
    TigerSystem& system = bed->system();
    v->plays = GeneratePlays(seed, system.config().MaxStreams(), kVodWarmup + kVodMeasured);
    const auto failed_cub = static_cast<uint32_t>(seed % static_cast<uint64_t>(system.cub_count()));
    system.FailCubAt(TimePoint::Zero() + kVodFailAt, CubId(failed_cub));
    for (VodPlay& play : v->plays) {
      VodPlay* p = &play;
      bed->sim().ScheduleAt(TimePoint::Zero() + play.arrival, [bed, p] {
        p->viewer = &bed->AddViewer(FileId(static_cast<uint32_t>(p->file)));
        tiger::ViewerClient* viewer = p->viewer;
        bed->sim().ScheduleAfter(p->length, [viewer] { viewer->RequestStop(); });
      });
    }
    bed->Start();
  }
  const double t3 = WallSeconds();
  times->construct_s = t1 - t0;
  times->content_s = t2 - t1;
  times->bootstrap_s = t3 - t2;
  times->total_s = t3 - t0;
  times->rss_mb = CurrentRssMb();
  return v;
}

EpisodeResult RunVod(const EpisodeOptions& options) {
  EpisodeResult r;
  SpanRecorder* spans = options.spans;
  std::unique_ptr<VodBed> v = SetUpVod(options.seed, spans, &r.setup);
  tiger::Testbed& bed = *v->bed;
  TigerSystem& system = bed.system();
  const TimePoint a = TimePoint::Zero() + kVodWarmup;
  const TimePoint b = a + kVodMeasured;
  {
    ScopedSpan span(spans, "warmup");
    system.RunUntil(a);
  }
  const tiger::ViewerClient::Stats c0 = bed.TotalClientStats();
  const Snapshot before = TakeSnapshot(system);
  SpanStats span;
  Sample sample = RunSpan(system, a, b, spans, &span, &r);
  const tiger::ViewerClient::Stats c1 = bed.TotalClientStats();

  // Offered stream-seconds: each play's requested interval clipped to the
  // measured span. Plays are counted when they arrive inside the span; a
  // play whose whole length fell inside it and that never got a block
  // failed to start.
  double stream_s = 0;
  int64_t plays_in_span = 0;
  int64_t plays_due = 0;
  int64_t plays_never_started = 0;
  std::vector<double> startup_ms;
  for (const VodPlay& play : v->plays) {
    const TimePoint begin = TimePoint::Zero() + play.arrival;
    const TimePoint end = begin + play.length;
    const TimePoint lo = std::max(begin, a);
    const TimePoint hi = std::min(end, b);
    if (hi > lo) {
      stream_s += (hi - lo).seconds();
    }
    if (begin < a) {
      continue;
    }
    ++plays_in_span;
    plays_due += end <= b ? 1 : 0;
    if (play.viewer->stats().plays_started > 0) {
      startup_ms.push_back(play.viewer->start_samples().front().latency_seconds * 1e3);
    } else if (end <= b) {
      ++plays_never_started;
    }
  }
  FillSystemStats(system, before, a, b, span, stream_s, &r);
  sample.stream_s = stream_s;
  r.samples.push_back(sample);

  auto& sim = r.sim;
  const int64_t complete = c1.blocks_complete - c0.blocks_complete;
  const int64_t late = c1.late_blocks - c0.late_blocks;
  const int64_t lost = c1.lost_blocks - c0.lost_blocks;
  const int64_t due = complete + lost;
  sim["client.plays_requested"] = static_cast<double>(plays_in_span);
  sim["client.plays_started"] = static_cast<double>(startup_ms.size());
  sim["client.plays_never_started"] = static_cast<double>(plays_never_started);
  sim["client.startup_samples"] = static_cast<double>(startup_ms.size());
  sim["client.startup_p50_ms"] = Percentile(startup_ms, 0.50);
  sim["client.startup_p99_ms"] = Percentile(startup_ms, 0.99);
  sim["client.blocks_due"] = static_cast<double>(due);
  sim["client.late_blocks"] = static_cast<double>(late);
  sim["client.lost_blocks"] = static_cast<double>(lost);
  sim["client.glitch_frac"] =
      due > 0 ? static_cast<double>(late + lost) / static_cast<double>(due) : 0;
  sim["core.inserts_per_play"] =
      plays_in_span > 0 ? sim["core.inserts"] / static_cast<double>(plays_in_span) : 0;
  sim["core.deschedules_per_play"] =
      plays_in_span > 0 ? sim["core.deschedules_applied"] / static_cast<double>(plays_in_span) : 0;

  // Failure share: every block due at a viewer and every play request whose
  // whole play length fell inside the span.
  r.attempted = due + plays_due;
  r.failed = late + lost + plays_never_started;
  if (startup_ms.size() < 1000) {
    r.check_failures.push_back("vod_churn: only " + std::to_string(startup_ms.size()) +
                               " startup samples (p99 needs >= 1000)");
  }
  return r;
}

// --- frontier_sweep ---------------------------------------------------------

// A seeded batch of single-fault scenarios in the paper configuration
// (double forwarding, failure re-forwarding): every fault kind on every
// shape, from the frontier's 8x1 to the 14x4 testbed. The shapes and kinds
// are fixed so that each seed costs about the same; the seed draws the
// scenario seeds, fault targets and times, and burst versus limp. Kinds: cub
// loss, disk loss, transient disk fault, controller failover with the
// backup enabled. Loss budgets are the frontier tournament's quick-run
// calibrations.
struct FrontierShape {
  int cubs;
  int disks_per_cub;
  int decluster;
};
constexpr FrontierShape kFrontierShapes[] = {{8, 1, 2}, {10, 2, 2}, {12, 3, 4}, {14, 4, 4}};
constexpr int kFrontierKinds = 4;

std::vector<tiger::frontier::ScenarioDescriptor> FrontierBatch(uint64_t seed) {
  using tiger::frontier::ScenarioAction;
  using tiger::frontier::ScenarioDescriptor;
  tiger::Rng rng(seed * 0xd1b54a32d192ed03ULL + 0xf00d);
  std::vector<ScenarioDescriptor> batch;
  for (const FrontierShape& shape : kFrontierShapes) {
    for (int kind = 0; kind < kFrontierKinds; ++kind) {
      ScenarioDescriptor d;
      d.seed = rng.NextRaw() % 1000000 + 1;
      d.cubs = shape.cubs;
      d.disks_per_cub = shape.disks_per_cub;
      d.decluster = shape.decluster;
      d.files = d.cubs;
      d.file_s = 60;
      d.viewers = 4;
      d.run_ms = 70000;
      ScenarioAction fault;
      fault.at_ms = rng.UniformInt(12000, 25000);
      switch (kind) {
        case 0:
          d.family = "cub_loss";
          d.loss_budget = 20;
          fault.kind = ScenarioAction::Kind::kFailCub;
          fault.target = static_cast<int>(rng.UniformInt(0, d.cubs - 1));
          break;
        case 1:
          d.family = "disk_loss";
          d.loss_budget = 20;
          fault.kind = ScenarioAction::Kind::kFailDisk;
          fault.target = static_cast<int>(rng.UniformInt(0, d.cubs * d.disks_per_cub - 1));
          break;
        case 2:
          d.family = "disk_transient";
          d.loss_budget = 40;
          fault.target = static_cast<int>(rng.UniformInt(0, d.cubs * d.disks_per_cub - 1));
          if (rng.Bernoulli(0.5)) {
            fault.kind = ScenarioAction::Kind::kDiskBurst;
            fault.end_ms = fault.at_ms + 3000;
            fault.prob_ppm = 600000;
          } else {
            fault.kind = ScenarioAction::Kind::kDiskLimp;
            fault.end_ms = fault.at_ms + 4000;
            fault.delay_ms = 2;  // Reads take 2/1 as long.
            fault.aux = 1;
          }
          break;
        default:
          d.family = "controller_failover";
          d.loss_budget = 40;
          d.backup_controller = true;
          fault.kind = ScenarioAction::Kind::kFailController;
          // New starts must still work once the standby has taken over.
          d.late_viewer_file = static_cast<int>(rng.UniformInt(0, d.files - 1));
          d.late_viewer_at_ms = fault.at_ms + 15000;
          break;
      }
      d.actions.push_back(fault);
      batch.push_back(d);
    }
  }
  return batch;
}

double FrontierStreamSeconds(const tiger::frontier::ScenarioDescriptor& d) {
  double s = static_cast<double>(d.viewers) * static_cast<double>(d.run_ms) / 1e3;
  if (d.late_viewer_file >= 0 && d.late_viewer_at_ms >= 0) {
    s += static_cast<double>(d.run_ms - d.late_viewer_at_ms) / 1e3;
  }
  return s;
}

SetupTimes SetUpFrontier(uint64_t seed, SpanRecorder* spans) {
  SetupTimes times;
  ScopedSpan setup_span(spans, "setup");
  for (const auto& d : FrontierBatch(seed)) {
    TigerConfig config;
    config.shape = tiger::SystemShape{d.cubs, d.disks_per_cub, d.decluster};
    config.forward_copies = d.forward_copies;
    config.reforward_on_failure = d.reforward_on_failure;
    const double t0 = WallSeconds();
    std::unique_ptr<tiger::Testbed> bed;
    {
      ScopedSpan span(spans, "setup.construct");
      bed = std::make_unique<tiger::Testbed>(config, d.seed);
    }
    const double t1 = WallSeconds();
    {
      ScopedSpan span(spans, "setup.content");
      bed->AddContent(d.files, Duration::Seconds(d.file_s));
    }
    const double t2 = WallSeconds();
    {
      ScopedSpan span(spans, "setup.bootstrap");
      bed->Start();
    }
    const double t3 = WallSeconds();
    times.construct_s += t1 - t0;
    times.content_s += t2 - t1;
    times.bootstrap_s += t3 - t2;
    times.total_s += t3 - t0;
    times.rss_mb = std::max(times.rss_mb, CurrentRssMb());
  }
  return times;
}

EpisodeResult RunFrontier(const EpisodeOptions& options) {
  using tiger::frontier::Verdict;
  EpisodeResult r;
  SpanRecorder* spans = options.spans;
  r.setup = SetUpFrontier(options.seed, spans);
  const auto batch = FrontierBatch(options.seed);
  int64_t verdicts[static_cast<size_t>(Verdict::kVerdictCount)] = {};
  double fatal = 0;
  double invariants = 0;
  double conflicts = 0;
  double mirror = 0;
  int64_t complete = 0;
  int64_t late = 0;
  int64_t lost = 0;
  int64_t requested = 0;
  int64_t started = 0;
  double stream_s = 0;
  ScopedSpan measure_span(spans, "measure");
  const double wall0 = WallSeconds();
  const double cpu0 = ProcessCpuSeconds();
  for (const auto& d : batch) {
    if (spans != nullptr) {
      spans->SetTraceId(spans->NewTraceId());
    }
    const double t0 = WallSeconds();
    tiger::frontier::ScenarioOutcome outcome;
    {
      ScopedSpan span(spans, "frontier.run_scenario");
      outcome = tiger::frontier::RunScenario(d);
    }
    if (spans != nullptr) {
      r.scenario_ms.push_back((WallSeconds() - t0) * 1e3);
    }
    stream_s += FrontierStreamSeconds(d);
    ++verdicts[static_cast<size_t>(outcome.verdict)];
    fatal += static_cast<double>(outcome.audit_divergences_fatal);
    invariants += static_cast<double>(outcome.invariant_violations);
    conflicts += static_cast<double>(outcome.oracle_conflicts);
    mirror += static_cast<double>(outcome.mirror_recoveries);
    complete += outcome.blocks_complete;
    late += outcome.late_blocks;
    lost += outcome.lost_blocks;
    requested += outcome.plays_requested;
    started += outcome.plays_started;
    const bool bad = outcome.verdict == Verdict::kDivergence ||
                     outcome.verdict == Verdict::kInvariantViolation ||
                     outcome.verdict == Verdict::kLivelock;
    if (bad || !outcome.survivable) {
      r.check_failures.push_back("frontier_sweep: " + d.family + " scenario (seed " +
                                 std::to_string(d.seed) + ") verdict " +
                                 tiger::frontier::VerdictName(outcome.verdict) +
                                 (outcome.survivable ? "" : ", not survivable") +
                                 (outcome.detail.empty() ? "" : ": " + outcome.detail));
    }
  }
  r.samples.push_back(Sample{stream_s, WallSeconds() - wall0, ProcessCpuSeconds() - cpu0});
  auto& sim = r.sim;
  for (size_t v = 0; v < static_cast<size_t>(Verdict::kVerdictCount); ++v) {
    sim[std::string("frontier.verdict.") + tiger::frontier::VerdictName(static_cast<Verdict>(v))] =
        static_cast<double>(verdicts[v]);
  }
  sim["audit.divergences_fatal"] = fatal;
  sim["audit.invariant_violations"] = invariants;
  sim["audit.oracle_conflicts"] = conflicts;
  sim["core.mirror_recoveries"] = mirror;
  sim["client.plays_requested"] = static_cast<double>(requested);
  sim["client.plays_started"] = static_cast<double>(started);
  sim["client.blocks_due"] = static_cast<double>(complete + lost);
  sim["client.late_blocks"] = static_cast<double>(late);
  sim["client.lost_blocks"] = static_cast<double>(lost);
  sim["client.glitch_frac"] =
      complete + lost > 0 ? static_cast<double>(late + lost) / static_cast<double>(complete + lost)
                          : 0;
  r.attempted = complete + lost;
  r.failed = late + lost;
  return r;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kRingSerial, Workload::kRingSharded, Workload::kVodChurn,
                     Workload::kFrontierSweep}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kRingSerial:
      return "ring_serial";
    case Workload::kRingSharded:
      return "ring_sharded";
    case Workload::kVodChurn:
      return "vod_churn";
    case Workload::kFrontierSweep:
      return "frontier_sweep";
  }
  return "?";
}

SetupTimes RunSetupOnly(Workload workload, uint64_t seed) {
  SetupTimes times;
  switch (workload) {
    case Workload::kRingSerial:
    case Workload::kRingSharded:
      SetUpRing(workload, seed, 0, nullptr, &times);
      break;
    case Workload::kVodChurn:
      SetUpVod(seed, nullptr, &times);
      break;
    case Workload::kFrontierSweep:
      times = SetUpFrontier(seed, nullptr);
      break;
  }
  return times;
}

EpisodeResult RunEpisode(Workload workload, const EpisodeOptions& options) {
  if (options.spans != nullptr) {
    options.spans->SetTraceId(options.spans->NewTraceId());
  }
  EpisodeResult r;
  switch (workload) {
    case Workload::kRingSerial:
    case Workload::kRingSharded:
      r = RunRing(workload, options);
      break;
    case Workload::kVodChurn:
      r = RunVod(options);
      break;
    case Workload::kFrontierSweep:
      r = RunFrontier(options);
      break;
  }
  if (options.spans != nullptr) {
    options.spans->SetTraceId(0);
  }
  return r;
}

}  // namespace perfbench
