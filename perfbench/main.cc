// tigerbench: the repository benchmark.
//
//   tigerbench --workload W --seed N --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 runs untraced episodes of workload W until their measured spans
// add up to S host seconds, and prints every end-to-end metric. --trace 1
// runs untraced episodes for half of S and traced episodes for the other
// half, checks that both produce the same simulated statistics, times the
// isolated unit-cost probes, and prints every per-layer metric plus the
// attribution table; the spans are written to PATH at exit.
//
// Every run checks the program's outputs (NOTES.md lists the checks) and
// exits 1 when one fails. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "host.h"
#include "probes.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up is repeated at least kMinSetupSamples times per run, and more for
// fast set-ups until the samples cover kMinSetupWallS; setup_s is the median.
constexpr int kMinSetupSamples = 7;
constexpr int kMaxSetupSamples = 60;
constexpr double kMinSetupWallS = 0.5;
constexpr int kMinEpisodes = 3;
constexpr int kMaxEpisodes = 200;
// Stop starting episodes once a run has used this much wall time.
constexpr double kRunBudgetS = 120;

struct Args {
  Workload workload = Workload::kRingSerial;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "tigerbench: %s\nusage: tigerbench --workload "
               "ring_serial|ring_sharded|vod_churn|frontier_sweep --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args.workload)) {
        Usage(("unknown workload " + value).c_str());
      }
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') {
        Usage("--seed must be a whole number");
      }
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  return args;
}

double Get(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

bool IsRing(Workload w) { return w == Workload::kRingSerial || w == Workload::kRingSharded; }

double MeasuredWall(const EpisodeResult& e) {
  double wall = 0;
  for (const Sample& s : e.samples) {
    wall += s.wall_s;
  }
  return wall;
}

// Episodes until their samples cover `target_s` of wall time, or until the
// run's wall-time budget (measured from `budget_start`) is spent.
std::vector<EpisodeResult> RunEpisodes(const Args& args, double target_s, int min_episodes,
                                       SpanRecorder* spans, double budget_start) {
  std::vector<EpisodeResult> out;
  double measured = 0;
  while (out.size() < static_cast<size_t>(kMaxEpisodes)) {
    const bool enough = measured >= target_s && out.size() >= static_cast<size_t>(min_episodes);
    const bool out_of_budget = WallSeconds() - budget_start > kRunBudgetS && !out.empty();
    if (enough || out_of_budget) {
      break;
    }
    EpisodeOptions options;
    options.seed = args.seed;
    options.spans = spans;
    options.measure_s = target_s - measured;
    out.push_back(RunEpisode(args.workload, options));
    measured += MeasuredWall(out.back());
  }
  return out;
}

// Appends one failure, naming the first simulated statistic in which some
// episode differs from `ref`, when any does.
void CheckSameSimulation(const std::vector<EpisodeResult>& episodes, const EpisodeResult& ref,
                         const char* what, std::vector<std::string>* failures) {
  for (const EpisodeResult& e : episodes) {
    if (e.sim == ref.sim) {
      continue;
    }
    for (const auto& [key, value] : ref.sim) {
      const double other = Get(e.sim, key);
      if (other != value || e.sim.count(key) == 0) {
        char buf[256];
        std::snprintf(buf, sizeof(buf), "%s: simulated %s differs (%.17g vs %.17g)", what,
                      key.c_str(), value, other);
        failures->push_back(buf);
        return;
      }
    }
    failures->push_back(std::string(what) + ": simulated statistics differ");
    return;
  }
}

// Totals over every sample of every episode.
struct Totals {
  double stream_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

Totals Sum(const std::vector<EpisodeResult>& episodes) {
  Totals t;
  for (const EpisodeResult& e : episodes) {
    for (const Sample& s : e.samples) {
      t.stream_s += s.stream_s;
      t.wall_s += s.wall_s;
      t.cpu_s += s.cpu_s;
    }
  }
  return t;
}

// The host-time rates report this quantile of the per-sample rates: the
// rate the run sustained in nine samples out of ten. The reference host runs
// at a steady floor and, for seconds to minutes at a time, well above it
// when its other tenants are idle; those bursts move a run's total or median
// much more than its low quantile (NOTES.md, "Host probe and noise").
constexpr double kRateQuantile = 0.10;

struct Rates {
  double per_wall_s = 0;
  double per_cpu_s = 0;
  size_t samples = 0;
};

Rates SustainedRates(const std::vector<EpisodeResult>& episodes) {
  std::vector<double> wall;
  std::vector<double> cpu;
  for (const EpisodeResult& e : episodes) {
    for (const Sample& s : e.samples) {
      wall.push_back(s.stream_s / s.wall_s);
      cpu.push_back(s.stream_s / s.cpu_s);
    }
  }
  return {Percentile(wall, kRateQuantile), Percentile(cpu, kRateQuantile), wall.size()};
}

std::vector<Metric> EndToEnd(const std::vector<EpisodeResult>& episodes,
                             const std::vector<double>& setup_s) {
  const Rates r = SustainedRates(episodes);
  return {
      {"stream_s_per_wall_s", r.per_wall_s, "stream-s/s"},
      {"stream_s_per_cpu_s", r.per_cpu_s, "stream-s/cpu-s"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// The whole-run rates beside the reported ones: a gap between them shows
// the host ran faster than its floor for part of the run.
void PrintRates(const std::vector<EpisodeResult>& episodes) {
  const Rates r = SustainedRates(episodes);
  const Totals t = Sum(episodes);
  std::printf("rates over %zu samples: p10 %.1f stream-s/s %.1f stream-s/cpu-s, whole run %.1f "
              "stream-s/s %.1f stream-s/cpu-s\n",
              r.samples, r.per_wall_s, r.per_cpu_s, t.stream_s / t.wall_s, t.stream_s / t.cpu_s);
}

// Outside-in attribution: each layer's count per stream-second times its
// isolated unit cost.
struct AttributionRow {
  const char* layer;
  double count_per_stream_s;
  double unit_ns;
};

std::vector<AttributionRow> Attribution(const std::map<std::string, double>& s,
                                        const UnitCosts& c) {
  const double recv = Get(s, "core.vstate_recv_per_stream_s");
  return {
      {"sim: schedule+fire", Get(s, "sim.events_per_stream_s"), c.schedule_fire_ns},
      {"net: send+deliver", Get(s, "net.ctl_msgs_per_stream_s"), c.hop_ns},
      {"wire: encode", recv, c.encode_ns_per_record},
      {"wire: decode", recv, c.decode_ns_per_record},
      {"schedule: apply", recv, c.apply_ns},
  };
}

double AttributedNs(const std::vector<AttributionRow>& rows) {
  double total = 0;
  for (const AttributionRow& r : rows) {
    total += r.count_per_stream_s * r.unit_ns;
  }
  return total;
}

// Prints the attribution beside the CPU per stream-second the untraced run
// measured, and the unattributed remainder.
void PrintAttribution(const std::vector<AttributionRow>& rows, double measured_ns) {
  std::printf("attribution (ns of CPU per stream-second)\n");
  std::printf("  %-20s %14s %12s %14s %8s\n", "layer", "count/stream-s", "unit ns", "ns/stream-s",
              "share");
  for (const AttributionRow& r : rows) {
    const double ns = r.count_per_stream_s * r.unit_ns;
    std::printf("  %-20s %14.3f %12.1f %14.0f %7.1f%%\n", r.layer, r.count_per_stream_s,
                r.unit_ns, ns, 100.0 * ns / measured_ns);
  }
  const double rest = measured_ns - AttributedNs(rows);
  std::printf("  %-20s %14s %12s %14.0f %7.1f%%\n", "unattributed", "", "", rest,
              100.0 * rest / measured_ns);
  std::printf("  %-20s %14s %12s %14.0f %7.1f%%\n", "measured", "", "", measured_ns, 100.0);
}

// Per-layer metrics: simulated statistics and traced timings from the traced
// episodes, CPU-derived ratios from the untraced ones.
std::vector<Metric> PerLayer(const std::vector<EpisodeResult>& untraced,
                             const std::vector<EpisodeResult>& traced, const UnitCosts& costs,
                             const HostProbe& probe) {
  const EpisodeResult& t = traced.front();
  const auto& s = t.sim;
  std::vector<double> steps;
  std::vector<double> windows;
  std::vector<double> scenarios;
  for (const EpisodeResult& e : traced) {
    steps.insert(steps.end(), e.step_wall_us.begin(), e.step_wall_us.end());
    windows.insert(windows.end(), e.window_wall_us.begin(), e.window_wall_us.end());
    scenarios.insert(scenarios.end(), e.scenario_ms.begin(), e.scenario_ms.end());
  }
  const Totals u = Sum(untraced);
  const double idle_frac =
      1.0 - u.cpu_s / (u.wall_s * static_cast<double>(untraced.front().threads));
  const double untraced_cpu_rate = SustainedRates(untraced).per_cpu_s;
  const double traced_cpu_rate = SustainedRates(traced).per_cpu_s;
  const double events_per_stream_s = Get(s, "sim.events_per_stream_s");
  const double cpu_ns_per_event =
      events_per_stream_s > 0 ? 1e9 / (untraced_cpu_rate * events_per_stream_s) : 0;
  const double measured_ns = 1e9 / untraced_cpu_rate;
  const double unattributed_frac =
      events_per_stream_s > 0
          ? (measured_ns - AttributedNs(Attribution(s, costs))) / measured_ns
          : 0;
  std::vector<double> setup_construct;
  std::vector<double> setup_content;
  std::vector<double> setup_bootstrap;
  for (const EpisodeResult& e : traced) {
    setup_construct.push_back(e.setup.construct_s);
    setup_content.push_back(e.setup.content_s);
    setup_bootstrap.push_back(e.setup.bootstrap_s);
  }
  std::vector<Metric> m = {
      {"setup.construct_s", Median(setup_construct), "s"},
      {"setup.content_s", Median(setup_content), "s"},
      {"setup.bootstrap_s", Median(setup_bootstrap), "s"},
      {"mem.rss_setup_mb", t.setup.rss_mb, "MB"},
      {"sim.events_per_stream_s", events_per_stream_s, "count"},
      {"sim.cpu_ns_per_event", cpu_ns_per_event, "ns"},
      {"sim.pending_events", Get(s, "sim.pending_events"), "count"},
      {"sim.step_wall_us_p50", Percentile(steps, 0.50), "us"},
      {"sim.step_wall_us_p99", Percentile(steps, 0.99), "us"},
      {"sim.schedule_fire_ns", costs.schedule_fire_ns, "ns"},
      {"engine.windows_per_sim_s", Get(t.traced_sim, "engine.windows_per_sim_s"), "1/sim-s"},
      {"engine.events_per_window", Get(t.traced_sim, "engine.events_per_window"), "count"},
      {"engine.window_wall_us_p50", Percentile(windows, 0.50), "us"},
      {"engine.window_wall_us_p99", Percentile(windows, 0.99), "us"},
      {"engine.idle_frac", idle_frac, "ratio"},
      {"engine.clamped_posts", Get(s, "engine.clamped_posts"), "count"},
      {"net.ctl_bytes_per_stream_s", Get(s, "net.ctl_bytes_per_stream_s"), "B/stream-s"},
      {"net.ctl_msgs_per_stream_s", Get(s, "net.ctl_msgs_per_stream_s"), "count"},
      {"net.ctl_bps_per_cub_max", Get(s, "net.ctl_bps_per_cub_max"), "B/sim-s"},
      {"net.data_bytes_per_stream_s", Get(s, "net.data_bytes_per_stream_s"), "B/stream-s"},
      {"net.oversubscriptions", Get(s, "net.oversubscriptions"), "count"},
      {"net.hop_ns", costs.hop_ns, "ns"},
      {"core.vstate_recv_per_stream_s", Get(s, "core.vstate_recv_per_stream_s"), "count"},
      {"core.vstate_dup_frac", Get(s, "core.vstate_dup_frac"), "ratio"},
      {"core.vstate_batch_records", Get(s, "core.vstate_batch_records"), "count"},
      {"core.wire_encode_ns_per_record", costs.encode_ns_per_record, "ns"},
      {"core.wire_decode_ns_per_record", costs.decode_ns_per_record, "ns"},
      {"core.inserts_per_play", Get(s, "core.inserts_per_play"), "count"},
      {"core.deschedules_per_play", Get(s, "core.deschedules_per_play"), "count"},
      {"core.records_too_late", Get(s, "core.records_too_late"), "count"},
      {"core.records_conflict", Get(s, "core.records_conflict"), "count"},
      {"core.server_missed_blocks", Get(s, "core.server_missed_blocks"), "count"},
      {"core.buffer_stalls", Get(s, "core.buffer_stalls"), "count"},
      {"core.mirror_recoveries", Get(s, "core.mirror_recoveries"), "count"},
      {"core.cub_cpu_mean", Get(s, "core.cub_cpu_mean"), "ratio"},
      {"schedule.apply_ns", costs.apply_ns, "ns"},
      {"disk.util_mean", Get(s, "disk.util_mean"), "ratio"},
      {"disk.read_errors", Get(s, "disk.read_errors"), "count"},
      {"client.plays_requested", Get(s, "client.plays_requested"), "count"},
      {"client.plays_started", Get(s, "client.plays_started"), "count"},
      {"client.startup_samples", Get(s, "client.startup_samples"), "count"},
      {"client.startup_p50_ms", Get(s, "client.startup_p50_ms"), "sim-ms"},
      {"client.startup_p99_ms", Get(s, "client.startup_p99_ms"), "sim-ms"},
      {"client.late_blocks", Get(s, "client.late_blocks"), "count"},
      {"client.lost_blocks", Get(s, "client.lost_blocks"), "count"},
      {"client.glitch_frac", Get(s, "client.glitch_frac"), "ratio"},
      {"frontier.scenario_ms_p50", Percentile(scenarios, 0.50), "ms"},
      {"frontier.scenario_ms_p99", Percentile(scenarios, 0.99), "ms"},
  };
  for (const char* verdict : {"clean_survive", "degraded", "qos_glitches", "divergence",
                              "invariant_violation", "livelock"}) {
    const std::string name = std::string("frontier.verdict.") + verdict;
    m.push_back({name, Get(s, name), "count"});
  }
  m.push_back({"audit.divergences_fatal", Get(s, "audit.divergences_fatal"), "count"});
  m.push_back({"audit.invariant_violations", Get(s, "audit.invariant_violations"), "count"});
  m.push_back({"audit.oracle_conflicts", Get(s, "audit.oracle_conflicts"), "count"});
  m.push_back({"trace.overhead_frac", 1.0 - traced_cpu_rate / untraced_cpu_rate, "ratio"});
  m.push_back({"attrib.unattributed_frac", unattributed_frac, "ratio"});
  m.push_back({"host.cpu_kernel_ms", probe.cpu_ms, "ms"});
  m.push_back({"host.mem_kernel_ms", probe.mem_ms, "ms"});
  return m;
}

void PrintResult(bool correct, const EpisodeResult& ref, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ref.attempted);
  json += ", \"failed\": " + std::to_string(ref.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const double run_start = WallSeconds();
  // Keep freed memory in the process: later episodes and set-ups then reuse
  // warm pages instead of faulting fresh ones in from the host, whose cost
  // on a shared virtual machine swings from run to run.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, -1);

  // Host-speed probe: once, before any setup, never interleaved with the
  // measured span.
  HostProbe probe;
  if (!RunHostProbe(&probe)) {
    std::fprintf(stderr, "tigerbench: host probe failed\n");
    return 1;
  }
  std::printf("host_probe cpu_kernel_ms=%.3f mem_kernel_ms=%.3f\n", probe.cpu_ms, probe.mem_ms);
  std::printf("workload %s seed %llu seconds %g trace %d\n", WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);

  std::vector<std::string> failures;
  // Untraced runs time set-up apart from the episodes too, half before and
  // half after them, so the set-up samples span the run as the measured
  // samples do.
  std::vector<double> setup_s;
  double setup_wall = 0;
  auto add_setups = [&](size_t min_samples, double min_wall) {
    while (setup_s.size() < min_samples ||
           (setup_wall < min_wall && setup_s.size() < static_cast<size_t>(kMaxSetupSamples))) {
      setup_s.push_back(RunSetupOnly(args.workload, args.seed).total_s);
      setup_wall += setup_s.back();
    }
  };
  if (!args.trace) {
    add_setups(kMinSetupSamples / 2, kMinSetupWallS / 2);
  }
  // Ring workloads sample chunks of one long span; the others repeat whole
  // episodes, which also checks same-seed determinism inside the run.
  const int min_episodes = IsRing(args.workload) ? 1 : (args.trace ? 2 : kMinEpisodes);
  std::vector<EpisodeResult> untraced = RunEpisodes(
      args, args.trace ? args.seconds / 2 : args.seconds, min_episodes, nullptr, run_start);
  const EpisodeResult& ref = untraced.front();
  CheckSameSimulation(untraced, ref, "same-seed episodes", &failures);

  std::vector<Metric> metrics;
  if (!args.trace) {
    size_t samples = 0;
    for (const EpisodeResult& e : untraced) {
      setup_s.push_back(e.setup.total_s);
      setup_wall += e.setup.total_s;
      samples += e.samples.size();
    }
    add_setups(kMinSetupSamples, kMinSetupWallS);
    metrics = EndToEnd(untraced, setup_s);
    PrintRates(untraced);
    std::printf("episodes %zu samples %zu setups %zu\n", untraced.size(), samples,
                setup_s.size());
  } else {
    SpanRecorder spans;
    std::vector<EpisodeResult> traced = RunEpisodes(args, args.seconds / 2, 1, &spans, run_start);
    CheckSameSimulation(traced, ref, "traced vs untraced", &failures);
    const int batch = static_cast<int>(std::lround(Get(ref.sim, "core.vstate_batch_records")));
    const UnitCosts costs = RunProbes(static_cast<int64_t>(Get(ref.sim, "sim.pending_events")),
                                      batch > 0 ? batch : 8, &spans);
    metrics = PerLayer(untraced, traced, costs, probe);
    if (IsRing(args.workload)) {
      PrintAttribution(Attribution(traced.front().sim, costs),
                       1e9 / SustainedRates(untraced).per_cpu_s);
    }
    std::printf("episodes untraced %zu traced %zu spans %zu\n", untraced.size(), traced.size(),
                spans.spans().size());
    if (!args.spans_path.empty() && !spans.WriteJson(args.spans_path)) {
      failures.push_back("cannot write spans to " + args.spans_path);
    }
    for (const EpisodeResult& e : traced) {
      failures.insert(failures.end(), e.check_failures.begin(), e.check_failures.end());
    }
  }
  for (const EpisodeResult& e : untraced) {
    failures.insert(failures.end(), e.check_failures.begin(), e.check_failures.end());
  }
  // One line per distinct failure.
  std::sort(failures.begin(), failures.end());
  failures.erase(std::unique(failures.begin(), failures.end()), failures.end());
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  PrintResult(failures.empty(), ref, metrics);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
