// The benchmark's four workloads, driven through the program's public API
// (TigerConfig, TigerSystem, Testbed, frontier::RunScenario). NOTES.md
// records why each workload and shape was chosen.
//
// One episode = set up one workload instance, warm it up, then run a fixed
// simulated span. Every input is generated from the seed, so an episode's
// simulated statistics (`EpisodeResult::sim`) repeat exactly for a seed —
// across episodes, across processes, and between traced and untraced runs.
// Only the host-time fields vary.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

enum class Workload { kRingSerial, kRingSharded, kVodChurn, kFrontierSweep };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

// Wall time of the setup phases: from entering the workload until Start()
// returns. Frontier setup builds and starts each scenario's system once,
// outside RunScenario (the construction RunScenario repeats internally).
struct SetupTimes {
  double construct_s = 0;
  double content_s = 0;
  double bootstrap_s = 0;
  double total_s = 0;
  double rss_mb = 0;  // Resident memory when Start() returned.
};

struct EpisodeOptions {
  uint64_t seed = 1;
  // Non-null: the traced run. Spans wrap the setup phases, every RunUntil
  // step (and, on the sharded engine, every window), and every RunScenario
  // call.
  SpanRecorder* spans = nullptr;
  // 0: the workload's own thread count. The thread-determinism test runs
  // ring_sharded at 1 and at 4.
  int sim_threads = 0;
  // Ring workloads keep running measured chunks past their fixed
  // fingerprint span until the chunks cover this much wall time.
  double measure_s = 0;
};

// One timed piece of a measured span.
struct Sample {
  // Stream-seconds offered, fixed by the generated inputs (streams offered x
  // simulated seconds), not by what was served.
  double stream_s = 0;
  double wall_s = 0;
  double cpu_s = 0;  // Process CPU, every thread.
};

struct EpisodeResult {
  SetupTimes setup;
  // Ring workloads: one sample per chunk of the steady-state span. The
  // others: one sample for the whole measured span (warm-up excluded).
  std::vector<Sample> samples;
  // The operations the failure share counts (see NOTES.md).
  int64_t attempted = 0;
  int64_t failed = 0;
  int threads = 1;
  // Simulated statistics of the fixed span; the determinism fingerprint.
  std::map<std::string, double> sim;
  // Simulated statistics only the traced run derives (window occupancy).
  std::map<std::string, double> traced_sim;
  // Traced run: wall time per 100 ms RunUntil step, per engine window, and
  // per RunScenario call.
  std::vector<double> step_wall_us;
  std::vector<double> window_wall_us;
  std::vector<double> scenario_ms;
  // Correctness checks that failed, one line each.
  std::vector<std::string> check_failures;
};

// Sets up one instance (timed) and tears it down without running it.
SetupTimes RunSetupOnly(Workload workload, uint64_t seed);

EpisodeResult RunEpisode(Workload workload, const EpisodeOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
