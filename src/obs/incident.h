// tiger-incident-v1: the on-disk incident bundle.
//
// One directory per incident, produced by TigerSystem::TriggerIncident (or
// automatically by the SloMonitor on a budget breach):
//
//   incident_s<seed>_<n>/
//     manifest.json      tiger-incident-v1: reason, sim time, shape, the
//                        embedded SLO state, and the file list
//     flight_trace.txt   the flight-recorder window, canonical text form
//     flight_trace.json  the same window as Chrome trace_event JSON
//     checkpoints.txt    the recorder's state-checkpoint ring
//     slo_state.json     tiger-slo-v1 burn-rate state at the breach
//     qos_summary.txt    QoS ledger fleet/per-viewer/cause rollups
//     qos_glitches.csv   every retained glitch, attributed
//     metrics.txt        metrics-registry snapshot
//     audit_report.json  the schedule checker's report (if enabled)
//     profile.json       tiger-profile-v1 (if profiling; machine-dependent)
//     scenario.txt       byte-exact ScenarioDescriptor (frontier runs) — feed
//                        it to tools/replay_scenario to reproduce the run
//     outcome.txt        the final verdict (frontier runs; written post-run)
//
// Determinism contract (DESIGN.md §6j): every file above except profile.json
// is derived from the logical schedule only — same seed + same shard count
// produce byte-identical bundles for any sim_threads.

#ifndef SRC_OBS_INCIDENT_H_
#define SRC_OBS_INCIDENT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tiger {

struct IncidentFile {
  std::string name;      // Flat name inside the bundle dir.
  std::string contents;
};

struct IncidentManifest {
  std::string reason;
  int64_t sim_time_us = 0;
  uint64_t seed = 0;
  int cubs = 0;
  int shards = 1;          // Logical partitioning (part of the schedule).
  std::string engine;      // "serial" or "sharded".
  std::string slo_json;    // Embedded tiger-slo-v1 object; may be empty.
  std::vector<std::string> files;
};

// Renders manifest.json. Deterministic: fixed field order, no wall-clock or
// thread-count fields.
std::string RenderIncidentManifest(const IncidentManifest& manifest);

// Creates `dir` (and parents) and writes every file. False if any write
// fails; already-written files are left in place for post-mortems.
bool WriteIncidentBundle(const std::string& dir, const std::vector<IncidentFile>& files);

}  // namespace tiger

#endif  // SRC_OBS_INCIDENT_H_
