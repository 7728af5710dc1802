// Incident-bundle integration tests (tiger-incident-v1).
//
// Two contracts from the observability layer:
//
//  1. Replayability (serial, frontier harness): a scenario that goes bad
//     auto-dumps exactly one bundle; the byte-exact descriptor embedded in
//     it replays — through the ordinary RunScenario path — to the verdict
//     recorded in the bundle's outcome.txt.
//
//  2. Thread-count invariance (sharded engine): every logical-schedule-
//     derived file in a bundle is byte-identical between sim_threads=1 and
//     sim_threads=4 at a fixed shard count, because the recorder consumes
//     the barrier-merged trace stream and the monitor/checkpoints evaluate
//     only at barriers (DESIGN.md §6h discipline applied to observability).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/frontier/runner.h"
#include "src/frontier/scenario.h"
#include "src/net/network.h"

namespace tiger {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// First "<key> <rest>" line of outcome.txt, or "".
std::string OutcomeField(const std::string& text, const std::string& key) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + " ", 0) == 0) {
      return line.substr(key.size() + 1);
    }
  }
  return "";
}

std::vector<std::string> BundleDirs(const std::string& parent) {
  std::vector<std::string> dirs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(parent, ec)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("incident_", 0) == 0) {
      dirs.push_back(entry.path().string());
    }
  }
  std::sort(dirs.begin(), dirs.end());
  return dirs;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/obs_incident_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Adjacent-cub double failure at decluster 2: the mirror of cub 0's primary
// data lives on cub 1, so losing both inside the detection window guarantees
// client-visible glitches — a reliably "bad" run.
frontier::ScenarioDescriptor LosingScenario() {
  frontier::ScenarioDescriptor d;
  d.family = "obs_test";
  d.seed = 42;
  d.cubs = 8;
  d.decluster = 2;
  d.viewers = 4;
  d.run_ms = 60000;
  frontier::ScenarioAction fail0;
  fail0.kind = frontier::ScenarioAction::Kind::kFailCub;
  fail0.target = 0;
  fail0.at_ms = 10000;
  frontier::ScenarioAction fail1 = fail0;
  fail1.target = 1;
  fail1.at_ms = 11000;
  d.actions = {fail0, fail1};
  return d;
}

TEST(ObsIncidentTest, BadScenarioDumpsOneReplayableBundle) {
  const std::string parent = FreshDir("replay");
  const frontier::ScenarioDescriptor descriptor = LosingScenario();

  frontier::RunOptions options;
  options.incident_dir = parent;
  const frontier::ScenarioOutcome outcome = frontier::RunScenario(descriptor, options);
  EXPECT_GE(outcome.verdict, frontier::Verdict::kQosGlitches);

  const std::vector<std::string> dirs = BundleDirs(parent);
  ASSERT_EQ(dirs.size(), 1u) << "expected exactly one bundle";
  const std::string& bundle = dirs[0];

  // The manifest identifies the format and the run.
  const std::string manifest = ReadFile(bundle + "/manifest.json");
  EXPECT_NE(manifest.find("\"schema\": \"tiger-incident-v1\""), std::string::npos);
  EXPECT_NE(manifest.find("\"seed\": 42"), std::string::npos);

  // The embedded descriptor is byte-exact.
  const std::string scenario_text = ReadFile(bundle + "/scenario.txt");
  EXPECT_EQ(scenario_text, descriptor.ToText());

  // outcome.txt records the final verdict the run reached.
  const std::string outcome_text = ReadFile(bundle + "/outcome.txt");
  const std::string recorded_verdict = OutcomeField(outcome_text, "verdict");
  EXPECT_EQ(recorded_verdict, frontier::VerdictName(outcome.verdict));

  // The acceptance loop: parse the embedded descriptor and replay it through
  // the normal path — the verdict must match what the bundle recorded.
  auto parsed = frontier::ScenarioDescriptor::Parse(scenario_text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const frontier::ScenarioOutcome replayed = frontier::RunScenario(parsed.value());
  EXPECT_EQ(frontier::VerdictName(replayed.verdict), recorded_verdict);
  EXPECT_EQ(replayed.lost_blocks, outcome.lost_blocks);
  EXPECT_EQ(replayed.blocks_complete, outcome.blocks_complete);
}

TEST(ObsIncidentTest, CleanScenarioDumpsNothing) {
  const std::string parent = FreshDir("clean");
  frontier::ScenarioDescriptor d;
  d.family = "obs_clean";
  d.seed = 7;
  d.cubs = 8;
  d.viewers = 2;
  d.run_ms = 30000;  // No faults at all.
  frontier::RunOptions options;
  options.incident_dir = parent;
  const frontier::ScenarioOutcome outcome = frontier::RunScenario(d, options);
  EXPECT_LE(outcome.verdict, frontier::Verdict::kDegraded);
  EXPECT_TRUE(BundleDirs(parent).empty());
}

// --- sharded engine ---------------------------------------------------------

struct BundleFiles {
  std::string manifest;
  std::string flight_trace_txt;
  std::string flight_trace_json;
  std::string checkpoints;
  std::string slo_state;
  std::string qos_summary;
  std::string qos_glitches;
  std::string metrics;
  std::string audit_report;
  int suppressed = 0;
};

BundleFiles RunShardedIncident(uint64_t seed, int threads, const std::string& dir_tag) {
  const std::string parent = FreshDir(dir_tag);
  TigerConfig config;
  config.shape.num_cubs = 100;
  config.simulate_data_plane = false;
  config.sim_shards = 4;
  config.sim_threads = threads;
  TigerSystem system(config, seed);
  system.EnableFlightRecorder();
  system.EnableSloMonitor();
  system.SetIncidentDir(parent);
  system.EnableInvariantChecker();
  SinkEndpoint sink;
  NetAddress sink_addr = system.net().Attach(&sink, "sink", config.client_nic_bps);
  const int streams = static_cast<int>(static_cast<double>(config.MaxStreams()) * 0.5);
  FileId file = system
                    .AddFile("content", config.max_stream_bps,
                             config.block_play_time * (config.shape.TotalDisks() + 600))
                    .value();
  EXPECT_EQ(system.BootstrapStreams(streams, sink_addr, file, config.max_stream_bps), streams);
  system.FailCubAt(TimePoint::Zero() + Duration::Seconds(4), CubId(3));
  system.Start();
  system.RunUntil(TimePoint::Zero() + Duration::Seconds(12));

  // Driver context between runs: dump on demand (the deadman/verdict path in
  // the frontier runner calls this same entry point).
  EXPECT_TRUE(system.TriggerIncident("test_capture"));
  // The bundle cap holds: a second trigger is counted, not dumped.
  EXPECT_FALSE(system.TriggerIncident("test_capture_again"));

  const std::vector<std::string> dirs = BundleDirs(parent);
  EXPECT_EQ(dirs.size(), 1u);
  BundleFiles files;
  if (dirs.size() != 1) {
    return files;
  }
  const std::string& bundle = dirs[0];
  files.manifest = ReadFile(bundle + "/manifest.json");
  files.flight_trace_txt = ReadFile(bundle + "/flight_trace.txt");
  files.flight_trace_json = ReadFile(bundle + "/flight_trace.json");
  files.checkpoints = ReadFile(bundle + "/checkpoints.txt");
  files.slo_state = ReadFile(bundle + "/slo_state.json");
  files.qos_summary = ReadFile(bundle + "/qos_summary.txt");
  files.qos_glitches = ReadFile(bundle + "/qos_glitches.csv");
  files.metrics = ReadFile(bundle + "/metrics.txt");
  files.audit_report = ReadFile(bundle + "/audit_report.json");
  files.suppressed = system.incidents_suppressed();
  return files;
}

TEST(ObsIncidentTest, ShardedBundleIsThreadCountInvariant) {
  const BundleFiles one = RunShardedIncident(11, /*threads=*/1, "sharded_t1");
  const BundleFiles four = RunShardedIncident(11, /*threads=*/4, "sharded_t4");
  // A different seed guards against the files being degenerate constants.
  const BundleFiles other = RunShardedIncident(12, /*threads=*/4, "sharded_s12");
  EXPECT_NE(one.flight_trace_txt, other.flight_trace_txt);

  EXPECT_FALSE(one.flight_trace_txt.empty());
  EXPECT_GT(one.checkpoints.size(), 100u) << "checkpoints unexpectedly empty";
  EXPECT_EQ(one.manifest, four.manifest);
  EXPECT_EQ(one.flight_trace_txt, four.flight_trace_txt);
  EXPECT_EQ(one.flight_trace_json, four.flight_trace_json);
  EXPECT_EQ(one.checkpoints, four.checkpoints);
  EXPECT_EQ(one.slo_state, four.slo_state);
  EXPECT_EQ(one.qos_summary, four.qos_summary);
  EXPECT_EQ(one.qos_glitches, four.qos_glitches);
  EXPECT_EQ(one.metrics, four.metrics);
  EXPECT_EQ(one.audit_report, four.audit_report);
  EXPECT_EQ(one.suppressed, 1);
  EXPECT_EQ(four.suppressed, 1);

  // The recorder actually captured protocol traffic and periodic checkpoints.
  EXPECT_NE(one.flight_trace_txt.find("cub"), std::string::npos);
  EXPECT_NE(one.slo_state.find("tiger-slo-v1"), std::string::npos);
}

}  // namespace
}  // namespace tiger
