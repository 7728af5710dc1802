// Replays one scenario descriptor and prints its outcome.
//
//   replay_scenario --file=scenario.txt [--expect=<verdict>] [--trace=t.json]
//                   [--audit-report=a.json] [--incident-dir=dir]
//
// The descriptor text format is ScenarioDescriptor::ToText() — exactly what
// frontier.json embeds under "counterexamples[].descriptor" (unescape the
// JSON string, or copy the block a failing CI run prints). Replays are
// deterministic: the same descriptor always reproduces the same verdict and
// counters.
//
// With --expect, exits nonzero unless the replayed verdict matches — this is
// how the frontier smoke test pins every published counterexample to its
// recorded verdict. --trace/--audit-report dump the Chrome trace (with the
// LIVELOCK_DEADMAN instants on the frontier track) and the schedule
// checker's report for post-mortem. --incident-dir arms the flight recorder
// and SLO monitor: a breach (or a bad final verdict) writes a
// tiger-incident-v1 bundle under that directory (inspect with tigerwatch).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/frontier/runner.h"
#include "src/frontier/scenario.h"

namespace {

std::string FlagValue(int argc, char** argv, const std::string& flag) {
  const std::string prefix = "--" + flag + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) {
      return std::string(argv[i]).substr(prefix.size());
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = FlagValue(argc, argv, "file");
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: replay_scenario --file=<descriptor.txt> [--expect=<verdict>]\n"
                 "                       [--trace=<trace.json>] [--audit-report=<report.json>]\n"
                 "                       [--incident-dir=<dir>]\n");
    return 2;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "replay_scenario: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  auto parsed = tiger::frontier::ScenarioDescriptor::Parse(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "replay_scenario: %s\n", parsed.status().message().c_str());
    return 2;
  }
  const tiger::frontier::ScenarioDescriptor descriptor = parsed.value();

  tiger::frontier::RunOptions options;
  options.trace_path = FlagValue(argc, argv, "trace");
  options.audit_report_path = FlagValue(argc, argv, "audit-report");
  options.incident_dir = FlagValue(argc, argv, "incident-dir");
  const tiger::frontier::ScenarioOutcome outcome =
      tiger::frontier::RunScenario(descriptor, options);

  std::printf("family %s seed %llu\n%s", descriptor.family.c_str(),
              static_cast<unsigned long long>(descriptor.seed),
              tiger::frontier::OutcomeSummary(outcome).c_str());

  const std::string expect = FlagValue(argc, argv, "expect");
  if (!expect.empty()) {
    const tiger::frontier::Verdict expected = tiger::frontier::ParseVerdict(expect);
    if (expected == tiger::frontier::Verdict::kVerdictCount) {
      std::fprintf(stderr, "replay_scenario: unknown verdict '%s'\n", expect.c_str());
      return 2;
    }
    if (outcome.verdict != expected) {
      std::fprintf(stderr, "replay_scenario: verdict %s does not match expected %s\n",
                   tiger::frontier::VerdictName(outcome.verdict), expect.c_str());
      return 1;
    }
    std::printf("verdict matches expectation (%s)\n", expect.c_str());
  }
  return 0;
}
