// Thread-count determinism of the ring_sharded workload: the sharded engine
// promises output that depends on the shard count only, so one episode at
// 1 worker thread and one at 4 must produce identical simulated statistics.
// Runs as a test of the benchmark package, not in every benchmark run.
//
//   tigerbench_test [seed]

#include <cstdio>
#include <cstdlib>

#include "workloads.h"

int main(int argc, char** argv) {
  using perfbench::EpisodeOptions;
  using perfbench::EpisodeResult;
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  EpisodeOptions options;
  options.seed = seed;
  options.sim_threads = 1;
  const EpisodeResult one = perfbench::RunEpisode(perfbench::Workload::kRingSharded, options);
  options.sim_threads = 4;
  const EpisodeResult four = perfbench::RunEpisode(perfbench::Workload::kRingSharded, options);

  int failures = 0;
  if (one.threads != 1 || four.threads != 4) {
    std::printf("FAIL: ran at %d and %d threads, wanted 1 and 4\n", one.threads, four.threads);
    ++failures;
  }
  if (one.sim.size() != four.sim.size()) {
    std::printf("FAIL: %zu vs %zu simulated statistics\n", one.sim.size(), four.sim.size());
    ++failures;
  }
  for (const auto& [key, value] : one.sim) {
    auto it = four.sim.find(key);
    if (it == four.sim.end() || it->second != value) {
      std::printf("FAIL: %s = %.17g at 1 thread, %.17g at 4\n", key.c_str(), value,
                  it == four.sim.end() ? -1.0 : it->second);
      ++failures;
    }
  }
  if (one.sim.count("sim.events") == 0 || one.sim.at("sim.events") <= 0) {
    std::printf("FAIL: no events simulated\n");
    ++failures;
  }
  for (const auto* r : {&one, &four}) {
    for (const auto& f : r->check_failures) {
      std::printf("FAIL: %s\n", f.c_str());
      ++failures;
    }
  }
  std::printf("%s: ring_sharded seed %llu, %zu simulated statistics compared at 1 and 4 "
              "threads\n",
              failures == 0 ? "PASS" : "FAIL", static_cast<unsigned long long>(seed),
              one.sim.size());
  return failures == 0 ? 0 : 1;
}
