// Video-on-demand with a power failure.
//
// Runs the paper's 14-cub / 56-disk configuration under 200 streams, cuts
// power to one cub mid-run, and reports how the deadman protocol and
// declustered mirroring keep the streams alive: the loss window, the mirror
// fragments served, and the control-traffic increase at the mirroring cubs.

#include <algorithm>
#include <cstdio>

#include "src/client/testbed.h"

int main() {
  using namespace tiger;

  TigerConfig config;  // 14 cubs x 4 disks, decluster 4 — the §5 testbed.
  Testbed testbed(config, /*seed=*/7);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(/*count=*/32, /*file_duration=*/Duration::Seconds(600));
  testbed.Start();

  std::printf("ramping to 200 streams...\n");
  testbed.AddLoopingViewers(200, /*stagger=*/Duration::Seconds(15));
  testbed.RunFor(Duration::Seconds(30));
  std::printf("  %lld streams active, %lld blocks delivered so far\n",
              static_cast<long long>(testbed.ActiveViewerCount()),
              static_cast<long long>(testbed.TotalClientStats().blocks_complete));

  const CubId victim(9);
  const TimePoint cut = testbed.sim().Now();
  std::printf("\ncutting power to cub %u at t=%.1fs...\n", victim.value(), cut.seconds());
  testbed.system().FailCubNow(victim);
  testbed.RunFor(Duration::Seconds(40));

  ViewerClient::Stats stats = testbed.TotalClientStats();
  TimePoint earliest = TimePoint::Max();
  TimePoint latest = TimePoint::Zero();
  for (const auto& viewer : testbed.viewers()) {
    for (TimePoint t : viewer->loss_times()) {
      earliest = std::min(earliest, t);
      latest = std::max(latest, t);
    }
  }

  std::printf("\nafter the failure:\n");
  std::printf("  streams still active      : %lld of 200\n",
              static_cast<long long>(testbed.ActiveViewerCount()));
  std::printf("  blocks lost (all clients) : %lld\n", static_cast<long long>(stats.lost_blocks));
  if (stats.lost_blocks > 0) {
    std::printf("  loss window               : %.1fs to %.1fs after the cut (gap %.1fs)\n",
                (earliest - cut).seconds(), (latest - cut).seconds(),
                (latest - earliest).seconds());
  }
  std::printf("  mirror fragments delivered: %lld (decluster factor %d, %lld blocks' worth)\n",
              static_cast<long long>(stats.fragments_received), config.shape.decluster_factor,
              static_cast<long long>(stats.fragments_received / config.shape.decluster_factor));

  Cub::Counters cubs = testbed.system().TotalCubCounters();
  std::printf("  mirror takeovers          : %lld\n", static_cast<long long>(cubs.takeovers));
  std::printf("  failures detected         : %lld (deadman protocol)\n",
              static_cast<long long>(cubs.failures_detected));
  std::printf("  schedule violations       : %zu (must be 0)\n",
              testbed.system().invariant_checker()->violations().size());

  TimePoint b = testbed.sim().Now();
  TimePoint a = b - Duration::Seconds(20);
  CubId mirror_cub = CubId(10);  // First living successor of the victim.
  CubId distant_cub = CubId(2);
  std::printf("\ncontrol traffic (last 20 s):\n");
  std::printf("  mirroring cub %u : %.1f KB/s (carries mirror viewer states)\n",
              mirror_cub.value(),
              testbed.system().CubControlTrafficBps(mirror_cub, a, b) / 1024.0);
  std::printf("  distant cub %u   : %.1f KB/s\n", distant_cub.value(),
              testbed.system().CubControlTrafficBps(distant_cub, a, b) / 1024.0);
  return 0;
}
