// Failure handling beyond the basic failover: disk-level failures,
// non-adjacent double failures, consecutive-cub bridging, and redundant
// start-request activation.

#include <gtest/gtest.h>

#include "src/client/testbed.h"

namespace tiger {
namespace {

TigerConfig SmallConfig(int cubs = 6, int decluster = 2) {
  TigerConfig config;
  config.shape = SystemShape{cubs, 1, decluster};
  return config;
}

TEST(FailureTest, SingleDiskFailureCoveredByMirrors) {
  // §2.3: tolerate the failure of any single disk with no ongoing
  // degradation. The cub stays alive; only its disk dies.
  Testbed testbed(SmallConfig(), 31);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(2, Duration::Seconds(40));
  testbed.Start();
  testbed.AddViewer(FileId(0));
  testbed.AddViewer(FileId(1));
  testbed.RunFor(Duration::Seconds(8));

  testbed.system().FailDiskAt(testbed.sim().Now(), DiskId(2));
  testbed.RunFor(Duration::Seconds(40));

  ViewerClient::Stats totals = testbed.TotalClientStats();
  EXPECT_EQ(totals.plays_completed, 2);
  EXPECT_GT(totals.fragments_received, 0) << "mirror path must engage";
  // Disk failure is detected by its own cub instantly (I/O errors), so the
  // loss window is tiny: at most the blocks already due.
  EXPECT_LE(totals.lost_blocks, 2);
  EXPECT_EQ(testbed.system().invariant_checker()->violations().size(), 0u);
}

TEST(FailureTest, TwoNonAdjacentCubFailures) {
  // Decluster 2: failures more than two cubs apart must both be covered.
  Testbed testbed(SmallConfig(/*cubs=*/8), 33);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(4, Duration::Seconds(70));
  testbed.Start();
  for (int i = 0; i < 4; ++i) {
    testbed.AddViewer(FileId(static_cast<uint32_t>(i)));
  }
  testbed.RunFor(Duration::Seconds(10));
  testbed.system().FailCubNow(CubId(1));
  testbed.RunFor(Duration::Seconds(15));
  testbed.system().FailCubNow(CubId(5));
  testbed.RunFor(Duration::Seconds(60));

  ViewerClient::Stats totals = testbed.TotalClientStats();
  EXPECT_EQ(totals.plays_completed, 4);
  // Two detection windows, each costing each stream a couple of blocks.
  EXPECT_LE(totals.lost_blocks, 4 * 8);
  EXPECT_GT(totals.fragments_received, 0);
  EXPECT_EQ(testbed.system().invariant_checker()->violations().size(), 0u);
  EXPECT_EQ(testbed.system().TotalCubCounters().records_conflict, 0);
}

TEST(FailureTest, ConsecutiveCubFailuresBridgeTheRing) {
  // §2.3: "If two or more consecutive cubs are failed, the preceding living
  // cub will send scheduling information to the succeeding living cub,
  // bridging the gap" — streams continue, necessarily missing the blocks
  // whose data died with both copies.
  Testbed testbed(SmallConfig(/*cubs=*/8), 35);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(2, Duration::Seconds(80));
  testbed.Start();
  testbed.AddViewer(FileId(0));
  testbed.AddViewer(FileId(1));
  testbed.RunFor(Duration::Seconds(10));
  testbed.system().FailCubNow(CubId(3));
  testbed.system().FailCubNow(CubId(4));
  testbed.RunFor(Duration::Seconds(80));

  ViewerClient::Stats totals = testbed.TotalClientStats();
  // Plays run to completion (the client gives up on lost blocks and keeps
  // counting); schedule information kept flowing around the gap.
  EXPECT_EQ(totals.plays_completed, 2);
  EXPECT_GT(totals.blocks_complete, 0);
  // With decluster 2, blocks primaried on cub 3 whose fragments live on cubs
  // 4,5 lose one fragment (cub 4 dead) every lap: persistent partial loss,
  // plus both detection windows.
  EXPECT_GT(totals.lost_blocks, 0);
  EXPECT_EQ(testbed.system().invariant_checker()->violations().size(), 0u);

  // The ring kept flowing: living cubs kept forwarding (bridged over the
  // two dead cubs) and blocks kept being sent after the failures.
  Cub::Counters counters = testbed.system().TotalCubCounters();
  EXPECT_GT(counters.takeovers, 0);
}

TEST(FailureTest, RedundantStartActivatesWhenPrimaryCubDies) {
  // §4.1.3: the controller sends each start to the target cub AND its
  // successor; "when a cub is holding a redundant copy and the cub's
  // predecessor has failed, the cub enters the request into a queue".
  Testbed testbed(SmallConfig(), 37);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(6, Duration::Seconds(60));
  testbed.Start();
  testbed.RunFor(Duration::Seconds(1));

  // Fail the cub that owns file 3's start disk, immediately after the start
  // request is sent — before it can insert.
  const FileInfo& file = testbed.system().catalog().Get(FileId(3));
  CubId primary = testbed.system().config().shape.CubOfDisk(file.start_disk);
  ViewerClient& viewer = testbed.AddViewer(FileId(3));
  testbed.system().FailCubNow(primary);
  testbed.RunFor(Duration::Seconds(30));

  EXPECT_EQ(viewer.stats().plays_started, 1)
      << "the redundant copy must start the stream after deadman detection";
  // Startup took roughly the deadman timeout plus normal startup.
  ASSERT_EQ(viewer.startup_latency().count(), 1u);
  EXPECT_GT(viewer.startup_latency().Mean(), 5.0);
  EXPECT_LT(viewer.startup_latency().Mean(), 15.0);
  EXPECT_EQ(testbed.system().invariant_checker()->violations().size(), 0u);
}

TEST(FailureTest, DetectionLatencyMatchesDeadmanTimeout) {
  Testbed testbed(SmallConfig(), 39);
  testbed.AddContent(1, Duration::Seconds(60));
  testbed.Start();
  testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(5));
  TimePoint cut = testbed.sim().Now();
  testbed.system().FailCubNow(CubId(2));

  // Poll until some cub reports the failure.
  TimePoint detected = TimePoint::Max();
  for (int i = 0; i < 200; ++i) {
    testbed.RunFor(Duration::Millis(100));
    Cub& successor = testbed.system().cub(CubId(3));
    if (successor.failure_view().IsCubFailed(CubId(2))) {
      detected = testbed.sim().Now();
      break;
    }
  }
  ASSERT_NE(detected, TimePoint::Max());
  Duration latency = detected - cut;
  const TigerConfig& config = testbed.system().config();
  EXPECT_GE(latency, config.deadman_timeout);
  EXPECT_LE(latency, config.deadman_timeout + config.heartbeat_interval * 3);
}

TEST(FailureTest, ControlTrafficRoughlyDoublesAtMirroringCub) {
  // §5: "the control traffic in failed mode is roughly double that in
  // non-failed mode".
  TigerConfig config;  // Full 14-cub system.
  Testbed testbed(config, 41);
  testbed.AddContent(16, Duration::Seconds(3600));
  testbed.Start();
  testbed.AddLoopingViewers(140, Duration::Seconds(10));
  testbed.RunFor(Duration::Seconds(30));

  TimePoint b0 = testbed.sim().Now();
  TimePoint a0 = b0 - Duration::Seconds(10);
  double before = testbed.system().CubControlTrafficBps(CubId(8), a0, b0);

  testbed.system().FailCubNow(CubId(7));
  testbed.RunFor(Duration::Seconds(30));
  TimePoint b1 = testbed.sim().Now();
  TimePoint a1 = b1 - Duration::Seconds(10);
  double after = testbed.system().CubControlTrafficBps(CubId(8), a1, b1);

  EXPECT_GT(after, before * 1.5);
  EXPECT_LT(after, before * 3.0);
}

}  // namespace
}  // namespace tiger
