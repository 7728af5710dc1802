// TigerSystem aggregate metrics and fault-injection plumbing.

#include <gtest/gtest.h>

#include "src/client/testbed.h"

namespace tiger {
namespace {

TigerConfig SmallConfig() {
  TigerConfig config;
  config.shape = SystemShape{4, 2, 2};
  return config;
}

TEST(SystemMetricsTest, UtilizationWindowsAreConsistent) {
  Testbed testbed(SmallConfig(), 121);
  testbed.AddContent(4, Duration::Seconds(120));
  testbed.Start();
  testbed.AddLoopingViewers(12, Duration::Seconds(5));
  testbed.RunFor(Duration::Seconds(30));

  TimePoint b = testbed.sim().Now();
  TimePoint a = b - Duration::Seconds(10);
  TigerSystem& system = testbed.system();
  double cpu = system.MeanCubCpu(a, b);
  double disks = system.MeanDiskUtilization(a, b);
  EXPECT_GT(cpu, 0.0);
  EXPECT_LT(cpu, 1.0);
  EXPECT_GT(disks, 0.0);
  EXPECT_LT(disks, 1.0);
  // The per-cub variant averages to something near the system mean.
  double sum = 0;
  for (int c = 0; c < 4; ++c) {
    sum += system.CubDiskUtilization(CubId(static_cast<uint32_t>(c)), a, b);
  }
  EXPECT_NEAR(sum / 4.0, disks, 0.02);
  EXPECT_GT(system.CubControlTrafficBps(CubId(0), a, b), 0.0);
  EXPECT_GT(system.ControllerCpu(a, b), 0.0);
}

TEST(SystemMetricsTest, FailedCubsExcludedFromAggregates) {
  Testbed testbed(SmallConfig(), 123);
  testbed.AddContent(2, Duration::Seconds(120));
  testbed.Start();
  testbed.AddLoopingViewers(6, Duration::Seconds(3));
  testbed.RunFor(Duration::Seconds(10));
  testbed.system().FailCubNow(CubId(1));
  EXPECT_TRUE(testbed.system().IsCubFailed(CubId(1)));
  testbed.RunFor(Duration::Seconds(20));
  // Aggregates over a window past the failure still compute cleanly and
  // reflect only living machines.
  TimePoint b = testbed.sim().Now();
  TimePoint a = b - Duration::Seconds(5);
  EXPECT_GT(testbed.system().MeanCubCpu(a, b), 0.0);
  EXPECT_GT(testbed.system().MeanDiskUtilization(a, b), 0.0);
}

TEST(SystemMetricsTest, ScheduledFaultInjectionFires) {
  Testbed testbed(SmallConfig(), 125);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(2, Duration::Seconds(60));
  testbed.Start();
  testbed.AddViewer(FileId(0));
  // Disk failure scheduled in the future, then observed.
  testbed.system().FailDiskAt(testbed.sim().Now() + Duration::Seconds(5), DiskId(2));
  testbed.RunFor(Duration::Seconds(12));
  // Disk 2 is on cub 2; its cub is alive but the disk is marked failed
  // everywhere once the notice propagates.
  EXPECT_FALSE(testbed.system().IsCubFailed(CubId(2)));
  EXPECT_TRUE(
      testbed.system().cub(CubId(0)).failure_view().IsDiskFailed(DiskId(2)));
  EXPECT_TRUE(
      testbed.system().cub(CubId(3)).failure_view().IsDiskFailed(DiskId(2)));
}

}  // namespace
}  // namespace tiger
