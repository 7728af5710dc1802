// Seek support (play from an arbitrary block) and the block buffer cache.

#include <gtest/gtest.h>

#include "src/client/testbed.h"
#include "src/layout/restripe_sim.h"

namespace tiger {
namespace {

TigerConfig SmallConfig() {
  TigerConfig config;
  config.shape = SystemShape{4, 1, 2};
  return config;
}

TEST(SeekTest, PlayFromMidFile) {
  Testbed testbed(SmallConfig(), 61);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(1, Duration::Seconds(40));
  testbed.Start();

  ViewerClient& viewer = testbed.AddViewer(FileId(0));  // Whole file, for contrast.
  auto seeker = std::make_unique<ViewerClient>(&testbed.sim(), ViewerId(900),
                                               &testbed.system().config(),
                                               &testbed.system().catalog(),
                                               &testbed.system().net());
  seeker->SetAddressBook(&testbed.system().addresses());
  seeker->RequestPlay(FileId(0), /*start_position=*/30);
  testbed.RunFor(Duration::Seconds(50));

  EXPECT_EQ(seeker->stats().plays_started, 1);
  EXPECT_EQ(seeker->stats().plays_completed, 1);
  EXPECT_EQ(seeker->stats().blocks_complete, 10) << "seek to block 30 of 40 plays 10 blocks";
  EXPECT_EQ(seeker->stats().lost_blocks, 0);
  EXPECT_EQ(viewer.stats().blocks_complete, 40);
  EXPECT_EQ(testbed.system().invariant_checker()->violations().size(), 0u);
}

TEST(SeekTest, SeekNearEndOfFile) {
  Testbed testbed(SmallConfig(), 63);
  testbed.AddContent(1, Duration::Seconds(20));
  testbed.Start();
  auto viewer = std::make_unique<ViewerClient>(&testbed.sim(), ViewerId(901),
                                               &testbed.system().config(),
                                               &testbed.system().catalog(),
                                               &testbed.system().net());
  viewer->SetAddressBook(&testbed.system().addresses());
  viewer->RequestPlay(FileId(0), /*start_position=*/19);
  testbed.RunFor(Duration::Seconds(15));
  EXPECT_EQ(viewer->stats().blocks_complete, 1);
  EXPECT_EQ(viewer->stats().plays_completed, 1);
}

TEST(SeekTest, StopAfterSeekRoutesDescheduleCorrectly) {
  Testbed testbed(SmallConfig(), 65);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(1, Duration::Seconds(60));
  testbed.Start();
  auto viewer = std::make_unique<ViewerClient>(&testbed.sim(), ViewerId(902),
                                               &testbed.system().config(),
                                               &testbed.system().catalog(),
                                               &testbed.system().net());
  viewer->SetAddressBook(&testbed.system().addresses());
  viewer->RequestPlay(FileId(0), /*start_position=*/25);
  testbed.RunFor(Duration::Seconds(10));
  int64_t blocks_at_stop = viewer->stats().blocks_complete;
  EXPECT_GT(blocks_at_stop, 4);
  viewer->RequestStop();
  testbed.RunFor(Duration::Seconds(10));
  // Delivery stops promptly: the controller found the right serving cub even
  // though the play began mid-file.
  EXPECT_LE(viewer->stats().blocks_complete, blocks_at_stop + 3);
  EXPECT_GT(testbed.system().TotalCubCounters().deschedules_applied, 0);
}

TEST(CacheIntegrationTest, PhaseLockedViewersShareBlocks) {
  // Two viewers starting the same file within the cache residence window:
  // the follower's blocks come from memory, halving that file's disk reads.
  TigerConfig config = SmallConfig();
  config.block_cache_bytes = 20LL * 1024 * 1024;
  Testbed testbed(config, 67);
  testbed.AddContent(1, Duration::Seconds(30));
  testbed.Start();
  testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Millis(300));
  testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(45));

  EXPECT_EQ(testbed.TotalClientStats().blocks_complete, 60);
  EXPECT_EQ(testbed.TotalClientStats().lost_blocks, 0);
  EXPECT_GT(testbed.system().BlockCacheHitRate(), 0.25);
}

TEST(CacheIntegrationTest, DisabledCacheNeverHits) {
  Testbed testbed(SmallConfig(), 69);  // Default: cache off.
  testbed.AddContent(1, Duration::Seconds(20));
  testbed.Start();
  testbed.AddViewer(FileId(0));
  testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(30));
  EXPECT_DOUBLE_EQ(testbed.system().BlockCacheHitRate(), 0.0);
  EXPECT_EQ(testbed.TotalClientStats().lost_blocks, 0);
}

TEST(RestripeSimTest, ExecutesEveryMove) {
  Catalog catalog(Duration::Seconds(1), 262144, true);
  (void)catalog.AddFile("m", Megabits(2), Duration::Seconds(240), DiskId(0));
  StripeLayout old_layout(SystemShape{4, 2, 2});
  StripeLayout new_layout(SystemShape{6, 2, 2});
  RestripePlan plan = PlanRestripe(catalog, old_layout, new_layout);
  ASSERT_GT(plan.moves.size(), 0u);

  RestripeSimResult result = SimulateRestripe(plan, SystemShape{6, 2, 2}, RestripeSimOptions{});
  EXPECT_EQ(result.moves_executed, static_cast<int64_t>(plan.moves.size()));
  EXPECT_EQ(result.bytes_moved, plan.total_bytes_moved);
  EXPECT_GT(result.completion_time, Duration::Zero());
  EXPECT_LE(result.max_disk_utilization, 1.0 + 1e-9);
  EXPECT_LE(result.max_nic_utilization, 1.0 + 1e-9);
}

TEST(RestripeSimTest, CompletionBoundedByBusiestResource) {
  Catalog catalog(Duration::Seconds(1), 262144, true);
  (void)catalog.AddFile("m", Megabits(2), Duration::Seconds(480), DiskId(1));
  SystemShape new_shape{6, 2, 2};
  RestripePlan plan =
      PlanRestripe(catalog, StripeLayout(SystemShape{4, 2, 2}), StripeLayout(new_shape));
  RestripeSimOptions options;
  RestripeSimResult result = SimulateRestripe(plan, new_shape, options);
  // The busiest disk's work alone is a lower bound on completion.
  const double per_byte_floor =
      1.0 / static_cast<double>(options.disk_model.outer_zone_bytes_per_sec);
  const double busiest_disk_bytes = static_cast<double>(
      std::max(plan.max_bytes_out_per_disk, plan.max_bytes_in_per_disk));
  EXPECT_GE(result.completion_time.seconds(), busiest_disk_bytes * per_byte_floor * 0.9);
}

}  // namespace
}  // namespace tiger
