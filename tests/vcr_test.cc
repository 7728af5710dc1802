// VCR controls (pause/resume) and network-schedule invariant fuzzing.

#include <gtest/gtest.h>

#include "src/client/testbed.h"
#include "src/schedule/network_schedule.h"

namespace tiger {
namespace {

TigerConfig SmallConfig() {
  TigerConfig config;
  config.shape = SystemShape{4, 1, 2};
  return config;
}

TEST(VcrTest, PauseAndResumeContinuesFromTheNextBlock) {
  Testbed testbed(SmallConfig(), 101);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(1, Duration::Seconds(40));
  testbed.Start();
  ViewerClient& viewer = testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(12));
  int64_t watched_before_pause = viewer.stats().blocks_complete;
  ASSERT_GT(watched_before_pause, 5);

  viewer.Pause();
  EXPECT_TRUE(viewer.paused());
  testbed.RunFor(Duration::Seconds(20));
  // While paused nothing plays (modulo blocks already in flight).
  EXPECT_LE(viewer.stats().blocks_complete, watched_before_pause + 3);

  viewer.Resume();
  EXPECT_FALSE(viewer.paused());
  testbed.RunFor(Duration::Seconds(45));
  // The viewer ends up having watched the whole file across the two plays
  // (the resumed play re-fetches nothing before the pause point; overlap is
  // at most the in-flight blocks from the pause race).
  EXPECT_GE(viewer.stats().blocks_complete, 40);
  EXPECT_LE(viewer.stats().blocks_complete, 43);
  EXPECT_EQ(viewer.stats().plays_requested, 2);
  EXPECT_EQ(viewer.stats().lost_blocks, 0);
  EXPECT_EQ(testbed.system().invariant_checker()->violations().size(), 0u);
}

TEST(VcrTest, PauseAtTheEndDegradesToStop) {
  Testbed testbed(SmallConfig(), 103);
  testbed.AddContent(1, Duration::Seconds(10));
  testbed.Start();
  ViewerClient& viewer = testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(13));
  // Play finished; pause is a no-op, resume too.
  viewer.Pause();
  EXPECT_FALSE(viewer.paused());
  viewer.Resume();
  testbed.RunFor(Duration::Seconds(5));
  EXPECT_EQ(viewer.stats().plays_requested, 1);
}

TEST(NetworkScheduleFuzz, LoadProfileMatchesRecomputation) {
  // Random insert/remove churn; after every step the incremental difference
  // map must agree with a from-scratch recomputation over all entries.
  Rng rng(11);
  NetworkSchedule schedule(Duration::Seconds(1), 5, Megabits(20));
  struct Live {
    NetworkSchedule::EntryId id;
    int64_t start_us;
    int64_t bps;
  };
  std::vector<Live> live;
  uint64_t next = 1;

  for (int step = 0; step < 400; ++step) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      int64_t start = rng.UniformInt(0, schedule.length().micros() - 1);
      int64_t bps = Megabits(rng.UniformInt(1, 4));
      NetworkSchedule::EntryId id =
          schedule.Insert(Duration::Micros(start), bps, rng.Bernoulli(0.2),
                          ViewerId(static_cast<uint32_t>(next)), PlayInstanceId(next));
      next++;
      live.push_back(Live{id, start, bps});
    } else {
      size_t pick = rng.PickIndex(live.size());
      ASSERT_TRUE(schedule.Remove(live[pick].id));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // Spot-check the profile at random offsets against brute force.
    for (int probe = 0; probe < 5; ++probe) {
      int64_t x = rng.UniformInt(0, schedule.length().micros() - 1);
      int64_t expected = 0;
      for (const Live& entry : live) {
        int64_t rel = (x - entry.start_us) % schedule.length().micros();
        if (rel < 0) {
          rel += schedule.length().micros();
        }
        if (rel < Duration::Seconds(1).micros()) {
          expected += entry.bps;
        }
      }
      ASSERT_EQ(schedule.LoadAt(Duration::Micros(x)), expected)
          << "step " << step << " offset " << x;
    }
  }
  // Drain and confirm the profile returns to zero everywhere.
  for (const Live& entry : live) {
    ASSERT_TRUE(schedule.Remove(entry.id));
  }
  for (int64_t x = 0; x < schedule.length().micros(); x += 250000) {
    EXPECT_EQ(schedule.LoadAt(Duration::Micros(x)), 0);
  }
  EXPECT_EQ(schedule.total_committed_bps(), 0);
}

}  // namespace
}  // namespace tiger
