// Cub-level protocol behaviours exercised by direct message injection.

#include <gtest/gtest.h>

#include <memory>

#include "src/client/testbed.h"

namespace tiger {
namespace {

TigerConfig SmallConfig() {
  TigerConfig config;
  config.shape = SystemShape{4, 1, 2};
  return config;
}

// Builds a testbed with one running stream and returns the testbed.
std::unique_ptr<Testbed> RunningStream(uint64_t seed) {
  auto testbed = std::make_unique<Testbed>(SmallConfig(), seed);
  testbed->system().EnableInvariantChecker();
  testbed->AddContent(2, Duration::Seconds(60));
  testbed->Start();
  testbed->AddViewer(FileId(0));
  testbed->RunFor(Duration::Seconds(8));
  return testbed;
}

TEST(CubProtocolTest, ReplayedBatchIsAbsorbedIdempotently) {
  auto testbed = RunningStream(51);
  TigerSystem& system = testbed->system();
  Cub& target = system.cub(CubId(2));
  const int64_t dups_before = target.counters().records_duplicate;

  // Capture a live record from the cub's own view and replay it at the cub
  // several times, as a flaky sender might.
  ViewerStateRecord captured;
  bool found = false;
  TimePoint now = system.sim().Now();
  const_cast<ScheduleView&>(target.view()).ForEachEntry([&](ScheduleEntry& entry) {
    if (!found && !entry.record.is_mirror() && entry.record.due > now) {
      captured = entry.record;
      found = true;
    }
  });
  ASSERT_TRUE(found);
  for (int i = 0; i < 3; ++i) {
    auto batch = std::make_shared<ViewerStateBatchMsg>();
    batch->Add(captured);
    const int64_t bytes = batch->WireBytes();
    system.net().Send(system.cub(CubId(1)).address(), target.address(), bytes, batch);
  }
  testbed->RunFor(Duration::Seconds(1));
  EXPECT_EQ(target.counters().records_duplicate, dups_before + 3);
  EXPECT_EQ(target.counters().records_conflict, 0);

  testbed->RunFor(Duration::Seconds(60));
  EXPECT_EQ(testbed->TotalClientStats().lost_blocks, 0);
  EXPECT_EQ(system.invariant_checker()->violations().size(), 0u);
}

TEST(CubProtocolTest, DuplicateDescheduleForwardedOnlyOnce) {
  auto testbed = RunningStream(53);
  TigerSystem& system = testbed->system();

  // Find the stream's identity from a cub view.
  ViewerStateRecord captured;
  bool found = false;
  for (int c = 0; c < 4 && !found; ++c) {
    const_cast<ScheduleView&>(system.cub(CubId(static_cast<uint32_t>(c))).view())
        .ForEachEntry([&](ScheduleEntry& entry) {
          if (!found && !entry.record.is_mirror()) {
            captured = entry.record;
            found = true;
          }
        });
  }
  ASSERT_TRUE(found);

  auto deschedule = std::make_shared<DescheduleMsg>();
  deschedule->record =
      DescheduleRecord{captured.viewer, captured.instance, captured.slot};
  Cub& target = system.cub(CubId(0));
  const int64_t received_before = target.counters().deschedules_received;
  for (int i = 0; i < 4; ++i) {
    system.net().Send(system.controller().address(), target.address(),
                      DescheduleMsg::WireBytes(), deschedule);
  }
  testbed->RunFor(Duration::Seconds(2));
  // At least our 4 copies (ring forwarding may add more); all were absorbed.
  EXPECT_GE(target.counters().deschedules_received, received_before + 4);
  testbed->RunFor(Duration::Seconds(10));
  Cub::Counters totals = system.TotalCubCounters();
  EXPECT_GT(totals.deschedules_applied, 0);
  // The stream is dead everywhere: no further blocks flow.
  int64_t blocks = testbed->TotalClientStats().blocks_complete;
  testbed->RunFor(Duration::Seconds(5));
  EXPECT_EQ(testbed->TotalClientStats().blocks_complete, blocks);
  EXPECT_EQ(totals.records_conflict, 0);
  EXPECT_EQ(system.invariant_checker()->violations().size(), 0u);
}

TEST(CubProtocolTest, ViewsStayBounded) {
  // §4: "participants' views be limited to a size that does not grow as a
  // function of the scale of the system". Run long and check entry counts
  // stay near (streams/cub) x (lead window + retention).
  TigerConfig config = SmallConfig();
  Testbed testbed(config, 55);
  testbed.AddContent(4, Duration::Seconds(300));
  testbed.Start();
  for (int i = 0; i < 8; ++i) {
    testbed.AddViewer(FileId(static_cast<uint32_t>(i % 4)));
  }
  testbed.RunFor(Duration::Seconds(60));
  size_t max_entries = 0;
  for (int c = 0; c < 4; ++c) {
    max_entries =
        std::max(max_entries, testbed.system().cub(CubId(static_cast<uint32_t>(c)))
                                  .view()
                                  .entry_count());
  }
  // 8 streams over 4 cubs = 2/cub; window ~ (9 s lead + 8 s retention + own
  // service) ~ records per stream per cub (served + backup): tens, never
  // hundreds.
  EXPECT_LE(max_entries, 100u);
  EXPECT_GT(max_entries, 0u);
}

TEST(CubProtocolTest, BufferPoolNeverOverflowsOrLeaks) {
  TigerConfig config = SmallConfig();
  Testbed testbed(config, 57);
  testbed.AddContent(2, Duration::Seconds(30));
  testbed.Start();
  testbed.AddViewer(FileId(0));
  testbed.AddViewer(FileId(1));
  testbed.RunFor(Duration::Seconds(45));
  for (int c = 0; c < 4; ++c) {
    Cub& cub = testbed.system().cub(CubId(static_cast<uint32_t>(c)));
    EXPECT_EQ(cub.free_buffer_bytes(), config.buffer_pool_bytes)
        << "all buffers must return to the pool after the plays end (cub " << c << ")";
  }
}

TEST(CubProtocolTest, StartRequestDedupAcrossPrimaryAndRedundant) {
  // Directly deliver the same start to two cubs (primary + redundant) and
  // confirm only one insertion happens.
  TigerConfig config = SmallConfig();
  Testbed testbed(config, 59);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(1, Duration::Seconds(30));
  testbed.Start();
  TigerSystem& system = testbed.system();
  const FileInfo& file = system.catalog().Get(FileId(0));
  CubId primary = config.shape.CubOfDisk(file.start_disk);
  CubId backup = config.shape.NextCub(primary);

  auto start = std::make_shared<StartPlayMsg>();
  start->viewer = ViewerId(77);
  start->client_address = system.cub(CubId(0)).address();  // Sink anywhere.
  start->instance = PlayInstanceId(4242);
  start->file = FileId(0);
  start->bitrate_bps = Megabits(2);
  auto redundant = std::make_shared<StartPlayMsg>(*start);
  redundant->redundant = true;

  NetAddress from = system.controller().address();
  system.net().Send(from, system.cub(primary).address(), StartPlayMsg::WireBytes(), start);
  system.net().Send(from, system.cub(backup).address(), StartPlayMsg::WireBytes(), redundant);
  testbed.RunFor(Duration::Seconds(10));

  Cub::Counters totals = system.TotalCubCounters();
  EXPECT_EQ(totals.inserts, 1);
  EXPECT_EQ(system.invariant_checker()->violations().size(), 0u);
}

}  // namespace
}  // namespace tiger
