// Unit tests for the schedule invariant checker: each of its five assertions
// fires exactly once per cause, and a persistent violation is reported once.
//
// The checker is driven directly: hooks are called by hand, and the scan runs
// over views seeded with BootstrapRecord on an unstarted system (records go to
// cubs that do not serve them, so no protocol work is scheduled and the views
// stay exactly as placed).

#include <gtest/gtest.h>

#include <vector>

#include "src/core/invariant_checker.h"
#include "src/core/system.h"

namespace tiger {
namespace {

using Kind = InvariantChecker::Kind;

class InvariantCheckerTest : public ::testing::Test {
 protected:
  InvariantCheckerTest() : system_(Config(), 7), checker_(&system_, nullptr) {
    file_ = system_
                .AddFile("content", system_.config().max_stream_bps,
                         system_.config().block_play_time * 60)
                .value();
  }

  static TigerConfig Config() {
    TigerConfig config;
    config.shape = SystemShape{4, 1, 2};
    config.simulate_data_plane = false;
    return config;
  }

  // A primary record for `slot` due at the slot's first serving instant at or
  // after `not_before`, addressed the way BootstrapStreams addresses them.
  ViewerStateRecord Record(uint32_t slot, uint64_t instance, TimePoint not_before) {
    const ScheduleGeometry::ServingEvent serving =
        system_.geometry().SoonestServingDisk(SlotId(slot), not_before);
    const FileInfo& info = system_.catalog().Get(file_);
    const int total_disks = system_.config().shape.TotalDisks();
    ViewerStateRecord record;
    record.viewer = ViewerId(static_cast<uint32_t>(instance));
    record.instance = PlayInstanceId(instance);
    record.file = file_;
    record.position =
        ((static_cast<int64_t>(serving.disk.value()) - info.start_disk.value()) % total_disks +
         total_disks) %
        total_disks;
    record.slot = SlotId(slot);
    record.due = serving.due;
    record.bitrate_bps = system_.config().max_stream_bps;
    return record;
  }

  // Cubs that hold `record` only as a backup (not its serving cub).
  std::vector<CubId> NonServingCubs(const ViewerStateRecord& record) {
    const DiskId disk =
        system_.layout().PrimaryDisk(system_.catalog().Get(record.file), record.position);
    const CubId owner = system_.config().shape.CubOfDisk(disk);
    std::vector<CubId> cubs;
    for (int c = 0; c < system_.cub_count(); ++c) {
      if (CubId(static_cast<uint32_t>(c)) != owner) {
        cubs.push_back(CubId(static_cast<uint32_t>(c)));
      }
    }
    return cubs;
  }

  TimePoint At(int64_t ms) { return TimePoint::Zero() + Duration::Millis(ms); }

  // Advances simulated time past the scan's settle window.
  void Settle() { system_.RunFor(Duration::Millis(400)); }

  void ExpectOnly(Kind kind) {
    EXPECT_EQ(checker_.Count(kind), 1);
    ASSERT_EQ(checker_.violations().size(), 1u);
    EXPECT_EQ(checker_.violations().front().kind, kind);
  }

  TigerSystem system_;
  InvariantChecker checker_;
  FileId file_;
};

TEST_F(InvariantCheckerTest, LiveDoubleBookFiresOncePerConflictingInsert) {
  checker_.OnInsert(SlotId(5), PlayInstanceId(1), At(0));
  checker_.OnInsert(SlotId(6), PlayInstanceId(2), At(1));
  EXPECT_TRUE(checker_.violations().empty());
  checker_.OnInsert(SlotId(5), PlayInstanceId(3), At(2));
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kLiveDoubleBook));
  EXPECT_EQ(checker_.hook_violations(), 1);
  EXPECT_EQ(checker_.scan_violations(), 0);
  // Once both occupants leave, the slot is free again.
  checker_.OnRemove(SlotId(5), PlayInstanceId(1));
  checker_.OnRemove(SlotId(5), PlayInstanceId(3));
  checker_.OnInsert(SlotId(5), PlayInstanceId(4), At(3));
  EXPECT_EQ(checker_.violations().size(), 1u);
  EXPECT_EQ(checker_.insert_count(), 4);
}

TEST_F(InvariantCheckerTest, OffBoundarySendFiresOncePerMistimedSend) {
  const DiskId disk(1);
  const SlotId slot(3);
  const TimePoint due = system_.geometry().NextSlotStart(disk, slot, At(1000));
  checker_.OnPrimarySend(slot, disk, due);
  EXPECT_TRUE(checker_.violations().empty());
  checker_.OnPrimarySend(slot, disk, due + Duration::Millis(1));
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kOffBoundarySend));
  EXPECT_EQ(checker_.violations().front().when, due + Duration::Millis(1));
  EXPECT_EQ(checker_.hook_violations(), 1);
}

TEST_F(InvariantCheckerTest, SettledDoubleBookFiresOnceAndOnlyAfterSettling) {
  const ViewerStateRecord a = Record(2, 101, At(2000));
  const ViewerStateRecord b = Record(2, 102, At(2000));
  ASSERT_EQ(a.due, b.due);
  const std::vector<CubId> holders = NonServingCubs(a);
  system_.cub(holders[0]).BootstrapRecord(a);
  system_.cub(holders[1]).BootstrapRecord(b);

  checker_.CheckNow();
  EXPECT_TRUE(checker_.violations().empty()) << "young entries may disagree";
  Settle();
  checker_.CheckNow();
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kSettledDoubleBook));
  EXPECT_EQ(checker_.scan_violations(), 1);
  // The conflict persists in the views; it is still reported once.
  checker_.CheckNow();
  checker_.CheckNow();
  EXPECT_EQ(checker_.violations().size(), 1u);
  EXPECT_EQ(checker_.checks_run(), 4);
}

TEST_F(InvariantCheckerTest, DueMismatchFiresOncePerDisagreement) {
  const ViewerStateRecord honest = Record(4, 201, At(2000));
  ViewerStateRecord shifted = honest;
  shifted.due = honest.due + Duration::Millis(1);
  const std::vector<CubId> holders = NonServingCubs(honest);
  system_.cub(holders[0]).BootstrapRecord(honest);
  system_.cub(holders[1]).BootstrapRecord(shifted);

  checker_.CheckNow();
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kDueMismatch));
  // Same instance in both views: not a double-booking, however long it sits.
  Settle();
  checker_.CheckNow();
  EXPECT_EQ(checker_.violations().size(), 1u);
}

TEST_F(InvariantCheckerTest, LeadBoundFiresOncePerEarlyRecord) {
  const TigerConfig& config = system_.config();
  const Duration max_lead = config.max_vstate_lead + config.block_play_time * 2;
  const ViewerStateRecord early = Record(6, 301, At(0) + max_lead + Duration::Seconds(1));
  const ViewerStateRecord timely = Record(7, 302, At(2000));
  system_.cub(NonServingCubs(early)[0]).BootstrapRecord(early);
  system_.cub(NonServingCubs(timely)[0]).BootstrapRecord(timely);

  checker_.CheckNow();
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kLeadBound));
  // Leads are judged once, on the first scan after receipt.
  Settle();
  checker_.CheckNow();
  EXPECT_EQ(checker_.violations().size(), 1u);
}

TEST(InvariantCheckerSystemTest, EnableWiresHooksAndScanOnce) {
  TigerConfig config;
  config.shape = SystemShape{4, 1, 2};
  config.simulate_data_plane = false;
  TigerSystem system(config, 9);
  system.EnableInvariantChecker();
  InvariantChecker* checker = system.invariant_checker();
  system.EnableInvariantChecker();
  EXPECT_EQ(system.invariant_checker(), checker) << "enable is idempotent";
  SinkEndpoint sink;
  const NetAddress sink_addr = system.net().Attach(&sink, "sink", config.client_nic_bps);
  const FileId file = system
                          .AddFile("content", config.max_stream_bps,
                                   config.block_play_time * (config.shape.TotalDisks() + 60))
                          .value();
  ASSERT_EQ(system.BootstrapStreams(3, sink_addr, file, config.max_stream_bps), 3);
  system.Start();
  system.RunFor(Duration::Seconds(5));
  EXPECT_EQ(checker->insert_count(), 3);
  EXPECT_EQ(checker->checks_run(), 20);  // One scan per kPeriod.
  EXPECT_GT(system.TotalCubCounters().blocks_sent, 0);
  EXPECT_TRUE(checker->violations().empty());
}

}  // namespace
}  // namespace tiger
