// Unit tests for the schedule checker's five §4 invariants: each fires
// exactly once per cause and no other class fires with it, and a persistent
// violation is reported once. (The lineage classes are in audit_test.cc;
// both suites share tests/checker_fixture.h.)

#include <gtest/gtest.h>

#include <vector>

#include "tests/checker_fixture.h"

namespace tiger {
namespace {

using InvariantCheckerTest = CheckerTest;

TEST_F(InvariantCheckerTest, LiveDoubleBookFiresOncePerConflictingInsert) {
  checker_.OnInsert(SlotId(5), PlayInstanceId(1), At(0));
  checker_.OnInsert(SlotId(6), PlayInstanceId(2), At(1));
  EXPECT_TRUE(checker_.violations().empty());
  checker_.OnInsert(SlotId(5), PlayInstanceId(3), At(2));
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kLiveDoubleBook));
  // Once both occupants leave, the slot is free again.
  checker_.OnRemove(SlotId(5), PlayInstanceId(1));
  checker_.OnRemove(SlotId(5), PlayInstanceId(3));
  checker_.OnInsert(SlotId(5), PlayInstanceId(4), At(3));
  EXPECT_EQ(checker_.violations().size(), 1u);
  EXPECT_EQ(checker_.insert_count(), 4);
}

TEST_F(InvariantCheckerTest, OffBoundarySendFiresOncePerMistimedSend) {
  const DiskId disk(1);
  ViewerStateRecord record;
  record.instance = PlayInstanceId(11);
  record.slot = SlotId(3);
  record.due = system_.geometry().NextSlotStart(disk, record.slot, At(1000));
  const TimePoint due = record.due;
  checker_.OnPrimarySend(1, record, disk);
  EXPECT_TRUE(checker_.violations().empty());
  record.due = due + Duration::Millis(1);
  checker_.OnPrimarySend(1, record, disk);
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kOffBoundarySend));
  EXPECT_EQ(checker_.violations().front().when, due + Duration::Millis(1));
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
  const Duration max_lead = config().max_vstate_lead + config().block_play_time * 2;
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

TEST_F(InvariantCheckerTest, LeadBoundOnReceiptAndInTheViewIsOneFinding) {
  // The receive hook and the scan both judge an early record; one cause is
  // one finding.
  const Duration max_lead = config().max_vstate_lead + config().block_play_time * 2;
  const ViewerStateRecord early = Record(6, 303, At(0) + max_lead + Duration::Seconds(1));
  const CubId holder = NonServingCubs(early)[0];
  system_.cub(holder).BootstrapRecord(early);
  checker_.OnRecordReceived(Now(), holder.value(), early, ScheduleView::ApplyResult::kNew);
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kLeadBound));
  checker_.CheckNow();
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kLeadBound));
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
  EXPECT_GT(checker->forwards_observed(), 0) << "lineage hooks are wired too";
  EXPECT_GT(system.TotalCubCounters().blocks_sent, 0);
  EXPECT_TRUE(checker->violations().empty()) << checker->ReportJson();
}

}  // namespace
}  // namespace tiger
