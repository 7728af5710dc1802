// Schedule checker lineage tests: shadow-schedule diffing, lineage
// reassembly, and mutation runs proving each lineage class is caught — and
// only when its defect is actually present.
//
// Two layers:
//  * unit tests drive the lineage hooks directly on a checker over an
//    unstarted system (tests/checker_fixture.h, shared with
//    invariant_checker_test), checking the shadow arithmetic and each class
//    in isolation; every mutation test asserts that exactly its class fired
//    across the full class list;
//  * system tests enable the checker on a full testbed and prove the healthy
//    protocol is coherent (zero findings) while the built-in self-check
//    corruption (Cub::InjectAuditCorruption) is caught as exactly a due
//    mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/client/testbed.h"
#include "tests/checker_fixture.h"

namespace tiger {
namespace {

class AuditTest : public CheckerTest {
 protected:
  // Builds a lineage-tagged primary record on `chain_origin`'s chain.
  ViewerStateRecord MakeRecord(int64_t sequence, uint32_t chain_origin = 0,
                               uint32_t epoch = 1) {
    ViewerStateRecord record;
    record.viewer = ViewerId(17);
    record.instance = PlayInstanceId(500);
    record.file = FileId(3);
    record.slot = SlotId(9);
    record.sequence = sequence;
    record.position = 100 + sequence;
    record.due = base_due_ + config().block_play_time * sequence;
    record.lineage.origin_cub = chain_origin;
    record.lineage.epoch = epoch;
    record.lineage.hop_count = static_cast<uint16_t>(sequence);
    record.lineage.lamport = static_cast<uint64_t>(sequence) + 1;
    record.lineage.MarkTagged();
    return record;
  }

  TimePoint base_due_ = TimePoint::Zero() + Duration::Seconds(5);
};

TEST_F(AuditTest, HealthyChainProducesNoDivergence) {
  // Mint at cub 0, forward 0->1, receive at 1, forward 1->2, receive at 2 —
  // a clean trip along the shared arithmetic.
  ViewerStateRecord r0 = MakeRecord(0);
  checker_.OnRecordCreated(Now(), 0, CreateKind::kInsert, r0, RecordLineage{});
  checker_.OnRecordForwarded(Now(), 0, 1, r0);
  ViewerStateRecord r1 = MakeRecord(1);
  checker_.OnRecordReceived(Now(), 1, r0, ScheduleView::ApplyResult::kNew);
  checker_.OnRecordForwarded(Now(), 1, 2, r1);
  checker_.OnRecordReceived(Now(), 2, r1, ScheduleView::ApplyResult::kNew);

  checker_.CheckNow();
  EXPECT_TRUE(checker_.healthy());
  EXPECT_EQ(checker_.total(), 0);
  EXPECT_EQ(checker_.chains_seen(), 1);
  EXPECT_EQ(checker_.forwards_observed(), 2);
  EXPECT_EQ(checker_.forwards_delivered(), 2);
}

TEST_F(AuditTest, DoubleForwardedRecordCountsOnceObservedAndOnceDelivered) {
  // §4.1.1: a cub forwards each record to its successor and its second
  // successor. Both copies arriving is one healthy delivery of one record,
  // so the two counters must agree instead of reading like 50% loss.
  ViewerStateRecord r0 = MakeRecord(0);
  checker_.OnRecordCreated(Now(), 0, CreateKind::kInsert, r0, RecordLineage{});
  checker_.OnRecordForwarded(Now(), 0, 1, r0);
  checker_.OnRecordForwarded(Now(), 0, 2, r0);
  checker_.OnRecordReceived(Now(), 1, r0, ScheduleView::ApplyResult::kNew);
  checker_.OnRecordReceived(Now(), 2, r0, ScheduleView::ApplyResult::kNew);

  checker_.CheckNow();
  EXPECT_TRUE(checker_.healthy());
  EXPECT_EQ(checker_.forwards_observed(), 1);
  EXPECT_EQ(checker_.forwards_delivered(), 1);
}

TEST_F(AuditTest, CorruptedDueIsFlaggedAsDueMismatchOnly) {
  ViewerStateRecord r0 = MakeRecord(0);
  checker_.OnRecordCreated(Now(), 0, CreateKind::kInsert, r0, RecordLineage{});
  // The successor record arrives 1 ms off the chain's linear arithmetic.
  ViewerStateRecord r1 = MakeRecord(1);
  r1.due = r1.due + Duration::Millis(1);
  checker_.OnRecordReceived(Now(), 1, r1, ScheduleView::ApplyResult::kNew);

  EXPECT_FALSE(checker_.healthy());
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kDueMismatch));
  ASSERT_EQ(checker_.violations().size(), 1u);
  EXPECT_EQ(checker_.violations()[0].cub, 1);
  EXPECT_EQ(checker_.violations()[0].sequence, 1);
}

TEST_F(AuditTest, CorruptedPositionIsAlsoADueMismatch) {
  ViewerStateRecord r0 = MakeRecord(0);
  checker_.OnRecordCreated(Now(), 0, CreateKind::kInsert, r0, RecordLineage{});
  ViewerStateRecord r1 = MakeRecord(1);
  r1.position += 7;  // Due is right, position is not: still incoherent.
  checker_.OnRecordReceived(Now(), 1, r1, ScheduleView::ApplyResult::kNew);
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kDueMismatch));
}

TEST_F(AuditTest, MirrorFragmentsOffTheirLaneAreFlagged) {
  const int dc = config().shape.decluster_factor;
  const Duration play = config().block_play_time;
  // A healthy declustered lane: fragment j due at base + j*play/dc (exact
  // telescoping integer arithmetic, same as Cub::MirrorFragmentSpacing).
  for (int j = 0; j < dc; ++j) {
    ViewerStateRecord frag = MakeRecord(j);
    frag.mirror_fragment = j;
    frag.position = 100;  // Fragments of one block share its position.
    frag.due = base_due_ + Duration::Micros(static_cast<int64_t>(j) * play.micros() / dc);
    checker_.OnRecordReceived(Now(), 2, frag, ScheduleView::ApplyResult::kNew);
  }
  EXPECT_TRUE(checker_.healthy()) << "exact lane spacing must not be flagged";

  // Now a fragment 1 ms off its lane.
  ViewerStateRecord bad = MakeRecord(dc);
  bad.mirror_fragment = 0;
  bad.position = 200;  // New block, new lane...
  bad.due = base_due_ + Duration::Seconds(2);
  checker_.OnRecordReceived(Now(), 2, bad, ScheduleView::ApplyResult::kNew);
  ViewerStateRecord bad2 = MakeRecord(dc + 1);
  bad2.mirror_fragment = 1;
  bad2.position = 200;
  bad2.due = bad.due + Duration::Micros(play.micros() / dc) + Duration::Millis(1);
  checker_.OnRecordReceived(Now(), 2, bad2, ScheduleView::ApplyResult::kNew);
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kMirrorScheduleMismatch));
}

TEST_F(AuditTest, ViewConflictIsStaleOwnership) {
  ViewerStateRecord r0 = MakeRecord(0);
  checker_.OnRecordReceived(Now(), 3, r0, ScheduleView::ApplyResult::kConflict);
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kStaleOwnership));
}

TEST_F(AuditTest, DoubleInsertionOfOneSlotPassIsStaleOwnership) {
  // Two different play instances inserted for the same slot at the same due
  // time — the §4.1.3 ownership race the protocol must prevent.
  ViewerStateRecord a = MakeRecord(0, /*chain_origin=*/0, /*epoch=*/1);
  checker_.OnRecordCreated(Now(), 0, CreateKind::kInsert, a, RecordLineage{});
  ViewerStateRecord b = MakeRecord(0, /*chain_origin=*/5, /*epoch=*/1);
  b.instance = PlayInstanceId(501);
  checker_.OnRecordCreated(Now(), 5, CreateKind::kInsert, b, RecordLineage{});
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kStaleOwnership));
}

TEST_F(AuditTest, ExcessiveLeadIsFlagged) {
  ViewerStateRecord r0 = MakeRecord(0);
  r0.due = TimePoint::Zero() + config().max_vstate_lead + config().block_play_time * 2 +
           Duration::Millis(1);
  checker_.OnRecordReceived(Now(), 1, r0, ScheduleView::ApplyResult::kNew);
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kLeadBound));
}

TEST_F(AuditTest, LostForwardIsFlaggedOnlyWhenTheChainNeverAdvances) {
  // Use a sequence >= 1: forwarding the successor record raises the chain's
  // max seen sequence to exactly that sequence, and the lost-vs-rescued
  // verdict must not read the chain as having advanced *past* it.
  ViewerStateRecord r0 = MakeRecord(0);
  checker_.OnRecordCreated(Now(), 0, CreateKind::kInsert, r0, RecordLineage{});
  ViewerStateRecord r1 = MakeRecord(1);
  checker_.OnRecordForwarded(Now(), 0, 1, r1);
  checker_.OnRecordForwarded(Now(), 0, 2, r1);

  // Within the horizon nothing is judged yet.
  RunFor(Duration::Seconds(5));
  checker_.CheckNow();
  EXPECT_TRUE(checker_.healthy());

  // Past the horizon with no receipt anywhere and no later sequence: lost.
  RunFor(Duration::Seconds(5));
  checker_.CheckNow();
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kTrulyLostRecord));
  EXPECT_EQ(checker_.rescued_by_second_successor(), 0);
  ASSERT_EQ(checker_.violations().size(), 1u);
  EXPECT_EQ(checker_.violations()[0].sequence, 1);
}

TEST_F(AuditTest, PartialDeliveryCountsAsRescuedNotLost) {
  ViewerStateRecord r0 = MakeRecord(0);
  checker_.OnRecordCreated(Now(), 0, CreateKind::kInsert, r0, RecordLineage{});
  checker_.OnRecordForwarded(Now(), 0, 1, r0);
  checker_.OnRecordForwarded(Now(), 0, 2, r0);
  // Only the second successor's copy arrives — §4.1.1's redundancy working.
  checker_.OnRecordReceived(Now(), 2, r0, ScheduleView::ApplyResult::kNew);

  RunFor(Duration::Seconds(10));
  checker_.CheckNow();
  EXPECT_TRUE(checker_.healthy());
  EXPECT_EQ(checker_.rescued_by_second_successor(), 1);
}

TEST_F(AuditTest, RegeneratedDownstreamCountsAsRescued) {
  ViewerStateRecord r0 = MakeRecord(0);
  checker_.OnRecordCreated(Now(), 0, CreateKind::kInsert, r0, RecordLineage{});
  checker_.OnRecordForwarded(Now(), 0, 1, r0);
  // Both copies vanish, but takeover regenerated the chain past sequence 0.
  ViewerStateRecord r2 = MakeRecord(2);
  checker_.OnRecordReceived(Now(), 3, r2, ScheduleView::ApplyResult::kNew);

  RunFor(Duration::Seconds(10));
  checker_.CheckNow();
  EXPECT_TRUE(checker_.healthy());
  EXPECT_EQ(checker_.rescued_by_second_successor(), 1);
}

TEST_F(AuditTest, DuplicateFreshHoldIsFlagged) {
  // Anchor the instance in schedule evidence so the kill is not an orphan.
  ViewerStateRecord r0 = MakeRecord(0);
  checker_.OnRecordCreated(Now(), 0, CreateKind::kInsert, r0, RecordLineage{});

  DescheduleRecord kill{ViewerId(17), PlayInstanceId(500), SlotId(9)};
  checker_.OnKill(Now(), 1, kill, RecordLineage{}, /*new_hold=*/true);
  checker_.OnKill(Now(), 2, kill, RecordLineage{}, /*new_hold=*/true);
  // Refreshes (new_hold=false) and fresh holds at other cubs are benign.
  checker_.OnKill(Now(), 1, kill, RecordLineage{}, /*new_hold=*/false);
  EXPECT_TRUE(checker_.healthy());

  // A second *fresh* hold at cub 1 means the kill outlived its own hold.
  checker_.OnKill(Now(), 1, kill, RecordLineage{}, /*new_hold=*/true);
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kDuplicateKill));
}

TEST_F(AuditTest, OrphanKillIsFlaggedAfterTheHorizon) {
  // A slot-targeted kill naming an instance no schedule evidence ever names.
  DescheduleRecord kill{ViewerId(40), PlayInstanceId(999), SlotId(4)};
  checker_.OnKill(Now(), 0, kill, RecordLineage{}, /*new_hold=*/true);
  checker_.CheckNow();
  EXPECT_TRUE(checker_.healthy()) << "not an orphan until the horizon passes";

  RunFor(Duration::Seconds(11));
  checker_.CheckNow();
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kOrphanKill));
}

TEST_F(AuditTest, QueuePurgeKillWithoutSlotIsNeverAnOrphan) {
  // The controller's broadcast purge for unconfirmed plays carries no slot;
  // it legitimately names instances no schedule evidence knows.
  DescheduleRecord kill{ViewerId(41), PlayInstanceId(1000), SlotId::Invalid()};
  checker_.OnKill(Now(), 0, kill, RecordLineage{}, /*new_hold=*/true);
  RunFor(Duration::Seconds(11));
  checker_.CheckNow();
  EXPECT_TRUE(checker_.healthy());
}

TEST_F(AuditTest, KilledInstanceReenteringAViewIsAResurrection) {
  ViewerStateRecord r0 = MakeRecord(0);
  checker_.OnRecordCreated(Now(), 0, CreateKind::kInsert, r0, RecordLineage{});
  DescheduleRecord kill{ViewerId(17), PlayInstanceId(500), SlotId(9)};
  checker_.OnKill(Now(), 1, kill, RecordLineage{}, /*new_hold=*/true);

  RunFor(Duration::Seconds(1));
  // Cub 2 never applied the kill: a late record applying there is benign
  // (the in-flight window §4.1.2's holds exist for).
  ViewerStateRecord r1 = MakeRecord(1);
  checker_.OnRecordReceived(Now(), 2, r1, ScheduleView::ApplyResult::kNew);
  EXPECT_TRUE(checker_.healthy());
  // Cub 1 applied the kill, yet accepted a fresh record of the instance.
  ViewerStateRecord r2 = MakeRecord(2);
  checker_.OnRecordReceived(Now(), 1, r2, ScheduleView::ApplyResult::kNew);
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kResurrection));
}

TEST_F(AuditTest, TtlDropIsFlaggedAndResolvesThePendingForward) {
  ViewerStateRecord r0 = MakeRecord(0);
  r0.lineage.hop_count = 1000;  // Far beyond sequence + slack.
  checker_.OnRecordForwarded(Now(), 0, 1, r0);
  checker_.OnRecordTtlDropped(Now(), 1, r0);
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kTtlExceeded));

  // The drop proved delivery: no truly-lost verdict later.
  RunFor(Duration::Seconds(10));
  checker_.CheckNow();
  ASSERT_NO_FATAL_FAILURE(ExpectOnly(Kind::kTtlExceeded));
}

TEST_F(AuditTest, LineageReassemblyAndQueries) {
  ViewerStateRecord r0 = MakeRecord(0);
  checker_.OnRecordCreated(Now(), 0, CreateKind::kInsert, r0, RecordLineage{});
  checker_.OnRecordForwarded(Now(), 0, 1, r0);
  RunFor(Duration::Millis(3));
  checker_.OnRecordReceived(Now(), 1, r0, ScheduleView::ApplyResult::kNew);

  const uint64_t chain = r0.lineage.ChainId();
  auto chains = checker_.ChainsOfViewer(ViewerId(17));
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0], chain);
  EXPECT_TRUE(checker_.ChainsOfViewer(ViewerId(99)).empty());

  const auto* hops = checker_.ChainHops(chain);
  ASSERT_NE(hops, nullptr);
  ASSERT_EQ(hops->size(), 3u);
  EXPECT_EQ((*hops)[0].kind, InvariantChecker::HopKind::kCreated);
  EXPECT_EQ((*hops)[1].kind, InvariantChecker::HopKind::kForwarded);
  EXPECT_EQ((*hops)[1].peer, 1);
  EXPECT_EQ((*hops)[2].kind, InvariantChecker::HopKind::kReceived);
  EXPECT_EQ((*hops)[2].cub, 1u);
  EXPECT_EQ(checker_.ChainHops(0xdeadbeef), nullptr);

  const std::string trip = checker_.ViewerLineage(ViewerId(17));
  EXPECT_NE(trip.find("viewer 17"), std::string::npos);
  EXPECT_NE(trip.find("create"), std::string::npos);
  EXPECT_NE(trip.find("forward"), std::string::npos);
  EXPECT_NE(trip.find("receive"), std::string::npos);

  const std::string csv = checker_.LineageCsv();
  EXPECT_EQ(csv.compare(0, 6, "chain,"), 0);
  // Header + three hop rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST_F(AuditTest, KillMessageLineageIsReassembledAcrossCubs) {
  ViewerStateRecord r0 = MakeRecord(0);
  checker_.OnRecordCreated(Now(), 0, CreateKind::kInsert, r0, RecordLineage{});

  // A controller-minted kill applied at cub 1, then forwarded (hop count
  // advanced, Lamport restamped) and applied at cub 2.
  RecordLineage kl;
  kl.origin_cub = kControllerLineageOrigin;
  kl.epoch = 3;
  kl.lamport = 10;
  kl.MarkTagged();
  DescheduleRecord kill{ViewerId(17), PlayInstanceId(500), SlotId(9)};
  checker_.OnKill(Now(), 1, kill, kl, /*new_hold=*/true);
  kl.hop_count = 1;
  kl.lamport = 11;
  checker_.OnKill(Now(), 2, kill, kl, /*new_hold=*/true);

  const auto* hops = checker_.KillHops(PlayInstanceId(500));
  ASSERT_NE(hops, nullptr);
  ASSERT_EQ(hops->size(), 2u);
  EXPECT_EQ((*hops)[0].kind, InvariantChecker::HopKind::kKillApplied);
  EXPECT_EQ((*hops)[0].cub, 1u);
  EXPECT_EQ((*hops)[0].hop_count, 0u);
  EXPECT_EQ((*hops)[1].cub, 2u);
  EXPECT_EQ((*hops)[1].hop_count, 1u);
  EXPECT_EQ((*hops)[1].lamport, 11u);
  EXPECT_EQ(checker_.KillHops(PlayInstanceId(9999)), nullptr);

  // The kill's trip exports under its own controller chain.
  const std::string csv = checker_.LineageCsv();
  EXPECT_NE(csv.find(",kill,"), std::string::npos);
  EXPECT_NE(csv.find("0xffffffff00000003"), std::string::npos);
  EXPECT_TRUE(checker_.healthy());
}

TEST_F(AuditTest, InsertRequestChainIsLinkedToTheRecordChain) {
  RecordLineage request;
  request.origin_cub = kControllerLineageOrigin;
  request.epoch = 42;
  request.MarkTagged();
  ViewerStateRecord r0 = MakeRecord(0);
  checker_.OnRecordCreated(Now(), 0, CreateKind::kInsert, r0, request);

  const std::string trip = checker_.ViewerLineage(ViewerId(17));
  EXPECT_NE(trip.find("request 0xffffffff0000002a"), std::string::npos)
      << "the minting StartPlayMsg's chain must be linked:\n" << trip;
}

TEST_F(AuditTest, ReportsAreDeterministicAndNameTheClass) {
  ViewerStateRecord r0 = MakeRecord(0);
  checker_.OnRecordCreated(Now(), 0, CreateKind::kInsert, r0, RecordLineage{});
  ViewerStateRecord r1 = MakeRecord(1);
  r1.due = r1.due + Duration::Millis(1);
  checker_.OnRecordReceived(Now(), 1, r1, ScheduleView::ApplyResult::kNew);

  const std::string json = checker_.ReportJson();
  EXPECT_NE(json.find("\"healthy\": false"), std::string::npos);
  EXPECT_NE(json.find("\"due_mismatch\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"paper\": \"4.1.1\""), std::string::npos);
  EXPECT_EQ(json, checker_.ReportJson()) << "export must be deterministic";

  const std::string csv = checker_.ReportCsv();
  EXPECT_EQ(csv.compare(0, 6, "class,"), 0);
  EXPECT_NE(csv.find("due_mismatch,4.1.1"), std::string::npos);
}

TEST_F(AuditTest, UntaggedRecordsAreCountedAndIgnored) {
  ViewerStateRecord legacy = MakeRecord(0);
  legacy.lineage = RecordLineage{};  // An older peer's all-zero tail.
  checker_.OnRecordReceived(Now(), 0, legacy, ScheduleView::ApplyResult::kNew);
  EXPECT_TRUE(checker_.healthy());
  EXPECT_EQ(checker_.chains_seen(), 0);
  EXPECT_EQ(checker_.untagged_records(), 1);
}

// ---------------------------------------------------------------------------
// Full-system tests
// ---------------------------------------------------------------------------

TigerConfig SmallConfig() {
  TigerConfig config;
  config.shape = SystemShape{5, 1, 2};
  return config;
}

TEST(AuditSystemTest, HealthyRunReportsZeroDivergence) {
  Testbed testbed(SmallConfig(), /*seed=*/7);
  TigerSystem& system = testbed.system();
  system.EnableTracing();
  system.EnableInvariantChecker();
  const InvariantChecker& checker = *system.invariant_checker();
  testbed.AddContent(4, Duration::Seconds(30));
  testbed.Start();
  for (int i = 0; i < 3; ++i) {
    testbed.AddViewer(FileId(static_cast<uint32_t>(i)));
  }
  testbed.RunFor(Duration::Seconds(45));

  EXPECT_TRUE(checker.healthy()) << checker.ReportJson();
  EXPECT_EQ(checker.total(), 0);
  EXPECT_GT(checker.chains_seen(), 0);
  EXPECT_GT(checker.forwards_observed(), 0);
  EXPECT_GT(checker.checks_run(), 100);
  EXPECT_NE(checker.ReportJson().find("\"healthy\": true"), std::string::npos);

  // Lineage query over a real run: every played viewer has a chain whose hop
  // log includes the full create/forward/receive trip, and inserted chains
  // link back to the controller's StartPlayMsg request chain.
  bool found_full_trip = false;
  bool found_request_link = false;
  for (const auto& viewer : testbed.viewers()) {
    const std::string trip = checker.ViewerLineage(viewer->id());
    if (trip.find("create") != std::string::npos &&
        trip.find("forward") != std::string::npos &&
        trip.find("receive") != std::string::npos) {
      found_full_trip = true;
    }
    if (trip.find("request 0xffffffff") != std::string::npos) {
      found_request_link = true;
    }
  }
  EXPECT_TRUE(found_full_trip);
  EXPECT_TRUE(found_request_link);

  // Flow arrows splice into the Chrome export (ph "s"/"f" with the lineage
  // category) without breaking the JSON envelope.
  const std::string flows = checker.ChromeFlowEvents();
  EXPECT_NE(flows.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(flows.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(flows.find("\"cat\":\"lineage\""), std::string::npos);
}

TEST(AuditSystemTest, SelfCheckCorruptionIsCaughtAsExactlyADueMismatch) {
  // Run the identical scenario twice — once clean, once with one corrupted
  // forward — and prove the checker stays quiet on the former and flags
  // exactly the due-mismatch class on the latter.
  for (const bool corrupt : {false, true}) {
    Testbed testbed(SmallConfig(), /*seed=*/11);
    TigerSystem& system = testbed.system();
    system.EnableInvariantChecker();
    const InvariantChecker& checker = *system.invariant_checker();
    testbed.AddContent(4, Duration::Seconds(30));
    testbed.Start();
    for (int i = 0; i < 3; ++i) {
      testbed.AddViewer(FileId(static_cast<uint32_t>(i)));
    }
    testbed.RunFor(Duration::Seconds(10));
    if (corrupt) {
      system.cub(CubId(1)).InjectAuditCorruption();
    }
    testbed.RunFor(Duration::Seconds(20));

    if (!corrupt) {
      EXPECT_TRUE(checker.healthy()) << checker.ReportJson();
      continue;
    }
    EXPECT_FALSE(checker.healthy()) << "the corrupted forward must be caught";
    EXPECT_GT(checker.Count(InvariantChecker::Kind::kDueMismatch), 0);
    for (size_t k = 0; k < InvariantChecker::kKinds; ++k) {
      const auto kind = static_cast<InvariantChecker::Kind>(k);
      if (kind != InvariantChecker::Kind::kDueMismatch) {
        EXPECT_EQ(checker.Count(kind), 0)
            << "unexpected class " << InvariantChecker::KindName(kind) << "\n"
            << checker.ReportJson();
      }
    }
    // The report names the defect and the paper section it violates.
    const std::string json = checker.ReportJson();
    EXPECT_NE(json.find("\"class\": \"due_mismatch\""), std::string::npos);
    EXPECT_NE(json.find("\"paper\": \"4.1.1\""), std::string::npos);
  }
}

TEST(AuditSystemTest, ReportFilesRoundTrip) {
  Testbed testbed(SmallConfig(), /*seed=*/13);
  TigerSystem& system = testbed.system();
  system.EnableInvariantChecker();
  const InvariantChecker& checker = *system.invariant_checker();
  testbed.AddContent(2, Duration::Seconds(20));
  testbed.Start();
  testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(25));

  const std::string json_path = ::testing::TempDir() + "/divergence_report.json";
  const std::string csv_path = ::testing::TempDir() + "/lineage.csv";
  ASSERT_TRUE(checker.WriteReportJson(json_path));
  ASSERT_TRUE(checker.WriteLineageCsv(csv_path));

  std::FILE* f = std::fopen(json_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  ASSERT_GT(std::fread(buf, 1, sizeof(buf) - 1, f), 0u);
  std::fclose(f);
  EXPECT_EQ(std::string(buf).compare(0, 1, "{"), 0);
}

}  // namespace
}  // namespace tiger
