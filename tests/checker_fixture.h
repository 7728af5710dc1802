// Shared fixture for the schedule checker's unit tests (invariant_checker_test
// and audit_test): one InvariantChecker driven directly over an unstarted
// TigerSystem. Hooks are called by hand, and the scan runs over views seeded
// with BootstrapRecord (records go to cubs that do not serve them, so no
// protocol work is scheduled and the views stay exactly as placed).
// RunFor only advances the clock.

#ifndef TESTS_CHECKER_FIXTURE_H_
#define TESTS_CHECKER_FIXTURE_H_

#include <gtest/gtest.h>

#include <vector>

#include "src/core/invariant_checker.h"
#include "src/core/system.h"

namespace tiger {

class CheckerTest : public ::testing::Test {
 protected:
  using Kind = InvariantChecker::Kind;
  using CreateKind = InvariantChecker::CreateKind;

  CheckerTest() : system_(Config(), 7), checker_(&system_, nullptr) {
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

  const TigerConfig& config() const { return system_.config(); }
  TimePoint Now() { return system_.sim().Now(); }
  TimePoint At(int64_t ms) { return TimePoint::Zero() + Duration::Millis(ms); }
  void RunFor(Duration d) { system_.RunFor(d); }
  // Advances simulated time past the scan's settle window.
  void Settle() { RunFor(Duration::Millis(400)); }

  // A primary record for `slot` due at the slot's first serving instant at or
  // after `not_before`, addressed the way BootstrapStreams addresses them.
  ViewerStateRecord Record(uint32_t slot, uint64_t instance, TimePoint not_before) {
    const ScheduleGeometry::ServingEvent serving =
        system_.geometry().SoonestServingDisk(SlotId(slot), not_before);
    const FileInfo& info = system_.catalog().Get(file_);
    const int total_disks = config().shape.TotalDisks();
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
    record.bitrate_bps = config().max_stream_bps;
    return record;
  }

  // Cubs that hold `record` only as a backup (not its serving cub).
  std::vector<CubId> NonServingCubs(const ViewerStateRecord& record) {
    const DiskId disk =
        system_.layout().PrimaryDisk(system_.catalog().Get(record.file), record.position);
    const CubId owner = config().shape.CubOfDisk(disk);
    std::vector<CubId> cubs;
    for (int c = 0; c < system_.cub_count(); ++c) {
      if (CubId(static_cast<uint32_t>(c)) != owner) {
        cubs.push_back(CubId(static_cast<uint32_t>(c)));
      }
    }
    return cubs;
  }

  // Exactly `count` findings of `kind`, and none of any other class.
  void ExpectOnly(Kind kind, int64_t count = 1) {
    for (size_t k = 0; k < InvariantChecker::kKinds; ++k) {
      const auto other = static_cast<Kind>(k);
      EXPECT_EQ(checker_.Count(other), other == kind ? count : 0)
          << InvariantChecker::KindName(other);
    }
    ASSERT_EQ(checker_.violations().size(), static_cast<size_t>(count));
    for (const InvariantChecker::Violation& violation : checker_.violations()) {
      EXPECT_EQ(violation.kind, kind) << violation.what;
    }
  }

  TigerSystem system_;
  InvariantChecker checker_;
  FileId file_;
};

}  // namespace tiger

#endif  // TESTS_CHECKER_FIXTURE_H_
