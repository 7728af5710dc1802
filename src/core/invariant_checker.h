// Runtime checker of the §4 schedule-coherence invariants (test hook).
//
// Tiger has no global schedule; correctness means every cub's bounded view is
// a consistent fragment of the same hallucination. The checker is an
// omniscient observer — it sees what no real node could — with two halves.
//
// Event hooks, called by cubs as the protocol runs:
//
//  * live double-booking: a slot never holds two live play instances at once
//    (checked at every insertion against the live occupancy, §4.1.3);
//  * send timing: every primary block goes out exactly at a slot boundary of
//    its serving disk.
//
// A periodic scan (kPeriod) of every living cub's view:
//
//  * settled double-booking: across settled views, two different play
//    instances never claim the same slot with due times closer than one
//    block play time;
//  * due-time coherence: every copy of a record (same dedup key) carries the
//    same due time in every view — due times are shared arithmetic, never
//    local clocks (§4.1.1);
//  * bounded leads: no view learns of a block more than maxVStateLead (plus
//    takeover slack) ahead of its due time (§4, bounded-view scalability).
//
// Violations found during transient disagreement windows (a deschedule or
// failure notice still propagating) would be false positives, so cross-view
// checks only consider entries that have had time to settle. A persistent
// violation is reported once, not once per scan.
//
// Sharded runs: hooks fire on shard threads, so they journal to the engine's
// barrier (DESIGN.md §6h) and apply in the thread-count-invariant journal
// order; the scan runs as a barrier-aligned periodic task. Reads are only
// meaningful in driver context. Production code paths never read the checker.

#ifndef SRC_CORE_INVARIANT_CHECKER_H_
#define SRC_CORE_INVARIANT_CHECKER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/sim/inline_function.h"

namespace tiger {

class ShardEngine;
class TigerSystem;

class InvariantChecker {
 public:
  enum class Kind : uint8_t {
    kLiveDoubleBook,     // Hook: insertion into an occupied slot.
    kOffBoundarySend,    // Hook: primary send off its slot boundary.
    kSettledDoubleBook,  // Scan: two instances in one slot across views.
    kDueMismatch,        // Scan: copies of one record disagree on due time.
    kLeadBound,          // Scan: a record arrived too far ahead of its due.
  };
  struct Violation {
    TimePoint when;
    Kind kind;
    std::string what;
  };

  // Scan cadence: a whole-millisecond multiple, so sharded dues land on
  // barriers.
  static constexpr Duration kPeriod = Duration::Millis(250);

  // `engine` is the sharded engine, or null for serial runs.
  InvariantChecker(TigerSystem* system, ShardEngine* engine);

  // Event hooks; callable from any context.
  void OnInsert(SlotId slot, PlayInstanceId instance, TimePoint when);
  // A play left the schedule (deschedule issued or EOF served).
  void OnRemove(SlotId slot, PlayInstanceId instance);
  void OnPrimarySend(SlotId slot, DiskId disk, TimePoint due);

  // Scans every living cub's view once at the current simulation time.
  void CheckNow();

  const std::vector<Violation>& violations() const { return violations_; }
  int64_t Count(Kind kind) const;
  int64_t hook_violations() const {
    return Count(Kind::kLiveDoubleBook) + Count(Kind::kOffBoundarySend);
  }
  int64_t scan_violations() const {
    return static_cast<int64_t>(violations_.size()) - hook_violations();
  }
  int64_t checks_run() const { return checks_run_; }
  int64_t insert_count() const { return inserts_; }

 private:
  // Runs `apply` now (serial, driver context) or at the next barrier.
  void Defer(InlineFunction apply);
  void AddViolation(TimePoint when, Kind kind, std::string what);

  TigerSystem* system_;
  ShardEngine* engine_;
  // Live occupants per slot, in insertion order.
  struct Occupant {
    PlayInstanceId instance;
    TimePoint inserted;
  };
  std::unordered_map<SlotId, std::vector<Occupant>> occupancy_;
  std::vector<Violation> violations_;
  std::unordered_set<std::string> reported_;
  TimePoint last_check_ = TimePoint::Zero();
  int64_t checks_run_ = 0;
  int64_t inserts_ = 0;
};

}  // namespace tiger

#endif  // SRC_CORE_INVARIANT_CHECKER_H_
