// The schedule checker: a runtime proof of §4's "coherent hallucination"
// (test hook; production code paths never read it).
//
// Tiger has no global schedule; correctness means every cub's bounded view is
// a consistent fragment of the same hallucination. The checker is an
// omniscient observer — it sees what no real node could — fed two ways:
//
//  * event hooks, called by cubs as the protocol runs: insertions, removals,
//    primary sends, and the causal lineage evidence of every record
//    (creations, forwards, receives, TTL drops, kills). From the lineage it
//    keeps a *shadow* global schedule — one chain of shared due-time
//    arithmetic per record lineage — plus the hop logs lineage queries read;
//  * one periodic scan (kPeriod) of every living cub's view, which diffs each
//    entry against the shadow and the views against each other.
//
// Every finding has one class (Kind). The first five are the §4 invariants:
//
//   class                     paper  found by  meaning
//   live_double_book          4.1.3  hook      insertion into a slot that has
//                                              a live occupant
//   off_boundary_send         4.1    hook      a primary block sent off its
//                                              serving disk's slot boundary
//   settled_double_book       4.1.3  scan      two instances in one slot,
//                                              due within one block play time,
//                                              across settled views
//   due_mismatch              4.1.1  both      a record off its chain's shared
//                                              linear arithmetic, or two copies
//                                              of one record disagreeing on
//                                              their due time
//   lead_bound_violation      4.1.1  both      a record received, or landing
//                                              in a view, further ahead of its
//                                              due time than maxVStateLead plus
//                                              takeover slack
//
// The rest are lineage classes, all found from hook evidence except
// phantom_record:
//
//   stale_ownership           4.1.3  two instances claim one slot pass
//   mirror_schedule_mismatch  2.3    a declustered fragment off its lane
//   truly_lost_record         4.1.1  both forwarded copies vanished and the
//                                    chain never advanced past the record
//   orphan_kill               4.1.2  a slot-targeted kill for an instance no
//                                    schedule evidence ever names
//   duplicate_kill            4.1.2  one cub installed a fresh hold twice for
//                                    the same instance (kill loop)
//   resurrection              4.1.2  a killed instance re-entered a view that
//                                    had already applied the kill
//   ttl_exceeded              4.1.1  the hop-count TTL guard fired
//   phantom_record            4      a view holds an entry no evidence
//                                    explains at that cub
//
// Keeping false positives at zero: cross-view checks only consider entries
// old enough to have settled (a deschedule or failure notice still in flight
// makes young entries disagree legitimately), and one piece of lineage
// evidence may only INTRODUCE shadow state, because the protocol creates the
// same record in more than one place (bootstrap double-seeding,
// double-forwarding, takeover re-synthesis, rejoin replays). A finding needs
// CONFLICTING evidence. A record forwarded to two successors of which only
// one copy arrives is §4.1.1's redundancy working: it is counted as rescued,
// never as a finding.
//
// A finding is counted once per (class, chain-or-instance, cub), so a
// persistent violation is reported once, however many scans see it.
//
// Sharded runs: hooks fire on shard threads, so they journal to the engine's
// barrier (DESIGN.md §6h) and apply in the thread-count-invariant journal
// order; the scan runs as a barrier-aligned periodic task. Reads are only
// meaningful in driver context.

#ifndef SRC_CORE_INVARIANT_CHECKER_H_
#define SRC_CORE_INVARIANT_CHECKER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/net/payload_pool.h"
#include "src/schedule/schedule_view.h"
#include "src/schedule/viewer_state.h"

namespace tiger {

class ShardEngine;
class TigerSystem;
struct TigerConfig;

class InvariantChecker {
 public:
  enum class Kind : uint8_t {
    // §4 invariants (verdict invariant_violation).
    kLiveDoubleBook = 0,
    kOffBoundarySend,
    kSettledDoubleBook,
    kDueMismatch,
    kLeadBound,
    // Lineage classes (verdict divergence, except kTrulyLostRecord: the
    // paper's bounded crash losses).
    kStaleOwnership,
    kMirrorScheduleMismatch,
    kTrulyLostRecord,
    kOrphanKill,
    kDuplicateKill,
    kResurrection,
    kTtlExceeded,
    kPhantomRecord,
    kKindCount,  // sentinel
  };
  static constexpr size_t kKinds = static_cast<size_t>(Kind::kKindCount);
  static const char* KindName(Kind kind);
  static const char* PaperSection(Kind kind);
  static bool IsInvariant(Kind kind) { return kind <= Kind::kLeadBound; }

  struct Violation {
    TimePoint when;
    Kind kind = Kind::kKindCount;
    uint64_t chain = 0;  // Lineage chain (origin<<32|epoch); 0 if none.
    int64_t viewer = -1;
    int64_t instance = -1;
    int64_t slot = -1;
    int64_t cub = -1;
    int64_t sequence = -1;
    std::string what = {};
  };

  // Why a record came into existence on a cub (as opposed to arriving from a
  // predecessor). kBootstrap is expected redundancy: system bootstrap mints
  // the same record on the slot owner and its backup.
  enum class CreateKind : uint8_t {
    kInsert = 0,      // Ownership-window insertion of a queued start (§4.1.3).
    kBootstrap,       // TigerSystem::BootstrapStreams seeding.
    kTakeover,        // Mirror fragment synthesized for a dead peer (§2.3).
    kMirrorRecovery,  // Mirror chain dispatched after a transient read error.
  };

  // One step of a record's trip around the ring (kKillApplied: one cub
  // applying a kill message's lineage-tagged trip, §4.1.2).
  enum class HopKind : uint8_t {
    kCreated = 0,
    kForwarded,
    kReceived,
    kTtlDropped,
    kKillApplied,
  };
  static const char* HopKindName(HopKind kind);
  struct Hop {
    TimePoint when;
    HopKind kind = HopKind::kCreated;
    uint32_t cub = 0;   // Where the evidence was emitted.
    int32_t peer = -1;  // Forward target cub; -1 otherwise.
    int64_t sequence = 0;
    int32_t fragment = -1;
    uint16_t hop_count = 0;
    uint64_t lamport = 0;
  };
  // Hop logs and chain registries draw from the thread-local payload pool so
  // the per-event evidence intake recycles storage instead of allocating: the
  // checker rides the same hot path it checks.
  using HopVec = std::vector<Hop, PoolAllocator<Hop>>;

  // Scan cadence: a whole-millisecond multiple, so sharded dues land on
  // barriers.
  static constexpr Duration kPeriod = Duration::Millis(250);
  // A forwarded record unseen anywhere this long after the send is judged:
  // rescued if the chain moved on, truly lost otherwise. Sized past the
  // deadman timeout so failure re-forwarding gets its chance.
  static constexpr Duration kLostHorizon = Duration::Seconds(9);
  // A slot-targeted kill for an unknown instance must be explained by
  // schedule evidence within this long, or it is an orphan.
  static constexpr Duration kOrphanHorizon = Duration::Seconds(10);
  // Quiesced chains (no evidence, no pending forwards) older than this are
  // pruned so memory stays bounded on long runs.
  static constexpr Duration kChainRetention = Duration::Seconds(600);
  // Hop-log cap per chain; older hops beyond it are dropped (counted).
  static constexpr size_t kMaxHopsPerChain = 4096;
  // Retained violation records (the per-class counts keep counting).
  static constexpr size_t kMaxViolations = 1024;

  // `engine` is the sharded engine, or null for serial runs. TigerSystem
  // owns the checker (EnableInvariantChecker); tests may drive one directly.
  InvariantChecker(TigerSystem* system, ShardEngine* engine);

  // --- event hooks; callable from any context ---
  void OnInsert(SlotId slot, PlayInstanceId instance, TimePoint when);
  // A play left the schedule (deschedule issued or EOF served).
  void OnRemove(SlotId slot, PlayInstanceId instance);
  // Cub `cub` sent the primary block `record` names from `disk`.
  void OnPrimarySend(uint32_t cub, const ViewerStateRecord& record, DiskId disk);
  // A record was minted locally (not received off the wire). `request` is the
  // lineage of the controller request that caused the mint (the StartPlayMsg
  // chain for kInsert); untagged otherwise.
  void OnRecordCreated(TimePoint when, uint32_t cub, CreateKind kind,
                       const ViewerStateRecord& record, const RecordLineage& request);
  // `record` (the successor state) was sent from cub `from` toward cub `to`.
  void OnRecordForwarded(TimePoint when, uint32_t from, uint32_t to,
                         const ViewerStateRecord& record);
  // A record arrived at cub `at` and the local view ruled on it.
  void OnRecordReceived(TimePoint when, uint32_t at, const ViewerStateRecord& record,
                        ScheduleView::ApplyResult result);
  // The hop-count TTL guard dropped a record before it reached the view.
  void OnRecordTtlDropped(TimePoint when, uint32_t at, const ViewerStateRecord& record);
  // A deschedule (kill) was applied at cub `at`. `lineage` is the carrying
  // DescheduleMsg's lineage; `new_hold` says a fresh hold was installed.
  void OnKill(TimePoint when, uint32_t at, const DescheduleRecord& kill,
              const RecordLineage& lineage, bool new_hold);

  // One pass at the current simulated time: judges pending forwards and
  // orphan kills, scans every living cub's view, prunes quiesced state.
  void CheckNow();

  // --- findings ---
  const std::vector<Violation>& violations() const { return violations_; }
  int64_t Count(Kind kind) const { return counts_[static_cast<size_t>(kind)]; }
  int64_t total() const;
  bool healthy() const { return total() == 0; }
  // The §4 classes.
  int64_t invariant_violations() const;
  // Lineage classes other than truly_lost_record.
  int64_t fatal_divergences() const;
  // Deterministic exports: same seed, same binary, byte-identical output.
  std::string ReportJson() const;
  std::string ReportCsv() const;
  bool WriteReportJson(const std::string& path) const;
  bool WriteReportCsv(const std::string& path) const;

  // --- lineage queries ---
  // Chains (origin<<32|epoch) minted for this viewer, in first-seen order.
  std::vector<uint64_t> ChainsOfViewer(ViewerId viewer) const;
  // Hop log of one chain; nullptr if the chain is unknown (or pruned).
  const HopVec* ChainHops(uint64_t chain) const;
  // "Show viewer 17's record's full hop chain": human-readable trip log.
  std::string ViewerLineage(ViewerId viewer) const;
  // The kill message's trip for an instance: one kKillApplied hop per cub
  // application. nullptr if no kill evidence names the instance.
  const HopVec* KillHops(PlayInstanceId instance) const;
  // Full hop table as CSV (chain,origin,epoch,hop kind,time,cubs,...).
  std::string LineageCsv() const;
  bool WriteLineageCsv(const std::string& path) const;
  // Chrome trace_event fragment (",\n{...}" objects) of ph:"s"/"t"/"f" flow
  // arrows along each chain's hops; WriteChromeTrace splices it in.
  std::string ChromeFlowEvents() const;

  // --- activity counters (never findings) ---
  int64_t checks_run() const { return checks_run_; }
  int64_t insert_count() const { return inserts_; }
  int64_t rescued_by_second_successor() const { return rescued_by_second_successor_; }
  // Both count records, keyed by (sequence, fragment) per chain: a record is
  // observed when first forwarded, and delivered once every target received
  // it (or, when the loss horizon passes, once at least one had).
  int64_t forwards_observed() const { return forwards_observed_; }
  int64_t forwards_delivered() const { return forwards_delivered_; }
  int64_t chains_seen() const { return chains_created_; }
  int64_t untagged_records() const { return untagged_records_; }

 private:
  struct MirrorLane {
    int64_t anchor_seq = 0;
    int32_t anchor_frag = 0;
    int64_t anchor_due_us = 0;
  };
  struct PendingForward {
    TimePoint first_sent;
    uint64_t targets_mask = 0;
    uint64_t received_mask = 0;
  };
  struct ChainState {
    uint64_t id = 0;
    int64_t viewer = -1;
    uint64_t instance = 0;
    int64_t slot = -1;
    // Primary lane: due(seq) = anchor_due + (seq - anchor_seq) * play,
    // position(seq) = anchor_pos + (seq - anchor_seq). Exact integer math —
    // the same shared arithmetic the cubs use (§4.1.1).
    bool has_anchor = false;
    int64_t anchor_seq = 0;
    int64_t anchor_due_us = 0;
    int64_t anchor_pos = 0;
    // Mirror lanes keyed by block position: fragments of one recovered block.
    std::map<int64_t, MirrorLane, std::less<int64_t>,
             PoolAllocator<std::pair<const int64_t, MirrorLane>>>
        mirror_lanes;
    uint64_t cubs_seen = 0;  // Bitmask of cubs holding direct evidence.
    // Lineage chain of the controller request that minted this record chain
    // (StartPlayMsg for insertions); 0 when no request message was involved.
    uint64_t request_chain = 0;
    int64_t max_seq_seen = 0;
    TimePoint last_evidence;
    HopVec hops;
    int64_t hops_dropped = 0;
    // Forwards not yet confirmed received, keyed by seq * 256 + fragment + 1.
    std::map<int64_t, PendingForward, std::less<int64_t>,
             PoolAllocator<std::pair<const int64_t, PendingForward>>>
        pending;
  };
  struct KillState {
    TimePoint first_when;
    int64_t viewer = -1;
    int64_t slot = -1;
    uint64_t applied_cubs = 0;     // Cubs that reported this kill.
    uint64_t fresh_hold_cubs = 0;  // Cubs that installed a new hold (once each).
    bool orphan_candidate = false;
    TimePoint orphan_deadline;
    // Message-level lineage of the kill: its controller-minted chain and one
    // kKillApplied hop per application, in observation order.
    uint64_t kill_chain = 0;
    HopVec hops;
    int64_t hops_dropped = 0;
  };
  struct SlotClaim {
    int64_t due_us = 0;
    uint64_t instance = 0;
  };
  // Live occupants per slot, in insertion order.
  struct Occupant {
    PlayInstanceId instance;
    TimePoint inserted;
  };

  static uint64_t CubBit(uint32_t cub) { return uint64_t{1} << (cub & 63); }
  static int64_t PendingKey(int64_t sequence, int32_t fragment) {
    return sequence * 256 + fragment + 1;
  }
  static Violation About(Kind kind, TimePoint when, const ViewerStateRecord& record,
                         int64_t cub);

  // Runs `apply` now (serial, or driver context) or at the next barrier.
  template <typename Fn>
  void Defer(Fn&& apply);
  // Counts a finding and retains it, with `fmt` rendered as its text, unless
  // its (kind, chain-or-instance, cub) key was already reported.
  template <typename... Args>
  void Flag(Violation v, const char* fmt, Args... args);

  TimePoint Now() const;
  const TigerConfig& config() const;
  // Exact declustered fragment offset: frag * play / decluster in integer
  // microseconds — identical to the cubs' non-drifting spacing arithmetic.
  int64_t FragOffsetUs(int32_t fragment) const;
  // Records one hop of `record`'s trip, seen at `cub`, and returns its chain
  // (introducing it on first sight); null for an untagged record.
  ChainState* Witness(const ViewerStateRecord& record, TimePoint when, HopKind kind,
                      uint32_t cub, int32_t peer = -1);
  // Verifies `record` against the chain's shared arithmetic, introducing
  // anchors/lanes when absent. `cub` scopes any finding.
  void CheckArithmetic(ChainState& chain, const ViewerStateRecord& record, TimePoint when,
                       uint32_t cub);
  // Flags `record` if it reached cub `cub` at `landed` further ahead of its
  // due time than the lead bound allows.
  void CheckLead(const ViewerStateRecord& record, TimePoint landed, uint32_t cub);
  // Marks a pending forward of `record` delivered at `at`.
  void ConfirmDelivery(ChainState& chain, const ViewerStateRecord& record, uint32_t at);
  void ResolvePendingForwards(TimePoint now);
  void ResolveOrphanKills(TimePoint now);
  void ScanViews(TimePoint now);
  void PruneState(TimePoint now);

  TigerSystem* system_;
  ShardEngine* engine_;

  template <typename V>
  using PooledU64Map =
      std::unordered_map<uint64_t, V, std::hash<uint64_t>, std::equal_to<uint64_t>,
                         PoolAllocator<std::pair<const uint64_t, V>>>;
  using ChainIdVec = std::vector<uint64_t, PoolAllocator<uint64_t>>;

  // Shadow schedule.
  PooledU64Map<ChainState> chains_;
  // Evidence-backed name registries (introduction order preserved for
  // deterministic queries).
  PooledU64Map<ChainIdVec> viewer_chains_;
  PooledU64Map<ChainIdVec> instance_chains_;
  ChainIdVec chain_order_;
  PooledU64Map<KillState> kills_;
  ChainIdVec kill_order_;  // Instances in first-kill order.
  PooledU64Map<std::vector<SlotClaim, PoolAllocator<SlotClaim>>> slot_claims_;
  std::unordered_map<SlotId, std::vector<Occupant>> occupancy_;

  // Findings.
  std::vector<Violation> violations_;
  int64_t counts_[kKinds] = {};
  int64_t violations_dropped_ = 0;
  std::set<std::tuple<Kind, uint64_t, int64_t>> reported_;

  TimePoint last_check_ = TimePoint::Zero();
  int64_t checks_run_ = 0;
  int64_t inserts_ = 0;
  int64_t rescued_by_second_successor_ = 0;
  int64_t forwards_observed_ = 0;
  int64_t forwards_delivered_ = 0;
  int64_t chains_created_ = 0;
  int64_t chains_pruned_ = 0;
  int64_t untagged_records_ = 0;
  int64_t untagged_view_entries_ = 0;
  int64_t kills_observed_ = 0;
};

}  // namespace tiger

#endif  // SRC_CORE_INVARIANT_CHECKER_H_
