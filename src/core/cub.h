// A cub: one content machine of the Tiger system.
//
// The cub is a pure message-and-timer state machine. It owns a bounded view
// of the (hallucinated) global schedule near its own disks and implements:
//
//  * steady-state viewer-state propagation, batched and double-forwarded to
//    its next two living successors (§4.1.1);
//  * the idempotent deschedule pipeline with hold records (§4.1.2);
//  * slot-ownership insertion of queued start requests (§4.1.3);
//  * mirror takeover: when the disk a record names is failed and this cub is
//    the first living successor of its owner, the cub synthesizes the
//    declustered mirror chain and carries the failed cub's forwarding duties
//    (§2.3, §4.1.1);
//  * the cub side of the deadman protocol.

#ifndef SRC_CORE_CUB_H_
#define SRC_CORE_CUB_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/core/address_book.h"
#include "src/core/block_cache.h"
#include "src/core/config.h"
#include "src/core/failure_view.h"
#include "src/core/messages.h"
#include "src/disk/disk.h"
#include "src/layout/striping.h"
#include "src/net/network.h"
#include "src/net/payload_pool.h"
#include "src/schedule/geometry.h"
#include "src/schedule/schedule_view.h"
#include "src/sim/actor.h"
#include "src/stats/meter.h"
#include "src/stats/qos.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace tiger {

class InvariantChecker;

class Cub : public Actor, public NetworkEndpoint {
 public:
  struct Counters {
    int64_t records_received = 0;
    int64_t records_new = 0;
    int64_t records_duplicate = 0;
    int64_t records_killed_by_deschedule = 0;
    int64_t records_too_late = 0;
    int64_t records_conflict = 0;
    int64_t blocks_sent = 0;
    int64_t fragments_sent = 0;
    int64_t server_missed_blocks = 0;
    int64_t deschedules_received = 0;
    int64_t deschedules_applied = 0;
    int64_t inserts = 0;
    int64_t takeovers = 0;
    int64_t buffer_stalls = 0;
    int64_t failures_detected = 0;
    int64_t disk_read_errors = 0;
    int64_t mirror_recoveries = 0;
    int64_t rejoins = 0;
    // Records dropped by the lineage hop-count TTL guard (re-forward loops).
    int64_t records_ttl_dropped = 0;
  };

  Cub(Simulator* sim, CubId id, const TigerConfig* config, const Catalog* catalog,
      const StripeLayout* layout, const ScheduleGeometry* geometry, MessageBus* net, Rng rng);

  // Wiring (called by TigerSystem before Start()).
  void AttachDisks(std::vector<SimulatedDisk*> disks);
  void SetAddressBook(const AddressBook* addresses) { addresses_ = addresses; }
  // Schedule checker hooks: slot occupancy, send timing and the lineage
  // evidence of every record (test-side observer); null = unchecked.
  // Survives Rejoin().
  void SetInvariantChecker(InvariantChecker* checker) { checker_ = checker; }
  void SetFaultStats(FaultStats* stats) { fault_stats_ = stats; }
  // QoS cause attribution: the cub annotates blocks it knows it degraded
  // (missed deadline, mirror chain, too-late record, deschedule kill) so the
  // ledger can name the root cause when the client reports the glitch.
  // Survives Rejoin().
  void SetQosLedger(QosLedger* qos) { qos_ = qos; }
  // Wires the observability layer: protocol steps land on `track`, the
  // viewer-state lead distribution feeds `metrics`. Survives Rejoin().
  void SetTrace(Tracer* tracer, TraceTrackId track, MetricsRegistry* metrics);
  // Self-check: corrupt the due time of the next forwarded backup copy (one
  // bound for a successor that does not serve the block) by 1ms, after the
  // forward evidence is emitted, so the checker's shadow disagrees with what
  // actually arrived. One-shot; proves end-to-end detection.
  void InjectAuditCorruption() { corrupt_next_forward_ = true; }

  // Begins heartbeats and periodic ticks.
  void Start();

  // Power loss: stop all activity and take the node off the network. The
  // caller (TigerSystem) also halts the cub's disks.
  void Fail();

  // Restart after a Fail(). The caller (TigerSystem) has already restarted
  // the actor epoch, the cub's disks, and the network endpoint. The cub
  // forgets all protocol state (a rebooted machine remembers nothing),
  // restarts heartbeats, and broadcasts a RejoinRequest so living peers mark
  // it alive and send it the schedule window it is responsible for.
  void Rejoin();

  // Fails one local drive; the cub stays up.
  void FailLocalDisk(int local_index);

  // Injects a steady-state viewer directly into this cub's view, bypassing
  // the start protocol (benchmark bootstrap). The record must name a disk
  // this cub serves.
  void BootstrapRecord(const ViewerStateRecord& record);

  NetAddress address() const { return address_; }
  CubId id() const { return id_; }
  const Counters& counters() const { return counters_; }
  const ScheduleView& view() const { return view_; }
  const CumulativeMeter& cpu_meter() const { return cpu_; }
  const FailureView& failure_view() const { return failure_view_; }
  const BlockCache& block_cache() const { return cache_; }
  int64_t free_buffer_bytes() const { return free_buffer_bytes_; }
  size_t queued_start_requests() const;
  DiskId GlobalDiskId(int local_index) const;

  // NetworkEndpoint:
  void HandleMessage(const MessageEnvelope& envelope) override;

 private:
  struct PendingStart {
    StartPlayMsg msg;
    TimePoint queued_at;
  };

  // --- message handlers ---
  void OnViewerStateBatch(const ViewerStateBatchMsg& msg);
  void OnViewerState(const ViewerStateRecord& record);
  void OnDeschedule(const DescheduleMsg& msg);
  void OnStartPlay(const StartPlayMsg& msg);
  void OnHeartbeat(const HeartbeatMsg& msg);
  void OnFailureNotice(const FailureNoticeMsg& msg);
  void OnRejoinRequest(const RejoinRequestMsg& msg);
  void OnRejoinReply(const RejoinReplyMsg& msg);

  // --- record processing ---
  // Routes a freshly accepted record: serve it, take over mirroring, or hold
  // it as a fault-tolerance backup.
  void ProcessAcceptedRecord(const ViewerStateRecord::Key& key);
  void ScheduleEntryWork(const ViewerStateRecord::Key& key);
  void IssueRead(const ViewerStateRecord::Key& key);
  void SendBlock(const ViewerStateRecord::Key& key);
  void TakeoverRecord(const ViewerStateRecord::Key& key);
  // After a transient read error on the primary disk, dispatch the block's
  // declustered mirror chain so the viewer is served from the secondaries.
  void RecoverBlockViaMirrors(const ViewerStateRecord::Key& key);
  // Bytes of buffer a record's disk read occupies (allocated block size for
  // primaries, one fragment for mirrors).
  int64_t ReadBytesFor(const ViewerStateRecord& record) const;

  // The disk that must service this record (primary disk or mirror-fragment
  // disk).
  DiskId ServingDisk(const ViewerStateRecord& record) const;
  bool IsMyDisk(DiskId disk) const;
  SimulatedDisk* LocalDisk(DiskId disk) const;

  // The record this cub forwards on behalf of `record` (the next block for a
  // primary, the next fragment for a mirror); nullopt at end of file / chain.
  std::optional<ViewerStateRecord> SuccessorRecord(const ViewerStateRecord& record) const;

  // --- forwarding ---
  // Per-successor batch accumulator for one forwarding pass. Pool-backed so
  // the per-tick build/flush cycle recycles map nodes instead of allocating.
  using BatchMap =
      std::unordered_map<NetAddress, ViewerStateBatchMsg, std::hash<NetAddress>,
                         std::equal_to<NetAddress>,
                         PoolAllocator<std::pair<const NetAddress, ViewerStateBatchMsg>>>;
  void ForwardTick();
  // Margin subtracted from a successor's due time when deciding whether the
  // batch must flush now (network latency + jitter + one tick + slack).
  Duration ForwardSafety() const;
  // Lowers next_forward_check_ to `record`'s flush-trigger time. Must be
  // called whenever an entry this cub is responsible for forwarding enters
  // the view (or is re-armed) unforwarded, or ForwardTick may sleep past it.
  void NoteUnforwardedEntry(const ViewerStateRecord& record);
  // seen_instances_[instance] = Now(), reusing a stashed node if available.
  void NoteInstanceSeen(uint64_t instance);
  // Forwards `entry`'s successor record immediately if eligible; marks it.
  void MaybeForwardEntry(ScheduleEntry& entry, BatchMap& batches);
  void FlushBatches(BatchMap& batches);
  void SendBatchTo(NetAddress target, ViewerStateBatchMsg&& batch);
  void ForwardEntryNow(const ViewerStateRecord::Key& key);
  // Sends a single synthesized record (takeover / mirror-recovery paths) as a
  // one-record batch, or applies it locally when target == this cub.
  void SendRecordTo(CubId target, const ViewerStateRecord& record);

  // --- insertion ---
  void EnqueueStart(const StartPlayMsg& msg);
  void EnsureOwnershipTicking(DiskId disk);
  void OwnershipTick(DiskId disk);
  void InsertViewer(DiskId disk, SlotId slot, TimePoint due, const StartPlayMsg& msg);

  // --- failure handling ---
  void HeartbeatTick();
  void DeadmanCheck();
  void DeclareCubFailed(CubId cub);
  void HandleFailure(CubId failed_cub, DiskId failed_disk);
  void ScanForTakeovers();
  void ActivateRedundantStarts(CubId failed_cub);

  // --- lineage (audit) ---
  // Mints a fresh lineage chain on a locally created record: this cub as
  // origin, a new epoch, hop 0, and a fresh Lamport stamp.
  void MintLineage(ViewerStateRecord* record);
  // Stamps a record about to leave this cub (Lamport tick). Untagged records
  // (pre-lineage peers) are left untouched.
  void StampLineageForSend(ViewerStateRecord* record);
  // Merges a received record's Lamport stamp into the local clock.
  void MergeLineageClock(const ViewerStateRecord& record);

  // --- housekeeping ---
  void EvictionTick();
  void ChargeCpu(Duration cost) { cpu_.Add(Now(), static_cast<double>(cost.micros())); }
  void ChargeMessageCpu() { ChargeCpu(config_->cpu.per_control_message); }
  Duration MirrorFragmentSpacing(int from_fragment) const;
  void FreeBuffer(int64_t bytes);

  CubId id_;
  const TigerConfig* config_;
  const Catalog* catalog_;
  const StripeLayout* layout_;
  const ScheduleGeometry* geometry_;
  OwnershipWindows windows_;
  MessageBus* net_;
  NetAddress address_ = kInvalidAddress;
  const AddressBook* addresses_ = nullptr;
  InvariantChecker* checker_ = nullptr;
  FaultStats* fault_stats_ = nullptr;
  QosLedger* qos_ = nullptr;
  Tracer* tracer_ = nullptr;
  TraceTrackId trace_track_ = 0;
  BoundedHistogram* vstate_lead_ms_ = nullptr;
  Rng rng_;

  std::vector<SimulatedDisk*> disks_;  // Index = local disk index.
  BlockCache cache_;
  ScheduleView view_;
  FailureView failure_view_;
  Counters counters_;
  CumulativeMeter cpu_;

  int64_t free_buffer_bytes_ = 0;
  // All steady-churn containers below draw from the thread-local payload pool
  // so insert/erase cycles recycle nodes instead of hitting the heap.
  using StartQueue = std::deque<PendingStart, PoolAllocator<PendingStart>>;
  std::unordered_map<DiskId, StartQueue, std::hash<DiskId>, std::equal_to<DiskId>,
                     PoolAllocator<std::pair<const DiskId, StartQueue>>>
      start_queues_;
  std::unordered_set<DiskId, std::hash<DiskId>, std::equal_to<DiskId>, PoolAllocator<DiskId>>
      ticking_disks_;
  std::unordered_map<uint64_t, PendingStart, std::hash<uint64_t>, std::equal_to<uint64_t>,
                     PoolAllocator<std::pair<const uint64_t, PendingStart>>>
      redundant_starts_;  // By instance id.
  // Instances whose viewer states this cub has seen (dedupes duplicate starts
  // and clears redundant copies), stamped with the last sighting so
  // EvictionTick can age entries out — a plain ever-growing set would be an
  // allocation per instance rotation, forever. The retention window in
  // EvictionTick comfortably covers both uses: duplicate StartPlay copies
  // arrive within the network-duplication delay of the original, and a
  // redundant start only activates within the deadman detection window.
  using SeenMap =
      std::unordered_map<uint64_t, TimePoint, std::hash<uint64_t>, std::equal_to<uint64_t>,
                         PoolAllocator<std::pair<const uint64_t, TimePoint>>>;
  SeenMap seen_instances_;
  // Nodes aged out of seen_instances_, kept for reuse. EvictionTick fires at
  // the same sim instant on every cub, so at large shapes the synchronized
  // burst of freed nodes would overflow the payload pool's per-class cap and
  // the next second's inserts would hit the heap; a per-cub stash is
  // burst-proof. Bounded by the map's peak size.
  std::vector<SeenMap::node_type> seen_nodes_;
  std::unordered_map<CubId, TimePoint, std::hash<CubId>, std::equal_to<CubId>,
                     PoolAllocator<std::pair<const CubId, TimePoint>>>
      last_heard_;
  // Reused by batch decodes (ViewerStateBatchMsg::DecodeInto) so the per-hop
  // receive path stops allocating a fresh record vector per message.
  std::vector<ViewerStateRecord> decode_scratch_;
  bool started_ = false;
  // A freshly rejoined cub holds off inserting new viewers until its view has
  // been repopulated by rejoin replies (occupancy proof for its slots).
  TimePoint insert_allowed_after_ = TimePoint::Zero();
  // Lower bound on the earliest time any unforwarded entry can trigger a
  // batch flush. ForwardTick skips its O(view) scans while Now() is below
  // this; accept/re-arm paths lower it, scans recompute it exactly.
  TimePoint next_forward_check_ = TimePoint::Zero();
  // Lamport clock over lineage-tagged control messages; survives Rejoin() via
  // the merge on the first received record (a reboot forgetting the clock is
  // safe: merged stamps only ever move it forward).
  uint64_t lamport_ = 0;
  // Next chain epoch for records minted here. Monotone per cub lifetime.
  uint32_t next_record_epoch_ = 1;
  // One-shot self-check flag (see InjectAuditCorruption).
  bool corrupt_next_forward_ = false;
};

}  // namespace tiger

#endif  // SRC_CORE_CUB_H_
