// Wire messages of the Tiger control and data protocols.
//
// Wire sizes matter: the §3.3 scalability argument and the control-traffic
// curves of Figures 8/9 are measured in bytes per second, so every message
// type declares the size it would occupy on the wire (a fixed header plus its
// payload records).

#ifndef SRC_CORE_MESSAGES_H_
#define SRC_CORE_MESSAGES_H_

#include <cstdint>
#include <vector>

#include <array>

#include "src/common/check.h"
#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/net/network.h"
#include "src/net/payload_pool.h"
#include "src/schedule/viewer_state.h"

namespace tiger {

// Fixed per-message overhead (transport headers, framing).
inline constexpr int64_t kMessageHeaderBytes = 40;

// Encoded viewer-state records ride in pool-backed vectors so batch
// construction and decode recycle their buffers instead of hitting the heap
// per message (see src/net/payload_pool.h).
using WireRecord = std::array<uint8_t, kViewerStateWireBytes>;
using WireRecordVec = std::vector<WireRecord, PoolAllocator<WireRecord>>;

enum class MsgKind {
  kViewerStateBatch,
  kDeschedule,
  kStartPlay,
  kStartConfirm,
  kHeartbeat,
  kFailureNotice,
  kBlockData,
  kClientRequest,
  kCentralCommand,
  kReserveRequest,
  kReserveReply,
  kRejoinRequest,
  kRejoinReply,
};

struct TigerMessage : Payload {
  explicit TigerMessage(MsgKind k) : kind(k) {}
  MsgKind kind;
  // Lets phase-anchored NetFaultPlan rules key windows off message kinds
  // ("drop everything for 5 ms after the first DescheduleMsg").
  int fault_kind() const override { return static_cast<int>(kind); }
};

// A batch of viewer states forwarded cub-to-cub (§4.1.1). Batching amortizes
// the per-message overhead across the min/max lead gap. Records travel in
// their 100-byte wire encoding — serialization is load-bearing, not
// decorative.
struct ViewerStateBatchMsg : TigerMessage {
  // Typical forwarding batches are a handful of records; reserving at
  // construction makes the common case exactly one pooled buffer.
  static constexpr size_t kReserveRecords = 8;
  // Senders split batches at this many records (an MTU-style bound). Keeping
  // the encoded payload at 32 * 100 B also keeps the record vector inside the
  // payload pool's largest size class, so a flush-heavy tick never touches
  // the heap.
  static constexpr size_t kMaxBatchRecords = 32;

  ViewerStateBatchMsg() : TigerMessage(MsgKind::kViewerStateBatch) {
    wire_records.reserve(kReserveRecords);
  }
  WireRecordVec wire_records;
  // Tracing metadata, not part of the wire image: pairs the sender's
  // VSTATE_HOP begin with the receiver's end. 0 when tracing is off.
  uint64_t trace_flow = 0;

  void Add(const ViewerStateRecord& record) { wire_records.push_back(record.Encode()); }

  // Decodes every record into `*out` (cleared first); corrupt entries are
  // CHECK failures (the simulated transport is reliable, so corruption means
  // a bug). Receivers on the hot path pass a reused scratch vector so a
  // batch's decode allocates nothing in steady state.
  void DecodeInto(std::vector<ViewerStateRecord>* out) const {
    out->clear();
    out->reserve(wire_records.size());
    for (const auto& wire : wire_records) {
      auto record = ViewerStateRecord::Decode(wire);
      TIGER_CHECK(record.has_value()) << "corrupt viewer state on the wire";
      out->push_back(*record);
    }
  }

  std::vector<ViewerStateRecord> Decode() const {
    std::vector<ViewerStateRecord> records;
    DecodeInto(&records);
    return records;
  }

  int64_t WireBytes() const {
    return kMessageHeaderBytes +
           static_cast<int64_t>(wire_records.size()) * kViewerStateWireBytes;
  }
};

// A deschedule request, forwarded cub-to-cub and controller-to-cub (§4.1.2).
struct DescheduleMsg : TigerMessage {
  DescheduleMsg() : TigerMessage(MsgKind::kDeschedule) {}
  DescheduleRecord record;
  // Message-level lineage: kills must be auditable (origin, hop chain)
  // exactly like viewer states. It lives on the message, not the record —
  // DescheduleRecord's defaulted comparison is what dedups kills, and
  // lineage must never affect identity.
  RecordLineage lineage;
  static constexpr int64_t WireBytes() {
    return kMessageHeaderBytes + kDescheduleWireBytes + kLineageWireBytes;
  }
};

// Controller -> cub: start playing `file` for `viewer` (§4.1.3). Sent to the
// cub holding the first block and, redundantly, to that cub's successor.
struct StartPlayMsg : TigerMessage {
  StartPlayMsg() : TigerMessage(MsgKind::kStartPlay) {}
  ViewerId viewer;
  uint32_t client_address = 0;
  PlayInstanceId instance;
  FileId file;
  int64_t bitrate_bps = 0;
  // First block the viewer wants (0 unless seeking).
  int64_t start_position = 0;
  // True for the redundant copy held against primary-cub failure.
  bool redundant = false;
  // Message-level lineage minted by the controller (insertion requests are
  // the third message class the checker walks, §4.1.3).
  RecordLineage lineage;
  static constexpr int64_t WireBytes() {
    return kMessageHeaderBytes + 48 + kLineageWireBytes;
  }
};

// Cub -> controller: a queued start request was inserted into the schedule.
struct StartConfirmMsg : TigerMessage {
  StartConfirmMsg() : TigerMessage(MsgKind::kStartConfirm) {}
  ViewerId viewer;
  PlayInstanceId instance;
  SlotId slot;
  FileId file;
  TimePoint first_block_due;
  static constexpr int64_t WireBytes() { return kMessageHeaderBytes + 32; }
};

// Deadman-protocol heartbeat between cubs (§2.3).
struct HeartbeatMsg : TigerMessage {
  HeartbeatMsg() : TigerMessage(MsgKind::kHeartbeat) {}
  CubId from;
  static constexpr int64_t WireBytes() { return kMessageHeaderBytes + 8; }
};

// Broadcast by the cub that detects a peer's death (or by fault injection for
// a single disk).
struct FailureNoticeMsg : TigerMessage {
  FailureNoticeMsg() : TigerMessage(MsgKind::kFailureNotice) {}
  CubId failed_cub;     // Invalid if only a disk failed.
  DiskId failed_disk;   // Invalid if the whole cub failed.
  CubId reporter;
  static constexpr int64_t WireBytes() { return kMessageHeaderBytes + 16; }
};

// Cub -> client: one block (or one declustered mirror fragment) of content.
// Carried on the data plane, paced at the stream bitrate.
struct BlockDataMsg : TigerMessage {
  BlockDataMsg() : TigerMessage(MsgKind::kBlockData) {}
  ViewerId viewer;
  PlayInstanceId instance;
  FileId file;
  int64_t position = 0;
  int32_t mirror_fragment = -1;  // -1: whole primary block.
  int64_t content_bytes = 0;
  TimePoint due;
};

// Client -> controller: start or stop a play.
struct ClientRequestMsg : TigerMessage {
  ClientRequestMsg() : TigerMessage(MsgKind::kClientRequest) {}
  enum class Op { kStart, kStop };
  Op op = Op::kStart;
  ViewerId viewer;
  uint32_t client_address = 0;
  FileId file;
  // For kStart: first block to play (0 = beginning; >0 = seek).
  int64_t start_position = 0;
  // For kStop: which play instance to stop.
  PlayInstanceId instance;
  static constexpr int64_t WireBytes() { return kMessageHeaderBytes + 32; }
};

// Centralized-baseline command: the controller instructs a cub to deliver one
// block. "If the message ... is 100 bytes long (which is about the size of
// the comparable message sent from cub to cub in the distributed system)"
// (§3.3) — we reuse the viewer-state wire size.
struct CentralCommandMsg : TigerMessage {
  CentralCommandMsg() : TigerMessage(MsgKind::kCentralCommand) {}
  ViewerStateRecord record;
  static constexpr int64_t WireBytes() { return kMessageHeaderBytes + kViewerStateWireBytes; }
};

// Two-phase network-schedule insertion (multiple-bitrate Tiger, §4.2).
struct ReserveRequestMsg : TigerMessage {
  ReserveRequestMsg() : TigerMessage(MsgKind::kReserveRequest) {}
  CubId from;
  ViewerId viewer;
  PlayInstanceId instance;
  Duration start_offset;  // Offset in the network schedule.
  int64_t bitrate_bps = 0;
  static constexpr int64_t WireBytes() { return kMessageHeaderBytes + 32; }
};

struct ReserveReplyMsg : TigerMessage {
  ReserveReplyMsg() : TigerMessage(MsgKind::kReserveReply) {}
  CubId from;
  PlayInstanceId instance;
  bool ok = false;
  static constexpr int64_t WireBytes() { return kMessageHeaderBytes + 16; }
};

// Broadcast by a restarted cub: "I am back; tell me what the schedule looks
// like." Receivers mark the cub (and its disks) alive and answer with a
// RejoinReplyMsg.
struct RejoinRequestMsg : TigerMessage {
  RejoinRequestMsg() : TigerMessage(MsgKind::kRejoinRequest) {}
  CubId from;
  static constexpr int64_t WireBytes() { return kMessageHeaderBytes + 8; }
};

// A living peer's answer to a rejoin: its current failure beliefs plus every
// not-yet-due viewer-state record in its schedule window. The rejoiner merges
// the failure sets first, then applies the records through the normal
// viewer-state path, so takeovers and dedup behave exactly as for forwarded
// records.
struct RejoinReplyMsg : TigerMessage {
  RejoinReplyMsg() : TigerMessage(MsgKind::kRejoinReply) {}
  CubId from;
  std::vector<CubId> failed_cubs;
  std::vector<DiskId> failed_disks;
  WireRecordVec wire_records;

  void Add(const ViewerStateRecord& record) { wire_records.push_back(record.Encode()); }

  std::vector<ViewerStateRecord> Decode() const {
    std::vector<ViewerStateRecord> records;
    records.reserve(wire_records.size());
    for (const auto& wire : wire_records) {
      auto record = ViewerStateRecord::Decode(wire);
      TIGER_CHECK(record.has_value()) << "corrupt viewer state on the wire";
      records.push_back(*record);
    }
    return records;
  }

  int64_t WireBytes() const {
    return kMessageHeaderBytes + 8 +
           static_cast<int64_t>(failed_cubs.size() + failed_disks.size()) * 4 +
           static_cast<int64_t>(wire_records.size()) * kViewerStateWireBytes;
  }
};

}  // namespace tiger

#endif  // SRC_CORE_MESSAGES_H_
