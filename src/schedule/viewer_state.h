// Viewer state records — the currency of Tiger's distributed schedule.
//
// "A viewer state contains the address of the viewer, the file being played,
// the viewer's position in the file, the schedule slot number, the play
// sequence number (how far the viewer has gotten into the current play
// request), and some other bookkeeping information." (§4.1.1)
//
// Receipt must be idempotent (records are routinely double-sent for fault
// tolerance), so records carry the play instance id and sequence number that
// make duplicates recognizable. Mirror viewer states describe one declustered
// secondary fragment and carry the fragment index; their due times are spaced
// block_play_time/decluster apart rather than block_play_time (§4.1.1).
//
// The record serializes to a fixed 100-byte wire image — the size the paper
// uses when costing control traffic (§3.3).

#ifndef SRC_SCHEDULE_VIEWER_STATE_H_
#define SRC_SCHEDULE_VIEWER_STATE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "src/common/ids.h"
#include "src/common/time.h"

namespace tiger {

inline constexpr int64_t kViewerStateWireBytes = 100;

// Causal lineage carried inside the record's reserved "other bookkeeping"
// tail. Lets the schedule checker reconstruct each record's trip around the
// ring: which cub minted the chain, how many hops it has taken, and a
// Lamport stamp ordering it against every other control message it raced.
// Zero protocol effect — the schedule never reads these fields — and zero
// wire cost: the 100-byte image already reserved the space.
struct RecordLineage {
  // Set when the record was minted by a lineage-aware cub. A cleared flag
  // (e.g. a record decoded from an all-zero tail written by an older peer)
  // means every other field is meaningless.
  static constexpr uint16_t kTagged = 1u << 0;

  // Cub that minted the chain (insertion, bootstrap, or mirror takeover).
  uint32_t origin_cub = 0;
  // Monotone per-origin counter; (origin_cub, epoch) names the chain.
  uint32_t epoch = 0;
  // Successor hops since minting. In a healthy ring this tracks `sequence -
  // first_sequence`, which is what the TTL guard in Cub::OnViewerState leans
  // on to break re-forward loops.
  uint16_t hop_count = 0;
  uint16_t flags = 0;
  // Lamport stamp of the most recent send; merged (max+1) at each receive.
  uint64_t lamport = 0;

  bool tagged() const { return (flags & kTagged) != 0; }
  void MarkTagged() { flags |= kTagged; }
  // Stable 64-bit chain name for maps and trace flow ids.
  uint64_t ChainId() const {
    return (static_cast<uint64_t>(origin_cub) << 32) | epoch;
  }
};

// origin_cub value used for chains minted by the controller (start/kill
// messages); real cub ids are small and can never collide with it.
inline constexpr uint32_t kControllerLineageOrigin = 0xFFFFFFFFu;

// Wire size of a lineage header as PutLineage/GetLineage encode it:
// origin(4) + epoch(4) + hop_count(2) + flags(2) + lamport(8). Records absorb
// it inside their reserved 100-byte tail; messages that carry lineage beside
// a payload (start/kill) pay it explicitly in their WireBytes().
inline constexpr int64_t kLineageWireBytes = 20;

struct ViewerStateRecord {
  ViewerId viewer;
  // Network address of the client receiving the stream.
  uint32_t client_address = 0;
  // Identifies the particular start-play request; deschedules name it.
  PlayInstanceId instance;
  FileId file;
  // Block index within the file to send next.
  int64_t position = 0;
  // Schedule slot the viewer occupies.
  SlotId slot;
  // How many blocks of this play request have been scheduled so far.
  int64_t sequence = 0;
  int64_t bitrate_bps = 0;
  // Mirror records: which declustered fragment this describes (-1 = primary).
  int32_t mirror_fragment = -1;
  // When the described block (or fragment) is due at the network. Derivable
  // from slot + geometry for primaries; explicit so mirror timing (spaced
  // play_time/decluster) uses the same machinery.
  TimePoint due;
  // Audit-only causal lineage (see RecordLineage). Excluded from DedupKey so
  // duplicate detection keeps working across hops that restamp it.
  RecordLineage lineage;

  bool is_mirror() const { return mirror_fragment >= 0; }

  // Identity for idempotence: two records describing the same scheduled send.
  struct Key {
    uint64_t instance;
    uint32_t slot;
    int64_t sequence;
    int32_t mirror_fragment;
    auto operator<=>(const Key&) const = default;
  };
  Key DedupKey() const {
    return Key{instance.value(), slot.value(), sequence, mirror_fragment};
  }

  std::array<uint8_t, kViewerStateWireBytes> Encode() const;
  static std::optional<ViewerStateRecord> Decode(
      const std::array<uint8_t, kViewerStateWireBytes>& wire);

  std::string ToString() const;
};

// A deschedule request: "If this instance of viewer is in this schedule slot,
// remove the viewer." (§4.1.2)
struct DescheduleRecord {
  ViewerId viewer;
  PlayInstanceId instance;
  SlotId slot;

  auto operator<=>(const DescheduleRecord&) const = default;
  std::string ToString() const;
};

// Wire size of the kill record itself. The carrying DescheduleMsg adds its
// own lineage header on top (see DescheduleMsg::WireBytes).
inline constexpr int64_t kDescheduleWireBytes = 32;

}  // namespace tiger

#endif  // SRC_SCHEDULE_VIEWER_STATE_H_
