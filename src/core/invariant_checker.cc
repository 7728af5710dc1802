#include "src/core/invariant_checker.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/core/shard_relays.h"
#include "src/core/system.h"
#include "src/trace/profiler.h"

namespace tiger {

namespace {

// Cross-view checks only consider entries at least this old: a deschedule or
// failure notice still in flight makes younger entries legitimately disagree.
constexpr Duration kSettleTime = Duration::Millis(300);

constexpr const char* kKindNames[InvariantChecker::kKinds] = {
    "live_double_book",  "off_boundary_send",        "settled_double_book",
    "due_mismatch",      "lead_bound_violation",     "stale_ownership",
    "mirror_schedule_mismatch", "truly_lost_record", "orphan_kill",
    "duplicate_kill",    "resurrection",             "ttl_exceeded",
    "phantom_record",
};
constexpr const char* kPaperSections[InvariantChecker::kKinds] = {
    "4.1.3", "4.1",   "4.1.3", "4.1.1", "4.1.1", "4.1.3", "2.3",
    "4.1.1", "4.1.2", "4.1.2", "4.1.2", "4.1.1", "4",
};
constexpr const char* kHopKindNames[] = {"create", "forward", "receive", "ttl_drop", "kill"};

// Appends printf-formatted text to `out` (the exporters build strings this
// way to stay deterministic and locale-free).
template <typename... Args>
void Appendf(std::string* out, const char* fmt, Args... args) {
  if constexpr (sizeof...(Args) == 0) {
    out->append(fmt);
  } else {
    char buf[512];
    const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
    TIGER_DCHECK(n >= 0 && static_cast<size_t>(n) < sizeof(buf));
    out->append(buf, static_cast<size_t>(n));
  }
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const int closed = std::fclose(f);
  return written == body.size() && closed == 0;
}

}  // namespace

const char* InvariantChecker::KindName(Kind kind) {
  const size_t i = static_cast<size_t>(kind);
  return i < kKinds ? kKindNames[i] : "unknown";
}

const char* InvariantChecker::PaperSection(Kind kind) {
  const size_t i = static_cast<size_t>(kind);
  return i < kKinds ? kPaperSections[i] : "?";
}

const char* InvariantChecker::HopKindName(HopKind kind) {
  return kHopKindNames[static_cast<size_t>(kind)];
}

InvariantChecker::InvariantChecker(TigerSystem* system, ShardEngine* engine)
    : system_(system), engine_(engine) {
  TIGER_CHECK(system != nullptr);
}

template <typename Fn>
void InvariantChecker::Defer(Fn&& apply) {
  TIGER_PROF_SCOPE(kQosAudit);
  if (engine_ == nullptr) {
    apply();
    return;
  }
  engine_->JournalAppend(ShardRelayNow(engine_), std::forward<Fn>(apply));
}

template <typename... Args>
void InvariantChecker::Flag(Violation v, const char* fmt, Args... args) {
  const uint64_t scope = v.chain != 0 ? v.chain : static_cast<uint64_t>(v.instance);
  if (!reported_.emplace(v.kind, scope, v.cub).second) {
    return;  // Same defect, same place: reported once.
  }
  counts_[static_cast<size_t>(v.kind)]++;
  if (violations_.size() >= kMaxViolations) {
    violations_dropped_++;
    return;
  }
  Appendf(&v.what, fmt, args...);
  TIGER_LOG(kError, "checker") << KindName(v.kind) << ": " << v.what;
  violations_.push_back(std::move(v));
}

InvariantChecker::Violation InvariantChecker::About(Kind kind, TimePoint when,
                                                    const ViewerStateRecord& record,
                                                    int64_t cub) {
  return Violation{.when = when,
                   .kind = kind,
                   .chain = record.lineage.tagged() ? record.lineage.ChainId() : 0,
                   .viewer = record.viewer.value(),
                   .instance = static_cast<int64_t>(record.instance.value()),
                   .slot = record.slot.value(),
                   .cub = cub,
                   .sequence = record.sequence};
}

TimePoint InvariantChecker::Now() const { return system_->sim().Now(); }

const TigerConfig& InvariantChecker::config() const { return system_->config(); }

int64_t InvariantChecker::total() const {
  int64_t sum = 0;
  for (int64_t count : counts_) {
    sum += count;
  }
  return sum;
}

int64_t InvariantChecker::invariant_violations() const {
  int64_t sum = 0;
  for (size_t k = 0; k < kKinds; ++k) {
    sum += IsInvariant(static_cast<Kind>(k)) ? counts_[k] : 0;
  }
  return sum;
}

int64_t InvariantChecker::fatal_divergences() const {
  return total() - invariant_violations() - Count(Kind::kTrulyLostRecord);
}

// ---------------------------------------------------------------------------
// Slot occupancy and send timing
// ---------------------------------------------------------------------------

void InvariantChecker::OnInsert(SlotId slot, PlayInstanceId instance, TimePoint when) {
  Defer([this, slot, instance, when] {
    ++inserts_;
    auto& occupants = occupancy_[slot];
    if (!occupants.empty()) {
      Flag(Violation{.when = when,
                     .kind = Kind::kLiveDoubleBook,
                     .instance = static_cast<int64_t>(instance.value()),
                     .slot = slot.value()},
           "slot %u double-booked at %.6fs: instance %" PRIu64
           " joins %zu live occupant(s); first occupant instance %" PRIu64
           " inserted at %.6fs",
           slot.value(), when.seconds(), instance.value(), occupants.size(),
           occupants.front().instance.value(), occupants.front().inserted.seconds());
    }
    occupants.push_back(Occupant{instance, when});
  });
}

void InvariantChecker::OnRemove(SlotId slot, PlayInstanceId instance) {
  Defer([this, slot, instance] {
    auto it = occupancy_.find(slot);
    if (it == occupancy_.end()) {
      return;
    }
    auto& occupants = it->second;
    for (auto o = occupants.begin(); o != occupants.end(); ++o) {
      if (o->instance == instance) {
        occupants.erase(o);
        break;
      }
    }
    if (occupants.empty()) {
      occupancy_.erase(it);
    }
  });
}

void InvariantChecker::OnPrimarySend(uint32_t cub, const ViewerStateRecord& record,
                                     DiskId disk) {
  // The due time must be a slot-start instant for the serving disk. The
  // geometry is immutable, so the check runs in place; only a finding
  // journals.
  const TimePoint canonical = system_->geometry().NextSlotStart(disk, record.slot, record.due);
  if (canonical == record.due) {
    return;
  }
  Defer([this, v = About(Kind::kOffBoundarySend, record.due, record, cub), disk,
         canonical]() mutable {
    const double due_s = v.when.seconds();
    const uint32_t slot = static_cast<uint32_t>(v.slot);
    Flag(std::move(v), "slot %u disk %u: send due %.6fs is not a slot boundary (expected %.6fs)",
         slot, disk.value(), due_s, canonical.seconds());
  });
}

// ---------------------------------------------------------------------------
// Shadow schedule arithmetic
// ---------------------------------------------------------------------------

int64_t InvariantChecker::FragOffsetUs(int32_t fragment) const {
  const int64_t play = config().block_play_time.micros();
  return static_cast<int64_t>(fragment) * play / config().shape.decluster_factor;
}

InvariantChecker::ChainState* InvariantChecker::Witness(const ViewerStateRecord& record,
                                                        TimePoint when, HopKind kind,
                                                        uint32_t cub, int32_t peer) {
  if (!record.lineage.tagged()) {
    untagged_records_++;
    return nullptr;
  }
  const uint64_t id = record.lineage.ChainId();
  auto [it, inserted] = chains_.try_emplace(id);
  ChainState& chain = it->second;
  if (inserted) {
    chains_created_++;
    chain.id = id;
    chain.viewer = record.viewer.value();
    chain.instance = record.instance.value();
    chain.slot = record.slot.value();
    chain_order_.push_back(id);
    viewer_chains_[record.viewer.value()].push_back(id);
    instance_chains_[record.instance.value()].push_back(id);
  }
  chain.last_evidence = when;
  chain.max_seq_seen = std::max(chain.max_seq_seen, record.sequence);
  chain.cubs_seen |= CubBit(cub);
  if (chain.hops.size() < kMaxHopsPerChain) {
    chain.hops.push_back(Hop{when, kind, cub, peer, record.sequence, record.mirror_fragment,
                             record.lineage.hop_count, record.lineage.lamport});
  } else {
    chain.hops_dropped++;
  }
  return &chain;
}

void InvariantChecker::CheckArithmetic(ChainState& chain, const ViewerStateRecord& record,
                                       TimePoint when, uint32_t cub) {
  const int64_t play = config().block_play_time.micros();
  if (!record.is_mirror()) {
    if (!chain.has_anchor) {
      // First primary evidence anchors the lane; everything later must fit
      // the shared arithmetic exactly (§4.1.1: due times are computed, never
      // guessed).
      chain.has_anchor = true;
      chain.anchor_seq = record.sequence;
      chain.anchor_due_us = record.due.micros();
      chain.anchor_pos = record.position;
      return;
    }
    const int64_t steps = record.sequence - chain.anchor_seq;
    const int64_t expected_due = chain.anchor_due_us + steps * play;
    const int64_t expected_pos = chain.anchor_pos + steps;
    if (record.due.micros() != expected_due || record.position != expected_pos) {
      Flag(About(Kind::kDueMismatch, when, record, cub),
           "seq %" PRId64 ": due %" PRId64 "us pos %" PRId64 " vs shadow %" PRId64
           "us pos %" PRId64,
           record.sequence, record.due.micros(), record.position, expected_due, expected_pos);
    }
    return;
  }
  // Mirror fragment: one declustered lane per recovered block, keyed by the
  // block position the fragments carry unchanged. Along a lane, sequence and
  // fragment advance in lockstep and dues are spaced play/decluster apart
  // with the cubs' exact non-drifting integer arithmetic.
  auto [lane_it, lane_new] = chain.mirror_lanes.try_emplace(record.position);
  MirrorLane& lane = lane_it->second;
  if (lane_new) {
    lane.anchor_seq = record.sequence;
    lane.anchor_frag = record.mirror_fragment;
    lane.anchor_due_us = record.due.micros();
    if (chain.has_anchor) {
      // The lane must hang off the primary lane: fragment j of the block at
      // sequence s is due at primary_due(s) + j*play/decluster.
      const int64_t block_due = chain.anchor_due_us + (record.sequence - chain.anchor_seq) * play;
      const int64_t expected = block_due + FragOffsetUs(record.mirror_fragment);
      if (record.due.micros() != expected) {
        Flag(About(Kind::kMirrorScheduleMismatch, when, record, cub),
             "fragment %d of block %" PRId64 ": due %" PRId64 "us vs shadow %" PRId64 "us",
             record.mirror_fragment, record.position, record.due.micros(), expected);
      }
    }
    return;
  }
  const int64_t seq_steps = record.sequence - lane.anchor_seq;
  const int64_t frag_steps = record.mirror_fragment - lane.anchor_frag;
  const int64_t expected_due =
      lane.anchor_due_us + FragOffsetUs(record.mirror_fragment) - FragOffsetUs(lane.anchor_frag);
  if (seq_steps != frag_steps || record.due.micros() != expected_due) {
    Flag(About(Kind::kMirrorScheduleMismatch, when, record, cub),
         "fragment %d seq %" PRId64 ": due %" PRId64 "us vs lane %" PRId64
         "us (anchor frag %d seq %" PRId64 ")",
         record.mirror_fragment, record.sequence, record.due.micros(), expected_due,
         lane.anchor_frag, lane.anchor_seq);
  }
}

void InvariantChecker::CheckLead(const ViewerStateRecord& record, TimePoint landed,
                                 uint32_t cub) {
  // The forwarding guard never sends a record due more than maxVStateLead
  // away; takeover-synthesized successors can run one block past that
  // horizon. Anything further ahead cannot come from a healthy sender and
  // means a view is growing unboundedly. Records arriving with less than
  // minVStateLead are not flagged: bootstraps, takeovers and rejoins deliver
  // late by design.
  const Duration bound = config().max_vstate_lead + config().block_play_time * 2;
  const Duration lead = record.due - landed;
  if (lead > bound) {
    Flag(About(Kind::kLeadBound, landed, record, cub),
         "reached cub%u %" PRId64 "us ahead of due (bound %" PRId64 "us)", cub, lead.micros(),
         bound.micros());
  }
}

void InvariantChecker::ConfirmDelivery(ChainState& chain, const ViewerStateRecord& record,
                                       uint32_t at) {
  // Any copy reaching any target counts; partial delivery is judged at the
  // horizon.
  auto it = chain.pending.find(PendingKey(record.sequence, record.mirror_fragment));
  if (it == chain.pending.end()) {
    return;
  }
  it->second.received_mask |= CubBit(at);
  if ((it->second.targets_mask & ~it->second.received_mask) == 0) {
    forwards_delivered_++;
    chain.pending.erase(it);
  }
}

// ---------------------------------------------------------------------------
// Lineage evidence intake
// ---------------------------------------------------------------------------

void InvariantChecker::OnRecordCreated(TimePoint when, uint32_t cub, CreateKind kind,
                                       const ViewerStateRecord& record,
                                       const RecordLineage& request) {
  Defer([this, when, cub, kind, record, request] {
    ChainState* chain = Witness(record, when, HopKind::kCreated, cub);
    if (chain == nullptr) {
      return;
    }
    if (request.tagged() && chain->request_chain == 0) {
      // Link the minted record chain back to the controller request that
      // asked for it, so a lineage query walks the full story: request ->
      // insertion -> trip around the ring.
      chain->request_chain = request.ChainId();
    }
    // Insertion races (§4.1.3): two different instances claiming one slot
    // pass cannot both come from legal ownership windows.
    if (kind == CreateKind::kInsert) {
      auto& claims = slot_claims_[record.slot.value()];
      for (const SlotClaim& claim : claims) {
        if (claim.due_us == record.due.micros() && claim.instance != record.instance.value()) {
          Flag(About(Kind::kStaleOwnership, when, record, cub),
               "instances %" PRIu64 " and %" PRIu64 " both inserted at %" PRId64 "us",
               claim.instance, record.instance.value(), record.due.micros());
        }
      }
      claims.push_back(SlotClaim{record.due.micros(), record.instance.value()});
    }
    CheckArithmetic(*chain, record, when, cub);
    // A late kill may have been waiting for this instance's first appearance.
    auto kill_it = kills_.find(record.instance.value());
    if (kill_it != kills_.end()) {
      kill_it->second.orphan_candidate = false;
    }
  });
}

void InvariantChecker::OnRecordForwarded(TimePoint when, uint32_t from, uint32_t to,
                                         const ViewerStateRecord& record) {
  Defer([this, when, from, to, record] {
    ChainState* chain =
        Witness(record, when, HopKind::kForwarded, from, static_cast<int32_t>(to));
    if (chain == nullptr) {
      return;
    }
    CheckArithmetic(*chain, record, when, from);
    PendingForward& pending =
        chain->pending[PendingKey(record.sequence, record.mirror_fragment)];
    if (pending.targets_mask == 0) {
      // Counted per record, like deliveries: the second successor's copy of
      // a double-forwarded record is not a second forward.
      forwards_observed_++;
      pending.first_sent = when;
    }
    pending.targets_mask |= CubBit(to);
  });
}

void InvariantChecker::OnRecordReceived(TimePoint when, uint32_t at,
                                        const ViewerStateRecord& record,
                                        ScheduleView::ApplyResult result) {
  Defer([this, when, at, record, result] {
    CheckLead(record, when, at);
    ChainState* chain = Witness(record, when, HopKind::kReceived, at);
    if (chain == nullptr) {
      return;
    }
    CheckArithmetic(*chain, record, when, at);
    ConfirmDelivery(*chain, record, at);
    if (result == ScheduleView::ApplyResult::kConflict) {
      // The receiving view itself proved the insertion race: another
      // instance already occupies the slot at this exact due time (§4.1.3).
      Flag(About(Kind::kStaleOwnership, when, record, at),
           "view reported slot conflict");
    }
    if (result == ScheduleView::ApplyResult::kNew) {
      auto kill_it = kills_.find(record.instance.value());
      if (kill_it != kills_.end() && (kill_it->second.applied_cubs & CubBit(at)) != 0 &&
          when > kill_it->second.first_when) {
        // This cub applied the kill, yet accepted a fresh record for the
        // killed instance — the spontaneous reschedule §4.1.2's holds exist
        // to prevent.
        Flag(About(Kind::kResurrection, when, record, at),
             "killed instance re-entered a view that applied the kill");
      }
    }
  });
}

void InvariantChecker::OnRecordTtlDropped(TimePoint when, uint32_t at,
                                          const ViewerStateRecord& record) {
  Defer([this, when, at, record] {
    ChainState* chain = Witness(record, when, HopKind::kTtlDropped, at);
    if (chain == nullptr) {
      return;
    }
    // The record did arrive; don't let the guard's drop read as a lost
    // forward.
    ConfirmDelivery(*chain, record, at);
    Flag(About(Kind::kTtlExceeded, when, record, at),
         "hop %u vs sequence %" PRId64 " (slack %d)", record.lineage.hop_count, record.sequence,
         config().max_hop_slack);
  });
}

void InvariantChecker::OnKill(TimePoint when, uint32_t at, const DescheduleRecord& kill,
                              const RecordLineage& lineage, bool new_hold) {
  Defer([this, when, at, kill, lineage, new_hold] {
    kills_observed_++;
    auto [it, inserted] = kills_.try_emplace(kill.instance.value());
    KillState& state = it->second;
    if (inserted) {
      kill_order_.push_back(kill.instance.value());
      state.first_when = when;
      state.viewer = kill.viewer.value();
      state.slot = kill.slot.valid() ? kill.slot.value() : -1;
      // A slot-targeted kill names a confirmed play; if no schedule evidence
      // ever mentions the instance, the kill is orphaned (§4.1.2).
      if (kill.slot.valid() && !instance_chains_.contains(kill.instance.value())) {
        state.orphan_candidate = true;
        state.orphan_deadline = when + kOrphanHorizon;
      }
    }
    state.applied_cubs |= CubBit(at);
    if (lineage.tagged()) {
      // Walk the kill's own trip: the message lineage names the controller
      // chain and advances its hop count at every forward, exactly like a
      // viewer state's.
      if (state.kill_chain == 0) {
        state.kill_chain = lineage.ChainId();
      }
      if (state.hops.size() < kMaxHopsPerChain) {
        state.hops.push_back(Hop{when, HopKind::kKillApplied, at, -1, -1, -1,
                                 lineage.hop_count, lineage.lamport});
      } else {
        state.hops_dropped++;
      }
    }
    if (new_hold) {
      if ((state.fresh_hold_cubs & CubBit(at)) != 0) {
        // Duplicate kills refresh holds with new_hold=false; a second *fresh*
        // hold at one cub means the kill outlived its own hold window — a
        // kill loop §4.1.2's forwarding cutoff should make impossible.
        Flag(Violation{.when = when,
                       .kind = Kind::kDuplicateKill,
                       .viewer = state.viewer,
                       .instance = static_cast<int64_t>(kill.instance.value()),
                       .slot = state.slot,
                       .cub = at},
             "second fresh hold for one instance at one cub");
      }
      state.fresh_hold_cubs |= CubBit(at);
    }
  });
}

// ---------------------------------------------------------------------------
// The periodic pass
// ---------------------------------------------------------------------------

void InvariantChecker::CheckNow() {
  const TimePoint now = Now();
  ResolvePendingForwards(now);
  ResolveOrphanKills(now);
  ScanViews(now);
  PruneState(now);
  last_check_ = now;
  checks_run_++;
}

void InvariantChecker::ResolvePendingForwards(TimePoint now) {
  for (auto& [id, chain] : chains_) {
    for (auto it = chain.pending.begin(); it != chain.pending.end();) {
      const PendingForward& pending = it->second;
      if (pending.first_sent + kLostHorizon > now) {
        ++it;
        continue;
      }
      // Key layout is seq * 256 + (fragment + 1) with fragment + 1 in
      // [0, 255], so plain division recovers the sequence exactly.
      const int64_t sequence = it->first / 256;
      if (pending.received_mask == 0) {
        if (chain.max_seq_seen > sequence) {
          // Both copies vanished but the chain advanced past the record:
          // takeover / failure re-forwarding regenerated it downstream.
          rescued_by_second_successor_++;
        } else {
          Flag(Violation{.when = pending.first_sent,
                         .kind = Kind::kTrulyLostRecord,
                         .chain = chain.id,
                         .viewer = chain.viewer,
                         .instance = static_cast<int64_t>(chain.instance),
                         .slot = chain.slot,
                         .sequence = sequence},
               "forwarded to %d cub(s), never received anywhere",
               __builtin_popcountll(pending.targets_mask));
        }
      } else {
        // One of the double-forwarded copies was lost; the other carried the
        // schedule — §4.1.1's redundancy working as designed.
        rescued_by_second_successor_++;
        forwards_delivered_++;
      }
      it = chain.pending.erase(it);
    }
  }
}

void InvariantChecker::ResolveOrphanKills(TimePoint now) {
  for (auto& [instance, state] : kills_) {
    if (!state.orphan_candidate || state.orphan_deadline > now) {
      continue;
    }
    state.orphan_candidate = false;
    if (!instance_chains_.contains(instance)) {
      Flag(Violation{.when = state.first_when,
                     .kind = Kind::kOrphanKill,
                     .viewer = state.viewer,
                     .instance = static_cast<int64_t>(instance),
                     .slot = state.slot},
           "slot-targeted kill for an instance no schedule evidence names");
    }
  }
}

void InvariantChecker::ScanViews(TimePoint now) {
  struct Sighting {
    uint32_t cub;
    const ScheduleEntry* entry;
  };
  std::map<SlotId, std::vector<Sighting>> primaries_by_slot;
  std::map<ViewerStateRecord::Key, std::pair<TimePoint, uint32_t>> due_by_key;

  for (int c = 0; c < system_->cub_count(); ++c) {
    const CubId id(static_cast<uint32_t>(c));
    if (system_->IsCubFailed(id)) {
      continue;
    }
    const uint32_t cub = id.value();
    system_->cub(id).view().ForEachEntry([&](const ScheduleEntry& entry) {
      const ViewerStateRecord& record = entry.record;
      // Leads are judged once per entry, on the first scan after it landed.
      if (entry.received >= last_check_) {
        CheckLead(record, entry.received, cub);
      }
      // Due-time coherence: every copy of a record agrees on when its block
      // is due, in every view, at all times.
      auto [it, inserted] = due_by_key.try_emplace(record.DedupKey(), record.due, cub);
      if (!inserted && it->second.first != record.due) {
        Flag(About(Kind::kDueMismatch, now, record, cub),
             "copies disagree: cub%u holds due %" PRId64 "us, cub%u holds %" PRId64 "us",
             it->second.second, it->second.first.micros(), cub, record.due.micros());
      }
      if (!record.is_mirror() && entry.received + kSettleTime <= now) {
        primaries_by_slot[record.slot].push_back(Sighting{cub, &entry});
      }
      // Shadow diff: the entry must be explained by evidence at this cub and
      // fit its chain's arithmetic — a record corrupted *after* landing in a
      // view diverges here even though every message checked out on receive.
      if (!record.lineage.tagged()) {
        untagged_view_entries_++;
        return;
      }
      auto chain = chains_.find(record.lineage.ChainId());
      if (chain == chains_.end() || (chain->second.cubs_seen & CubBit(cub)) == 0) {
        Flag(About(Kind::kPhantomRecord, now, record, cub),
             "entry seq %" PRId64 " frag %d has no evidence at this cub", record.sequence,
             record.mirror_fragment);
        return;
      }
      CheckArithmetic(chain->second, record, now, cub);
    });
  }

  // Double-booking: across all settled views, two different play instances
  // must never claim the same slot with due times within one block play time.
  const Duration play = config().block_play_time;
  for (const auto& [slot, sightings] : primaries_by_slot) {
    for (size_t i = 0; i < sightings.size(); ++i) {
      for (size_t j = i + 1; j < sightings.size(); ++j) {
        const ViewerStateRecord& a = sightings[i].entry->record;
        const ViewerStateRecord& b = sightings[j].entry->record;
        if (a.instance == b.instance) {
          continue;
        }
        const Duration delta = a.due > b.due ? a.due - b.due : b.due - a.due;
        if (delta < play) {
          Flag(About(Kind::kSettledDoubleBook, now, b, sightings[j].cub),
               "slot %u double-booked: instance %" PRIu64 " (cub%u) and instance %" PRIu64
               " (cub%u) due %" PRId64 "us apart",
               slot.value(), a.instance.value(), sightings[i].cub, b.instance.value(),
               sightings[j].cub, delta.micros());
        }
      }
    }
  }
}

void InvariantChecker::PruneState(TimePoint now) {
  const int64_t play = config().block_play_time.micros();
  for (auto& [slot, claims] : slot_claims_) {
    std::erase_if(claims, [&](const SlotClaim& claim) {
      return claim.due_us + play < now.micros();
    });
  }
  for (auto it = chains_.begin(); it != chains_.end();) {
    ChainState& chain = it->second;
    if (chain.pending.empty() && chain.last_evidence + kChainRetention < now) {
      chains_pruned_++;
      it = chains_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

std::string InvariantChecker::ReportJson() const {
  std::string out = "{\n  \"schema_version\": 2,\n";
  Appendf(&out, "  \"healthy\": %s,\n", healthy() ? "true" : "false");
  Appendf(&out, "  \"total_violations\": %" PRId64 ",\n", total());
  out += "  \"counts_by_class\": {";
  for (size_t i = 0; i < kKinds; ++i) {
    Appendf(&out, "%s\n    \"%s\": %" PRId64, i == 0 ? "" : ",", kKindNames[i], counts_[i]);
  }
  out += "\n  },\n  \"info\": {\n";
  Appendf(&out, "    \"chains_seen\": %" PRId64 ",\n", chains_created_);
  Appendf(&out, "    \"chains_pruned\": %" PRId64 ",\n", chains_pruned_);
  Appendf(&out, "    \"forwards_observed\": %" PRId64 ",\n", forwards_observed_);
  Appendf(&out, "    \"forwards_delivered\": %" PRId64 ",\n", forwards_delivered_);
  Appendf(&out, "    \"rescued_by_second_successor\": %" PRId64 ",\n",
          rescued_by_second_successor_);
  Appendf(&out, "    \"kills_observed\": %" PRId64 ",\n", kills_observed_);
  Appendf(&out, "    \"inserts\": %" PRId64 ",\n", inserts_);
  Appendf(&out, "    \"untagged_records\": %" PRId64 ",\n", untagged_records_);
  Appendf(&out, "    \"untagged_view_entries\": %" PRId64 ",\n", untagged_view_entries_);
  Appendf(&out, "    \"checks_run\": %" PRId64 ",\n", checks_run_);
  Appendf(&out, "    \"violations_dropped\": %" PRId64 "\n", violations_dropped_);
  out += "  },\n  \"violations\": [";
  for (size_t i = 0; i < violations_.size(); ++i) {
    const Violation& v = violations_[i];
    Appendf(&out,
            "%s\n    {\"class\": \"%s\", \"paper\": \"%s\", \"when_us\": %" PRId64
            ", \"chain\": \"0x%" PRIx64 "\", \"viewer\": %" PRId64 ", \"instance\": %" PRId64
            ", \"slot\": %" PRId64 ", \"cub\": %" PRId64 ", \"sequence\": %" PRId64
            ", \"detail\": \"%s\"}",
            i == 0 ? "" : ",", KindName(v.kind), PaperSection(v.kind), v.when.micros(), v.chain,
            v.viewer, v.instance, v.slot, v.cub, v.sequence, v.what.c_str());
  }
  out += violations_.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string InvariantChecker::ReportCsv() const {
  std::string out = "class,paper_section,when_us,chain,viewer,instance,slot,cub,sequence,detail\n";
  for (const Violation& v : violations_) {
    Appendf(&out,
            "%s,%s,%" PRId64 ",0x%" PRIx64 ",%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64
            ",%" PRId64 ",\"%s\"\n",
            KindName(v.kind), PaperSection(v.kind), v.when.micros(), v.chain, v.viewer,
            v.instance, v.slot, v.cub, v.sequence, v.what.c_str());
  }
  return out;
}

bool InvariantChecker::WriteReportJson(const std::string& path) const {
  return WriteFile(path, ReportJson());
}

bool InvariantChecker::WriteReportCsv(const std::string& path) const {
  return WriteFile(path, ReportCsv());
}

// ---------------------------------------------------------------------------
// Lineage queries
// ---------------------------------------------------------------------------

std::vector<uint64_t> InvariantChecker::ChainsOfViewer(ViewerId viewer) const {
  auto it = viewer_chains_.find(viewer.value());
  if (it == viewer_chains_.end()) {
    return {};
  }
  return {it->second.begin(), it->second.end()};
}

const InvariantChecker::HopVec* InvariantChecker::ChainHops(uint64_t chain) const {
  auto it = chains_.find(chain);
  return it == chains_.end() ? nullptr : &it->second.hops;
}

const InvariantChecker::HopVec* InvariantChecker::KillHops(PlayInstanceId instance) const {
  auto it = kills_.find(instance.value());
  if (it == kills_.end() || it->second.hops.empty()) {
    return nullptr;
  }
  return &it->second.hops;
}

std::string InvariantChecker::ViewerLineage(ViewerId viewer) const {
  std::string out;
  Appendf(&out, "viewer %u\n", viewer.value());
  for (uint64_t id : ChainsOfViewer(viewer)) {
    auto it = chains_.find(id);
    if (it == chains_.end()) {
      Appendf(&out, "  chain 0x%" PRIx64 " (pruned)\n", id);
      continue;
    }
    const ChainState& chain = it->second;
    Appendf(&out, "  chain 0x%" PRIx64 " origin cub %u epoch %u slot %" PRId64, id,
            static_cast<uint32_t>(id >> 32), static_cast<uint32_t>(id), chain.slot);
    if (chain.request_chain != 0) {
      Appendf(&out, " request 0x%" PRIx64, chain.request_chain);
    }
    Appendf(&out, " (%zu hops", chain.hops.size());
    if (chain.hops_dropped > 0) {
      Appendf(&out, ", %" PRId64 " dropped", chain.hops_dropped);
    }
    out += ")\n";
    for (const Hop& hop : chain.hops) {
      Appendf(&out, "    t=%-10" PRId64 " %-8s cub %-3u", hop.when.micros(),
              HopKindName(hop.kind), hop.cub);
      if (hop.peer >= 0) {
        Appendf(&out, " -> cub %-3d", hop.peer);
      } else {
        out += "           ";
      }
      Appendf(&out, " seq %-5" PRId64 " frag %-2d hop %-3u lamport %" PRIu64 "\n",
              hop.sequence, hop.fragment, hop.hop_count, hop.lamport);
    }
  }
  return out;
}

std::string InvariantChecker::LineageCsv() const {
  std::string out =
      "chain,origin_cub,epoch,viewer,instance,slot,kind,when_us,cub,peer,sequence,fragment,"
      "hop_count,lamport\n";
  const auto append_hops = [&out](uint64_t chain, int64_t viewer, uint64_t instance,
                                  int64_t slot, const HopVec& hops) {
    for (const Hop& hop : hops) {
      Appendf(&out,
              "0x%" PRIx64 ",%u,%u,%" PRId64 ",%" PRIu64 ",%" PRId64 ",%s,%" PRId64
              ",%u,%d,%" PRId64 ",%d,%u,%" PRIu64 "\n",
              chain, static_cast<uint32_t>(chain >> 32), static_cast<uint32_t>(chain), viewer,
              instance, slot, HopKindName(hop.kind), hop.when.micros(), hop.cub, hop.peer,
              hop.sequence, hop.fragment, hop.hop_count, hop.lamport);
    }
  };
  for (uint64_t id : chain_order_) {
    auto it = chains_.find(id);
    if (it != chains_.end()) {  // Else pruned.
      const ChainState& chain = it->second;
      append_hops(id, chain.viewer, chain.instance, chain.slot, chain.hops);
    }
  }
  // Kill messages' trips, keyed by their own controller-minted chains.
  for (uint64_t instance : kill_order_) {
    auto it = kills_.find(instance);
    if (it != kills_.end()) {
      const KillState& state = it->second;
      append_hops(state.kill_chain, state.viewer, instance, state.slot, state.hops);
    }
  }
  return out;
}

bool InvariantChecker::WriteLineageCsv(const std::string& path) const {
  return WriteFile(path, LineageCsv());
}

std::string InvariantChecker::ChromeFlowEvents() const {
  // One ph:"s"/"t"/"f" flow per chain, stepping through every hop so Perfetto
  // draws the record's trip around the ring as connected arrows. Track ids
  // match Tracer::ChromeJson: tid = track + 1, and EnableTracing registers
  // net as track 0 followed by one track per cub — so cub c renders on
  // tid c + 2.
  std::string out;
  for (uint64_t id : chain_order_) {
    auto it = chains_.find(id);
    if (it == chains_.end() || it->second.hops.size() < 2) {
      continue;
    }
    const HopVec& hops = it->second.hops;
    for (size_t i = 0; i < hops.size(); ++i) {
      const Hop& hop = hops[i];
      const bool last = i + 1 == hops.size();
      Appendf(&out,
              ",\n{\"ph\":\"%s\",\"pid\":1,\"tid\":%u,\"ts\":%" PRId64
              ",\"name\":\"lineage\",\"cat\":\"lineage\",\"id\":\"0x%" PRIx64 "\"%s"
              ",\"args\":{\"kind\":\"%s\",\"seq\":%" PRId64 ",\"frag\":%d,\"hop\":%u}}",
              i == 0 ? "s" : (last ? "f" : "t"), hop.cub + 2, hop.when.micros(), id,
              last ? ",\"bp\":\"e\"" : "", HopKindName(hop.kind), hop.sequence, hop.fragment,
              hop.hop_count);
    }
  }
  return out;
}

}  // namespace tiger
