#include "src/core/invariant_checker.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/core/shard_relays.h"
#include "src/core/system.h"

namespace tiger {

namespace {

// Cross-view checks only consider entries at least this old: a deschedule or
// failure notice still in flight makes younger entries legitimately disagree.
constexpr Duration kSettleTime = Duration::Millis(300);

}  // namespace

InvariantChecker::InvariantChecker(TigerSystem* system, ShardEngine* engine)
    : system_(system), engine_(engine) {}

void InvariantChecker::Defer(InlineFunction apply) {
  if (engine_ == nullptr) {
    apply();
    return;
  }
  TIGER_PROF_SCOPE(kQosAudit);
  engine_->JournalAppend(ShardRelayNow(engine_), std::move(apply));
}

void InvariantChecker::AddViolation(TimePoint when, Kind kind, std::string what) {
  if (!reported_.insert(what).second) {
    return;
  }
  TIGER_LOG(kError, "invariants") << "invariant violated: " << what;
  violations_.push_back(Violation{when, kind, std::move(what)});
}

int64_t InvariantChecker::Count(Kind kind) const {
  return std::count_if(violations_.begin(), violations_.end(),
                       [kind](const Violation& v) { return v.kind == kind; });
}

void InvariantChecker::OnInsert(SlotId slot, PlayInstanceId instance, TimePoint when) {
  Defer([this, slot, instance, when] {
    ++inserts_;
    auto& occupants = occupancy_[slot];
    if (!occupants.empty()) {
      char buf[240];
      std::snprintf(buf, sizeof(buf),
                    "slot %u double-booked at %.6fs: instance %llu joins %zu live occupant(s); "
                    "first occupant instance %llu inserted at %.6fs",
                    slot.value(), when.seconds(),
                    static_cast<unsigned long long>(instance.value()), occupants.size(),
                    static_cast<unsigned long long>(occupants.front().instance.value()),
                    occupants.front().inserted.seconds());
      AddViolation(when, Kind::kLiveDoubleBook, buf);
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

void InvariantChecker::OnPrimarySend(SlotId slot, DiskId disk, TimePoint due) {
  Defer([this, slot, disk, due] {
    // The due time must be a slot-start instant for the serving disk.
    const TimePoint canonical = system_->geometry().NextSlotStart(disk, slot, due);
    if (canonical != due) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "slot %u disk %u: send due %.6fs is not a slot boundary (expected %.6fs)",
                    slot.value(), disk.value(), due.seconds(), canonical.seconds());
      AddViolation(due, Kind::kOffBoundarySend, buf);
    }
  });
}

void InvariantChecker::CheckNow() {
  checks_run_++;
  const TigerConfig& config = system_->config();
  const TimePoint now = system_->sim().Now();
  // Takeover-synthesized successors can run one block past the forwarding
  // horizon; anything beyond that means a view is growing unboundedly.
  const Duration max_lead = config.max_vstate_lead + config.block_play_time * 2;

  struct Sighting {
    int cub;
    const ScheduleEntry* entry;
  };
  std::map<SlotId, std::vector<Sighting>> primaries_by_slot;
  std::map<ViewerStateRecord::Key, std::pair<TimePoint, int>> due_by_key;

  for (int c = 0; c < system_->cub_count(); ++c) {
    CubId id(static_cast<uint32_t>(c));
    if (system_->IsCubFailed(id)) {
      continue;
    }
    const ScheduleView& view = system_->cub(id).view();
    view.ForEachEntry([&](const ScheduleEntry& entry) {
      const ViewerStateRecord& record = entry.record;
      // Lead bounds, evaluated once per entry: the first scan after receipt.
      // Records arriving with less than minVStateLead are not flagged:
      // bootstraps, takeovers and rejoins deliver late by design.
      if (entry.received >= last_check_) {
        const Duration lead = record.due - entry.received;
        if (lead > max_lead) {
          std::ostringstream os;
          os << "cub" << c << " received " << record.ToString() << " "
             << lead.micros() << "us ahead of its due time (max "
             << max_lead.micros() << "us)";
          AddViolation(now, Kind::kLeadBound, os.str());
        }
      }
      // Due-time coherence: every copy of a record agrees on when its block
      // is due, in every view, at all times.
      auto [it, inserted] =
          due_by_key.try_emplace(record.DedupKey(), std::make_pair(record.due, c));
      if (!inserted && it->second.first != record.due) {
        std::ostringstream os;
        os << "due mismatch for " << record.ToString() << ": cub" << it->second.second
           << " holds " << it->second.first.micros() << "us, cub" << c
           << " holds " << record.due.micros() << "us";
        AddViolation(now, Kind::kDueMismatch, os.str());
      }
      if (!record.is_mirror() && entry.received + kSettleTime <= now) {
        primaries_by_slot[record.slot].push_back(Sighting{c, &entry});
      }
    });
  }

  // Double-booking: across all settled views, two different play instances
  // must never claim the same slot with due times within one block play time.
  for (const auto& [slot, sightings] : primaries_by_slot) {
    for (size_t i = 0; i < sightings.size(); ++i) {
      for (size_t j = i + 1; j < sightings.size(); ++j) {
        const ViewerStateRecord& a = sightings[i].entry->record;
        const ViewerStateRecord& b = sightings[j].entry->record;
        if (a.instance == b.instance) {
          continue;
        }
        const Duration delta = a.due > b.due ? a.due - b.due : b.due - a.due;
        if (delta < config.block_play_time) {
          std::ostringstream os;
          os << "slot " << slot << " double-booked: instance " << a.instance << " (cub"
             << sightings[i].cub << ") and instance " << b.instance << " (cub"
             << sightings[j].cub << ") due " << delta.micros() << "us apart";
          AddViolation(now, Kind::kSettledDoubleBook, os.str());
        }
      }
    }
  }
  last_check_ = now;
}

}  // namespace tiger
