// Shard-context relays for shared observers (DESIGN.md §6h).
//
// In sharded runs, cubs, disks and clients execute on per-shard event loops,
// but the observability objects they report into — the QoS ledger, fault
// stats, the flight recorder's trace feed — are process-global. Mutating
// them from shard context would race and, worse, would interleave
// nondeterministically across thread counts. Each relay below interposes on
// the write interface and defers the mutation to the engine's barrier
// journal, where entries apply in (emission time, shard, per-shard sequence)
// order — a total order fixed by the shard count alone.
// In driver context (construction, bootstrap, barrier tasks) the journal
// applies immediately, so the relays are safe to call from anywhere.
//
// Relayed closures capture their payloads by value; captures past
// InlineFunction's inline buffer heap-box. That cost exists only on
// instrumented runs — the zero-alloc event-loop budget covers the protocol
// hot path, which never goes through a relay. (The schedule checker journals
// its own hooks the same way; see InvariantChecker::Defer.)
//
// The read side of each object is NOT relayed: reads go to the real instance
// (TigerSystem hands tests the real objects; only actors hold relays), and
// are only meaningful in driver context, after a barrier has applied every
// pending journal entry.

#ifndef SRC_CORE_SHARD_RELAYS_H_
#define SRC_CORE_SHARD_RELAYS_H_

#include <vector>

#include "src/common/time.h"
#include "src/sim/shard_engine.h"
#include "src/stats/fault_stats.h"
#include "src/stats/qos.h"
#include "src/trace/profiler.h"
#include "src/trace/trace.h"

namespace tiger {

// Journal ordering key for a relayed mutation: the emitting shard's clock in
// shard context; the barrier clock in driver context (where the journal
// applies immediately and the key is moot).
inline TimePoint ShardRelayNow(ShardEngine* engine) {
  const int s = ShardEngine::CurrentShard();
  return s >= 0 ? engine->shard(s).Now() : engine->Now();
}

class QosLedgerRelay : public QosLedger {
 public:
  QosLedgerRelay(ShardEngine* engine, QosLedger* real) : engine_(engine), real_(real) {}

  void AnnotateServerCause(TimePoint when, ViewerId viewer, int64_t position,
                           GlitchCause cause, uint32_t cub) override {
    TIGER_PROF_SCOPE(kQosAudit);
    QosLedger* real = real_;
    engine_->JournalAppend(ShardRelayNow(engine_), [real, when, viewer, position, cause,
                                                    cub] {
      real->AnnotateServerCause(when, viewer, position, cause, cub);
    });
  }
  void RecordClientBlock(ViewerId viewer) override {
    TIGER_PROF_SCOPE(kQosAudit);
    QosLedger* real = real_;
    engine_->JournalAppend(ShardRelayNow(engine_),
                           [real, viewer] { real->RecordClientBlock(viewer); });
  }
  void RecordClientLate(TimePoint when, ViewerId viewer, int64_t position) override {
    TIGER_PROF_SCOPE(kQosAudit);
    QosLedger* real = real_;
    engine_->JournalAppend(ShardRelayNow(engine_), [real, when, viewer, position] {
      real->RecordClientLate(when, viewer, position);
    });
  }
  void RecordClientLost(TimePoint when, ViewerId viewer, int64_t position) override {
    TIGER_PROF_SCOPE(kQosAudit);
    QosLedger* real = real_;
    engine_->JournalAppend(ShardRelayNow(engine_), [real, when, viewer, position] {
      real->RecordClientLost(when, viewer, position);
    });
  }

 private:
  ShardEngine* engine_;
  QosLedger* real_;
};

class FaultStatsRelay : public FaultStats {
 public:
  FaultStatsRelay(ShardEngine* engine, FaultStats* real) : engine_(engine), real_(real) {}

  void RecordMessageFault(Kind kind, TimePoint when, uint32_t src, uint32_t dst) override {
    TIGER_PROF_SCOPE(kQosAudit);
    FaultStats* real = real_;
    engine_->JournalAppend(ShardRelayNow(engine_), [real, kind, when, src, dst] {
      real->RecordMessageFault(kind, when, src, dst);
    });
  }
  void RecordDiskFault(Kind kind, TimePoint when, DiskId disk) override {
    TIGER_PROF_SCOPE(kQosAudit);
    FaultStats* real = real_;
    engine_->JournalAppend(ShardRelayNow(engine_),
                           [real, kind, when, disk] { real->RecordDiskFault(kind, when, disk); });
  }
  void RecordCubRejoin(TimePoint when, CubId cub) override {
    TIGER_PROF_SCOPE(kQosAudit);
    FaultStats* real = real_;
    engine_->JournalAppend(ShardRelayNow(engine_),
                           [real, when, cub] { real->RecordCubRejoin(when, cub); });
  }
  void RecordMirrorRecovery(TimePoint when, CubId cub, int64_t block) override {
    TIGER_PROF_SCOPE(kQosAudit);
    FaultStats* real = real_;
    engine_->JournalAppend(ShardRelayNow(engine_), [real, when, cub, block] {
      real->RecordMirrorRecovery(when, cub, block);
    });
  }

 private:
  ShardEngine* engine_;
  FaultStats* real_;
};

// Per-shard trace sink: buffers every event the shard's tracer records during
// a window. TigerSystem drains all shards' buffers at each barrier — merged
// by (when, shard, buffer order) — into the flight recorder, so it sees one
// deterministic, thread-count-invariant stream.
class ShardTraceBuffer : public TraceSink {
 public:
  void OnTraceEvent(const TraceEvent& event) override { events_.push_back(event); }
  std::vector<TraceEvent>& events() { return events_; }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace tiger

#endif  // SRC_CORE_SHARD_RELAYS_H_
