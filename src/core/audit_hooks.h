// Audit evidence hooks — how cubs report schedule-bearing events to an
// observer without src/core depending on src/audit.
//
// The ScheduleAuditor (src/audit) reconstructs the "hallucinated" global
// schedule from per-cub evidence: record creations, forwards, receives and
// kills. Cubs publish that evidence through this pure interface, held as a
// null-checked pointer exactly like SetInvariantChecker / SetQosLedger — zero
// protocol effect, one branch per call site when no auditor is attached.
//
// Every hook carries the authoritative simulated timestamp so the observer
// never needs its own clock.

#ifndef SRC_CORE_AUDIT_HOOKS_H_
#define SRC_CORE_AUDIT_HOOKS_H_

#include <cstdint>
#include <string>

#include "src/common/time.h"
#include "src/schedule/schedule_view.h"
#include "src/schedule/viewer_state.h"

namespace tiger {

class AuditObserver {
 public:
  // Why a record came into existence on a cub (as opposed to arriving from a
  // predecessor). The auditor treats kBootstrap specially: system bootstrap
  // mints the same record on the slot owner and its backup, so the second
  // creation is expected redundancy, not divergence.
  enum class CreateKind : uint8_t {
    kInsert = 0,      // Ownership-window insertion of a queued start (§4.1.3).
    kBootstrap,       // TigerSystem::BootstrapStreams seeding.
    kTakeover,        // Mirror fragment synthesized for a dead peer (§2.3).
    kMirrorRecovery,  // Mirror chain dispatched after a transient read error.
  };

  virtual ~AuditObserver() = default;

  // A record was minted locally (not received off the wire). `request` is the
  // message-level lineage of the controller request that caused the mint
  // (the StartPlayMsg chain for kInsert); untagged when the record was not
  // minted on behalf of a message (bootstrap, takeover, mirror recovery).
  virtual void OnRecordCreated(TimePoint when, uint32_t cub, CreateKind kind,
                               const ViewerStateRecord& record,
                               const RecordLineage& request) = 0;
  // `record` (the successor state) was sent from cub `from` toward cub `to`.
  virtual void OnRecordForwarded(TimePoint when, uint32_t from, uint32_t to,
                                 const ViewerStateRecord& record) = 0;
  // A record arrived at cub `at` and the local view ruled on it.
  virtual void OnRecordReceived(TimePoint when, uint32_t at,
                                const ViewerStateRecord& record,
                                ScheduleView::ApplyResult result) = 0;
  // The hop-count TTL guard dropped a record before it reached the view.
  virtual void OnRecordTtlDropped(TimePoint when, uint32_t at,
                                  const ViewerStateRecord& record) = 0;
  // A deschedule (kill) was applied at cub `at`. `lineage` is the carrying
  // DescheduleMsg's message-level lineage (controller-minted, hop-advanced at
  // each forward), letting the auditor walk a kill's trip exactly like a
  // viewer state's. `removed` is the number of entries it deleted; `new_hold`
  // says a fresh hold was installed (§4.1.2).
  virtual void OnKill(TimePoint when, uint32_t at, const DescheduleRecord& kill,
                      const RecordLineage& lineage, int removed, bool new_hold) = 0;

  // Chrome trace_event fragment (",\n{...}" objects) of ph:"s"/"t"/"f" flow
  // arrows for record lineage; TigerSystem::WriteChromeTrace splices it into
  // the exported timeline. Default: nothing.
  virtual std::string ChromeFlowEvents() const { return std::string(); }

  // The observer's deterministic divergence report (the ScheduleAuditor's
  // JSON); incident bundles include it when non-empty. Default: nothing.
  virtual std::string ReportJson() const { return std::string(); }

  // Divergences that indicate real incoherence — everything except the
  // paper's bounded truly-lost crash losses. The SLO monitor polls this as a
  // breach probe, so the auditor firing mid-run dumps an incident bundle.
  virtual int64_t FatalDivergences() const { return 0; }
};

}  // namespace tiger

#endif  // SRC_CORE_AUDIT_HOOKS_H_
