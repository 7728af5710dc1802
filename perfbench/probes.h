// Isolated unit-cost probes: each times one public layer call in a loop,
// outside any workload, with inputs shaped by the workload just measured.
// The attribution table multiplies these costs by the per-stream-second
// counts the workload produced.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>

#include "spans.h"

namespace perfbench {

struct UnitCosts {
  double schedule_fire_ns = 0;      // Simulator::ScheduleAfter + Step, per event.
  double hop_ns = 0;                // Network::Send + delivery, per message.
  double encode_ns_per_record = 0;  // EncodeMessage on a viewer-state batch.
  double decode_ns_per_record = 0;  // DecodeMessage on the same frame.
  double apply_ns = 0;              // ScheduleView::ApplyViewerState, per call.
};

// `pending_depth`: events kept pending in the probe simulator (the workload's
// sampled heap depth). `batch_records`: records per viewer-state batch.
UnitCosts RunProbes(int64_t pending_depth, int batch_records, SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
