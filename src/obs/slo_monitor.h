// SloMonitor: the online glitch-budget referee.
//
// The paper's §5 QoS data is post-hoc; a production server needs the SRE
// question answered *during* the run: "are we meeting the service level
// right now, and how fast are we spending the error budget?" The monitor
// consumes the always-on QoS ledger at a fixed sim cadence and computes
// burn rates over two windows (multi-window burn-rate alerting):
//
//   burn(W) = (glitches in W / blocks delivered in W) / glitch_budget
//
// A short window catches fast burns (a cub death spraying losses); a long
// window catches slow leaks that would exhaust the budget over the run.
// Per-viewer budgets ride along: the worst viewer's cumulative glitch rate
// against its own allowance, so one starved stream can't hide in fleet
// averages (§5's per-viewer tables, made live). Beyond the ledger, breach
// probes poll monotone counters from the schedule checker — its §4
// invariant violations and its fatal divergence count — and any positive
// delta is an instant breach.
//
// On breach the monitor calls the incident handler (TigerSystem wires it to
// DumpIncident, capping bundle count); it never writes files itself.
//
// Determinism: evaluation happens at fixed sim instants — a barrier-aligned
// periodic task in sharded runs, a sim timer serially — and reads only
// barrier-consistent state, so the evaluation sequence (and StateJson) is
// seed-deterministic and sim_threads-invariant.

#ifndef SRC_OBS_SLO_MONITOR_H_
#define SRC_OBS_SLO_MONITOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/stats/qos.h"

namespace tiger {

class SloMonitor {
 public:
  struct Options {
    // Evaluation cadence; a whole-millisecond multiple so sharded dues land
    // exactly on barriers.
    Duration eval_cadence = Duration::Seconds(1);
    Duration short_window = Duration::Seconds(5);
    Duration long_window = Duration::Seconds(60);
    // The SLO: allowed glitches (late + lost) per delivered block.
    double glitch_budget = 0.001;
    // Burn-rate thresholds: short-window burns page fast, long-window burns
    // page on sustained leaks (the classic 14.4x/6x pattern, scaled to sim
    // windows).
    double fast_burn = 10.0;
    double slow_burn = 2.0;
    // Per-viewer allowance; a viewer whose cumulative glitch rate reaches
    // 1.0x of this has exhausted its personal budget.
    double viewer_glitch_budget = 0.01;
    // Incident bundles dumped per run (TigerSystem enforces; further
    // breaches are counted, not dumped).
    int max_incidents = 1;
  };

  struct State {
    TimePoint now;
    int64_t evals = 0;
    int64_t blocks = 0;    // Cumulative client-complete blocks.
    int64_t glitches = 0;  // Cumulative late + lost.
    double burn_short = 0;
    double burn_long = 0;
    double worst_viewer_burn = 0;
    uint32_t worst_viewer = 0;
    int64_t breach_ticks = 0;  // Evaluations that found at least one breach.
    std::string first_breach_reason;
    TimePoint first_breach_when;
  };

  SloMonitor(const QosLedger* ledger, Options options);

  // Registers a monotone counter; any positive delta between evaluations is
  // an instant breach named `reason`. Registration order is the probe order
  // in StateJson — keep it deterministic.
  void AddBreachProbe(std::string reason, std::function<int64_t()> counter);

  // Called on every breach with the reason; the handler owns rate limiting.
  void SetIncidentHandler(std::function<void(const std::string& reason)> handler);

  // One evaluation tick. Must run in driver/barrier context (it reads the
  // real ledger and probe counters, only consistent there).
  void Evaluate(TimePoint now);

  const Options& options() const { return options_; }
  const State& state() const { return state_; }

  // tiger-slo-v1: the live SLO state as deterministic JSON (tigerwatch's
  // live-mode input; embedded in incident manifests).
  std::string StateJson() const;

 private:
  struct Sample {
    TimePoint when;
    int64_t glitches = 0;
    int64_t blocks = 0;
  };
  struct Probe {
    std::string reason;
    std::function<int64_t()> counter;
    int64_t last = 0;
  };

  // Burn rate over (cutoff, now]: deltas against the newest sample at or
  // before `cutoff` (the run start when the window covers everything).
  double WindowBurn(TimePoint cutoff, int64_t* glitches_out) const;
  void Breach(const std::string& reason);

  const QosLedger* ledger_;
  Options options_;
  State state_;
  std::vector<Sample> samples_;  // Ring sized to the long window; preallocated.
  size_t sample_head_ = 0;
  size_t sample_size_ = 0;
  std::vector<Probe> probes_;
  std::function<void(const std::string&)> handler_;
};

}  // namespace tiger

#endif  // SRC_OBS_SLO_MONITOR_H_
