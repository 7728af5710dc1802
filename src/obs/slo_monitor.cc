#include "src/obs/slo_monitor.h"

#include <cstdio>
#include <utility>

#include "src/common/check.h"

namespace tiger {

SloMonitor::SloMonitor(const QosLedger* ledger, Options options)
    : ledger_(ledger), options_(options) {
  TIGER_CHECK(ledger_ != nullptr);
  TIGER_CHECK(options_.eval_cadence > Duration::Zero());
  TIGER_CHECK(options_.short_window >= options_.eval_cadence);
  TIGER_CHECK(options_.long_window >= options_.short_window);
  TIGER_CHECK(options_.glitch_budget > 0);
  TIGER_CHECK(options_.viewer_glitch_budget > 0);
  // One slot per cadence tick across the long window, plus the baseline
  // sample just outside it. Preallocated: evaluation never grows anything.
  samples_.resize(static_cast<size_t>(options_.long_window / options_.eval_cadence) + 2);
}

void SloMonitor::AddBreachProbe(std::string reason, std::function<int64_t()> counter) {
  Probe probe;
  probe.reason = std::move(reason);
  probe.counter = std::move(counter);
  probe.last = probe.counter();
  probes_.push_back(std::move(probe));
}

void SloMonitor::SetIncidentHandler(std::function<void(const std::string&)> handler) {
  handler_ = std::move(handler);
}

double SloMonitor::WindowBurn(TimePoint cutoff, int64_t* glitches_out) const {
  // Baseline: the newest sample at or before the cutoff; the run start (all
  // zeros) when the window still covers the whole run.
  Sample baseline;
  for (size_t i = 0; i < sample_size_; ++i) {
    const Sample& s = samples_[(sample_head_ + i) % samples_.size()];
    if (s.when > cutoff) {
      break;
    }
    baseline = s;
  }
  const Sample& current = samples_[(sample_head_ + sample_size_ - 1) % samples_.size()];
  const int64_t glitches = current.glitches - baseline.glitches;
  const int64_t blocks = current.blocks - baseline.blocks;
  *glitches_out = glitches;
  const double rate =
      static_cast<double>(glitches) / static_cast<double>(blocks > 0 ? blocks : 1);
  return rate / options_.glitch_budget;
}

void SloMonitor::Breach(const std::string& reason) {
  if (state_.first_breach_reason.empty()) {
    state_.first_breach_reason = reason;
    state_.first_breach_when = state_.now;
  }
  ++state_.breach_ticks;
  if (handler_) {
    handler_(reason);
  }
}

void SloMonitor::Evaluate(TimePoint now) {
  const QosLedger::Rollup fleet = ledger_->FleetRollup();
  Sample sample;
  sample.when = now;
  sample.glitches = fleet.late + fleet.lost;
  sample.blocks = fleet.blocks;
  if (sample_size_ == samples_.size()) {
    sample_head_ = (sample_head_ + 1) % samples_.size();
    --sample_size_;
  }
  samples_[(sample_head_ + sample_size_) % samples_.size()] = sample;
  ++sample_size_;

  state_.now = now;
  ++state_.evals;
  state_.blocks = fleet.blocks;
  state_.glitches = sample.glitches;
  int64_t short_glitches = 0;
  int64_t long_glitches = 0;
  state_.burn_short = WindowBurn(now - options_.short_window, &short_glitches);
  state_.burn_long = WindowBurn(now - options_.long_window, &long_glitches);
  state_.worst_viewer_burn = 0;
  state_.worst_viewer = 0;
  ledger_->ForEachViewer([this](uint32_t viewer, const QosLedger::Rollup& rollup) {
    if (rollup.blocks == 0 && rollup.late + rollup.lost == 0) {
      return;
    }
    const double rate = static_cast<double>(rollup.late + rollup.lost) /
                        static_cast<double>(rollup.blocks > 0 ? rollup.blocks : 1);
    const double burn = rate / options_.viewer_glitch_budget;
    if (burn > state_.worst_viewer_burn) {
      state_.worst_viewer_burn = burn;
      state_.worst_viewer = viewer;
    }
  });

  // One breach per tick, most severe first: a checker firing outranks a
  // budget burn (it is the incident, not a symptom of one).
  for (Probe& probe : probes_) {
    const int64_t value = probe.counter();
    if (value > probe.last) {
      probe.last = value;
      Breach(probe.reason);
      return;
    }
    probe.last = value;
  }
  if (short_glitches > 0 && state_.burn_short >= options_.fast_burn) {
    Breach("slo_fast_burn");
    return;
  }
  if (long_glitches > 0 && state_.burn_long >= options_.slow_burn) {
    Breach("slo_slow_burn");
    return;
  }
  if (state_.worst_viewer_burn >= 1.0) {
    Breach("viewer_budget_exhausted");
  }
}

std::string SloMonitor::StateJson() const {
  char buf[256];
  std::string out = "{\n  \"schema\": \"tiger-slo-v1\",\n";
  std::snprintf(buf, sizeof(buf), "  \"now_us\": %lld,\n  \"evals\": %lld,\n",
                static_cast<long long>(state_.now.micros()),
                static_cast<long long>(state_.evals));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"budget\": {\"glitch_per_block\": %.6f, \"viewer_glitch_per_block\": %.6f, "
                "\"fast_burn\": %.2f, \"slow_burn\": %.2f, \"short_window_us\": %lld, "
                "\"long_window_us\": %lld},\n",
                options_.glitch_budget, options_.viewer_glitch_budget, options_.fast_burn,
                options_.slow_burn, static_cast<long long>(options_.short_window.micros()),
                static_cast<long long>(options_.long_window.micros()));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"fleet\": {\"blocks\": %lld, \"glitches\": %lld, \"burn_short\": %.6f, "
                "\"burn_long\": %.6f},\n",
                static_cast<long long>(state_.blocks), static_cast<long long>(state_.glitches),
                state_.burn_short, state_.burn_long);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"worst_viewer\": {\"viewer\": %u, \"burn\": %.6f},\n", state_.worst_viewer,
                state_.worst_viewer_burn);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"breaches\": {\"ticks\": %lld, \"first_reason\": \"%s\", \"first_us\": "
                "%lld},\n",
                static_cast<long long>(state_.breach_ticks),
                state_.first_breach_reason.c_str(),
                static_cast<long long>(state_.first_breach_when.micros()));
  out += buf;
  out += "  \"probes\": {";
  for (size_t i = 0; i < probes_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %lld", i == 0 ? "" : ", ",
                  probes_[i].reason.c_str(), static_cast<long long>(probes_[i].last));
    out += buf;
  }
  out += "}\n}\n";
  return out;
}

}  // namespace tiger
