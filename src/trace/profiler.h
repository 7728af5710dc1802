// Self-profiling: where does the wall-clock time go?
//
// The tracer (src/trace/trace.h) answers "what happened, in simulated time".
// This profiler answers the orthogonal question "what did the host CPU spend
// real time on" — timer dispatch vs. vstate decode vs. barrier waits — so the
// scale sweep's speedup numbers can be explained instead of guessed at
// (ROADMAP item 2 follow-ons: measure real speedup, auto-tune shard count,
// rebalance shard 0).
//
// Design constraints, in priority order:
//
//  1. Zero effect on logical execution. Profiling reads a cycle counter and
//     bumps counters; it never schedules events, allocates, or branches the
//     protocol. A profiled run's trace/timeseries/audit dumps are
//     byte-identical to an unprofiled run's (tests/scale_determinism_test.cc).
//  2. Deterministic counts. Every category's *count* is a function of the
//     logical schedule only — identical across same-seed runs and across
//     `--threads=1` vs `--threads=4`. Only the nanosecond fields are
//     machine-dependent, and profile.json segregates them accordingly.
//  3. Cheap when on. Counting is unconditional (a thread-local read and an
//     increment), but *timing* is stride-sampled: the event loop arms full
//     timing on every kProfSampleStride-th dispatched event, so the two
//     cycle-counter reads a timed scope costs (~35 ns, which would be >30%
//     of the ring workload's ~650 ns/event if paid per scope) amortize to
//     ~1/32 of that. The sampled event index comes from the logical
//     schedule, so which occurrences are timed is itself deterministic;
//     rendering scales sampled self time by count/samples to estimate the
//     total. Within an armed event every scope is timed, so the
//     exclusive-time subtraction stays hierarchy-consistent.
//  4. Nearly free when off. Call sites hold no pointer: the TIGER_PROF_SCOPE
//     macro reads one thread-local; when no profiler is installed the scope
//     constructor is a load + compare.
//  5. Flat storage. A Profiler is a fixed array of {count, samples,
//     self_ticks} buckets, and the sharded engine keeps one Profiler per
//     shard plus per-shard padded stats, so worker threads never share a
//     line.
//
// Scoped timing is *exclusive* (self time): a ProfScope subtracts the time
// spent in nested scopes, so e.g. kVStateDecode does not double-count the
// kScheduleApply work it triggers. The per-thread scope stack is intrusive
// (parent pointers in the scopes themselves) — no allocation, no depth limit.
//
// The hot path is header-only on purpose: simulator.cc and shard_engine.cc
// (tiger_sim) instrument themselves without linking tiger_trace; only the
// cold rendering code (category names, tiger-profile-v1 JSON, Perfetto
// counter fragments) lives in profiler.cc.

#ifndef SRC_TRACE_PROFILER_H_
#define SRC_TRACE_PROFILER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace tiger {

// Raw monotonic cycle counter — the cheapest timestamp the host offers
// (~17 ns rdtsc vs ~30 ns clock_gettime on the reference container; the
// difference decides whether the ≤5% overhead gate holds at ~1.4 µs/event).
// Units are unspecified "ticks"; TigerSystem calibrates ticks→ns once per
// collection by timing the whole run with both this counter and
// steady_clock, so no startup calibration spin is needed.
inline uint64_t ProfNowTicks() {
#if defined(__x86_64__)
  return __rdtsc();
#elif defined(__aarch64__)
  uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

// Fixed cost categories. Adding one means updating kProfCategoryNames in
// profiler.cc (a static_assert pins the two).
enum class ProfCategory : uint8_t {
  // --- dispatch-level (recorded in shard/serial execution context) ---
  kTimerDispatch = 0,  // Per dispatched event: heap pop + callback work no
                       // finer category claims. No scope — count comes from
                       // processed_events and self time is the busy-time
                       // residual, computed when the profile is built.
  kMsgHop,             // Network::Deliver: fault-plan dice + receiver upcall glue.
  kVStateEncode,       // Viewer-state batching + record encode + send.
  kVStateDecode,       // Viewer-state batch decode + per-record receive glue.
  kSlotService,        // Slot service: disk read issue + block send.
  kScheduleApply,      // ScheduleView::ApplyViewerState.
  kDeschedule,         // ScheduleView::ApplyDeschedule.
  kQosAudit,           // QoS ledger mutations + audit observer hooks.
  // --- engine-level (recorded by the ShardEngine driver loop) ---
  kEngineBusy,           // Driver thread executing its own shards' windows.
  kEngineBarrierWait,    // Driver waiting for worker threads at the barrier.
  kEngineMergePosts,     // Cross-shard post drain + deterministic merge sort.
  kEngineJournalReplay,  // Observer journal sort + apply.
  kEnginePeriodicTasks,  // Barrier hooks + periodic tasks (samplers, checkers).
  kCount,  // sentinel
};

inline constexpr int kProfCategoryCount = static_cast<int>(ProfCategory::kCount);

// Timing-sample stride: the event loop arms full (cycle-counter) timing on
// every Nth dispatched event; the rest only count. Power of two so the
// arming test is a mask. Which events are armed is a function of the
// per-shard dispatched-event index — deterministic, like the counts.
inline constexpr uint64_t kProfSampleStride = 32;
static_assert((kProfSampleStride & (kProfSampleStride - 1)) == 0,
              "stride must be a power of two");

// snake_case name used in profile.json and tigerstat (defined in profiler.cc;
// do not call from tiger_sim).
const char* ProfCategoryName(ProfCategory c);

// Flat per-thread (or per-shard) accumulator. Plain struct-of-arrays math —
// no locks, no allocation, no virtuals.
class Profiler {
 public:
  struct Bucket {
    uint64_t count = 0;       // Deterministic: logical-schedule-derived.
    uint64_t samples = 0;     // Deterministic: occurrences inside armed events.
    uint64_t self_ticks = 0;  // Machine-dependent: exclusive ProfNowTicks time
                              // of the sampled occurrences only; scale by
                              // count/samples to estimate the total.
  };

  void Add(ProfCategory c, uint64_t count, uint64_t self_ticks) {
    Bucket& b = buckets_[static_cast<size_t>(c)];
    b.count += count;
    b.samples += count;
    b.self_ticks += self_ticks;
  }
  const Bucket& bucket(ProfCategory c) const {
    return buckets_[static_cast<size_t>(c)];
  }
  void Reset() {
    for (Bucket& b : buckets_) {
      b = Bucket{};
    }
    timing_ = true;
  }

  // Timing arm switch, flipped by Simulator::Step per dispatched event. A
  // fresh Profiler is armed, so direct (non-event-loop) use times every
  // scope.
  void ArmTiming(bool on) { timing_ = on; }
  bool timing_armed() const { return timing_; }

  // The profiler the current thread records into (nullptr = profiling off for
  // this thread). The serial system installs one around its run loop; the
  // sharded engine installs the owned shard's profiler around each window.
  static Profiler* Current() { return tls_current; }
  // Installs `p` and returns the previous profiler so callers can restore it.
  static Profiler* SetCurrent(Profiler* p) {
    Profiler* prev = tls_current;
    tls_current = p;
    return prev;
  }

 private:
  friend class ProfScope;
  alignas(64) Bucket buckets_[kProfCategoryCount];
  bool timing_ = true;
  static inline thread_local Profiler* tls_current = nullptr;
};

// RAII scope. Always bumps the category count; when the profiler's timing is
// armed it also snapshots the cycle counter and pushes itself on an
// intrusive per-thread stack, and destruction attributes (elapsed − nested)
// to the category while crediting the full elapsed time to the parent's
// nested tally (exclusive time). When no profiler is installed both ends are
// a single pointer compare; when timing is disarmed the cost is the count
// increment.
class ProfScope {
 public:
  explicit ProfScope(ProfCategory c) {
    Profiler* p = Profiler::Current();
    if (p == nullptr) {
      return;
    }
    Profiler::Bucket& b = p->buckets_[static_cast<size_t>(c)];
    ++b.count;
    if (!p->timing_armed()) {
      return;
    }
    ++b.samples;
    bucket_ = &b;
    parent_ = tls_top;
    tls_top = this;
    start_ticks_ = ProfNowTicks();
  }
  ~ProfScope() {
    if (bucket_ == nullptr) {
      return;
    }
    const uint64_t elapsed = ProfNowTicks() - start_ticks_;
    bucket_->self_ticks += elapsed >= child_ticks_ ? elapsed - child_ticks_ : 0;
    tls_top = parent_;
    if (parent_ != nullptr) {
      parent_->child_ticks_ += elapsed;
    }
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  static inline thread_local ProfScope* tls_top = nullptr;
  Profiler::Bucket* bucket_ = nullptr;
  ProfScope* parent_ = nullptr;
  uint64_t start_ticks_ = 0;
  uint64_t child_ticks_ = 0;
};

// Restores the previous thread-local profiler on scope exit; the serial
// TigerSystem wraps its RunUntil/RunFor bodies in one of these.
class ScopedProfilerInstall {
 public:
  explicit ScopedProfilerInstall(Profiler* p) : prev_(Profiler::SetCurrent(p)) {}
  ~ScopedProfilerInstall() { Profiler::SetCurrent(prev_); }
  ScopedProfilerInstall(const ScopedProfilerInstall&) = delete;
  ScopedProfilerInstall& operator=(const ScopedProfilerInstall&) = delete;

 private:
  Profiler* prev_;
};

// Per-engine profiling state for the sharded engine: one Profiler per shard
// (written only by the shard's owning thread during a window), padded
// per-shard busy stats, and driver-side window accounting. The driver reads
// shard data only at barriers: each worker's release bump of the engine's
// done counter, acquired by the driver, is the happens-before edge.
class ShardEngineProfiler {
 public:
  struct alignas(64) ShardStats {
    uint64_t busy_ticks = 0;  // Inclusive RunUntil time across all windows.
  };

  // Driver-side accounting. All counts are deterministic (same-seed,
  // thread-count-invariant); all _ticks fields and busy-time imbalance are
  // machine-dependent. Event-based imbalance is deterministic: it is computed
  // from per-window dispatched-event deltas, which the logical schedule fixes.
  struct EngineStats {
    uint64_t windows = 0;
    uint64_t busy_windows = 0;  // Windows that dispatched >= 1 event.
    uint64_t posts_merged = 0;
    uint64_t journal_entries = 0;
    uint64_t periodic_fires = 0;
    uint64_t hook_runs = 0;
    uint64_t driver_busy_ticks = 0;
    uint64_t barrier_wait_ticks = 0;
    uint64_t merge_posts_ticks = 0;
    uint64_t journal_replay_ticks = 0;
    uint64_t periodic_tasks_ticks = 0;
    uint64_t span_ticks = 0;  // Total measured window-loop time.
    // Per busy window: (max shard events) / (mean shard events), accumulated
    // and maxed. Deterministic.
    double event_imbalance_sum = 0;
    double event_imbalance_max = 0;
    // Same ratio over per-window busy-time deltas. Machine-dependent.
    double busy_imbalance_sum = 0;
    double busy_imbalance_max = 0;
  };

  explicit ShardEngineProfiler(int shards)
      : profilers_(static_cast<size_t>(shards)),
        shard_stats_(static_cast<size_t>(shards)),
        prev_events_(static_cast<size_t>(shards), 0),
        prev_busy_ticks_(static_cast<size_t>(shards), 0) {}

  int shards() const { return static_cast<int>(profilers_.size()); }
  Profiler& shard_profiler(int s) { return profilers_[static_cast<size_t>(s)]; }
  const Profiler& shard_profiler(int s) const {
    return profilers_[static_cast<size_t>(s)];
  }
  ShardStats& shard_stats(int s) { return shard_stats_[static_cast<size_t>(s)]; }
  const ShardStats& shard_stats(int s) const {
    return shard_stats_[static_cast<size_t>(s)];
  }
  EngineStats& engine() { return engine_; }
  const EngineStats& engine() const { return engine_; }

  // Scratch the driver uses to turn cumulative per-shard totals into
  // per-window deltas (allocated once at construction).
  uint64_t& prev_events(int s) { return prev_events_[static_cast<size_t>(s)]; }
  uint64_t& prev_busy_ticks(int s) { return prev_busy_ticks_[static_cast<size_t>(s)]; }

  // Category buckets summed across all shards.
  Profiler::Bucket Aggregated(ProfCategory c) const {
    Profiler::Bucket out;
    for (const Profiler& p : profilers_) {
      out.count += p.bucket(c).count;
      out.samples += p.bucket(c).samples;
      out.self_ticks += p.bucket(c).self_ticks;
    }
    return out;
  }

 private:
  std::vector<Profiler> profilers_;
  std::vector<ShardStats> shard_stats_;
  std::vector<uint64_t> prev_events_;
  std::vector<uint64_t> prev_busy_ticks_;
  EngineStats engine_;
};

// Everything profile.json needs, collected by TigerSystem after a run.
// RenderProfileJson writes the full tiger-profile-v1 document;
// RenderProfileCountsJson writes only the deterministic "counts" object —
// tests byte-compare it across runs and thread counts.
struct ProfileData {
  std::string engine;  // "serial" | "sharded"
  int shards = 1;
  int threads = 1;
  int64_t window_us = 0;  // 0 for serial.
  int cubs = 0;
  uint64_t seed = 0;
  uint64_t processed_events = 0;
  uint64_t clamped_posts = 0;
  uint64_t total_run_ns = 0;  // Wall time inside TigerSystem::Run* calls.
  // Converts the tick fields below to nanoseconds in the rendered document.
  // TigerSystem derives it from the run itself (wall ns / wall ticks).
  double ns_per_tick = 1.0;
  Profiler::Bucket categories[kProfCategoryCount];
  ShardEngineProfiler::EngineStats engine_stats;  // Zeros for serial.
  std::vector<uint64_t> per_shard_events;
  std::vector<uint64_t> per_shard_busy_ticks;
};

std::string RenderProfileJson(const ProfileData& data);
std::string RenderProfileCountsJson(const ProfileData& data);

// One periodic sample of cumulative per-category self time, for Perfetto
// counter tracks. sim_us is the simulated timestamp of the sample.
struct ProfileSnapshot {
  int64_t sim_us = 0;
  uint64_t category_ticks[kProfCategoryCount] = {};
};

// Renders ",\n{...}"-style Chrome counter events (ph:"C") plotting the
// per-interval milliseconds spent in each category, spliced into
// Tracer::ChromeJson the same way TimeSeriesSampler::ChromeCounterEvents is.
std::string ProfilerChromeCounterEvents(const std::vector<ProfileSnapshot>& snapshots,
                                        double ns_per_tick);

}  // namespace tiger

// Call-site macro: a scoped exclusive-time sample against the thread's
// current profiler. `cat` is a bare ProfCategory enumerator name.
#define TIGER_PROF_CONCAT_(a, b) a##b
#define TIGER_PROF_CONCAT(a, b) TIGER_PROF_CONCAT_(a, b)
#define TIGER_PROF_SCOPE(cat)                                     \
  ::tiger::ProfScope TIGER_PROF_CONCAT(tiger_prof_scope_, __LINE__)( \
      ::tiger::ProfCategory::cat)

#endif  // SRC_TRACE_PROFILER_H_
