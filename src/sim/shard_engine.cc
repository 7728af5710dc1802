#include "src/sim/shard_engine.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

#include "src/trace/profiler.h"

namespace tiger {

namespace {

thread_local int tls_current_shard = -1;

// Divisors of 1000 µs, descending: candidate window sizes that tile every
// millisecond-multiple cadence exactly.
constexpr int64_t kGridDivisorsUs[] = {1000, 500, 250, 200, 125, 100, 50, 40, 25};

int64_t AlignUpTo(int64_t value, int64_t grid) {
  return value + (grid - value % grid) % grid;
}

// Wait budgets for the window hand-off, in polls of the awaited word. On the
// 250-cub / 8-shard / 4-thread ring a window holds ~6 events, so with a CPU per
// thread the other side usually answers within the pause spin: on a 4-core
// host these budgets ran that ring at 2.1x the stream-seconds per wall-second
// of a mutex + condition-variable hand-off (window wall p50 17.7 -> 3.5 us).
// On an oversubscribed host the other side cannot answer until it is
// scheduled, and the yields hand it the CPU: a spin with no yield phase (4000
// pauses) ran the ring pinned to 1 CPU at 8k stream-s/s, the mutex 60-80k. There,
// the spin itself only delays the thread being waited for, so it is skipped
// (UsableCpus below): pinned to 1 CPU the ring then ran 1.1-1.3x the mutex
// hand-off instead of 0.9-1.0x, and pinned to 2 CPUs 2.2-2.5x. Past both
// budgets the waiter parks, so an idle engine burns no CPU.
constexpr int kSpinPauses = 64;
constexpr int kYieldPolls = 200;

// CPUs this process may run on: its affinity mask, where the platform has one.
int UsableCpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
#endif
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

// Blocks until ready(word) holds, acquiring the value that satisfied it:
// spin, then yield, then park. `first_poll` past the spin and yield budgets
// parks at once. Publishers bump the word with a seq_cst read-modify-write
// before notifying: notify skips the futex wake when the library's waiter
// count reads zero, and a plain store could be reordered after that read,
// losing the wake-up of a waiter that parked in between.
template <typename Ready>
uint32_t SpinYieldPark(const std::atomic<uint32_t>& word, Ready ready, int first_poll = 0) {
  uint32_t v = word.load(std::memory_order_acquire);
  for (int poll = first_poll; !ready(v); ++poll) {
    if (poll < kSpinPauses) {
      CpuRelax();
    } else if (poll < kSpinPauses + kYieldPolls) {
      std::this_thread::yield();
    } else {
      word.wait(v, std::memory_order_acquire);
    }
    v = word.load(std::memory_order_acquire);
  }
  return v;
}

}  // namespace

int ShardEngine::CurrentShard() { return tls_current_shard; }

Duration ShardEngine::WindowFor(Duration lookahead) {
  for (int64_t d : kGridDivisorsUs) {
    if (d <= lookahead.micros()) {
      return Duration::Micros(d);
    }
  }
  // Lookahead below the floor: run epoch windows of kMinWindow and let the
  // post clamp absorb violations.
  return kMinWindow;
}

ShardEngine::ShardEngine(Options options) : options_(options) {
  TIGER_CHECK(options.shards >= 1 && options.shards <= 256)
      << "shard count " << options.shards << " outside the 8-bit TimerId tag";
  TIGER_CHECK(options.threads >= 1);
  window_ = WindowFor(options.lookahead);
  threads_ = std::min(options.threads, options.shards);
  sims_.reserve(static_cast<size_t>(options.shards));
  for (int i = 0; i < options.shards; ++i) {
    sims_.push_back(std::make_unique<Simulator>());
    sims_.back()->set_shard_tag(static_cast<uint8_t>(i));
  }
  lanes_ = std::vector<ShardLane>(static_cast<size_t>(options.shards));
  first_poll_ = UsableCpus() < threads_ ? kSpinPauses : 0;
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ShardEngine::~ShardEngine() {
  shutdown_ = true;
  epoch_.fetch_add(1);
  epoch_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

uint64_t ShardEngine::processed_events() const {
  uint64_t total = 0;
  for (const auto& sim : sims_) {
    total += sim->processed_events();
  }
  return total;
}

void ShardEngine::Post(int dst_shard, TimePoint when, InlineFunction cb) {
  TIGER_DCHECK(dst_shard >= 0 && dst_shard < shards());
  const int src = tls_current_shard;
  if (src < 0) {
    // Driver context: everything is quiesced at now_, schedule directly.
    if (when < now_) {
      when = now_;
      ++clamped_posts_;
    }
    sims_[static_cast<size_t>(dst_shard)]->ScheduleAt(when, std::move(cb));
    return;
  }
  ShardLane& lane = lanes_[static_cast<size_t>(src)];
  lane.posts.push_back(PendingPost{when, lane.post_seq++, static_cast<uint32_t>(src),
                                   dst_shard, std::move(cb)});
}

void ShardEngine::JournalAppend(TimePoint when, InlineFunction apply) {
  const int src = tls_current_shard;
  if (src < 0) {
    // Driver context is single-threaded and already globally ordered.
    apply();
    return;
  }
  ShardLane& lane = lanes_[static_cast<size_t>(src)];
  lane.journal.push_back(
      JournalEntry{when, lane.journal_seq++, static_cast<uint32_t>(src), std::move(apply)});
}

void ShardEngine::AddPeriodicTask(Duration period, InlineFunction task) {
  TIGER_CHECK(tls_current_shard < 0) << "tasks must be registered from driver context";
  TIGER_CHECK(period > Duration::Zero());
  TIGER_CHECK(period.micros() % window_.micros() == 0)
      << "task period " << period << " does not land on the " << window_ << " barrier grid";
  const TimePoint due =
      TimePoint::FromMicros(AlignUpTo((now_ + period).micros(), window_.micros()));
  tasks_.push_back(PeriodicTask{period, due, std::move(task)});
}

void ShardEngine::AddBarrierHook(InlineFunction hook) {
  TIGER_CHECK(tls_current_shard < 0) << "hooks must be registered from driver context";
  hooks_.push_back(std::move(hook));
}

void ShardEngine::SetProfiler(ShardEngineProfiler* profiler) {
  TIGER_CHECK(profiler == nullptr || profiler->shards() == shards())
      << "profiler sized for " << profiler->shards() << " shards, engine has "
      << shards();
  profiler_ = profiler;
}

void ShardEngine::RunOwnedShards(int worker, TimePoint horizon) {
  for (int s = worker; s < shards(); s += threads_) {
    tls_current_shard = s;
    if (profiler_ != nullptr) {
      // Route this shard's dispatch-level scopes (timer dispatch, decode, …)
      // into its own flat buckets, and time the window inclusively for the
      // per-shard busy/imbalance stats. Only this thread touches shard s this
      // window; the driver reads the stats after the barrier hand-off.
      Profiler* prev = Profiler::SetCurrent(&profiler_->shard_profiler(s));
      const uint64_t t0 = ProfNowTicks();
      sims_[static_cast<size_t>(s)]->RunUntil(horizon);
      profiler_->shard_stats(s).busy_ticks += ProfNowTicks() - t0;
      Profiler::SetCurrent(prev);
    } else {
      sims_[static_cast<size_t>(s)]->RunUntil(horizon);
    }
    tls_current_shard = -1;
  }
}

void ShardEngine::WorkerLoop(int worker) {
  uint32_t seen = 0;
  // Park straight away before the first epoch: set-up pays no spin.
  int first_poll = kSpinPauses + kYieldPolls;
  for (;;) {
    seen = SpinYieldPark(epoch_, [seen](uint32_t e) { return e != seen; }, first_poll);
    first_poll = first_poll_;
    if (shutdown_) {
      return;
    }
    RunOwnedShards(worker, horizon_);
    // Only the last worker in wakes the driver; the others' increments reach
    // it through the release sequence of this read-modify-write chain.
    if (done_.fetch_add(1) + 1 == static_cast<uint32_t>(threads_ - 1)) {
      done_.notify_one();
    }
  }
}

size_t ShardEngine::DrainPosts(TimePoint horizon) {
  merge_posts_.clear();
  for (ShardLane& lane : lanes_) {
    for (PendingPost& p : lane.posts) {
      merge_posts_.push_back(std::move(p));
    }
    lane.posts.clear();
  }
  // (arrival, source shard, per-source seq) is a total order — identical for
  // every thread count because lanes are filled in deterministic per-shard
  // event order. Insertion order then fixes the heap's FIFO tie-break.
  std::sort(merge_posts_.begin(), merge_posts_.end(),
            [](const PendingPost& a, const PendingPost& b) {
              if (a.when != b.when) {
                return a.when < b.when;
              }
              if (a.src != b.src) {
                return a.src < b.src;
              }
              return a.seq < b.seq;
            });
  for (PendingPost& p : merge_posts_) {
    TimePoint when = p.when;
    if (when < horizon) {
      // Lookahead contract violated (epoch fallback): deliver at the barrier.
      when = horizon;
      ++clamped_posts_;
    }
    sims_[static_cast<size_t>(p.dst)]->ScheduleAt(when, std::move(p.cb));
  }
  const size_t merged = merge_posts_.size();
  merge_posts_.clear();
  return merged;
}

size_t ShardEngine::ApplyJournals() {
  merge_journal_.clear();
  for (ShardLane& lane : lanes_) {
    for (JournalEntry& e : lane.journal) {
      merge_journal_.push_back(&e);
    }
  }
  std::sort(merge_journal_.begin(), merge_journal_.end(),
            [](const JournalEntry* a, const JournalEntry* b) {
              if (a->when != b->when) {
                return a->when < b->when;
              }
              if (a->shard != b->shard) {
                return a->shard < b->shard;
              }
              return a->seq < b->seq;
            });
  // Applies run in driver context: any observer work they trigger goes
  // straight through (CurrentShard() == -1), so the journals cannot grow
  // under this iteration.
  for (JournalEntry* e : merge_journal_) {
    e->apply();
  }
  const size_t applied = merge_journal_.size();
  merge_journal_.clear();
  for (ShardLane& lane : lanes_) {
    lane.journal.clear();
  }
  return applied;
}

void ShardEngine::RunUntil(TimePoint t) {
  TIGER_CHECK(tls_current_shard < 0) << "ShardEngine::RunUntil from shard context";
  TIGER_CHECK(t >= now_);
  const int64_t w = window_.micros();
  while (now_ < t) {
    // Earliest instant anything can happen: a pending event on any shard or
    // a periodic task due. Empty windows up to there are skipped.
    TimePoint next_interesting = TimePoint::Max();
    for (const auto& sim : sims_) {
      if (auto te = sim->PeekNextEventTime()) {
        next_interesting = std::min(next_interesting, *te);
      }
    }
    for (const PeriodicTask& task : tasks_) {
      next_interesting = std::min(next_interesting, task.next_due);
    }

    TimePoint horizon;
    if (next_interesting >= t) {
      // Nothing due before the target: one final (possibly partial) window.
      horizon = t;
    } else {
      // Smallest grid point that covers the next event, but always past now_.
      // AlignUp(x) < x + W ≤ x + lookahead keeps the window safe.
      const int64_t grid_next = (now_.micros() / w + 1) * w;
      const int64_t aligned = AlignUpTo(next_interesting.micros(), w);
      horizon = TimePoint::FromMicros(std::min(t.micros(), std::max(grid_next, aligned)));
    }

    // Window timeline, driver perspective: [t_start, t_busy) running our own
    // shards, [t_busy, t_wait) stalled on the worker barrier, then the three
    // serial barrier phases. The five intervals tile the whole loop body, so
    // their sum attributes (almost) all of the engine's wall time.
    const bool prof = profiler_ != nullptr;
    const uint64_t t_start = prof ? ProfNowTicks() : 0;
    uint64_t t_busy = 0;
    uint64_t t_wait = 0;
    if (threads_ > 1) {
      // Every worker finished the last epoch, so nothing races the reset.
      horizon_ = horizon;
      done_.store(0, std::memory_order_relaxed);
      epoch_.fetch_add(1);
      epoch_.notify_all();
      RunOwnedShards(0, horizon);
      if (prof) {
        t_busy = ProfNowTicks();
      }
      const uint32_t workers = static_cast<uint32_t>(threads_ - 1);
      SpinYieldPark(done_, [workers](uint32_t d) { return d == workers; }, first_poll_);
      if (prof) {
        t_wait = ProfNowTicks();
      }
    } else {
      RunOwnedShards(0, horizon);
      if (prof) {
        t_busy = ProfNowTicks();
        t_wait = t_busy;
      }
    }

    now_ = horizon;
    const size_t posts_merged = DrainPosts(horizon);
    const uint64_t t_merge = prof ? ProfNowTicks() : 0;
    const size_t journal_entries = ApplyJournals();
    const uint64_t t_journal = prof ? ProfNowTicks() : 0;
    uint64_t hook_runs = 0;
    for (InlineFunction& hook : hooks_) {
      hook();
      ++hook_runs;
    }
    uint64_t periodic_fires = 0;
    for (PeriodicTask& task : tasks_) {
      if (task.next_due == horizon) {
        task.task();
        task.next_due += task.period;
        ++periodic_fires;
      }
    }
    if (prof) {
      RecordWindowProfile(t_start, t_busy, t_wait, t_merge, t_journal, ProfNowTicks(),
                          posts_merged, journal_entries, periodic_fires, hook_runs);
    }
  }
}

void ShardEngine::RecordWindowProfile(uint64_t t_start, uint64_t t_busy, uint64_t t_wait,
                                      uint64_t t_merge, uint64_t t_journal, uint64_t t_end,
                                      size_t posts_merged, size_t journal_entries,
                                      uint64_t periodic_fires, uint64_t hook_runs) {
  ShardEngineProfiler::EngineStats& e = profiler_->engine();
  ++e.windows;
  e.driver_busy_ticks += t_busy - t_start;
  e.barrier_wait_ticks += t_wait - t_busy;
  e.merge_posts_ticks += t_merge - t_wait;
  e.journal_replay_ticks += t_journal - t_merge;
  e.periodic_tasks_ticks += t_end - t_journal;
  e.span_ticks += t_end - t_start;
  e.posts_merged += posts_merged;
  e.journal_entries += journal_entries;
  e.periodic_fires += periodic_fires;
  e.hook_runs += hook_runs;

  // Per-window, per-shard deltas. The event-based imbalance is a pure
  // function of the logical schedule (deterministic across machines and
  // thread counts); the busy-time imbalance is the machine-dependent twin.
  uint64_t total_ev = 0;
  uint64_t max_ev = 0;
  uint64_t total_busy = 0;
  uint64_t max_busy = 0;
  for (int s = 0; s < shards(); ++s) {
    const uint64_t ev = sims_[static_cast<size_t>(s)]->processed_events();
    const uint64_t dev = ev - profiler_->prev_events(s);
    profiler_->prev_events(s) = ev;
    const uint64_t bt = profiler_->shard_stats(s).busy_ticks;
    const uint64_t dbt = bt - profiler_->prev_busy_ticks(s);
    profiler_->prev_busy_ticks(s) = bt;
    total_ev += dev;
    max_ev = std::max(max_ev, dev);
    total_busy += dbt;
    max_busy = std::max(max_busy, dbt);
  }
  if (total_ev == 0) {
    return;
  }
  ++e.busy_windows;
  const double imb_ev =
      static_cast<double>(max_ev) * static_cast<double>(shards()) /
      static_cast<double>(total_ev);
  e.event_imbalance_sum += imb_ev;
  e.event_imbalance_max = std::max(e.event_imbalance_max, imb_ev);
  if (total_busy > 0) {
    const double imb_busy =
        static_cast<double>(max_busy) * static_cast<double>(shards()) /
        static_cast<double>(total_busy);
    e.busy_imbalance_sum += imb_busy;
    e.busy_imbalance_max = std::max(e.busy_imbalance_max, imb_busy);
  }
}

}  // namespace tiger
