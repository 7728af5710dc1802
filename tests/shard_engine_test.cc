// ShardEngine unit tests: window derivation, cross-shard merge determinism,
// boundary arrivals, the epoch-clamp fallback, and barrier-task cadence.
//
// The load-bearing property is thread-count invariance: with the shard count
// fixed, every observable (journal order, event counts, clock) must be
// byte-identical whether the windows execute on 1 worker or many. Each test
// that exercises cross-shard traffic therefore runs the same scenario at
// several thread counts and compares the merged journals exactly.

#include "src/sim/shard_engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace tiger {
namespace {

TEST(ShardEngineTest, WindowIsLargestMillisecondDivisorWithinLookahead) {
  EXPECT_EQ(ShardEngine({1, 1, Duration::Micros(300)}).window(), Duration::Micros(250));
  EXPECT_EQ(ShardEngine({1, 1, Duration::Micros(1500)}).window(), Duration::Micros(1000));
  EXPECT_EQ(ShardEngine({1, 1, Duration::Micros(250)}).window(), Duration::Micros(250));
  EXPECT_EQ(ShardEngine({1, 1, Duration::Micros(40)}).window(), Duration::Micros(40));
  // Below the floor: epoch fallback keeps the minimum window and clamps.
  EXPECT_EQ(ShardEngine({1, 1, Duration::Micros(7)}).window(), ShardEngine::kMinWindow);
}

// A ring of cross-shard hops: each hop logs through the journal and posts to
// the next shard one lookahead later.
struct Ring {
  ShardEngine* engine = nullptr;
  std::string* log = nullptr;
  Duration hop_delay = Duration::Micros(300);

  void Fire(int shard, int hops) {
    const TimePoint now = engine->shard(shard).Now();
    std::string* out = log;
    engine->JournalAppend(now, [out, now, shard, hops] {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "t=%lld s=%d h=%d\n",
                    static_cast<long long>(now.micros()), shard, hops);
      *out += buf;
    });
    if (hops <= 0) {
      return;
    }
    const int dst = (shard + 1) % engine->shards();
    engine->Post(dst, now + hop_delay, [this, dst, hops] { Fire(dst, hops - 1); });
  }
};

std::string RunRing(int threads, Duration lookahead, Duration hop_delay,
                    uint64_t* clamped = nullptr, uint64_t* events = nullptr) {
  ShardEngine engine({4, threads, lookahead});
  std::string log;
  Ring ring{&engine, &log, hop_delay};
  for (int s = 0; s < engine.shards(); ++s) {
    // Staggered driver-context seeds so hops from different shards collide
    // at shared instants downstream.
    engine.Post(s, TimePoint::Zero() + Duration::Micros(50 + 100 * s),
                [&ring, s] { ring.Fire(s, 24); });
  }
  engine.RunUntil(TimePoint::Zero() + Duration::Millis(40));
  if (clamped != nullptr) {
    *clamped = engine.clamped_posts();
  }
  if (events != nullptr) {
    *events = engine.processed_events();
  }
  return log;
}

TEST(ShardEngineTest, CrossShardMergeIsThreadCountInvariant) {
  uint64_t clamped1 = 0, events1 = 0;
  const std::string serial =
      RunRing(1, Duration::Micros(300), Duration::Micros(300), &clamped1, &events1);
  EXPECT_NE(serial.find("h=0"), std::string::npos) << "ring never completed";
  EXPECT_EQ(clamped1, 0u) << "lookahead contract violated in normal operation";
  for (int threads : {2, 3, 4}) {
    uint64_t clamped = 0, events = 0;
    const std::string parallel =
        RunRing(threads, Duration::Micros(300), Duration::Micros(300), &clamped, &events);
    EXPECT_EQ(serial, parallel) << "divergence at threads=" << threads;
    EXPECT_EQ(events1, events);
    EXPECT_EQ(clamped, 0u);
  }
}

TEST(ShardEngineTest, ArrivalExactlyAtWindowHorizonKeepsSerialOrder) {
  // Shard 0 fires at t=250µs and posts to shard 1 arriving at exactly
  // t=500µs — a window barrier — where shard 1 already has a local event.
  // The local event was scheduled first, so it must fire first, at every
  // thread count.
  auto run = [](int threads) {
    ShardEngine engine({2, threads, Duration::Micros(300)});
    std::string log;
    engine.shard(1).ScheduleAt(TimePoint::FromMicros(500), [&engine, &log] {
      std::string* out = &log;
      engine.JournalAppend(engine.shard(1).Now(), [out] { *out += "local@500\n"; });
    });
    engine.shard(0).ScheduleAt(TimePoint::FromMicros(250), [&engine, &log] {
      std::string* out = &log;
      engine.JournalAppend(engine.shard(0).Now(), [out] { *out += "sent@250\n"; });
      engine.Post(1, TimePoint::FromMicros(500), [&engine, out] {
        engine.JournalAppend(engine.shard(1).Now(), [out] { *out += "arrived@500\n"; });
      });
    });
    engine.RunUntil(TimePoint::FromMicros(2000));
    EXPECT_EQ(engine.clamped_posts(), 0u);
    return log;
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, "sent@250\nlocal@500\narrived@500\n");
  EXPECT_EQ(serial, run(2));
}

TEST(ShardEngineTest, EpochFallbackClampsSubWindowArrivals) {
  // Zero effective lookahead: the engine floors the window at kMinWindow and
  // clamps posts that would land inside the already-executed window.
  auto run = [](int threads, uint64_t* clamped) {
    ShardEngine engine({2, threads, Duration::Zero()});
    std::string log;
    engine.shard(0).ScheduleAt(TimePoint::FromMicros(10), [&engine, &log] {
      std::string* out = &log;
      engine.Post(1, TimePoint::FromMicros(20), [&engine, out] {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "arrived t=%lld\n",
                      static_cast<long long>(engine.shard(1).Now().micros()));
        engine.JournalAppend(engine.shard(1).Now(), [out, buf] { *out += buf; });
      });
    });
    engine.RunUntil(TimePoint::FromMicros(200));
    *clamped = engine.clamped_posts();
    return log;
  };
  uint64_t clamped1 = 0, clamped2 = 0;
  const std::string serial = run(1, &clamped1);
  EXPECT_EQ(clamped1, 1u);
  // Delivery slips to the window barrier (25µs), not t=20.
  EXPECT_EQ(serial, "arrived t=25\n");
  EXPECT_EQ(serial, run(2, &clamped2));
  EXPECT_EQ(clamped2, 1u);
}

TEST(ShardEngineTest, PeriodicTasksFireOnGridInRegistrationOrder) {
  ShardEngine engine({2, 2, Duration::Micros(300)});
  std::string log;
  auto stamp = [&engine, &log](const char* name) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s@%lldus\n", name,
                  static_cast<long long>(engine.Now().micros()));
    log += buf;
  };
  engine.AddPeriodicTask(Duration::Millis(1), [&stamp] { stamp("a"); });
  engine.AddPeriodicTask(Duration::Millis(1), [&stamp] { stamp("b"); });
  engine.AddPeriodicTask(Duration::Millis(2), [&stamp] { stamp("c"); });
  // No events anywhere: idle windows must still land on every task due.
  engine.RunUntil(TimePoint::Zero() + Duration::Millis(4));
  EXPECT_EQ(log,
            "a@1000us\nb@1000us\n"
            "a@2000us\nb@2000us\nc@2000us\n"
            "a@3000us\nb@3000us\n"
            "a@4000us\nb@4000us\nc@4000us\n");
  EXPECT_EQ(engine.Now(), TimePoint::Zero() + Duration::Millis(4));
}

TEST(ShardEngineTest, DestroyWithoutRunningAWindowReleasesParkedWorkers) {
  // Workers park before the first epoch; the destructor must wake and join
  // them even though no window ever ran.
  for (int threads : {2, 4}) {
    ShardEngine engine({4, threads, Duration::Micros(300)});
    EXPECT_EQ(engine.threads(), threads);
  }
}

TEST(ShardEngineTest, ThreadsAreCappedAtShards) {
  ShardEngine engine({3, 8, Duration::Micros(300)});
  EXPECT_EQ(engine.threads(), 3);
  std::string log;
  for (int s = 0; s < engine.shards(); ++s) {
    engine.shard(s).ScheduleAt(TimePoint::FromMicros(100), [&engine, &log, s] {
      std::string* out = &log;
      engine.JournalAppend(engine.shard(s).Now(),
                           [out, s] { *out += "s" + std::to_string(s) + "\n"; });
    });
  }
  engine.RunUntil(TimePoint::FromMicros(1000));
  EXPECT_EQ(log, "s0\ns1\ns2\n");
  EXPECT_EQ(engine.processed_events(), 3u);
}

// Many short RunUntil calls with driver-side work between them: between
// calls the workers run out of spin and yield budget and park, and each call
// must wake them again. Every shard logs its own events, so the per-shard
// logs compare exactly across thread counts.
std::vector<std::string> RunChoppedRing(int threads) {
  ShardEngine engine({4, threads, Duration::Micros(300)});
  std::vector<std::string> logs(4);
  std::function<void(int, int)> fire = [&](int shard, int hops) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "t=%lld h=%d\n",
                  static_cast<long long>(engine.shard(shard).Now().micros()), hops);
    logs[static_cast<size_t>(shard)] += buf;  // Only shard's own thread writes it.
    if (hops > 0) {
      const int dst = (shard + 1) % engine.shards();
      engine.Post(dst, engine.shard(shard).Now() + Duration::Micros(300),
                  [&fire, dst, hops] { fire(dst, hops - 1); });
    }
  };
  for (int s = 0; s < engine.shards(); ++s) {
    engine.Post(s, TimePoint::FromMicros(40 + 70 * s), [&fire, s] { fire(s, 400); });
  }
  for (int step = 1; step <= 200; ++step) {
    engine.RunUntil(TimePoint::FromMicros(700 * step));
    // Driver-side work between calls: long enough (~0.5 ms) for waiting
    // workers to pass their spin and yield budgets and park.
    const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(500);
    while (std::chrono::steady_clock::now() < until) {
    }
    for (int s = 0; s < engine.shards(); ++s) {
      logs[static_cast<size_t>(s)] += "|";
    }
  }
  EXPECT_EQ(engine.clamped_posts(), 0u);
  return logs;
}

TEST(ShardEngineTest, ParkAndWakeAcrossShortRunsIsThreadCountInvariant) {
  const std::vector<std::string> serial = RunChoppedRing(1);
  EXPECT_NE(serial[0].find("h=0"), std::string::npos) << "ring never completed";
  EXPECT_EQ(serial, RunChoppedRing(4));
}

TEST(ShardEngineTest, DriverContextJournalAppliesImmediately) {
  ShardEngine engine({2, 1, Duration::Micros(300)});
  std::string log;
  engine.JournalAppend(engine.Now(), [&log] { log += "now"; });
  EXPECT_EQ(log, "now");
}

}  // namespace
}  // namespace tiger
