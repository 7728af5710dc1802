// tigerstat: explain where a run's wall-clock time went.
//
//   tigerstat <profile.json> [--topk=N] [--scale=BENCH_scale.json]
//   tigerstat --diff <a.json> <b.json>
//
// Reads the tiger-profile-v1 document TigerSystem::WriteProfile emits (see
// docs/EXPERIMENTS.md E18): deterministic category/engine counts plus the
// machine-dependent nanosecond attribution. Prints the top-k cost categories,
// the engine's barrier breakdown (stall fraction, window utilization), the
// per-shard imbalance, and a concrete sim_shards/sim_threads recommendation.
// --diff compares two profiles category by category — the quickest way to see
// what a change made cheaper or more frequent.
//
// Standard library only (mini_json.h is header-only); usable on artifacts
// copied off CI without any tiger build present.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/mini_json.h"

namespace {

using tiger::JsonValue;

struct Profile {
  std::string path;
  std::string engine;
  int shards = 1;
  int threads = 1;
  long long window_us = 0;
  int cubs = 0;
  long long seed = 0;
  double processed_events = 0;
  double clamped_posts = 0;
  double total_run_ns = 0;
  // Parallel arrays in document (= enum) order.
  std::vector<std::string> category_names;
  std::vector<double> category_counts;
  std::vector<double> category_self_ns;
  // counts.engine
  double windows = 0, busy_windows = 0, posts_merged = 0, journal_entries = 0;
  double periodic_fires = 0, hook_runs = 0;
  double event_imbalance_mean = 0, event_imbalance_max = 0, window_utilization = 0;
  // times_ns.engine
  double driver_busy_ns = 0, barrier_wait_ns = 0, merge_posts_ns = 0;
  double journal_replay_ns = 0, periodic_tasks_ns = 0, span_ns = 0;
  // derived
  double attributed_fraction = 0, barrier_stall_fraction = 0, driver_busy_fraction = 0;
  double busy_imbalance_mean = 0, busy_imbalance_max = 0;
  std::vector<double> per_shard_events;
  std::vector<double> per_shard_busy_ns;
};

double Num(const JsonValue& root, const std::string& path) {
  const JsonValue* v = root.FindPath(path);
  return v != nullptr && v->type == JsonValue::Type::kNumber ? v->number : 0.0;
}

void NumArray(const JsonValue& root, const std::string& path, std::vector<double>* out) {
  const JsonValue* v = root.FindPath(path);
  if (v == nullptr || v->type != JsonValue::Type::kArray) {
    return;
  }
  for (const JsonValue& e : v->array) {
    out->push_back(e.number);
  }
}

bool LoadProfile(const std::string& path, Profile* p, std::string* error) {
  JsonValue root;
  if (!tiger::LoadJsonFile(path, &root, error)) {
    return false;
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->str != "tiger-profile-v1") {
    *error = path + ": not a tiger-profile-v1 document";
    return false;
  }
  p->path = path;
  const JsonValue* engine = root.Find("engine");
  p->engine = engine != nullptr ? engine->str : "?";
  p->shards = static_cast<int>(Num(root, "shards"));
  p->threads = static_cast<int>(Num(root, "threads"));
  p->window_us = static_cast<long long>(Num(root, "window_us"));
  p->cubs = static_cast<int>(Num(root, "cubs"));
  p->seed = static_cast<long long>(Num(root, "seed"));
  p->processed_events = Num(root, "counts.processed_events");
  p->clamped_posts = Num(root, "counts.clamped_posts");
  p->total_run_ns = Num(root, "times_ns.total_run_ns");
  const JsonValue* counts = root.FindPath("counts.categories");
  const JsonValue* times = root.FindPath("times_ns.categories_self_ns");
  if (counts == nullptr || times == nullptr) {
    *error = path + ": missing counts.categories / times_ns.categories_self_ns";
    return false;
  }
  // std::map iteration is name-ordered, not enum-ordered; that is fine — the
  // name is carried alongside and display order is by cost anyway.
  for (const auto& [name, value] : counts->object) {
    p->category_names.push_back(name);
    p->category_counts.push_back(value.number);
    const JsonValue* t = times->Find(name);
    p->category_self_ns.push_back(t != nullptr ? t->number : 0.0);
  }
  p->windows = Num(root, "counts.engine.windows");
  p->busy_windows = Num(root, "counts.engine.busy_windows");
  p->posts_merged = Num(root, "counts.engine.posts_merged");
  p->journal_entries = Num(root, "counts.engine.journal_entries");
  p->periodic_fires = Num(root, "counts.engine.periodic_fires");
  p->hook_runs = Num(root, "counts.engine.hook_runs");
  p->event_imbalance_mean = Num(root, "counts.event_imbalance_mean");
  p->event_imbalance_max = Num(root, "counts.event_imbalance_max");
  p->window_utilization = Num(root, "counts.window_utilization");
  p->driver_busy_ns = Num(root, "times_ns.engine.driver_busy_ns");
  p->barrier_wait_ns = Num(root, "times_ns.engine.barrier_wait_ns");
  p->merge_posts_ns = Num(root, "times_ns.engine.merge_posts_ns");
  p->journal_replay_ns = Num(root, "times_ns.engine.journal_replay_ns");
  p->periodic_tasks_ns = Num(root, "times_ns.engine.periodic_tasks_ns");
  p->span_ns = Num(root, "times_ns.engine.span_ns");
  p->attributed_fraction = Num(root, "derived.attributed_fraction");
  p->barrier_stall_fraction = Num(root, "derived.barrier_stall_fraction");
  p->driver_busy_fraction = Num(root, "derived.driver_busy_fraction");
  p->busy_imbalance_mean = Num(root, "derived.busy_imbalance_mean");
  p->busy_imbalance_max = Num(root, "derived.busy_imbalance_max");
  NumArray(root, "counts.per_shard_events", &p->per_shard_events);
  NumArray(root, "times_ns.per_shard_busy_ns", &p->per_shard_busy_ns);
  return true;
}

double Pct(double num, double den) { return den > 0 ? 100.0 * num / den : 0.0; }

double EventsPerBusyWindow(const Profile& p) {
  return p.busy_windows > 0 ? p.processed_events / p.busy_windows : 0.0;
}

void PrintHeader(const Profile& p) {
  std::printf("profile  %s\n", p.path.c_str());
  std::printf("run      engine=%s shards=%d threads=%d window_us=%lld cubs=%d seed=%lld\n",
              p.engine.c_str(), p.shards, p.threads, p.window_us, p.cubs, p.seed);
  const double wall_s = p.total_run_ns / 1e9;
  std::printf("work     events=%.0f  wall=%.3fs  events/sec=%.0f  clamped_posts=%.0f\n",
              p.processed_events, wall_s,
              wall_s > 0 ? p.processed_events / wall_s : 0.0, p.clamped_posts);
  std::printf("cover    attributed %.1f%% of wall time\n", 100.0 * p.attributed_fraction);
}

void PrintTopCategories(const Profile& p, int topk) {
  std::vector<size_t> order(p.category_names.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return p.category_self_ns[a] > p.category_self_ns[b];
  });
  std::printf("\ntop categories by self time:\n");
  std::printf("  %-22s %12s %7s %14s %10s\n", "category", "self_ms", "%wall", "count",
              "ns/op");
  int shown = 0;
  for (size_t i : order) {
    if (shown >= topk) {
      break;
    }
    if (p.category_self_ns[i] <= 0 && p.category_counts[i] <= 0) {
      continue;
    }
    std::printf("  %-22s %12.2f %6.1f%% %14.0f %10.0f\n", p.category_names[i].c_str(),
                p.category_self_ns[i] / 1e6, Pct(p.category_self_ns[i], p.total_run_ns),
                p.category_counts[i],
                p.category_counts[i] > 0 ? p.category_self_ns[i] / p.category_counts[i] : 0.0);
    shown++;
  }
  if (shown == 0) {
    std::printf("  (no nonzero categories — was profiling enabled for the run?)\n");
  }
}

void PrintEngineSection(const Profile& p) {
  if (p.engine != "sharded") {
    return;
  }
  std::printf("\nengine breakdown (driver perspective, %% of wall):\n");
  std::printf("  driver busy   %6.1f%%   (%.2f ms across %.0f windows)\n",
              Pct(p.driver_busy_ns, p.total_run_ns), p.driver_busy_ns / 1e6, p.windows);
  std::printf("  barrier wait  %6.1f%%   (%.2f ms; stall waiting for worker threads)\n",
              Pct(p.barrier_wait_ns, p.total_run_ns), p.barrier_wait_ns / 1e6);
  std::printf("  merge posts   %6.1f%%   (%.0f cross-shard posts)\n",
              Pct(p.merge_posts_ns, p.total_run_ns), p.posts_merged);
  std::printf("  journal       %6.1f%%   (%.0f entries)\n",
              Pct(p.journal_replay_ns, p.total_run_ns), p.journal_entries);
  std::printf("  periodic      %6.1f%%   (%.0f task fires, %.0f hook runs)\n",
              Pct(p.periodic_tasks_ns, p.total_run_ns), p.periodic_fires, p.hook_runs);
  std::printf("  window utilization %.2f (%.0f of %.0f windows dispatched events)\n",
              p.window_utilization, p.busy_windows, p.windows);
  std::printf("  events per busy window %.1f\n", EventsPerBusyWindow(p));
  std::printf("\nshard balance (max-shard / mean-shard, per busy window):\n");
  std::printf("  by events     mean %.2f  worst %.2f   (deterministic)\n",
              p.event_imbalance_mean, p.event_imbalance_max);
  std::printf("  by busy time  mean %.2f  worst %.2f   (machine-dependent)\n",
              p.busy_imbalance_mean, p.busy_imbalance_max);
  if (!p.per_shard_events.empty()) {
    std::printf("  per-shard events  [");
    for (size_t i = 0; i < p.per_shard_events.size(); ++i) {
      std::printf("%s%.0f", i == 0 ? "" : ", ", p.per_shard_events[i]);
    }
    std::printf("]\n  per-shard busy_ms [");
    for (size_t i = 0; i < p.per_shard_busy_ns.size(); ++i) {
      std::printf("%s%.1f", i == 0 ? "" : ", ", p.per_shard_busy_ns[i] / 1e6);
    }
    std::printf("]\n");
  }
}

// Mirrors TigerConfig::AutoShardCount (tools must stay stdlib-only, so the
// policy is restated here; keep the two in sync).
int AutoShardCount(int num_cubs, int hardware_threads) {
  int shards = std::min(hardware_threads, num_cubs / 12);
  if (shards < 1) {
    shards = 1;
  }
  return std::min(shards, 256);
}

void PrintRecommendation(const Profile& p) {
  std::printf("\nrecommendation:\n");
  if (p.engine != "sharded") {
    const int upper = AutoShardCount(p.cubs, 256);
    if (upper <= 1) {
      std::printf("  serial run; %d cubs is too small to shard (< 24 cubs:\n", p.cubs);
      std::printf("  ring segments under ~12 cubs make most neighbor hops cross-shard).\n");
    } else {
      std::printf("  serial run; this workload can use up to sim_shards=%d.\n", upper);
      std::printf("  set sim_shards=0 and sim_threads=0 to auto-tune for the host\n");
      std::printf("  (picks min(hardware threads, cubs/12); scale_sweep --threads does this).\n");
    }
    return;
  }
  const double stall = p.barrier_stall_fraction;
  if (p.clamped_posts > 0) {
    std::printf("  WARNING: %.0f clamped posts — lookahead contract violated; the\n",
                p.clamped_posts);
    std::printf("  profile explains a run the engine had to degrade. Fix that first.\n");
  }
  // Per-window imbalance is only a load signal when windows hold enough events
  // to spread: 6 events over 8 shards cannot come out even, whatever the
  // cub->shard map. Below kNearEmptyEventsPerShard per shard the driver waits
  // on the fixed per-window hand-off, not on a hot shard.
  constexpr double kNearEmptyEventsPerShard = 4;
  const double events_per_window = EventsPerBusyWindow(p);
  const bool near_empty = events_per_window < kNearEmptyEventsPerShard * p.shards;
  if (stall > 0.30 && near_empty) {
    std::printf("  barrier stall is %.0f%% of wall and windows are nearly empty:\n", 100 * stall);
    std::printf("  %.1f events per busy window across %d shards. The driver pays the\n",
                events_per_window, p.shards);
    std::printf("  window hand-off for almost no work, and the imbalance (events %.2f,\n",
                p.event_imbalance_mean);
    std::printf("  busy time %.2f) is counting noise, not skew; rebalancing will not\n",
                p.busy_imbalance_mean);
    std::printf("  help. Fewer threads (sim_threads=%d) or shards raise events per window.\n",
                std::max(1, p.threads / 2));
  } else if (stall > 0.30 && p.busy_imbalance_mean > 1.5) {
    std::printf("  barrier stall is %.0f%% of wall and shards are imbalanced\n", 100 * stall);
    std::printf("  (busy-time max/mean %.2f): the driver waits on one hot shard.\n",
                p.busy_imbalance_mean);
    std::printf("  try fewer shards (sim_shards=%d) so segments even out, or rebalance\n",
                std::max(1, p.shards / 2));
    std::printf("  the cub->shard map (event imbalance %.2f says the load itself is %s).\n",
                p.event_imbalance_mean,
                p.event_imbalance_mean > 1.5 ? "skewed" : "even — overhead skew, not load");
  } else if (stall > 0.30) {
    std::printf("  barrier stall is %.0f%% of wall with even shards: windows are too\n",
                100 * stall);
    std::printf("  empty (utilization %.2f) for this thread count. Try sim_threads=%d\n",
                p.window_utilization, std::max(1, p.threads / 2));
    std::printf("  or fewer shards; per-window work must outweigh the barrier hand-off.\n");
  } else if (p.threads < p.shards && stall < 0.10) {
    std::printf("  barrier stall is only %.1f%% of wall and threads (%d) < shards (%d):\n",
                100 * stall, p.threads, p.shards);
    std::printf("  there is headroom — try sim_threads=%d.\n", p.shards);
  } else {
    std::printf("  sim_shards=%d sim_threads=%d look reasonable for this run\n", p.shards,
                p.threads);
    std::printf("  (stall %.1f%%, utilization %.2f, busy-time imbalance %.2f).\n", 100 * stall,
                p.window_utilization, p.busy_imbalance_mean);
  }
}

void PrintScaleContext(const std::string& path) {
  JsonValue root;
  std::string error;
  if (!tiger::LoadJsonFile(path, &root, &error)) {
    std::fprintf(stderr, "tigerstat: %s (ignoring --scale)\n", error.c_str());
    return;
  }
  const JsonValue* results = root.Find("results");
  if (results == nullptr || results->type != JsonValue::Type::kArray) {
    std::fprintf(stderr, "tigerstat: %s: no results array (ignoring --scale)\n", path.c_str());
    return;
  }
  std::printf("\nscale-sweep context (%s):\n", path.c_str());
  std::printf("  %-28s %14s %12s\n", "workload", "events/sec", "allocs/ev");
  for (const JsonValue& entry : results->array) {
    const JsonValue* name = entry.Find("name");
    const JsonValue* eps = entry.Find("events_per_sec");
    const JsonValue* ape = entry.Find("allocs_per_event");
    if (name == nullptr || eps == nullptr) {
      continue;
    }
    std::printf("  %-28s %14.0f %12.4f\n", name->str.c_str(), eps->number,
                ape != nullptr ? ape->number : 0.0);
  }
}

int RunDiff(const std::string& path_a, const std::string& path_b) {
  Profile a, b;
  std::string error;
  if (!LoadProfile(path_a, &a, &error) || !LoadProfile(path_b, &b, &error)) {
    std::fprintf(stderr, "tigerstat: %s\n", error.c_str());
    return 2;
  }
  std::printf("diff     a=%s\n         b=%s\n", a.path.c_str(), b.path.c_str());
  std::printf("run      a: engine=%s shards=%d threads=%d seed=%lld events=%.0f wall=%.3fs\n",
              a.engine.c_str(), a.shards, a.threads, a.seed, a.processed_events,
              a.total_run_ns / 1e9);
  std::printf("         b: engine=%s shards=%d threads=%d seed=%lld events=%.0f wall=%.3fs\n",
              b.engine.c_str(), b.shards, b.threads, b.seed, b.processed_events,
              b.total_run_ns / 1e9);
  if (a.shards != b.shards || a.seed != b.seed) {
    std::printf("note     different %s: count deltas reflect that, not a code change\n",
                a.seed != b.seed ? "seeds" : "shard counts");
  }
  std::printf("\n  %-22s %14s %14s %8s %12s %12s %8s\n", "category", "count_a", "count_b",
              "d%", "self_ms_a", "self_ms_b", "d%");
  // Align by name over the *union* of both documents' categories: the two
  // may come from different schema revisions with categories added or
  // removed, and a category only one side knows must show as n/a, not as a
  // silent zero (or be dropped entirely when only b has it).
  std::vector<std::string> names = a.category_names;
  for (const std::string& name : b.category_names) {
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  auto index_of = [](const Profile& p, const std::string& name) -> int {
    for (size_t j = 0; j < p.category_names.size(); ++j) {
      if (p.category_names[j] == name) {
        return static_cast<int>(j);
      }
    }
    return -1;
  };
  for (const std::string& name : names) {
    const int ia = index_of(a, name);
    const int ib = index_of(b, name);
    const double count_a = ia >= 0 ? a.category_counts[ia] : 0;
    const double count_b = ib >= 0 ? b.category_counts[ib] : 0;
    const double ns_a = ia >= 0 ? a.category_self_ns[ia] : 0;
    const double ns_b = ib >= 0 ? b.category_self_ns[ib] : 0;
    if (ia >= 0 && ib >= 0 && count_a == 0 && count_b == 0) {
      continue;
    }
    char ca[32], cb[32], ma[32], mb[32], dc[32], dt[32];
    if (ia >= 0) {
      std::snprintf(ca, sizeof(ca), "%.0f", count_a);
      std::snprintf(ma, sizeof(ma), "%.2f", ns_a / 1e6);
    } else {
      std::snprintf(ca, sizeof(ca), "n/a");
      std::snprintf(ma, sizeof(ma), "n/a");
    }
    if (ib >= 0) {
      std::snprintf(cb, sizeof(cb), "%.0f", count_b);
      std::snprintf(mb, sizeof(mb), "%.2f", ns_b / 1e6);
    } else {
      std::snprintf(cb, sizeof(cb), "n/a");
      std::snprintf(mb, sizeof(mb), "n/a");
    }
    // Percent deltas only make sense when both sides have the category and
    // the baseline is nonzero.
    if (ia >= 0 && ib >= 0 && count_a > 0) {
      std::snprintf(dc, sizeof(dc), "%+7.1f%%", 100.0 * (count_b - count_a) / count_a);
    } else {
      std::snprintf(dc, sizeof(dc), "%8s", "-");
    }
    if (ia >= 0 && ib >= 0 && ns_a > 0) {
      std::snprintf(dt, sizeof(dt), "%+7.1f%%", 100.0 * (ns_b - ns_a) / ns_a);
    } else {
      std::snprintf(dt, sizeof(dt), "%8s", "-");
    }
    std::printf("  %-22s %14s %14s %s %12s %12s %s\n", name.c_str(), ca, cb, dc, ma, mb, dt);
  }
  std::printf("\n  %-22s %14.3f %14.3f\n", "barrier_stall_frac", a.barrier_stall_fraction,
              b.barrier_stall_fraction);
  std::printf("  %-22s %14.3f %14.3f\n", "attributed_frac", a.attributed_fraction,
              b.attributed_fraction);
  std::printf("  %-22s %14.2f %14.2f\n", "event_imbalance_mean", a.event_imbalance_mean,
              b.event_imbalance_mean);
  const double eps_a = a.total_run_ns > 0 ? a.processed_events / (a.total_run_ns / 1e9) : 0;
  const double eps_b = b.total_run_ns > 0 ? b.processed_events / (b.total_run_ns / 1e9) : 0;
  std::printf("  %-22s %14.0f %14.0f %+7.1f%%\n", "events_per_sec", eps_a, eps_b,
              eps_a > 0 ? 100.0 * (eps_b - eps_a) / eps_a : 0.0);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tigerstat <profile.json> [--topk=N] [--scale=BENCH_scale.json]\n"
               "       tigerstat --diff <a.json> <b.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string scale_path;
  int topk = 8;
  bool diff = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--diff") {
      diff = true;
    } else if (arg.rfind("--topk=", 0) == 0) {
      topk = std::atoi(arg.c_str() + std::strlen("--topk="));
      if (topk < 1) {
        return Usage();
      }
    } else if (arg.rfind("--scale=", 0) == 0) {
      scale_path = arg.substr(std::strlen("--scale="));
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (diff) {
    if (positional.size() != 2) {
      return Usage();
    }
    return RunDiff(positional[0], positional[1]);
  }
  if (positional.size() != 1) {
    return Usage();
  }
  Profile p;
  std::string error;
  if (!LoadProfile(positional[0], &p, &error)) {
    std::fprintf(stderr, "tigerstat: %s\n", error.c_str());
    return 2;
  }
  PrintHeader(p);
  PrintTopCategories(p, topk);
  PrintEngineSection(p);
  PrintRecommendation(p);
  if (!scale_path.empty()) {
    PrintScaleContext(scale_path);
  }
  return 0;
}
