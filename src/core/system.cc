#include "src/core/system.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "src/obs/incident.h"

namespace tiger {

TigerSystem::TigerSystem(TigerConfig config, uint64_t seed)
    : config_(config), rng_(seed), seed_(seed) {
  TIGER_CHECK(config_.shape.Valid()) << "invalid system shape";
  // sim_shards/sim_threads == 0 means "pick for this host". Logged to stderr
  // because the shard count changes the logical schedule — anyone comparing
  // two runs needs to see which partitioning each one resolved to.
  if (config_.sim_shards == 0 || config_.sim_threads == 0) {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw < 1) {
      hw = 1;
    }
    if (config_.sim_shards == 0) {
      config_.sim_shards = TigerConfig::AutoShardCount(config_.shape.num_cubs, hw);
    }
    if (config_.sim_threads == 0) {
      config_.sim_threads = std::min(config_.sim_shards, hw);
    }
    std::fprintf(stderr,
                 "tiger: auto-tuned sim_shards=%d sim_threads=%d "
                 "(cubs=%d, hardware_threads=%d)\n",
                 config_.sim_shards, config_.sim_threads, config_.shape.num_cubs,
                 hw);
  }
  TIGER_CHECK(config_.sim_shards >= 1);
  TIGER_CHECK(config_.sim_threads >= 1);
  const int num_cubs = config_.shape.num_cubs;
  if (config_.sim_shards > 1) {
    ShardEngine::Options opt;
    opt.shards = config_.sim_shards;
    opt.threads = config_.sim_threads;
    opt.lookahead = config_.net.base_latency;
    engine_ = std::make_unique<ShardEngine>(opt);
    qos_relay_ = std::make_unique<QosLedgerRelay>(engine_.get(), &qos_ledger_);
    fault_relay_ = std::make_unique<FaultStatsRelay>(engine_.get(), &fault_stats_);
    // Contiguous ring segments: cub c lives on shard c*S/N, so neighbor
    // forwarding mostly stays shard-local and segment sizes differ by ≤ 1.
    cub_shards_.resize(static_cast<size_t>(num_cubs));
    for (int c = 0; c < num_cubs; ++c) {
      cub_shards_[static_cast<size_t>(c)] = c * engine_->shards() / num_cubs;
    }
  }
  net_ = std::make_unique<Network>(&sim(), config_.net, rng_.Fork());
  catalog_ = std::make_unique<Catalog>(config_.block_play_time, config_.block_bytes,
                                       /*single_bitrate=*/true);
  layout_ = std::make_unique<StripeLayout>(config_.shape);
  geometry_ = std::make_unique<ScheduleGeometry>(config_.MakeGeometry());

  const int total_disks = config_.shape.TotalDisks();
  disks_.resize(static_cast<size_t>(total_disks));

  for (int c = 0; c < num_cubs; ++c) {
    CubId id(static_cast<uint32_t>(c));
    cubs_.push_back(std::make_unique<Cub>(SimForCub(static_cast<size_t>(c)), id, &config_,
                                          catalog_.get(), layout_.get(), geometry_.get(),
                                          net_.get(), rng_.Fork()));
    addresses_.cubs.push_back(cubs_.back()->address());
  }
  // Controller (and everything else attached later: backup, clients, the
  // bootstrap sink) lives on shard 0 in sharded runs.
  controller_ =
      std::make_unique<Controller>(&sim(), &config_, catalog_.get(), layout_.get(), net_.get());
  addresses_.controller = controller_->address();

  for (int c = 0; c < num_cubs; ++c) {
    std::vector<SimulatedDisk*> cub_disks;
    for (int local = 0; local < config_.shape.disks_per_cub; ++local) {
      DiskId global = config_.shape.GlobalDiskIndex(CubId(static_cast<uint32_t>(c)), local);
      auto disk = std::make_unique<SimulatedDisk>(
          SimForCub(static_cast<size_t>(c)), "disk" + std::to_string(global.value()), global,
          config_.disk_model, rng_.Fork());
      disk->set_discipline(config_.disk_discipline);
      disk->set_fault_stats(fault_sink());
      cub_disks.push_back(disk.get());
      disks_[global.value()] = std::move(disk);
    }
    cubs_[static_cast<size_t>(c)]->AttachDisks(std::move(cub_disks));
    cubs_[static_cast<size_t>(c)]->SetAddressBook(&addresses_);
    cubs_[static_cast<size_t>(c)]->SetFaultStats(fault_sink());
    cubs_[static_cast<size_t>(c)]->SetQosLedger(qos_sink());
  }
  controller_->SetAddressBook(&addresses_);
  if (engine_) {
    // Node address order is attach order: cubs first, then the controller.
    std::vector<int> node_shards;
    node_shards.reserve(cub_shards_.size() + 1);
    for (int shard : cub_shards_) {
      node_shards.push_back(shard);
    }
    node_shards.push_back(0);  // controller
    net_->SetShardTopology(engine_.get(), std::move(node_shards));
  }
  failed_cubs_.assign(static_cast<size_t>(num_cubs), 0);
}

Simulator* TigerSystem::SimForCub(size_t c) {
  return engine_ ? &engine_->shard(cub_shards_[c]) : &sim_;
}

Result<FileId> TigerSystem::AddFile(std::string name, int64_t bitrate_bps, Duration duration) {
  DiskId start(static_cast<uint32_t>(next_start_disk_));
  next_start_disk_ = (next_start_disk_ + 1) % config_.shape.TotalDisks();
  return catalog_->AddFile(std::move(name), bitrate_bps, duration, start);
}

void TigerSystem::EnableInvariantChecker() {
  if (invariant_checker_) {
    return;
  }
  invariant_checker_ = std::make_unique<InvariantChecker>(this, engine_.get());
  for (auto& cub : cubs_) {
    cub->SetInvariantChecker(invariant_checker_.get());
  }
  if (engine_) {
    // The scan reads every living cub's view — only safe with all shards
    // quiesced, so it runs as a barrier-aligned periodic task.
    InvariantChecker* checker = invariant_checker_.get();
    engine_->AddPeriodicTask(InvariantChecker::kPeriod, [checker] { checker->CheckNow(); });
  } else {
    ScheduleInvariantCheck();
  }
}

void TigerSystem::EnableNetFaultPlan() {
  if (!net_fault_plan_) {
    net_fault_plan_ = std::make_unique<NetFaultPlan>(rng_.Fork(), fault_sink());
    net_->SetFaultPlan(net_fault_plan_.get());
    if (engine_) {
      net_fault_plan_->SetShardTopology(engine_->shards());
      NetFaultPlan* plan = net_fault_plan_.get();
      engine_->AddBarrierHook([plan] { plan->ArmPendingAnchors(); });
    }
  }
}

void TigerSystem::EnableBackupController() {
  if (!backup_controller_) {
    backup_controller_ = std::make_unique<Controller>(&sim_, &config_, catalog_.get(),
                                                      layout_.get(), net_.get());
    backup_controller_->SetAddressBook(&addresses_);
    backup_controller_->BecomeStandbyFor(addresses_.controller);
  }
}

void TigerSystem::EnableTracing(size_t ring_capacity) {
  if (tracer_ || !shard_tracers_.empty()) {
    return;
  }
  metrics_ = std::make_unique<MetricsRegistry>();
  if (engine_) {
    // Sharded: one tracer + registry per shard so actors record without
    // cross-shard contention. Every shard tracer registers the *same* track
    // list in the same order, so track ids are identical everywhere and the
    // merged export renders exactly like the serial layout. Flow ids are
    // disambiguated by a per-shard base in the top 16 bits (shard 0 of a
    // serial run keeps base 0, preserving historical ids).
    const int shards = engine_->shards();
    for (int s = 0; s < shards; ++s) {
      Tracer::Options opt{ring_capacity, true};
      opt.flow_id_base = static_cast<uint64_t>(s + 1) << 48;
      shard_tracers_.push_back(std::make_unique<Tracer>(&engine_->shard(s), opt));
      shard_metrics_.push_back(std::make_unique<MetricsRegistry>());
    }
    auto register_all = [&](const std::string& name) {
      TraceTrackId track{};
      for (auto& tracer : shard_tracers_) {
        track = tracer->RegisterTrack(name);
      }
      return track;
    };
    const TraceTrackId net_track = register_all("net");
    for (int s = 0; s < shards; ++s) {
      net_->SetShardTrace(s, shard_tracers_[static_cast<size_t>(s)].get(), net_track,
                          shard_metrics_[static_cast<size_t>(s)].get());
    }
    for (auto& cub : cubs_) {
      const TraceTrackId track = register_all("cub" + std::to_string(cub->id().value()));
      const size_t shard = static_cast<size_t>(cub_shards_[cub->id().value()]);
      cub->SetTrace(shard_tracers_[shard].get(), track, shard_metrics_[shard].get());
    }
    for (auto& disk : disks_) {
      const TraceTrackId track = register_all("disk" + std::to_string(disk->id().value()));
      const CubId owner = config_.shape.CubOfDisk(disk->id());
      const size_t shard = static_cast<size_t>(cub_shards_[owner.value()]);
      disk->SetTrace(shard_tracers_[shard].get(), track);
    }
    return;
  }
  tracer_ = std::make_unique<Tracer>(&sim_, Tracer::Options{ring_capacity, true});
  // Track registration order fixes track ids (and thus the rendered track
  // layout): network first, then cubs, then disks.
  const TraceTrackId net_track = tracer_->RegisterTrack("net");
  net_->SetTrace(tracer_.get(), net_track, metrics_.get());
  for (auto& cub : cubs_) {
    const TraceTrackId track = tracer_->RegisterTrack("cub" + std::to_string(cub->id().value()));
    cub->SetTrace(tracer_.get(), track, metrics_.get());
  }
  for (auto& disk : disks_) {
    const TraceTrackId track = tracer_->RegisterTrack("disk" + std::to_string(disk->id().value()));
    disk->SetTrace(tracer_.get(), track);
  }
}

void TigerSystem::EnableTimeSeries(Duration cadence, size_t ring_capacity) {
  if (timeseries_) {
    return;
  }
  EnableTracing();  // The sampler reads the registry; make sure one exists.
  timeseries_interval_ = cadence;
  TimeSeriesSampler::Options options;
  options.interval = cadence;
  options.ring_capacity = ring_capacity;
  timeseries_ = std::make_unique<TimeSeriesSampler>(&sim(), metrics_.get(), options);
  // Refresh derived gauges/counters over the window since the last tick so
  // meter-based rates (cpu, disk busy) describe the interval, not the run.
  timeseries_->SetRefreshCallback([this] {
    const TimePoint now = sim().Now();
    if (now > last_sample_window_start_) {
      SnapshotMetrics(last_sample_window_start_, now);
      last_sample_window_start_ = now;
    }
    // Profiler counter-track samples ride the sampler cadence so profiling
    // never schedules anything of its own (the no-logical-effect contract).
    CaptureProfileSnapshot(now);
  });
}

void TigerSystem::EnableProfiling() {
  if (profiling_enabled()) {
    return;
  }
  if (engine_) {
    engine_profiler_ = std::make_unique<ShardEngineProfiler>(engine_->shards());
    engine_->SetProfiler(engine_profiler_.get());
  } else {
    serial_profiler_ = std::make_unique<Profiler>();
  }
}

void TigerSystem::CaptureProfileSnapshot(TimePoint now) {
  if (!profiling_enabled()) {
    return;
  }
  ProfileSnapshot snap;
  snap.sim_us = now.micros();
  for (int c = 0; c < kProfCategoryCount; ++c) {
    const ProfCategory cat = static_cast<ProfCategory>(c);
    const Profiler::Bucket b = engine_profiler_
                                   ? engine_profiler_->Aggregated(cat)
                                   : serial_profiler_->bucket(cat);
    // Timing is stride-sampled; store the scaled estimate so the Perfetto
    // counter tracks read in (approximate) real milliseconds.
    snap.category_ticks[c] =
        b.samples == 0 ? 0
                       : static_cast<uint64_t>(static_cast<double>(b.self_ticks) *
                                               static_cast<double>(b.count) /
                                               static_cast<double>(b.samples));
  }
  if (engine_profiler_) {
    // The kEngine* buckets live in the driver's window accounting, not in any
    // shard profiler.
    const ShardEngineProfiler::EngineStats& es = engine_profiler_->engine();
    snap.category_ticks[static_cast<int>(ProfCategory::kEngineBusy)] =
        es.driver_busy_ticks;
    snap.category_ticks[static_cast<int>(ProfCategory::kEngineBarrierWait)] =
        es.barrier_wait_ticks;
    snap.category_ticks[static_cast<int>(ProfCategory::kEngineMergePosts)] =
        es.merge_posts_ticks;
    snap.category_ticks[static_cast<int>(ProfCategory::kEngineJournalReplay)] =
        es.journal_replay_ticks;
    snap.category_ticks[static_cast<int>(ProfCategory::kEnginePeriodicTasks)] =
        es.periodic_tasks_ticks;
  }
  profile_snapshots_.push_back(snap);
}

ProfileData TigerSystem::BuildProfileData() const {
  ProfileData data;
  data.engine = engine_ ? "sharded" : "serial";
  data.shards = engine_ ? engine_->shards() : 1;
  data.threads = engine_ ? engine_->threads() : 1;
  data.window_us = engine_ ? engine_->window().micros() : 0;
  data.cubs = config_.shape.num_cubs;
  data.seed = seed_;
  data.processed_events = processed_events();
  data.clamped_posts = engine_ ? engine_->clamped_posts() : 0;
  data.total_run_ns = profile_wall_ns_;
  data.ns_per_tick = NsPerTick();
  if (engine_profiler_) {
    for (int c = 0; c < kProfCategoryCount; ++c) {
      data.categories[c] = engine_profiler_->Aggregated(static_cast<ProfCategory>(c));
    }
    // Engine-level categories come from the driver's barrier accounting:
    // count = the deterministic volume measure for that phase, ticks = the
    // measured driver time. Driver timing is sample-complete (every window
    // is measured), so samples == count — render scale 1.
    const ShardEngineProfiler::EngineStats& es = engine_profiler_->engine();
    data.engine_stats = es;
    data.categories[static_cast<int>(ProfCategory::kEngineBusy)] = {
        es.windows, es.windows, es.driver_busy_ticks};
    data.categories[static_cast<int>(ProfCategory::kEngineBarrierWait)] = {
        es.windows, es.windows, es.barrier_wait_ticks};
    data.categories[static_cast<int>(ProfCategory::kEngineMergePosts)] = {
        es.posts_merged, es.posts_merged, es.merge_posts_ticks};
    data.categories[static_cast<int>(ProfCategory::kEngineJournalReplay)] = {
        es.journal_entries, es.journal_entries, es.journal_replay_ticks};
    data.categories[static_cast<int>(ProfCategory::kEnginePeriodicTasks)] = {
        es.periodic_fires + es.hook_runs, es.periodic_fires + es.hook_runs,
        es.periodic_tasks_ticks};
    const int shards = engine_profiler_->shards();
    for (int s = 0; s < shards; ++s) {
      data.per_shard_events.push_back(engine_->shard(s).processed_events());
      data.per_shard_busy_ticks.push_back(engine_profiler_->shard_stats(s).busy_ticks);
    }
  } else if (serial_profiler_) {
    for (int c = 0; c < kProfCategoryCount; ++c) {
      data.categories[c] = serial_profiler_->bucket(static_cast<ProfCategory>(c));
    }
    data.per_shard_events.push_back(sim_.processed_events());
    data.per_shard_busy_ticks.push_back(profile_wall_ticks_);
  }
  if (profiling_enabled()) {
    // kTimerDispatch has no scope of its own (src/sim/simulator.cc): its
    // count is the dispatched-event total and its self time is the residual
    // of measured busy time after the finer dispatch-level categories'
    // scaled estimates — heap pops, slot recycling, and callback work
    // nothing finer claims.
    double busy_ticks = 0;
    for (uint64_t t : data.per_shard_busy_ticks) {
      busy_ticks += static_cast<double>(t);
    }
    double finer_ticks = 0;
    for (int c = static_cast<int>(ProfCategory::kMsgHop);
         c <= static_cast<int>(ProfCategory::kQosAudit); ++c) {
      const Profiler::Bucket& b = data.categories[c];
      if (b.samples > 0) {
        finer_ticks += static_cast<double>(b.self_ticks) *
                       static_cast<double>(b.count) / static_cast<double>(b.samples);
      }
    }
    const double residual = busy_ticks > finer_ticks ? busy_ticks - finer_ticks : 0;
    data.categories[static_cast<int>(ProfCategory::kTimerDispatch)] = {
        data.processed_events, data.processed_events,
        static_cast<uint64_t>(residual + 0.5)};
  }
  return data;
}

std::string TigerSystem::ProfileJson() const { return RenderProfileJson(BuildProfileData()); }

std::string TigerSystem::ProfileCountsJson() const {
  return RenderProfileCountsJson(BuildProfileData());
}

bool TigerSystem::WriteProfile(const std::string& path) const {
  if (!profiling_enabled()) {
    return false;
  }
  const std::string json = ProfileJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

void TigerSystem::EnableFlightRecorder(FlightRecorder::Options options) {
  if (flight_recorder_) {
    return;
  }
  EnableTracing();  // The recorder rides the live trace stream.
  flight_recorder_ = std::make_unique<FlightRecorder>(options, cub_count());
  if (!engine_) {
    tracer_->SetSink(flight_recorder_.get());
    return;
  }
  // Sharded: each shard's tracer feeds a buffer the barrier drains in (when,
  // shard, record order), so the recorder sees one thread-count-invariant
  // stream.
  for (auto& tracer : shard_tracers_) {
    trace_buffers_.push_back(std::make_unique<ShardTraceBuffer>());
    tracer->SetSink(trace_buffers_.back().get());
  }
  engine_->AddBarrierHook([this] { DrainTraceBuffers(); });
}

void TigerSystem::EnableSloMonitor(SloMonitor::Options options) {
  if (slo_monitor_) {
    return;
  }
  slo_monitor_ = std::make_unique<SloMonitor>(&qos_ledger_, options);
  max_incidents_ = options.max_incidents;
  slo_monitor_->SetIncidentHandler([this](const std::string& reason) { DumpIncident(reason); });
}

void TigerSystem::CaptureFlightCheckpoint(TimePoint now) {
  if (flight_recorder_ == nullptr) {
    return;
  }
  FlightRecorder::Checkpoint* ckpt = flight_recorder_->BeginCheckpoint(now);
  const QosLedger::Rollup fleet = qos_ledger_.FleetRollup();
  ckpt->viewers = static_cast<int64_t>(qos_ledger_.viewer_count());
  ckpt->blocks = fleet.blocks;
  ckpt->late = fleet.late;
  ckpt->lost = fleet.lost;
  int failed = 0;
  for (size_t c = 0; c < cubs_.size(); ++c) {
    FlightRecorder::CubDigest& digest = ckpt->cubs[c];
    digest.failed = failed_cubs_[c];
    failed += failed_cubs_[c] ? 1 : 0;
    const Cub& cub = *cubs_[c];
    digest.entries = static_cast<uint32_t>(cub.view().entry_count());
    digest.holds = static_cast<uint32_t>(cub.view().hold_count());
    digest.failed_seen = static_cast<uint32_t>(cub.failure_view().failed_cub_count());
    digest.records_received = cub.counters().records_received;
    digest.blocks_sent = cub.counters().blocks_sent;
  }
  ckpt->failed_cubs = failed;
}

void TigerSystem::EvaluateSlo() {
  slo_monitor_->Evaluate(engine_ ? engine_->Now() : sim_.Now());
}

void TigerSystem::ScheduleCheckpointTick() {
  sim_.ScheduleAfter(flight_recorder_->options().checkpoint_cadence, [this] {
    CaptureFlightCheckpoint(sim_.Now());
    ScheduleCheckpointTick();
  });
}

void TigerSystem::ScheduleInvariantCheck() {
  sim_.ScheduleAfter(InvariantChecker::kPeriod, [this] {
    invariant_checker_->CheckNow();
    ScheduleInvariantCheck();
  });
}

void TigerSystem::ScheduleSloTick() {
  sim_.ScheduleAfter(slo_monitor_->options().eval_cadence, [this] {
    EvaluateSlo();
    ScheduleSloTick();
  });
}

bool TigerSystem::TriggerIncident(const std::string& reason) { return DumpIncident(reason); }

bool TigerSystem::DumpIncident(const std::string& reason) {
  if (flight_recorder_ == nullptr && slo_monitor_ == nullptr) {
    return false;
  }
  if (static_cast<int>(incident_dirs_.size()) >= max_incidents_) {
    ++incidents_suppressed_;
    return false;
  }
  const TimePoint now = engine_ ? engine_->Now() : sim_.Now();
  std::string parent = incident_dir_;
  if (parent.empty()) {
    const char* env = std::getenv("TIGER_ARTIFACT_DIR");
    parent = (env != nullptr && env[0] != '\0') ? env : ".";
  }
  const std::string dir = parent + "/incident_s" + std::to_string(seed_) + "_" +
                          std::to_string(incident_dirs_.size());

  std::vector<IncidentFile> files;
  if (flight_recorder_ != nullptr && (tracer_ != nullptr || !shard_tracers_.empty())) {
    const std::vector<TraceEvent> window = flight_recorder_->WindowEvents();
    const std::vector<std::string> names =
        engine_ ? shard_tracers_[0]->TrackNames() : tracer_->TrackNames();
    // Dropped = everything recorded that the window no longer holds, whether
    // overwritten by the capacity bound or aged past the retention horizon.
    const uint64_t dropped = flight_recorder_->recorded() - window.size();
    files.push_back({"flight_trace.txt", Tracer::TextDumpOf(window, names, dropped)});
    files.push_back({"flight_trace.json", Tracer::ChromeJsonOf(window, names, std::string())});
    files.push_back({"checkpoints.txt", flight_recorder_->CheckpointsText()});
  }
  if (slo_monitor_ != nullptr) {
    files.push_back({"slo_state.json", slo_monitor_->StateJson()});
  }
  files.push_back({"qos_summary.txt", qos_ledger_.SummaryText()});
  files.push_back({"qos_glitches.csv", qos_ledger_.Csv()});
  if (metrics_ != nullptr && now > TimePoint::Zero()) {
    SnapshotMetrics(TimePoint::Zero(), now);
    files.push_back({"metrics.txt", metrics_->SummaryText()});
  }
  if (invariant_checker_) {
    files.push_back({"audit_report.json", invariant_checker_->ReportJson()});
  }
  if (profiling_enabled()) {
    // The one machine-dependent bundle file (tick timings); its counts
    // object stays deterministic (DESIGN.md §6i).
    files.push_back({"profile.json", ProfileJson()});
  }
  if (!incident_scenario_text_.empty()) {
    files.push_back({"scenario.txt", incident_scenario_text_});
  }

  IncidentManifest manifest;
  manifest.reason = reason;
  manifest.sim_time_us = now.micros();
  manifest.seed = seed_;
  manifest.cubs = config_.shape.num_cubs;
  manifest.shards = engine_ ? engine_->shards() : 1;
  manifest.engine = engine_ ? "sharded" : "serial";
  if (slo_monitor_ != nullptr) {
    manifest.slo_json = slo_monitor_->StateJson();
  }
  for (const IncidentFile& file : files) {
    manifest.files.push_back(file.name);
  }
  std::vector<IncidentFile> bundle;
  bundle.push_back({"manifest.json", RenderIncidentManifest(manifest)});
  for (IncidentFile& file : files) {
    bundle.push_back(std::move(file));
  }
  if (!WriteIncidentBundle(dir, bundle)) {
    return false;
  }
  incident_dirs_.push_back(dir);
  std::fprintf(stderr, "tiger: incident bundle (%s) written to %s\n", reason.c_str(),
               dir.c_str());
  return true;
}

void TigerSystem::FoldShardMetrics() {
  // Accumulates every actor-written metric from the per-shard registries into
  // the global one. Shard iteration order is fixed, registry maps are
  // name-ordered, and histogram merges are deterministic for a fixed merge
  // order — so the fold is thread-count-invariant. Fold targets are rebuilt
  // from scratch each snapshot (counters/gauges zeroed, histograms Reset) so
  // repeated snapshots don't double-count.
  MetricsRegistry& m = *metrics_;
  for (const auto& shard : shard_metrics_) {
    for (const auto& [name, value] : shard->counters()) {
      m.Counter(name) = 0;
    }
    for (const auto& [name, value] : shard->gauges()) {
      m.Gauge(name) = 0;
    }
    for (const auto& [name, hist] : shard->hists()) {
      m.Hist(name).Reset();
    }
    for (const auto& [name, hist] : shard->bounded_hists()) {
      m.BoundedHist(name).Reset();
    }
  }
  for (const auto& shard : shard_metrics_) {
    for (const auto& [name, value] : shard->counters()) {
      m.Counter(name) += value;
    }
    for (const auto& [name, value] : shard->gauges()) {
      m.Gauge(name) += value;
    }
    for (const auto& [name, hist] : shard->hists()) {
      m.Hist(name).MergeFrom(hist);
    }
    for (const auto& [name, hist] : shard->bounded_hists()) {
      m.BoundedHist(name).MergeFrom(hist);
    }
  }
}

void TigerSystem::SnapshotMetrics(TimePoint a, TimePoint b) {
  if (!metrics_) {
    return;
  }
  if (engine_) {
    FoldShardMetrics();
  }
  MetricsRegistry& m = *metrics_;
  int64_t entries_total = 0;
  int64_t entries_max = 0;
  for (size_t c = 0; c < cubs_.size(); ++c) {
    if (failed_cubs_[c]) {
      continue;
    }
    const int64_t entries = static_cast<int64_t>(cubs_[c]->view().entry_count());
    entries_total += entries;
    entries_max = entries > entries_max ? entries : entries_max;
  }
  m.Gauge("schedule.entries.total") = static_cast<double>(entries_total);
  m.Gauge("schedule.entries.max_per_cub") = static_cast<double>(entries_max);
  m.Gauge("cub.cpu.mean") = MeanCubCpu(a, b);
  m.Gauge("disk.busy.mean") = MeanDiskUtilization(a, b);
  Histogram& busy = m.Hist("disk.busy_fraction");
  for (size_t c = 0; c < cubs_.size(); ++c) {
    if (failed_cubs_[c]) {
      continue;
    }
    for (int local = 0; local < config_.shape.disks_per_cub; ++local) {
      DiskId global = config_.shape.GlobalDiskIndex(CubId(static_cast<uint32_t>(c)), local);
      busy.Add(disks_[global.value()]->busy_meter().UtilizationBetween(a, b));
    }
  }
  const Cub::Counters totals = TotalCubCounters();
  m.Counter("cub.blocks_sent") = totals.blocks_sent;
  m.Counter("cub.missed_blocks") = totals.server_missed_blocks;
  m.Counter("cub.mirror_recoveries") = totals.mirror_recoveries;
  m.Counter("cub.takeovers") = totals.takeovers;
  m.Counter("cub.inserts") = totals.inserts;
  m.Counter("cub.records_received") = totals.records_received;
  int64_t control_msgs = 0;
  for (const auto& cub : cubs_) {
    control_msgs += net_->ControlMessagesSent(cub->address());
  }
  control_msgs += net_->ControlMessagesSent(controller_->address());
  m.Counter("net.control_msgs") = control_msgs;
  // QoS surface: server-side degradation counters (formerly dark — readable
  // only via Cub::Counters) and the client-observed ledger, under one qos.*
  // namespace with the unit spelled in the name.
  m.Counter("qos.records_too_late_count") = totals.records_too_late;
  m.Counter("qos.server_missed_blocks_count") = totals.server_missed_blocks;
  m.Counter("qos.deschedule_kills_count") = totals.records_killed_by_deschedule;
  m.Counter("qos.client_late_blocks_count") = qos_ledger_.total_late();
  m.Counter("qos.client_lost_blocks_count") = qos_ledger_.total_lost();
  m.Counter("qos.client_blocks_complete_count") = qos_ledger_.total_blocks();
  m.Gauge("qos.glitch_rate") = qos_ledger_.FleetRollup().GlitchRate();
  // Ring wrap-around loses evidence from every offline consumer (TextDump,
  // ChromeJson, the golden diffs); surface the loss so nobody trusts a
  // truncated trace silently.
  if (tracer_ || !shard_tracers_.empty()) {
    m.Counter("trace.dropped_events") = static_cast<int64_t>(TraceDropped());
  }
}

bool TigerSystem::WriteChromeTrace(const std::string& path) const {
  if (tracer_ == nullptr && shard_tracers_.empty()) {
    return false;
  }
  // Counter tracks from the sampler and the checker's lineage flow arrows
  // ride along in the same trace file so Perfetto draws rates under the
  // event swimlanes and connects each record's hops around the ring.
  std::string extra = timeseries_ ? timeseries_->ChromeCounterEvents() : std::string();
  if (invariant_checker_) {
    extra += invariant_checker_->ChromeFlowEvents();
  }
  if (!profile_snapshots_.empty()) {
    // Profiler cost-attribution counters (pid 2) under the sampler's metric
    // counters (pid 1): per-interval milliseconds spent in each category.
    extra += ProfilerChromeCounterEvents(profile_snapshots_, NsPerTick());
  }
  if (tracer_ != nullptr) {
    return tracer_->WriteChromeJson(path, extra);
  }
  const std::string json =
      Tracer::ChromeJsonOf(MergedTraceEvents(), shard_tracers_[0]->TrackNames(), extra);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

void TigerSystem::Start() {
  for (auto& cub : cubs_) {
    cub->Start();
  }
  if (timeseries_) {
    if (engine_) {
      // Sampling must observe all shards quiesced; run it as a barrier task
      // (the interval is a ms multiple, so dues land exactly on barriers).
      TimeSeriesSampler* sampler = timeseries_.get();
      engine_->AddPeriodicTask(timeseries_interval_, [sampler] { sampler->SampleNow(); });
    } else {
      timeseries_->Start();
    }
  }
  // Checkpoints before SLO evaluation (registration order = barrier order,
  // timer order serially): an eval that dumps an incident at T sees the T
  // checkpoint already captured.
  if (flight_recorder_) {
    if (engine_) {
      engine_->AddPeriodicTask(flight_recorder_->options().checkpoint_cadence,
                               [this] { CaptureFlightCheckpoint(engine_->Now()); });
    } else {
      ScheduleCheckpointTick();
    }
  }
  if (slo_monitor_) {
    // Breach probes poll the run's checkers. Registered here, not at enable
    // time, so EnableSloMonitor order relative to them doesn't matter.
    // Fixed registration order — it is the probe order in slo_state.json.
    if (invariant_checker_) {
      InvariantChecker* checker = invariant_checker_.get();
      slo_monitor_->AddBreachProbe("invariant_violation",
                                   [checker] { return checker->invariant_violations(); });
      slo_monitor_->AddBreachProbe("audit_divergence",
                                   [checker] { return checker->fatal_divergences(); });
    }
    if (engine_) {
      engine_->AddPeriodicTask(slo_monitor_->options().eval_cadence, [this] { EvaluateSlo(); });
    } else {
      ScheduleSloTick();
    }
  }
}

void TigerSystem::RunUntil(TimePoint t) {
  if (!profiling_enabled()) {
    if (engine_) {
      engine_->RunUntil(t);
    } else {
      sim_.RunUntil(t);
    }
    return;
  }
  // Time the run with both clocks: the ratio calibrates every tick field to
  // nanoseconds at render time (no startup calibration spin, and the ratio is
  // measured under exactly the load it will convert).
  const auto wall_start = std::chrono::steady_clock::now();
  const uint64_t ticks_start = ProfNowTicks();
  if (engine_) {
    engine_->RunUntil(t);
  } else {
    ScopedProfilerInstall install(serial_profiler_.get());
    sim_.RunUntil(t);
  }
  profile_wall_ticks_ += ProfNowTicks() - ticks_start;
  profile_wall_ns_ += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
}

void TigerSystem::RunFor(Duration d) {
  RunUntil((engine_ ? engine_->Now() : sim_.Now()) + d);
}

uint64_t TigerSystem::processed_events() const {
  return engine_ ? engine_->processed_events() : sim_.processed_events();
}

void TigerSystem::DrainTraceBuffers() {
  // Merge by (when, shard, record order): concatenation in shard order is
  // already grouped by shard, so a stable sort on time alone realizes the
  // full key. One pass per window; buffers stay small (one window of events).
  trace_drain_scratch_.clear();
  for (auto& buffer : trace_buffers_) {
    trace_drain_scratch_.insert(trace_drain_scratch_.end(), buffer->events().begin(),
                                buffer->events().end());
    buffer->events().clear();
  }
  std::stable_sort(trace_drain_scratch_.begin(), trace_drain_scratch_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.when < b.when; });
  for (const TraceEvent& event : trace_drain_scratch_) {
    flight_recorder_->OnTraceEvent(event);
  }
}

std::vector<TraceEvent> TigerSystem::MergedTraceEvents() const {
  std::vector<TraceEvent> merged;
  if (engine_) {
    for (const auto& tracer : shard_tracers_) {
      const std::vector<TraceEvent> events = tracer->MergedEvents();
      merged.insert(merged.end(), events.begin(), events.end());
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const TraceEvent& a, const TraceEvent& b) { return a.when < b.when; });
    for (size_t i = 0; i < merged.size(); ++i) {
      merged[i].seq = i + 1;
    }
  } else if (tracer_) {
    merged = tracer_->MergedEvents();
  }
  return merged;
}

uint64_t TigerSystem::TraceDropped() const {
  if (engine_) {
    uint64_t dropped = 0;
    for (const auto& tracer : shard_tracers_) {
      dropped += tracer->dropped();
    }
    return dropped;
  }
  return tracer_ ? tracer_->dropped() : 0;
}

std::string TigerSystem::TraceTextDump() const {
  if (engine_) {
    if (shard_tracers_.empty()) {
      return std::string();
    }
    return Tracer::TextDumpOf(MergedTraceEvents(), shard_tracers_[0]->TrackNames(),
                              TraceDropped());
  }
  return tracer_ ? tracer_->TextDump() : std::string();
}

void TigerSystem::FailControllerNow() {
  controller_->Halt();
  net_->SetNodeUp(addresses_.controller, false);
}

void TigerSystem::FailControllerAt(TimePoint when) {
  sim().ScheduleAt(when, [this] { FailControllerNow(); });
}

SimulatedDisk& TigerSystem::disk(DiskId id) {
  TIGER_CHECK(id.value() < disks_.size());
  return *disks_[id.value()];
}

void TigerSystem::FailCubNow(CubId cub_id) {
  TIGER_CHECK(cub_id.value() < cubs_.size());
  failed_cubs_[cub_id.value()] = true;
  cubs_[cub_id.value()]->Fail();
  for (int local = 0; local < config_.shape.disks_per_cub; ++local) {
    DiskId global = config_.shape.GlobalDiskIndex(cub_id, local);
    disks_[global.value()]->Halt();
  }
}

void TigerSystem::FailCubAt(TimePoint when, CubId cub_id) {
  // Scheduled on the cub's own shard so Fail/Halt touch only shard-local
  // state (and the node-down flag is flipped in its owner's context).
  SimForCub(cub_id.value())->ScheduleAt(when, [this, cub_id] { FailCubNow(cub_id); });
}

void TigerSystem::ReviveCubNow(CubId cub_id) {
  TIGER_CHECK(cub_id.value() < cubs_.size());
  TIGER_CHECK(failed_cubs_[cub_id.value()]) << "revive of a cub that is not failed";
  failed_cubs_[cub_id.value()] = 0;
  for (int local = 0; local < config_.shape.disks_per_cub; ++local) {
    DiskId global = config_.shape.GlobalDiskIndex(cub_id, local);
    disks_[global.value()]->Restart();
  }
  net_->SetNodeUp(cubs_[cub_id.value()]->address(), true);
  // Restart() bumps the actor epoch: timers scheduled before the crash can
  // never fire into the rebooted state.
  cubs_[cub_id.value()]->Restart();
  fault_sink()->RecordCubRejoin(SimForCub(cub_id.value())->Now(), cub_id);
  cubs_[cub_id.value()]->Rejoin();
}

void TigerSystem::ReviveCubAt(TimePoint when, CubId cub_id) {
  SimForCub(cub_id.value())->ScheduleAt(when, [this, cub_id] { ReviveCubNow(cub_id); });
}

void TigerSystem::InjectDiskErrorBurst(DiskId disk_id, TimePoint start, TimePoint end,
                                       double probability) {
  disk(disk_id).InjectTransientErrors(start, end, probability);
}

void TigerSystem::InjectDiskLimp(DiskId disk_id, TimePoint start, TimePoint end, int64_t num,
                                 int64_t den) {
  disk(disk_id).InjectLimp(start, end, num, den);
}

void TigerSystem::FailDiskAt(TimePoint when, DiskId disk_id) {
  CubId owner = config_.shape.CubOfDisk(disk_id);
  SimForCub(owner.value())->ScheduleAt(when, [this, disk_id] {
    CubId owner = config_.shape.CubOfDisk(disk_id);
    cubs_[owner.value()]->FailLocalDisk(config_.shape.LocalDiskIndex(disk_id));
  });
}

int TigerSystem::BootstrapStreams(int count, NetAddress sink, FileId file,
                                  int64_t bitrate_bps) {
  TIGER_CHECK(catalog_->Contains(file));
  const FileInfo& info = catalog_->Get(file);
  const int64_t slots = geometry_->slot_count();
  TIGER_CHECK(count <= slots) << "more streams than schedule slots";
  // Give the pipeline room: the first due time is comfortably in the future
  // so reads and forwarding settle before blocks are due.
  const TimePoint t_ref = sim().Now() + Duration::Seconds(2);
  const int total_disks = config_.shape.TotalDisks();

  int made = 0;
  for (int64_t s = 0; s < slots && made < count; ++s) {
    SlotId slot(static_cast<uint32_t>(s));
    ScheduleGeometry::ServingEvent serving_event = geometry_->SoonestServingDisk(slot, t_ref);
    DiskId serving = serving_event.disk;
    TimePoint due = serving_event.due;
    // Pick the block index of `file` that lives on `serving`.
    int64_t delta = (static_cast<int64_t>(serving.value()) - info.start_disk.value());
    delta %= total_disks;
    if (delta < 0) {
      delta += total_disks;
    }
    TIGER_CHECK(delta < info.block_count) << "bootstrap file too short";

    ViewerStateRecord record;
    record.viewer = ViewerId(static_cast<uint32_t>(next_bootstrap_instance_));
    record.client_address = sink;
    record.instance = PlayInstanceId(next_bootstrap_instance_++);
    record.file = file;
    record.position = delta;
    record.slot = slot;
    record.sequence = 0;
    record.bitrate_bps = bitrate_bps;
    record.due = due;

    CubId owner = config_.shape.CubOfDisk(serving);
    // Mint the lineage once, here, so owner and backup share one chain: the
    // backup's copy is deliberate redundancy, not a second record.
    record.lineage.origin_cub = owner.value();
    record.lineage.epoch = next_bootstrap_epoch_++;
    record.lineage.MarkTagged();
    cubs_[owner.value()]->BootstrapRecord(record);
    CubId backup = config_.shape.NextCub(owner);
    cubs_[backup.value()]->BootstrapRecord(record);
    if (invariant_checker_) {
      invariant_checker_->OnInsert(slot, record.instance, sim().Now());
    }
    ++made;
  }
  return made;
}

double TigerSystem::MeanCubCpu(TimePoint a, TimePoint b) const {
  TIGER_CHECK(b > a);
  double sum = 0;
  int n = 0;
  for (size_t c = 0; c < cubs_.size(); ++c) {
    if (failed_cubs_[c]) {
      continue;
    }
    sum += cubs_[c]->cpu_meter().SumBetween(a, b) / static_cast<double>((b - a).micros());
    ++n;
  }
  return n == 0 ? 0 : sum / n;
}

double TigerSystem::ControllerCpu(TimePoint a, TimePoint b) const {
  return controller_->cpu_meter().SumBetween(a, b) / static_cast<double>((b - a).micros());
}

double TigerSystem::MeanDiskUtilization(TimePoint a, TimePoint b) const {
  double sum = 0;
  int n = 0;
  for (size_t c = 0; c < cubs_.size(); ++c) {
    if (failed_cubs_[c]) {
      continue;
    }
    for (int local = 0; local < config_.shape.disks_per_cub; ++local) {
      DiskId global = config_.shape.GlobalDiskIndex(CubId(static_cast<uint32_t>(c)), local);
      sum += disks_[global.value()]->busy_meter().UtilizationBetween(a, b);
      ++n;
    }
  }
  return n == 0 ? 0 : sum / n;
}

double TigerSystem::CubDiskUtilization(CubId cub_id, TimePoint a, TimePoint b) const {
  double sum = 0;
  int n = 0;
  for (int local = 0; local < config_.shape.disks_per_cub; ++local) {
    DiskId global = config_.shape.GlobalDiskIndex(cub_id, local);
    sum += disks_[global.value()]->busy_meter().UtilizationBetween(a, b);
    ++n;
  }
  return n == 0 ? 0 : sum / n;
}

double TigerSystem::CubControlTrafficBps(CubId cub_id, TimePoint a, TimePoint b) const {
  return net_->ControlBytesSent(cubs_[cub_id.value()]->address()).RatePerSecond(a, b);
}

double TigerSystem::ControllerControlTrafficBps(TimePoint a, TimePoint b) const {
  return net_->ControlBytesSent(controller_->address()).RatePerSecond(a, b);
}

double TigerSystem::BlockCacheHitRate() const {
  int64_t hits = 0;
  int64_t misses = 0;
  for (size_t c = 0; c < cubs_.size(); ++c) {
    if (failed_cubs_[c]) {
      continue;
    }
    hits += cubs_[c]->block_cache().hits();
    misses += cubs_[c]->block_cache().misses();
  }
  const int64_t total = hits + misses;
  return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

Cub::Counters TigerSystem::TotalCubCounters() const {
  Cub::Counters total;
  for (const auto& cub : cubs_) {
    const Cub::Counters& c = cub->counters();
    total.records_received += c.records_received;
    total.records_new += c.records_new;
    total.records_duplicate += c.records_duplicate;
    total.records_killed_by_deschedule += c.records_killed_by_deschedule;
    total.records_too_late += c.records_too_late;
    total.records_conflict += c.records_conflict;
    total.blocks_sent += c.blocks_sent;
    total.fragments_sent += c.fragments_sent;
    total.server_missed_blocks += c.server_missed_blocks;
    total.deschedules_received += c.deschedules_received;
    total.deschedules_applied += c.deschedules_applied;
    total.inserts += c.inserts;
    total.takeovers += c.takeovers;
    total.buffer_stalls += c.buffer_stalls;
    total.failures_detected += c.failures_detected;
    total.disk_read_errors += c.disk_read_errors;
    total.mirror_recoveries += c.mirror_recoveries;
    total.rejoins += c.rejoins;
  }
  return total;
}

}  // namespace tiger
