#include "replay/experiment.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/logging.h"

namespace ecostore::replay {

// ---------------------------------------------------------------------------
// ReplayEngine: the skeleton both engines share.
// ---------------------------------------------------------------------------

ReplayEngine::ReplayEngine(workload::Workload* workload,
                           policies::StoragePolicy* policy,
                           const ExperimentConfig& config)
    : workload_(workload), policy_(policy), config_(config) {
  config_.storage.num_enclosures = workload->info().num_enclosures;
}

ReplayEngine::~ReplayEngine() = default;

Result<ExperimentMetrics> ReplayEngine::RunReplay() {
  auto wall_start = std::chrono::steady_clock::now();
  horizon_ = config_.duration > 0 ? config_.duration
                                  : workload_->info().duration;
  if (horizon_ <= 0) {
    return Status::InvalidArgument("experiment duration must be positive");
  }

  system_ = std::make_unique<storage::StorageSystem>(
      &sim_, config_.storage, &workload_->catalog());
  ECOSTORE_RETURN_NOT_OK(system_->Init());
  storage_monitor_ = std::make_unique<monitor::StorageMonitor>(
      system_->num_enclosures());
  ECOSTORE_RETURN_NOT_OK(Build());
  // Library log lines produced during the run land in the recorder with
  // the simulated timestamp.
  telemetry::ScopedLoggerBridge logger_bridge(config_.telemetry, &SimClock,
                                              &sim_);
  // Wall-clock profiling is bound per thread (always set, even to null,
  // so a run configured without a profiler masks any stale binding);
  // interior phases — classify-finalise, plan, migrate, flush — open
  // ScopedPhases from core/ without any plumbing through the policy API.
  // The profiler only ever reads the wall clock and writes its own rings,
  // so attaching one cannot perturb replay results.
  telemetry::profile::ScopedThreadProfiler profile_bind(config_.profiler);

  metrics_ = ExperimentMetrics{};
  metrics_.workload = workload_->info().name;
  metrics_.policy = policy_->name();
  metrics_.duration = horizon_;

  workload_->Reset();
  period_index_ = 0;
  in_period_end_ = false;
  trigger_pending_ = false;
  app_monitor_.SetSink(nullptr);
  app_monitor_.ResetPeriod(0);
  storage_monitor_->ResetPeriod(0);
  policy_->Start(*system_, this);
  // A policy that attached a streaming sink in Start() may also have
  // declared the per-period trace buffer unnecessary — then the monitor
  // stops retaining it and period memory scales with activity.
  app_monitor_.SetCapture(policy_->wants_logical_trace());
  SchedulePeriodEnd(policy_->initial_period());
  // Start() may have seeded preloads or spin-down flags; their callbacks
  // reach the monitors now, as the serial engine delivers them inline.
  DeliverLaneCallbacks();

  stream_ = config_.stream != nullptr && config_.stream->has_consumers()
                ? config_.stream
                : nullptr;
  stream_window_ =
      config_.stream_window_us > 0 ? config_.stream_window_us : kMinute;
  next_stream_mark_ = stream_ != nullptr
                          ? stream_window_
                          : std::numeric_limits<SimTime>::max();

  ECOSTORE_RETURN_NOT_OK(Replay());

  telemetry::profile::ScopedPhase finalize_span(
      telemetry::profile::Phase::kFinalize);
  Finalize(&metrics_);
  Account();
  metrics_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Final streaming pump: drain the horizon-time events (the energy finals
  // recorded while finalizing) and hand consumers the measured energies.
  if (stream_ != nullptr) {
    PumpStream(horizon_);
    telemetry::StreamFinal fin;
    fin.at = horizon_;
    fin.enclosure_energy_j = metrics_.enclosure_energy;
    fin.controller_energy_j = metrics_.controller_energy;
    fin.has_energy = true;
    stream_->Finish(fin);
  }
  return metrics_;
}

void ReplayEngine::Account() {
  ExperimentMetrics& m = metrics_;
  for (int e = 0; e < system_->num_enclosures(); ++e) {
    storage::DiskEnclosure& enc =
        ServingEnclosure(static_cast<EnclosureId>(e));
    m.spinups += enc.spinup_count();
    ExperimentMetrics::EnclosureStats stats;
    stats.energy = enc.Energy(sim_.Now());
    stats.served_ios = enc.served_ios();
    stats.spinups = enc.spinup_count();
    stats.utilization = static_cast<double>(enc.active_time()) /
                        static_cast<double>(horizon_);
    m.per_enclosure.push_back(stats);
    m.enclosure_energy += stats.energy;
  }
  m.controller_energy = system_->ControllerEnergy();
  m.avg_enclosure_power = AveragePower(m.enclosure_energy, horizon_);
  m.avg_controller_power = AveragePower(m.controller_energy, horizon_);
  m.avg_total_power = m.avg_enclosure_power + m.avg_controller_power;
  m.avg_response_ms = m.response_us.Mean() / 1000.0;
  m.avg_read_response_ms = m.read_response_us.Mean() / 1000.0;
  const MigrationCounters& moves = migration_counters();
  m.migrated_bytes = moves.migrated_bytes();
  m.item_migrations = moves.completed_item_moves();
  m.block_migrations = moves.block_moves();
  m.placement_determinations = policy_->placement_determinations();
  m.monitoring_periods = period_index_;
  sim::Simulator::Stats s = sim_.stats();
  m.sim_events_executed += s.executed;
  m.sim_events_cancelled += s.cancelled;
  m.sim_peak_heap_depth = std::max(
      m.sim_peak_heap_depth, static_cast<int64_t>(s.peak_heap_depth));
}

SimTime ReplayEngine::SimClock(const void* simulator) {
  return static_cast<const sim::Simulator*>(simulator)->Now();
}

void ReplayEngine::PumpStream(SimTime frontier) {
  telemetry::profile::ScopedPhase pump_span(
      telemetry::profile::Phase::kLedgerPump);
  stream_->Pump(config_.telemetry, frontier);
  next_stream_mark_ = frontier - frontier % stream_window_ + stream_window_;
}

void ReplayEngine::SchedulePeriodEnd(SimDuration period) {
  period = std::max<SimDuration>(period, 1 * kSecond);
  period_event_ = sim_.ScheduleAfter(period, [this] { DoPeriodEnd(); });
}

void ReplayEngine::TriggerImmediatePeriodEnd() {
  if (in_period_end_ || trigger_pending_) return;
  trigger_pending_ = true;
  sim_.Cancel(period_event_);
  period_event_ = sim_.ScheduleAfter(0, [this] { DoPeriodEnd(); });
}

void ReplayEngine::EndPeriod() {
  in_period_end_ = true;
  trigger_pending_ = false;
  // Callbacks from events earlier at this timestamp reach the monitors
  // before the snapshot.
  DeliverLaneCallbacks();
  monitor::MonitorSnapshot snapshot;
  snapshot.period_start = app_monitor_.period_start();
  snapshot.period_end = sim_.Now();
  snapshot.application = &app_monitor_;
  snapshot.storage = storage_monitor_.get();
  SimDuration next = policy_->OnPeriodEnd(snapshot, *system_, this);
  // Plan application just acted on the storage (write-delay flushes,
  // preload reads); those callbacks land inside this period, before the
  // monitors reset.
  DeliverLaneCallbacks();
  if (telemetry::Wants(config_.telemetry, telemetry::kClassPeriod)) {
    config_.telemetry->Record(telemetry::MakePeriodEvent(
        sim_.Now(), period_index_, snapshot.period_start, next));
  }
  if (telemetry::Wants(config_.telemetry, telemetry::kClassSim)) {
    // sim_ only: a sharded run's lane heaps are reduced into the final
    // metrics instead (a mid-run cross-thread probe would race).
    sim::Simulator::Stats s = sim_.stats();
    config_.telemetry->Record(telemetry::MakeSimStatsEvent(
        sim_.Now(), static_cast<int64_t>(s.peak_heap_depth),
        static_cast<int64_t>(s.live_events),
        static_cast<int64_t>(s.tombstones), s.cancelled));
  }
  period_index_++;
  app_monitor_.ResetPeriod(sim_.Now());
  storage_monitor_->ResetPeriod(sim_.Now());
  in_period_end_ = false;
  SchedulePeriodEnd(next);
}

// ---------------------------------------------------------------------------
// Experiment: the serial engine.
// ---------------------------------------------------------------------------

Experiment::Experiment(workload::Workload* workload,
                       policies::StoragePolicy* policy,
                       const ExperimentConfig& config)
    : ReplayEngine(workload, policy, config) {}

Experiment::~Experiment() = default;

Status Experiment::Build() {
  migrations_ =
      std::make_unique<MigrationEngine>(&sim_, system_.get(),
                                        config_.migration);
  system_->AddObserver(storage_monitor_.get());
  system_->AddObserver(this);
  system_->SetTelemetry(config_.telemetry);
  system_->SetLatencyBook(config_.latency_book);
  return Status::OK();
}

Status Experiment::Replay() {
  if (config_.power_sample_interval > 0) {
    meter_ = std::make_unique<storage::PowerMeter>(
        system_.get(), config_.power_sample_interval);
    ECOSTORE_RETURN_NOT_OK(meter_->Start());
  }

  // The hot loop consumes the workload in batches (one virtual call per
  // kReplayBatch records instead of one per logical I/O) and only enters
  // RunUntil() when an event is actually due before the record — the
  // common no-event case advances the clock with an inlined store.
  batch_.clear();
  batch_.reserve(kReplayBatch);
  bool horizon_reached = false;
  while (!horizon_reached &&
         workload_->NextBatch(&batch_, kReplayBatch) > 0) {
    // One ingest span per batch (two clock reads per kReplayBatch
    // records). Period ends firing inside RunUntil nest under it, so the
    // analyzer's self-time subtraction attributes them correctly.
    telemetry::profile::ScopedPhase ingest_span(
        telemetry::profile::Phase::kIngest,
        static_cast<int64_t>(batch_.size()));
    for (const trace::LogicalIoRecord& rec : batch_) {
      if (rec.time >= horizon_) {
        horizon_reached = true;
        break;
      }
      // Fire everything due before this I/O (flushes, period ends,
      // spin-down checks, migration chunks).
      if (sim_.NextEventTime() > rec.time) {
        sim_.AdvanceTo(rec.time);
      } else {
        sim_.RunUntil(rec.time);
      }

      // The pump runs after the simulator has advanced to rec.time, so
      // every event below the window boundary at or below rec.time has
      // been recorded and none can appear later (sim time is monotonic).
      if (StreamDue(rec.time)) {
        PumpStream(rec.time - rec.time % stream_window_);
      }

      app_monitor_.Record(rec);
      storage::StorageSystem::IoResult result = system_->SubmitLogicalIo(rec);
      metrics_.RecordLogicalIo(rec, result.latency, result.cache_hit);
    }
  }
  return Status::OK();
}

void Experiment::Finalize(ExperimentMetrics* m) {
  sim_.RunUntil(horizon_);
  system_->FinalizeRun();
  if (meter_ != nullptr) {
    meter_->Stop();
    m->power_samples = meter_->samples();
  }
}

void Experiment::DoPeriodEnd() {
  // Correlation id = period index: the span seq joins the wall-clock
  // track to this period's kPeriodBoundary event in the sim-time stream.
  telemetry::profile::ScopedCorrelation period_corr(
      static_cast<uint32_t>(period_index()));
  telemetry::profile::ScopedPhase period_span(
      telemetry::profile::Phase::kPeriodEnd);
  EndPeriod();
}

void Experiment::OnPhysicalIo(const trace::PhysicalIoRecord& rec) {
  metrics_.physical_batches++;
  policy_->OnPhysicalIo(rec);
}

void Experiment::OnIdleGapEnd(EnclosureId enclosure, SimTime at,
                              SimDuration gap) {
  metrics_.idle_gaps.push_back(gap);
  policy_->OnIdleGapEnd(enclosure, at, gap);
}

void Experiment::OnPowerStateChange(EnclosureId enclosure, SimTime at,
                                    storage::PowerState state) {
  if (state == storage::PowerState::kSpinningUp) {
    policy_->OnPowerOn(enclosure, at);
  }
}

void Experiment::RequestMigration(DataItemId item, EnclosureId target) {
  migrations_->RequestItemMove(item, target);
}

void Experiment::RequestBlockMigration(EnclosureId from, EnclosureId to,
                                       int64_t bytes) {
  migrations_->RequestBlockMove(from, to, bytes);
}

void Experiment::SetWriteDelayItems(
    const std::unordered_set<DataItemId>& items) {
  Status st = system_->SetWriteDelayItems(items);
  if (!st.ok()) {
    ECOSTORE_LOG(kWarn) << "SetWriteDelayItems: " << st.ToString();
  }
}

void Experiment::SetPreloadItems(
    const std::vector<std::pair<DataItemId, int64_t>>& items) {
  Status st = system_->SetPreloadItems(items);
  if (!st.ok()) {
    ECOSTORE_LOG(kWarn) << "SetPreloadItems: " << st.ToString();
  }
}

void Experiment::SetSpinDownAllowed(EnclosureId enclosure, bool allowed) {
  system_->SetSpinDownAllowed(enclosure, allowed);
}

void Experiment::PublishPlan(int32_t plan_id,
                             const std::vector<uint8_t>& item_patterns) {
  system_->BeginPlanEpoch(plan_id, item_patterns);
}

}  // namespace ecostore::replay
