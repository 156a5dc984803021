#ifndef ECOSTORE_REPLAY_EXPERIMENT_H_
#define ECOSTORE_REPLAY_EXPERIMENT_H_

#include <memory>

#include "common/result.h"
#include "monitor/application_monitor.h"
#include "monitor/storage_monitor.h"
#include "policies/storage_policy.h"
#include "replay/metrics.h"
#include "replay/migration_engine.h"
#include "sim/simulator.h"
#include "storage/power_meter.h"
#include "storage/storage_system.h"
#include "telemetry/profile/profiler.h"
#include "telemetry/stream_consumer.h"
#include "workload/workload.h"

namespace ecostore::replay {

/// Run parameters beyond the storage array itself.
struct ExperimentConfig {
  storage::StorageConfig storage;

  /// 0: run for the workload's full duration.
  SimDuration duration = 0;

  MigrationEngine::Options migration;

  /// Sampling interval for the wall power meter; 0 disables sampling.
  SimDuration power_sample_interval = 0;

  /// Event recorder for the run (not owned; may be nullptr). When set,
  /// the run binds it to the storage system, bridges library logging into
  /// it with simulated timestamps, and emits period/sim events.
  telemetry::Recorder* telemetry = nullptr;

  /// Latency book the storage system records per-I/O service times into
  /// (not owned; may be nullptr). Independent of the event recorder so a
  /// run can collect latency histograms without paying for event capture.
  telemetry::analysis::LatencyBook* latency_book = nullptr;

  /// Streaming consumer fan-out (not owned; may be nullptr). When set
  /// alongside `telemetry`, the hot loop pumps the recorder into the
  /// dispatcher at every stream_window_us sim-time boundary the trace
  /// crosses, and once more at the horizon with the measured energies
  /// (StreamDispatcher::Finish). Pumps reset the recorder rings, so runs
  /// that also want the full capture attach a telemetry::CaptureBuffer.
  telemetry::StreamDispatcher* stream = nullptr;

  /// Pump cadence / rolling-window length in sim time; <= 0 uses 1 min.
  SimDuration stream_window_us = 0;

  /// Wall-clock phase profiler (not owned; may be nullptr). When set,
  /// Run() binds it to the replay thread for its duration and the engine
  /// + period-end pipeline record phase spans (DESIGN.md §15). The
  /// profiler only ever reads the wall clock and writes its own rings,
  /// so attaching one cannot change replay results (fingerprint-gated).
  telemetry::profile::Profiler* profiler = nullptr;
};

/// \brief The skeleton both replay engines share (DESIGN.md §5, §11): the
/// run prologue and epilogue, the monitoring-period protocol (paper §V-D:
/// the management function runs at every period end, and a sudden pattern
/// change re-triggers it early) and the final accounting.
///
/// An engine supplies only what differs: how it builds and replays (the
/// serial hot loop, or the sharded lanes and epochs), how it closes the
/// run, and where each enclosure is served. No hook runs per logical I/O;
/// both hot loops account each I/O through the inline
/// ExperimentMetrics::RecordLogicalIo.
class ReplayEngine : public policies::PolicyActuator {
 public:
  ~ReplayEngine() override;

  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  // --- policies::PolicyActuator (the engine-independent part) ---
  SimTime Now() const override { return sim_.Now(); }
  /// Replaces the pending period end with one due now. Calls made while a
  /// period end runs, or while a triggered one is still pending, are
  /// no-ops: a burst of triggers at one instant adds one period end.
  void TriggerImmediatePeriodEnd() override;
  bool AttachLogicalIoSink(monitor::LogicalIoSink* sink) override {
    app_monitor_.SetSink(sink);
    return true;
  }
  telemetry::Recorder* telemetry() const override {
    return config_.telemetry;
  }

 protected:
  ReplayEngine(workload::Workload* workload, policies::StoragePolicy* policy,
               const ExperimentConfig& config);

  /// One whole run: the horizon check, system_ and the storage monitor,
  /// Build(), the thread bindings, the monitor resets, the policy's Start,
  /// the first period, Replay(), then Finalize(), the shared accounting
  /// and the closing stream pump.
  Result<ExperimentMetrics> RunReplay();

  /// Builds the engine's own state once system_ and storage_monitor_
  /// exist.
  virtual Status Build() = 0;
  /// Starts the engine's power meters (after the policy's Start and the
  /// first period end are scheduled, so equal-time events keep their
  /// order) and replays the trace up to the horizon.
  virtual Status Replay() = 0;
  /// Brings every clock to the horizon, closes the run's physical state
  /// and folds the engine's partials into `m`: volume counters,
  /// histograms, tag stats and idle gaps where the hot loop kept them
  /// elsewhere, power samples, and the event counts of any simulator
  /// besides sim_ (whose own counts Account() adds).
  virtual void Finalize(ExperimentMetrics* m) = 0;
  /// The enclosure object that served `id`'s I/O during the run.
  virtual storage::DiskEnclosure& ServingEnclosure(EnclosureId id) = 0;
  virtual const MigrationCounters& migration_counters() const = 0;
  /// Runs as a period-end event: opens the engine's profiler tags and
  /// calls EndPeriod().
  virtual void DoPeriodEnd() = 0;
  /// Delivers storage callbacks the engine has buffered (the sharded lane
  /// hooks) before policy code reads the monitors. The serial engine
  /// delivers them inline, so it has nothing to do.
  virtual void DeliverLaneCallbacks() {}

  /// The period-end body: snapshot, the policy's management function,
  /// the period and sim-stats events, the monitor resets, and the next
  /// period (floored at 1 s).
  void EndPeriod();
  int32_t period_index() const { return period_index_; }

  /// Streaming pump (ExperimentConfig::stream): StreamDue is one compare
  /// against the next window mark; PumpStream drains the recorder into the
  /// dispatcher below `frontier`, which must be a time no later event can
  /// precede, and sets the next mark one window past frontier's window.
  bool StreamDue(SimTime t) const { return t >= next_stream_mark_; }
  void PumpStream(SimTime frontier);

  /// Captureless sim clock for logger bridges (common/ cannot see sim/).
  static SimTime SimClock(const void* simulator);

  workload::Workload* workload_;
  policies::StoragePolicy* policy_;
  ExperimentConfig config_;

  /// The run clock: the serial engine's only simulator, the sharded
  /// coordinator's (period ends, migration pacing, triggers).
  sim::Simulator sim_;
  /// The storage system the policy sees. The serial engine serves I/O on
  /// it; the sharded engine keeps it as the authoritative placement
  /// master and serves I/O on its lanes.
  std::unique_ptr<storage::StorageSystem> system_;
  monitor::ApplicationMonitor app_monitor_;
  std::unique_ptr<monitor::StorageMonitor> storage_monitor_;
  /// Run measurements; both hot loops add to it (the sharded one via its
  /// lanes' partials, folded in by Finalize()).
  ExperimentMetrics metrics_;
  SimDuration horizon_ = 0;
  SimDuration stream_window_ = kMinute;

 private:
  void SchedulePeriodEnd(SimDuration period);
  /// The final accounting both engines share; per-enclosure energies are
  /// summed in enclosure order, StorageSystem::EnclosureEnergy()'s order.
  void Account();

  sim::EventId period_event_ = 0;
  int32_t period_index_ = 0;
  bool in_period_end_ = false;
  bool trigger_pending_ = false;

  telemetry::StreamDispatcher* stream_ = nullptr;
  SimTime next_stream_mark_ = 0;
};

/// \brief The trace-replay harness (paper §VII-A.2 / Fig. 7): streams a
/// workload's logical I/O into the simulated array under the control of
/// one power-management policy and measures power, response times and
/// data movement.
///
/// One Experiment = one run; construct a fresh one per (workload, policy)
/// pair. The workload is Reset() at the start of Run(), so the same
/// workload object can be reused across runs and every policy sees the
/// identical trace.
class Experiment : public storage::StorageObserver, public ReplayEngine {
 public:
  Experiment(workload::Workload* workload, policies::StoragePolicy* policy,
             const ExperimentConfig& config);
  ~Experiment() override;

  /// Executes the run to completion and returns the measurements.
  Result<ExperimentMetrics> Run() { return RunReplay(); }

  // --- storage::StorageObserver ---
  void OnPhysicalIo(const trace::PhysicalIoRecord& rec) override;
  void OnIdleGapEnd(EnclosureId enclosure, SimTime at,
                    SimDuration gap) override;
  void OnPowerStateChange(EnclosureId enclosure, SimTime at,
                          storage::PowerState state) override;

  // --- policies::PolicyActuator ---
  void RequestMigration(DataItemId item, EnclosureId target) override;
  void RequestBlockMigration(EnclosureId from, EnclosureId to,
                             int64_t bytes) override;
  void SetWriteDelayItems(
      const std::unordered_set<DataItemId>& items) override;
  void SetPreloadItems(
      const std::vector<std::pair<DataItemId, int64_t>>& items) override;
  void SetSpinDownAllowed(EnclosureId enclosure, bool allowed) override;
  void PublishPlan(int32_t plan_id,
                   const std::vector<uint8_t>& item_patterns) override;

  /// The storage system under test (valid during and after Run()).
  storage::StorageSystem* system() { return system_.get(); }

  /// The application monitor (inspection: trace capture mode, totals).
  const monitor::ApplicationMonitor& application_monitor() const {
    return app_monitor_;
  }

 private:
  // --- ReplayEngine ---
  Status Build() override;
  Status Replay() override;
  void Finalize(ExperimentMetrics* m) override;
  storage::DiskEnclosure& ServingEnclosure(EnclosureId id) override {
    return system_->enclosure(id);
  }
  const MigrationCounters& migration_counters() const override {
    return *migrations_;
  }
  void DoPeriodEnd() override;

  std::unique_ptr<MigrationEngine> migrations_;
  std::unique_ptr<storage::PowerMeter> meter_;

  /// Records pulled per Workload::NextBatch call in Replay()'s hot loop.
  static constexpr size_t kReplayBatch = 256;
  /// Reused batch scratch; no allocation per batch in steady state.
  std::vector<trace::LogicalIoRecord> batch_;
};

}  // namespace ecostore::replay

#endif  // ECOSTORE_REPLAY_EXPERIMENT_H_
