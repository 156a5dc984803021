#ifndef ECOSTORE_REPLAY_SHARDED_EXPERIMENT_H_
#define ECOSTORE_REPLAY_SHARDED_EXPERIMENT_H_

#include <deque>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/shard_plan.h"
#include "replay/experiment.h"
#include "replay/migration_engine.h"

namespace ecostore::replay {

/// \brief The sharded replay engine (DESIGN.md §11): one experiment run
/// spread across worker threads.
///
/// Enclosures are partitioned into S shards (enclosure e -> shard e % S,
/// core::ShardMap); each shard is a *lane* owning a private POD event heap
/// (sim::Simulator), a structurally complete StorageSystem whose
/// accounting is masked to the owned enclosures, a full-capacity
/// controller-cache slice, and (when sampling is on) its own power meter.
/// Lanes advance concurrently in bounded sim-time epochs:
///
///   t_stop = min(horizon, generated-window limit, coordinator's next
///               event time)
///
/// so no lane ever runs past the next cross-shard effect. At the epoch
/// barrier the coordinator — the only thread that touches shared state —
/// merges lane telemetry and observer hooks in canonical
/// (time, enclosure, lane, index) order, then executes its own due events
/// (monitoring-period ends, migration chunks, triggered period ends)
/// with every lane clock pinned to exactly t_stop. Cross-shard effects
/// (item-move commits, plan publication, preload/write-delay deltas)
/// happen only in barrier context, routed per owning lane.
///
/// Determinism contract:
///  - shards <= 1 delegates to the serial Experiment: bit-identical.
///  - fixed S: bit-identical metrics for any worker-thread count (the
///    barrier serializes all cross-lane merges in lane order).
///  - vs serial: integer counters and per-enclosure energies are exact;
///    run-wide floating-point reductions (histogram sums, tag read-time
///    sums, sampled power) differ only by summation order, within the
///    bench §7 energy-quantization rule. Caches are per-lane, so configs
///    where capacity pressure (LRU eviction, threshold destage) would
///    couple shards are outside the exact-equivalence domain — see
///    DESIGN.md §11 for the full list of documented divergences.
class ShardedExperiment : public ReplayEngine {
 public:
  /// \param shards number of lanes; clamped to [1, num_enclosures].
  /// \param worker_threads pool size; <= 0 picks min(shards, hardware
  ///        concurrency). Has no effect on results, only wall time.
  ShardedExperiment(workload::Workload* workload,
                    policies::StoragePolicy* policy,
                    const ExperimentConfig& config, int shards,
                    int worker_threads = 0);
  ~ShardedExperiment() override;

  /// Executes the run to completion and returns the reduced measurements.
  Result<ExperimentMetrics> Run();

  int shards() const { return shard_map_.shards; }

  // --- policies::PolicyActuator (all calls arrive in barrier context on
  // the coordinator thread; lanes are quiescent at exactly Now()) ---
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

 private:
  struct Lane;
  class ShardRouter;

  // --- ReplayEngine ---
  Status Build() override;
  /// The epoch loop: generate, scatter, parallel lane advance, barrier
  /// merge, coordinator events.
  Status Replay() override;
  void Finalize(ExperimentMetrics* m) override;
  storage::DiskEnclosure& ServingEnclosure(EnclosureId id) override;
  const MigrationCounters& migration_counters() const override {
    return *migrations_;
  }
  void DoPeriodEnd() override;
  void DeliverLaneCallbacks() override { MergeBarrier(); }

  /// Pulls workload batches until the window reaches past `beyond` (or the
  /// stream ends / hits the horizon) plus a count-based prefetch.
  void EnsureGenerated(SimTime beyond);
  /// Routes every buffered record with time < t_stop to its owner lane
  /// (by the *current* master mapping) and logs it in the application
  /// monitor on the coordinator thread, preserving global trace order:
  /// a streaming sink observes the exact record sequence the serial
  /// engine feeds it.
  void ScatterUpTo(SimTime t_stop);
  /// Runs every lane to exactly t_stop (events at t_stop included, clock
  /// pinned), on the pool when the lane has work, inline otherwise.
  void AdvanceLanes(SimTime t_stop);
  /// Barrier merge: lane telemetry rings into the run recorder (lane
  /// order), then observer hooks into the storage monitor and policy in
  /// canonical (time, enclosure, lane, index) order.
  void MergeBarrier();
  void DrainLaneTelemetry();
  /// Replays (and clears) all pending lane hooks once; returns how many.
  size_t ReplayLaneHooks();

  int LaneOfItem(DataItemId item) const;

  core::ShardMap shard_map_;
  int worker_threads_ = 1;

  // system_ (ReplayEngine) is the authoritative placement replica.
  // Policies read it (layout, config, catalog); it never serves I/O, never
  // spins down, owns no telemetry.
  std::unique_ptr<ShardRouter> router_;
  std::unique_ptr<MigrationEngineT<ShardRouter>> migrations_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::unique_ptr<ThreadPool> pool_;

  int32_t plan_epoch_ = 0;

  // --- Generation window (global FIFO; scattered per epoch) ---
  std::deque<trace::LogicalIoRecord> window_;
  std::vector<trace::LogicalIoRecord> gen_batch_;
  SimTime last_generated_time_ = 0;
  bool stream_done_ = false;

  /// Records pulled per Workload::NextBatch call while filling the window.
  static constexpr size_t kGenBatch = 1024;
  /// Window prefetch target (records buffered ahead of the scatter).
  static constexpr size_t kWindowTarget = 32768;
};

}  // namespace ecostore::replay

#endif  // ECOSTORE_REPLAY_SHARDED_EXPERIMENT_H_
