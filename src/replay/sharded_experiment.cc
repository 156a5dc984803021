#include "replay/sharded_experiment.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "storage/power_meter.h"
#include "telemetry/profile/profiler.h"

namespace ecostore::replay {

// ---------------------------------------------------------------------------
// Lane: one shard's private world — event heap, masked storage system,
// cache slice, metric partials, and the epoch logs the barrier merges.
// ---------------------------------------------------------------------------

struct ShardedExperiment::Lane final : storage::StorageObserver {
  int shard_id = 0;

  sim::Simulator sim;
  std::unique_ptr<storage::StorageSystem> system;
  /// Lane-local event ring; drained into the run recorder at barriers so
  /// the merged stream's tie order is lane order, not thread-bind order.
  std::unique_ptr<telemetry::Recorder> recorder;
  std::unique_ptr<telemetry::analysis::LatencyBook> book;
  std::unique_ptr<storage::PowerMeter> meter;

  /// This epoch's records (all < t_stop), in global trace order.
  std::vector<trace::LogicalIoRecord> inbox;

  /// One observer callback captured during lane-local execution, replayed
  /// into the storage monitor and the policy at the barrier.
  struct Hook {
    enum class Kind : uint8_t { kPhysicalIo, kIdleGap, kPowerState };
    Kind kind = Kind::kPhysicalIo;
    SimTime at = 0;
    EnclosureId enclosure = kInvalidEnclosure;
    SimDuration gap = 0;
    storage::PowerState state = storage::PowerState::kOn;
    trace::PhysicalIoRecord rec{};
  };
  std::vector<Hook> hooks;

  /// Lane-local slice of the run metrics, reduced after the horizon.
  ExperimentMetrics partial;

  // --- storage::StorageObserver (lane-local; worker thread in epochs,
  // coordinator thread during barrier work) ---
  void OnPhysicalIo(const trace::PhysicalIoRecord& rec) override {
    partial.physical_batches++;
    hooks.push_back({.kind = Hook::Kind::kPhysicalIo, .at = rec.time,
                     .enclosure = rec.enclosure, .rec = rec});
  }

  void OnIdleGapEnd(EnclosureId enclosure, SimTime at,
                    SimDuration gap) override {
    partial.idle_gaps.push_back(gap);
    hooks.push_back({.kind = Hook::Kind::kIdleGap, .at = at,
                     .enclosure = enclosure, .gap = gap});
  }

  void OnPowerStateChange(EnclosureId enclosure, SimTime at,
                          storage::PowerState state) override {
    hooks.push_back({.kind = Hook::Kind::kPowerState, .at = at,
                     .enclosure = enclosure, .state = state});
  }

  /// One epoch: submit this lane's records with the serial engine's exact
  /// clock discipline and per-record accounting, then run out the local
  /// heap and pin the clock to the barrier.
  void Advance(SimTime t_stop) {
    for (const trace::LogicalIoRecord& rec : inbox) {
      if (sim.NextEventTime() > rec.time) {
        sim.AdvanceTo(rec.time);
      } else {
        sim.RunUntil(rec.time);
      }

      storage::StorageSystem::IoResult result = system->SubmitLogicalIo(rec);
      partial.RecordLogicalIo(rec, result.latency, result.cache_hit);
    }
    inbox.clear();
    // Fire everything due through the barrier (events exactly at t_stop
    // included), then pin the clock: a lane that quiesced early must stamp
    // barrier-time work (cross-shard flushes, plan deltas) with t_stop.
    sim.RunUntil(t_stop);
    sim.AdvanceTo(t_stop);
  }
};

// ---------------------------------------------------------------------------
// ShardRouter: the migration engine's storage facade. Placement truth
// lives on the master; each enclosure's I/O goes to its owning lane.
// ---------------------------------------------------------------------------

class ShardedExperiment::ShardRouter {
 public:
  explicit ShardRouter(ShardedExperiment* owner) : owner_(owner) {}

  const storage::BlockVirtualization& virtualization() const {
    return owner_->system_->virtualization();
  }

  storage::DiskEnclosure& enclosure(EnclosureId id) {
    return lane_of(id).system->enclosure(id);
  }

  SimTime SubmitPhysicalBulk(EnclosureId enclosure, int64_t n_ios,
                             int64_t bytes, IoType type, bool sequential) {
    // Barrier context: the lane clock is pinned to the coordinator's Now.
    return lane_of(enclosure).system->SubmitPhysicalBulk(enclosure, n_ios,
                                                         bytes, type,
                                                         sequential);
  }

  /// The sharded equivalent of StorageSystem::CommitItemMove: flip the
  /// master mapping (authoritative), mirror it into every lane, rehome the
  /// source lane's cached blocks, and — on a cross-lane move — hand the
  /// item's cache membership (write-delay / preload selection) to the
  /// target lane. The displaced dirty blocks are rewritten at the item's
  /// new home by the target lane, as the serial engine does.
  Status CommitItemMove(DataItemId item, EnclosureId target) {
    storage::StorageSystem& master = *owner_->system_;
    EnclosureId source = master.virtualization().EnclosureOf(item);
    ECOSTORE_RETURN_NOT_OK(master.virtualization().MoveItem(item, target));
    for (auto& lane : owner_->lanes_) {
      Status st = lane->system->virtualization().MoveItem(item, target);
      if (!st.ok()) {
        // Mirrors replay the identical placement history, so a divergent
        // outcome means the engine state is corrupt, not recoverable.
        ECOSTORE_LOG(kError) << "shard mirror MoveItem diverged: "
                             << st.ToString();
        return st;
      }
    }
    Lane& src = lane_of(source);
    Lane& dst = lane_of(target);
    std::vector<storage::FlushDemand> demands =
        src.system->mutable_cache().InvalidateItem(item);
    if (&src != &dst) {
      storage::StorageCache::ItemState state =
          src.system->mutable_cache().ExportItemState(item);
      src.system->mutable_cache().DropItemState(item);
      dst.system->mutable_cache().AdoptItemState(item, state);
    }
    dst.system->ApplyExternalFlushDemands(demands);
    return Status::OK();
  }

  telemetry::Recorder* telemetry() const {
    return owner_->config_.telemetry;
  }

 private:
  Lane& lane_of(EnclosureId id) const {
    return *owner_->lanes_[static_cast<size_t>(
        owner_->shard_map_.ShardOf(id))];
  }

  ShardedExperiment* owner_;
};

// ---------------------------------------------------------------------------
// ShardedExperiment
// ---------------------------------------------------------------------------

ShardedExperiment::ShardedExperiment(workload::Workload* workload,
                                     policies::StoragePolicy* policy,
                                     const ExperimentConfig& config,
                                     int shards, int worker_threads)
    : ReplayEngine(workload, policy, config) {
  int max_shards = std::max(1, config_.storage.num_enclosures);
  shard_map_.shards = std::clamp(shards, 1, max_shards);
  if (worker_threads > 0) {
    worker_threads_ = worker_threads;
  } else {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw <= 0) hw = 1;
    worker_threads_ = std::max(1, std::min(shard_map_.shards, hw));
  }
}

ShardedExperiment::~ShardedExperiment() = default;

Result<ExperimentMetrics> ShardedExperiment::Run() {
  if (shard_map_.shards <= 1) {
    // One shard is *defined* as the serial engine: same object, same event
    // interleaving, bit-identical metrics and capture.
    Experiment serial(workload_, policy_, config_);
    return serial.Run();
  }
  // The coordinator's own events (periods, migration control, the final
  // controller energy, log lines) are tagged kCoordinatorShard — it sorts
  // after every lane at equal timestamps, matching the barrier protocol
  // (coordinator work runs after lane work at each t_stop).
  telemetry::ScopedShardTag coordinator_tag(telemetry::kCoordinatorShard);
  return RunReplay();
}

Status ShardedExperiment::Build() {
  const int num_enclosures = config_.storage.num_enclosures;
  lanes_.clear();
  for (int s = 0; s < shard_map_.shards; ++s) {
    auto lane = std::make_unique<Lane>();
    lane->shard_id = s;
    lane->system = std::make_unique<storage::StorageSystem>(
        &lane->sim, config_.storage, &workload_->catalog());
    ECOSTORE_RETURN_NOT_OK(lane->system->Init());
    lane->system->SetOwnedEnclosures(
        shard_map_.OwnedMask(num_enclosures, s));
    lane->system->AddObserver(lane.get());
    if (config_.telemetry != nullptr) {
      telemetry::Recorder::Options opts;
      opts.mask = config_.telemetry->mask();
      lane->recorder = std::make_unique<telemetry::Recorder>(opts);
      lane->system->SetTelemetry(lane->recorder.get());
    }
    if (config_.latency_book != nullptr) {
      lane->book = std::make_unique<telemetry::analysis::LatencyBook>();
      lane->system->SetLatencyBook(lane->book.get());
    }
    lanes_.push_back(std::move(lane));
  }

  router_ = std::make_unique<ShardRouter>(this);
  migrations_ = std::make_unique<MigrationEngineT<ShardRouter>>(
      &sim_, router_.get(), config_.migration);
  pool_ = std::make_unique<ThreadPool>(worker_threads_);

  window_.clear();
  gen_batch_.clear();
  gen_batch_.reserve(kGenBatch);
  last_generated_time_ = 0;
  stream_done_ = false;
  plan_epoch_ = 0;
  return Status::OK();
}

Status ShardedExperiment::Replay() {
  if (config_.power_sample_interval > 0) {
    for (auto& lane : lanes_) {
      lane->meter = std::make_unique<storage::PowerMeter>(
          lane->system.get(), config_.power_sample_interval);
      ECOSTORE_RETURN_NOT_OK(lane->meter->Start());
    }
  }

  // Pool workers bind the profiler per epoch in AdvanceLanes with lane =
  // shard + 1; the coordinator is lane 0.
  uint32_t epoch_index = 0;
  while (true) {
    // The epoch index is the sharded engine's correlation key: every span
    // the coordinator or a lane records this iteration carries it, so the
    // contention report can line up lane busy time, barrier waits and
    // merges per epoch.
    telemetry::profile::ScopedCorrelation epoch_corr(epoch_index);
    telemetry::profile::ScopedPhase epoch_span(
        telemetry::profile::Phase::kEpoch);
    EnsureGenerated(sim_.Now());
    SimTime window_limit = stream_done_ ? horizon_ : last_generated_time_;
    SimTime t_stop =
        std::min(horizon_, std::min(window_limit, sim_.NextEventTime()));

    {
      telemetry::profile::ScopedPhase scatter_span(
          telemetry::profile::Phase::kScatter,
          static_cast<int64_t>(window_.size()));
      ScatterUpTo(t_stop);
    }
    AdvanceLanes(t_stop);
    // The coordinator's clock reaches the barrier before the merged hooks
    // replay, so a pattern-change trigger fired during replay lands its
    // immediate period end at exactly t_stop (run by RunUntil below).
    sim_.AdvanceTo(t_stop);
    MergeBarrier();
    sim_.RunUntil(t_stop);

    // Streaming pump at epoch granularity: every lane clock and the
    // coordinator clock are pinned at t_stop and all lane rings have been
    // re-recorded into the shared recorder, so no event below t_stop can
    // appear later — t_stop is a valid exclusive frontier. Events at
    // exactly t_stop stay pending until a later frontier passes them.
    if (StreamDue(t_stop)) PumpStream(t_stop);

    if (t_stop >= horizon_) break;
    epoch_index++;
  }
  return Status::OK();
}

void ShardedExperiment::Finalize(ExperimentMetrics* m) {
  // All clocks are pinned to the horizon. Destage and report final idle
  // gaps per lane (serial FinalizeRun order within each lane, lanes in
  // shard order), deliver the resulting callbacks, then emit the
  // controller's energy final exactly once.
  for (auto& lane : lanes_) {
    telemetry::ScopedShardTag tag(static_cast<uint16_t>(lane->shard_id + 1));
    telemetry::ScopedLoggerBridge bridge(lane->recorder.get(), &SimClock,
                                         &lane->sim);
    lane->system->FinalizeRun();
  }
  MergeBarrier();
  if (telemetry::Wants(config_.telemetry, telemetry::kClassPower)) {
    config_.telemetry->Record(telemetry::MakeEnergyFinalEvent(
        sim_.Now(), kInvalidEnclosure, system_->ControllerEnergy(),
        plan_epoch_));
  }
  for (auto& lane : lanes_) {
    if (lane->meter != nullptr) lane->meter->Stop();
  }

  // Publish the pool's contention gauges — the single source of truth the
  // profile export and eco_report read (busy time is wall-clock, so the
  // values vary run to run; they never feed back into replay results).
  if (config_.telemetry != nullptr) {
    ThreadPool::Stats ps = pool_->GetStats();
    config_.telemetry->gauge("pool.workers")->Set(ps.workers);
    config_.telemetry->gauge("pool.tasks_executed")->Set(ps.tasks_executed);
    config_.telemetry->gauge("pool.peak_queued")->Set(ps.peak_queued);
    config_.telemetry->gauge("pool.busy_us")->Set(ps.busy_ns / 1000);
  }

  // Lane partials reduce in lane order (fixed for a given S, whatever the
  // worker count).
  for (auto& lane : lanes_) {
    const ExperimentMetrics& p = lane->partial;
    m->logical_ios += p.logical_ios;
    m->logical_reads += p.logical_reads;
    m->physical_batches += p.physical_batches;
    m->cache_hit_ios += p.cache_hit_ios;
    m->response_us.Merge(p.response_us);
    m->read_response_us.Merge(p.read_response_us);
    for (const auto& [tag, stats] : p.tag_stats) {
      auto [it, inserted] = m->tag_stats.try_emplace(tag);
      ExperimentMetrics::TagStats& merged = it->second;
      if (inserted || stats.first_issue < merged.first_issue) {
        merged.first_issue = stats.first_issue;
      }
      merged.read_response_us_sum += stats.read_response_us_sum;
      merged.reads += stats.reads;
      if (stats.last_completion > merged.last_completion) {
        merged.last_completion = stats.last_completion;
      }
    }
    m->idle_gaps.insert(m->idle_gaps.end(), p.idle_gaps.begin(),
                        p.idle_gaps.end());
    if (lane->book != nullptr) config_.latency_book->Merge(*lane->book);
    sim::Simulator::Stats s = lane->sim.stats();
    m->sim_events_executed += s.executed;
    m->sim_events_cancelled += s.cancelled;
    m->sim_peak_heap_depth = std::max(m->sim_peak_heap_depth,
                                      static_cast<int64_t>(s.peak_heap_depth));
  }

  if (lanes_[0]->meter != nullptr) {
    // Sample-index-wise merge: every lane ticks at the same instants, so
    // sample i is the same interval everywhere. Enclosure watts add across
    // lanes (each lane meters only its owned enclosures); the controller
    // column is the constant draw, identical in every lane — keep lane
    // 0's.
    m->power_samples = lanes_[0]->meter->samples();
    for (size_t l = 1; l < lanes_.size(); ++l) {
      const std::vector<storage::PowerSample>& more =
          lanes_[l]->meter->samples();
      size_t n = std::min(m->power_samples.size(), more.size());
      for (size_t i = 0; i < n; ++i) {
        m->power_samples[i].enclosures += more[i].enclosures;
      }
    }
  }
}

storage::DiskEnclosure& ShardedExperiment::ServingEnclosure(EnclosureId id) {
  return lanes_[static_cast<size_t>(shard_map_.ShardOf(id))]
      ->system->enclosure(id);
}

void ShardedExperiment::EnsureGenerated(SimTime beyond) {
  while (!stream_done_ && (last_generated_time_ <= beyond ||
                           window_.size() < kWindowTarget)) {
    gen_batch_.clear();
    if (workload_->NextBatch(&gen_batch_, kGenBatch) == 0) {
      stream_done_ = true;
      break;
    }
    for (const trace::LogicalIoRecord& rec : gen_batch_) {
      // First at-or-past-horizon record permanently ends generation — the
      // serial hot loop breaks here and never reads further.
      if (rec.time >= horizon_) {
        stream_done_ = true;
        break;
      }
      window_.push_back(rec);
      last_generated_time_ = rec.time;
    }
  }
}

void ShardedExperiment::ScatterUpTo(SimTime t_stop) {
  // Routing uses the *current* master mapping: commits only happen in
  // barrier context at times >= t_stop, so every record scattered here
  // observes the same placement the serial engine would at its own time.
  while (!window_.empty() && window_.front().time < t_stop) {
    const trace::LogicalIoRecord& rec = window_.front();
    app_monitor_.Record(rec);
    lanes_[static_cast<size_t>(LaneOfItem(rec.item))]->inbox.push_back(rec);
    window_.pop_front();
  }
}

void ShardedExperiment::AdvanceLanes(SimTime t_stop) {
  // Pool workers carry no thread-local profiler binding of their own, so
  // each task re-binds the run's profiler and stamps its spans with the
  // lane id (shard + 1; the coordinator is lane 0) and the epoch index the
  // coordinator holds right now.
  telemetry::profile::Profiler* profiler = config_.profiler;
  const uint32_t epoch = telemetry::profile::ThreadCorrelation();
  std::vector<std::future<void>> pending;
  for (auto& lane_ptr : lanes_) {
    Lane* lane = lane_ptr.get();
    if (lane->inbox.empty() && lane->sim.NextEventTime() > t_stop) {
      // Nothing to run: pin the clock without paying for a pool hop.
      lane->sim.AdvanceTo(t_stop);
      continue;
    }
    pending.push_back(pool_->Submit([lane, t_stop, profiler, epoch] {
      telemetry::ScopedShardTag tag(
          static_cast<uint16_t>(lane->shard_id + 1));
      telemetry::ScopedLoggerBridge bridge(lane->recorder.get(), &SimClock,
                                           &lane->sim);
      telemetry::profile::ScopedThreadProfiler profile_bind(profiler);
      telemetry::profile::ScopedProfileLane lane_tag(
          static_cast<uint16_t>(lane->shard_id + 1));
      telemetry::profile::ScopedCorrelation corr(epoch);
      telemetry::profile::ScopedPhase advance_span(
          telemetry::profile::Phase::kLaneAdvance,
          static_cast<int64_t>(lane->inbox.size()));
      lane->Advance(t_stop);
    }));
  }
  // Barrier wait: coordinator wall time spent blocked on lane futures.
  // `detail` records how many tasks were still queued when the wait
  // began — the queue-depth signal for the contention report.
  telemetry::profile::ScopedPhase wait_span(
      telemetry::profile::Phase::kBarrierWait,
      pool_ != nullptr ? pool_->GetStats().queued : 0);
  for (auto& f : pending) f.get();
}

void ShardedExperiment::MergeBarrier() {
  telemetry::profile::ScopedPhase merge_span(
      telemetry::profile::Phase::kMerge);
  DrainLaneTelemetry();
  // Hook replay can make the policy act (e.g. a DDR block move), which
  // produces new lane hooks; loop until quiescent, as the serial engine's
  // synchronous observer nesting would.
  while (ReplayLaneHooks() > 0) DrainLaneTelemetry();
}

void ShardedExperiment::DrainLaneTelemetry() {
  if (config_.telemetry == nullptr) return;
  for (auto& lane : lanes_) {
    if (lane->recorder == nullptr) continue;
    // Re-recording on the coordinator thread funnels every lane's events
    // into one ring in lane order: the drained stream's tie order is then
    // deterministic for any worker-thread count. The re-record stamps the
    // lane's shard tag (not the coordinator's).
    telemetry::ScopedShardTag tag(
        static_cast<uint16_t>(lane->shard_id + 1));
    for (const telemetry::Event& event : lane->recorder->Drain()) {
      config_.telemetry->Record(event);
    }
    for (const telemetry::LogLine& line : lane->recorder->DrainLogs()) {
      config_.telemetry->WriteLog(line.level, line.sim_time,
                                  line.file.c_str(), line.line,
                                  line.message);
    }
  }
}

size_t ShardedExperiment::ReplayLaneHooks() {
  struct Ref {
    SimTime at;
    EnclosureId enclosure;
    int lane;
    size_t idx;
  };
  std::vector<std::vector<Lane::Hook>> taken(lanes_.size());
  std::vector<Ref> order;
  size_t total = 0;
  for (size_t l = 0; l < lanes_.size(); ++l) {
    taken[l].swap(lanes_[l]->hooks);
    total += taken[l].size();
  }
  if (total == 0) return 0;
  order.reserve(total);
  for (size_t l = 0; l < taken.size(); ++l) {
    for (size_t i = 0; i < taken[l].size(); ++i) {
      order.push_back(
          Ref{taken[l][i].at, taken[l][i].enclosure, static_cast<int>(l), i});
    }
  }
  // Canonical merge order: (time, enclosure, lane, index). Enclosure-major
  // at equal times keeps the replayed stream stable across shard counts;
  // (lane, index) makes it a total order.
  std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.enclosure != b.enclosure) return a.enclosure < b.enclosure;
    if (a.lane != b.lane) return a.lane < b.lane;
    return a.idx < b.idx;
  });
  for (const Ref& r : order) {
    const Lane::Hook& h = taken[static_cast<size_t>(r.lane)][r.idx];
    switch (h.kind) {
      case Lane::Hook::Kind::kPhysicalIo:
        // Serial observer order: the storage monitor is attached before
        // the experiment, so it sees each record first.
        storage_monitor_->OnPhysicalIo(h.rec);
        policy_->OnPhysicalIo(h.rec);
        break;
      case Lane::Hook::Kind::kIdleGap:
        policy_->OnIdleGapEnd(h.enclosure, h.at, h.gap);
        break;
      case Lane::Hook::Kind::kPowerState:
        storage_monitor_->OnPowerStateChange(h.enclosure, h.at, h.state);
        if (h.state == storage::PowerState::kSpinningUp) {
          policy_->OnPowerOn(h.enclosure, h.at);
        }
        break;
    }
  }
  return total;
}

void ShardedExperiment::DoPeriodEnd() {
  // Runs under the epoch's correlation; the span's detail carries the
  // period index instead.
  telemetry::profile::ScopedPhase period_span(
      telemetry::profile::Phase::kPeriodEnd,
      static_cast<int64_t>(period_index()));
  EndPeriod();
}

int ShardedExperiment::LaneOfItem(DataItemId item) const {
  return shard_map_.ShardOf(system_->virtualization().EnclosureOf(item));
}

// --- policies::PolicyActuator ---

void ShardedExperiment::RequestMigration(DataItemId item,
                                         EnclosureId target) {
  migrations_->RequestItemMove(item, target);
}

void ShardedExperiment::RequestBlockMigration(EnclosureId from,
                                              EnclosureId to,
                                              int64_t bytes) {
  migrations_->RequestBlockMove(from, to, bytes);
}

void ShardedExperiment::SetWriteDelayItems(
    const std::unordered_set<DataItemId>& items) {
  std::vector<std::unordered_set<DataItemId>> split =
      core::SplitWriteDelayItems(items, system_->virtualization(),
                                 shard_map_);
  for (size_t s = 0; s < lanes_.size(); ++s) {
    Status st = lanes_[s]->system->SetWriteDelayItems(split[s]);
    if (!st.ok()) {
      ECOSTORE_LOG(kWarn) << "SetWriteDelayItems: " << st.ToString();
    }
  }
}

void ShardedExperiment::SetPreloadItems(
    const std::vector<std::pair<DataItemId, int64_t>>& items) {
  // Per-lane caches each have the full preload area, so the serial
  // engine's array-wide capacity gate must run here, before the split.
  int64_t total = 0;
  for (const auto& entry : items) total += entry.second;
  if (total > config_.storage.cache.preload_area_bytes) {
    ECOSTORE_LOG(kWarn)
        << "SetPreloadItems: "
        << Status::CapacityExceeded(
               "preload selection exceeds preload area")
               .ToString();
    return;
  }
  std::vector<std::vector<std::pair<DataItemId, int64_t>>> split =
      core::SplitPreloadItems(items, system_->virtualization(), shard_map_);
  for (size_t s = 0; s < lanes_.size(); ++s) {
    Status st = lanes_[s]->system->SetPreloadItems(split[s]);
    if (!st.ok()) {
      ECOSTORE_LOG(kWarn) << "SetPreloadItems: " << st.ToString();
    }
  }
}

void ShardedExperiment::SetSpinDownAllowed(EnclosureId enclosure,
                                           bool allowed) {
  // Owner lane only; the master replica never spins down (its enclosures
  // carry no I/O and its energy is never read).
  lanes_[static_cast<size_t>(shard_map_.ShardOf(enclosure))]
      ->system->SetSpinDownAllowed(enclosure, allowed);
}

void ShardedExperiment::PublishPlan(
    int32_t plan_id, const std::vector<uint8_t>& item_patterns) {
  plan_epoch_ = plan_id;
  system_->BeginPlanEpoch(plan_id, item_patterns);
  for (auto& lane : lanes_) {
    lane->system->BeginPlanEpoch(plan_id, item_patterns);
  }
}

}  // namespace ecostore::replay
