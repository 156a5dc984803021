#ifndef ECOSTORE_REPLAY_MIGRATION_ENGINE_H_
#define ECOSTORE_REPLAY_MIGRATION_ENGINE_H_

#include <algorithm>
#include <cassert>
#include <deque>
#include <vector>

#include "common/logging.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "storage/storage_system.h"

namespace ecostore::replay {

/// \brief Executes data-item migrations in the background, one item at a
/// time, rate-throttled so application I/O is not disturbed (the paper's
/// runtime movement function, §V-A).
///
/// Each chunk issues a bulk read on the source enclosure and a bulk write
/// on the target; when the item's last chunk lands, the virtualization
/// mapping flips to the new enclosure. Block-level moves (for DDR-style
/// baselines) are accounted immediately as a read/write pair without any
/// remapping.
///
/// Templated on the storage facade so the sharded engine can route the
/// same logic through its cross-shard `ShardRouter` (which forwards each
/// enclosure's I/O to the owning lane); `System` must provide
/// virtualization(), enclosure(), SubmitPhysicalBulk(), CommitItemMove()
/// and telemetry() with StorageSystem's signatures. Serial code uses the
/// `MigrationEngine` alias below, explicitly instantiated in the .cc.
/// Engine tuning knobs, shared by every MigrationEngineT instantiation so
/// one ExperimentConfig::migration value drives serial and sharded runs.
struct MigrationOptions {
  int64_t chunk_bytes = 4LL * 1024 * 1024;
  /// Sustained copy throughput per job (bytes/second).
  double rate_bytes_per_second = 48.0 * 1024 * 1024;
  int32_t block_size = 64 * 1024;
  /// Items copied concurrently (distinct enclosure pairs in practice).
  int max_concurrent_jobs = 4;
  /// Background-priority throttle: a chunk is deferred while its source
  /// or target queue is this far behind (paper §V-A: migration "controls
  /// data transfer I/O throughputs so as to not influence the
  /// applications' performance").
  SimDuration busy_backoff_threshold = 50 * kMillisecond;
  SimDuration busy_backoff_delay = 500 * kMillisecond;
};

template <typename System>
class MigrationEngineT {
 public:
  using Options = MigrationOptions;

  MigrationEngineT(sim::Simulator* simulator, System* system,
                   const Options& options)
      : sim_(simulator),
        system_(system),
        options_(options),
        slots_(static_cast<size_t>(std::max(0, options.max_concurrent_jobs))) {
    for (int i = 0; i < static_cast<int>(slots_.size()); ++i) {
      free_slots_.push_back(i);
    }
    assert(simulator != nullptr);
    assert(system != nullptr);
    assert(options_.chunk_bytes > 0);
    assert(options_.rate_bytes_per_second > 0);
  }

  /// Enqueues a whole-item move (FIFO). Stale requests (item already on
  /// target by the time the job starts) are dropped.
  void RequestItemMove(DataItemId item, EnclosureId target) {
    if (system_->virtualization().catalog().item(item).pinned) return;
    queue_.push_back(Job{item, target, kInvalidEnclosure, 0});
    FillJobSlots();
  }

  /// Accounts an immediate block-granular move of `bytes`.
  void RequestBlockMove(EnclosureId from, EnclosureId to, int64_t bytes) {
    if (bytes <= 0 || from == to) return;
    telemetry::Recorder* recorder = system_->telemetry();
    if (telemetry::Wants(recorder, telemetry::kClassMigration)) {
      recorder->Record(telemetry::MakeMigrationEvent(
          sim_->Now(), telemetry::EventKind::kBlockMove, kInvalidDataItem,
          from, to, bytes));
    }
    int64_t n_ios =
        std::max<int64_t>(1, bytes / options_.block_size);
    system_->SubmitPhysicalBulk(from, n_ios, bytes, IoType::kRead,
                                /*sequential=*/false);
    system_->SubmitPhysicalBulk(to, n_ios, bytes, IoType::kWrite,
                                /*sequential=*/false);
    migrated_bytes_ += bytes;
    block_moves_++;
  }

  int64_t migrated_bytes() const { return migrated_bytes_; }
  int64_t completed_item_moves() const { return completed_item_moves_; }
  int64_t block_moves() const { return block_moves_; }
  bool idle() const {
    return free_slots_.size() == slots_.size() && queue_.empty();
  }
  size_t queued_moves() const { return queue_.size(); }

 private:
  struct Job {
    DataItemId item;
    EnclosureId target;
    EnclosureId source = kInvalidEnclosure;
    int64_t remaining_bytes = 0;
  };

  void FillJobSlots() {
    while (!free_slots_.empty() && !queue_.empty()) {
      Job job = queue_.front();
      queue_.pop_front();
      EnclosureId source = system_->virtualization().EnclosureOf(job.item);
      if (source == job.target) continue;  // stale request
      job.source = source;
      job.remaining_bytes =
          system_->virtualization().catalog().item(job.item).size_bytes;
      int slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[static_cast<size_t>(slot)] = job;
      telemetry::Recorder* recorder = system_->telemetry();
      if (telemetry::Wants(recorder, telemetry::kClassMigration)) {
        recorder->Record(telemetry::MakeMigrationEvent(
            sim_->Now(), telemetry::EventKind::kMigrationBegin, job.item,
            job.source, job.target, job.remaining_bytes));
      }
      RunChunk(slot);
    }
  }

  /// Copies the next chunk of the job in `slot`. Pacing and back-off
  /// events capture only the slot index, which keeps their callbacks in
  /// std::function's inline buffer (no allocation per chunk).
  void RunChunk(int slot) {
    Job* job = &slots_[static_cast<size_t>(slot)];
    // Background priority: stay out of the way while either end is busy
    // with application I/O.
    SimTime now = sim_->Now();
    SimTime src_busy = system_->enclosure(job->source).busy_until();
    SimTime dst_busy = system_->enclosure(job->target).busy_until();
    if (std::max(src_busy, dst_busy) > now + options_.busy_backoff_threshold) {
      telemetry::Recorder* recorder = system_->telemetry();
      if (telemetry::Wants(recorder, telemetry::kClassMigration)) {
        recorder->Record(telemetry::MakeMigrationEvent(
            now, telemetry::EventKind::kMigrationThrottle, job->item,
            job->source, job->target, job->remaining_bytes));
      }
      sim_->ScheduleAfter(options_.busy_backoff_delay,
                          [this, slot] { RunChunk(slot); });
      return;
    }

    int64_t chunk = std::min(options_.chunk_bytes, job->remaining_bytes);
    int64_t n_ios = std::max<int64_t>(1, chunk / options_.block_size);
    system_->SubmitPhysicalBulk(job->source, n_ios, chunk, IoType::kRead,
                                /*sequential=*/true);
    system_->SubmitPhysicalBulk(job->target, n_ios, chunk, IoType::kWrite,
                                /*sequential=*/true);
    migrated_bytes_ += chunk;
    job->remaining_bytes -= chunk;

    SimDuration pace = FromSeconds(static_cast<double>(chunk) /
                                   options_.rate_bytes_per_second);
    sim_->ScheduleAfter(std::max<SimDuration>(pace, 1), [this, slot] {
      const Job* job = &slots_[static_cast<size_t>(slot)];
      if (job->remaining_bytes > 0) {
        RunChunk(slot);
        return;
      }
      Status st = system_->CommitItemMove(job->item, job->target);
      if (!st.ok()) {
        // Target filled up while the copy ran; the item stays where it was
        // and the next management period will re-plan.
        ECOSTORE_LOG(kDebug) << "migration commit failed: " << st.ToString();
      } else {
        completed_item_moves_++;
      }
      telemetry::Recorder* recorder = system_->telemetry();
      if (telemetry::Wants(recorder, telemetry::kClassMigration)) {
        // bytes < 0 reports a failed commit (paper §V-A re-plan case).
        int64_t size =
            system_->virtualization().catalog().item(job->item).size_bytes;
        recorder->Record(telemetry::MakeMigrationEvent(
            sim_->Now(), telemetry::EventKind::kMigrationEnd, job->item,
            job->source, job->target, st.ok() ? size : -1));
      }
      free_slots_.push_back(slot);
      FillJobSlots();
    });
  }

  sim::Simulator* sim_;
  System* system_;
  Options options_;

  std::deque<Job> queue_;
  /// One slot per concurrent job; free_slots_ lists the idle ones.
  std::vector<Job> slots_;
  std::vector<int> free_slots_;

  int64_t migrated_bytes_ = 0;
  int64_t completed_item_moves_ = 0;
  int64_t block_moves_ = 0;
};

/// The serial engine: migrations run directly against the one
/// StorageSystem. Explicitly instantiated in migration_engine.cc so
/// existing translation units keep linking against compiled code.
using MigrationEngine = MigrationEngineT<storage::StorageSystem>;

extern template class MigrationEngineT<storage::StorageSystem>;

}  // namespace ecostore::replay

#endif  // ECOSTORE_REPLAY_MIGRATION_ENGINE_H_
