#include "core/power_management.h"

#include <algorithm>
#include <cassert>

#include "telemetry/profile/profiler.h"

namespace ecostore::core {

namespace {

bool SamePartition(const HotColdPartition& a, const HotColdPartition& b) {
  return a.n_hot == b.n_hot && a.is_hot == b.is_hot;
}

PowerManagementConfig FillDefaults(PowerManagementConfig config,
                                   const storage::StorageSystem& system) {
  const storage::StorageConfig& sc = system.config();
  if (config.enclosure_capacity == 0) {
    config.enclosure_capacity = sc.enclosure.capacity_bytes;
  }
  if (config.preload_area_bytes == 0) {
    config.preload_area_bytes = sc.cache.preload_area_bytes;
  }
  if (config.write_delay_area_bytes == 0) {
    config.write_delay_area_bytes = sc.cache.write_delay_area_bytes;
  }
  return config;
}

}  // namespace

Status PowerManagementConfig::Validate() const {
  if (break_even <= 0) {
    return Status::InvalidArgument("break-even time must be positive");
  }
  if (max_enclosure_iops <= 0) {
    return Status::InvalidArgument("max enclosure IOPS must be positive");
  }
  if (alpha < 1.0) {
    return Status::InvalidArgument("alpha must be >= 1 (paper §IV-H)");
  }
  if (initial_period <= 0 || min_period <= 0 ||
      max_period < min_period) {
    return Status::InvalidArgument("invalid monitoring-period bounds");
  }
  return Status::OK();
}

PowerManagementFunction::PowerManagementFunction(
    const PowerManagementConfig& config,
    const storage::StorageSystem& system)
    : config_(FillDefaults(config, system)),
      classifier_(PatternClassifier::Options{config_.break_even,
                                             1 * kSecond}),
      hot_cold_(HotColdPlanner::Options{config_.max_enclosure_iops,
                                        config_.enclosure_capacity}),
      placement_(PlacementPlanner::Options{config_.max_enclosure_iops,
                                           config_.enclosure_capacity},
                 &hot_cold_),
      cache_(CachePlanner::Options{config_.preload_area_bytes,
                                   config_.write_delay_area_bytes}),
      period_(MonitoringPeriodController::Options{
          config_.alpha, config_.min_period, config_.max_period}) {}

ManagementPlan PowerManagementFunction::Run(
    const monitor::MonitorSnapshot& snapshot,
    const storage::StorageSystem& system,
    SimDuration current_period, bool force_full) {
  ManagementPlan plan;
  const storage::BlockVirtualization& virt = system.virtualization();

  // Algorithm 1 line: determine Logical I/O pattern of data items. The
  // interval analysis already happened as the I/Os reached the
  // classifier; the period end only finalises (DESIGN.md §13).
  assert(classifier_.period_start() == snapshot.period_start);
  const ClassificationResult* classification_ptr;
  {
    telemetry::profile::ScopedPhase classify_span(
        telemetry::profile::Phase::kClassifyFinalize);
    classification_ptr =
        &classifier_.Finalize(virt.catalog(), snapshot.period_end);
  }
  const ClassificationResult& classification = *classification_ptr;
  plan.classification = &classification;

  telemetry::profile::ScopedPhase plan_span(
      telemetry::profile::Phase::kPlan);

  // ---- enclosure-of cache refresh, part 1: re-sync with reality ----
  // Revert the last plan's optimistic migration overlay to the move-
  // journal truth (planned moves may not have committed), fold the
  // journal suffix, and apply the classifier's pattern flips. All
  // frontier-sized; the O(catalog) rebuild runs only on the first period
  // or when the catalog / enclosure count changed underneath us.
  const size_t n_items = classification.items.size();
  const size_t n_encs = static_cast<size_t>(system.num_enclosures());
  auto move_cached = [this](DataItemId item, EnclosureId to) {
    const size_t idx = static_cast<size_t>(item);
    const EnclosureId from = final_enclosure_[idx];
    if (from == to) return;
    if (cached_is_p3_[idx] != 0) {
      p3_final_count_[static_cast<size_t>(from)]--;
      p3_final_count_[static_cast<size_t>(to)]++;
    }
    final_enclosure_[idx] = to;
  };
  if (have_enclosure_cache_ && classifier_.has_previous() &&
      final_enclosure_.size() == n_items &&
      p3_final_count_.size() == n_encs &&
      enclosure_cache_cursor_ <= virt.move_log_size()) {
    for (DataItemId item : overlay_items_) {
      move_cached(item, virt.EnclosureOf(item));
    }
    const std::vector<DataItemId>& log = virt.move_log();
    for (size_t i = enclosure_cache_cursor_; i < log.size(); ++i) {
      move_cached(log[i], virt.EnclosureOf(log[i]));
    }
    const std::vector<uint8_t>& patterns = classifier_.patterns();
    for (DataItemId item : classifier_.dirty_items()) {
      const size_t idx = static_cast<size_t>(item);
      const uint8_t p3 =
          patterns[idx] == static_cast<uint8_t>(IoPattern::kP3) ? 1 : 0;
      if (p3 != cached_is_p3_[idx]) {
        p3_final_count_[static_cast<size_t>(final_enclosure_[idx])] +=
            p3 != 0 ? 1 : -1;
        cached_is_p3_[idx] = p3;
      }
    }
  } else {
    final_enclosure_.assign(n_items, 0);
    cached_is_p3_.assign(n_items, 0);
    p3_final_count_.assign(n_encs, 0);
    for (const ItemClassification& cls : classification.items) {
      const size_t idx = static_cast<size_t>(cls.item);
      const EnclosureId enc = virt.EnclosureOf(cls.item);
      final_enclosure_[idx] = enc;
      if (cls.pattern == IoPattern::kP3) {
        cached_is_p3_[idx] = 1;
        p3_final_count_[static_cast<size_t>(enc)]++;
      }
    }
    have_enclosure_cache_ = true;
  }
  enclosure_cache_cursor_ = virt.move_log_size();
  overlay_items_.clear();

  // Determine hot/cold enclosures + data placement.
  if (config_.enable_placement) {
    bool planned = false;

    // Incremental path (DESIGN.md §12). Sound because every item that can
    // be P3-and-on-cold *now* is reachable from one of three facts: its
    // pattern changed since the last plan (dirty), its residency changed
    // since the last plan (move journal — in-flight migrations commit
    // between periods), or it was already P3-on-cold at the last plan
    // (residue). Anything else kept both its pattern and its enclosure,
    // and under an unchanged partition an unchanged P3 item still sits
    // hot. A partition shift invalidates that last step, so it falls back
    // to the full plan.
    if (!force_full && have_prev_ && classifier_.has_previous() &&
        classifier_.patterns().size() == n_items &&
        journal_cursor_ <= virt.move_log_size()) {
      // The dirty set (pattern-changed items, including newly-quiet P3s)
      // fell out of the classifier's finalisation — activity-sized, no
      // full-catalog diff (DESIGN.md §13).
      const std::vector<DataItemId>& dirty = classifier_.dirty_items();
      candidate_scratch_.assign(dirty.begin(), dirty.end());
      plan.dirty_items = static_cast<int64_t>(candidate_scratch_.size());
      const std::vector<DataItemId>& log = virt.move_log();
      candidate_scratch_.insert(candidate_scratch_.end(),
                                log.begin() + static_cast<ptrdiff_t>(
                                                  journal_cursor_),
                                log.end());
      candidate_scratch_.insert(candidate_scratch_.end(),
                                prev_p3_cold_.begin(), prev_p3_cold_.end());
      std::sort(candidate_scratch_.begin(), candidate_scratch_.end());
      candidate_scratch_.erase(std::unique(candidate_scratch_.begin(),
                                           candidate_scratch_.end()),
                               candidate_scratch_.end());
      plan.replan_candidates =
          static_cast<int64_t>(candidate_scratch_.size());

      HotColdPartition fresh = hot_cold_.Plan(classification, virt);
      if (SamePartition(fresh, prev_partition_)) {
        if (candidate_scratch_.empty()) {
          // Fast path: nothing can have become P3-on-cold, so the full
          // planner would compute an empty mover list and no migrations.
          plan.partition = std::move(fresh);
          plan.migrations.clear();
          prev_p3_cold_.clear();
          plan.incremental = true;
          plan.placement_skipped = true;
          planned = true;
        } else {
          PlacementPlan placement =
              placement_.Plan(classification, virt,
                              &candidate_scratch_, &prev_p3_cold_);
          plan.partition = std::move(placement.partition);
          plan.migrations = std::move(placement.migrations);
          plan.incremental = true;
          planned = true;
        }
      }
    }

    if (!planned) {
      PlacementPlan placement =
          placement_.Plan(classification, virt, nullptr,
                          &prev_p3_cold_);
      plan.partition = std::move(placement.partition);
      plan.migrations = std::move(placement.migrations);
    }

    // Snapshot the state the next period's incremental decision needs:
    // the settled partition *before* the safety net below mutates it and
    // the consumed journal prefix (the pattern table already lives in
    // the classifier).
    prev_partition_ = plan.partition;
    journal_cursor_ = virt.move_log_size();
    have_prev_ = true;
  } else {
    // Items stay put; a cold enclosure still holding a P3 item must not
    // power off. p3_final_count_ already reflects current residency and
    // patterns (there are no migrations on this branch), so the safety
    // net below forces such enclosures hot.
    plan.partition = hot_cold_.Plan(classification, virt);
  }

  // ---- enclosure-of cache refresh, part 2: overlay this plan ----
  // Final placement after migrations for the cache planner:
  // final_enclosure_ was synced above, so only the new plan's migrations
  // (frontier-sized) are folded in.
  overlay_items_.reserve(plan.migrations.size());
  for (const Migration& mig : plan.migrations) {
    overlay_items_.push_back(mig.item);
    move_cached(mig.item, mig.to);
  }

  // Safety net: any P3 item that ends up on a cold enclosure (pinned, or
  // unplaceable) forces that enclosure hot — powering it off would stall
  // the application. The rule has pure set semantics, so scanning the
  // per-enclosure P3 counts equals walking the P3 items.
  for (size_t e = 0; e < p3_final_count_.size(); ++e) {
    if (p3_final_count_[e] > 0 && !plan.partition.is_hot[e]) {
      plan.partition.is_hot[e] = true;
      plan.partition.n_hot++;
    }
  }

  // Determine write delay first, then preload (paper §IV-A rationale).
  CachePlan cache_plan =
      cache_.Plan(classification, plan.partition, final_enclosure_);
  if (config_.enable_write_delay) {
    plan.cache.write_delay = std::move(cache_plan.write_delay);
  }
  if (config_.enable_preload) {
    plan.cache.preload = std::move(cache_plan.preload);
  }

  // Determine the power-control method: power-off only for cold
  // enclosures (paper §IV-G).
  plan.spin_down_allowed.assign(plan.partition.is_hot.size(), false);
  for (size_t e = 0; e < plan.partition.is_hot.size(); ++e) {
    plan.spin_down_allowed[e] = !plan.partition.is_hot[e];
  }

  // Determine the length of the next monitoring period (paper §IV-H).
  plan.next_period = config_.enable_adaptive_period
                         ? period_.Next(classification, current_period)
                         : current_period;
  return plan;
}

}  // namespace ecostore::core
