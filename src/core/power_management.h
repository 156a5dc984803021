#ifndef ECOSTORE_CORE_POWER_MANAGEMENT_H_
#define ECOSTORE_CORE_POWER_MANAGEMENT_H_

#include <vector>

#include "common/status.h"
#include "core/cache_planner.h"
#include "core/hot_cold_planner.h"
#include "core/pattern_classifier.h"
#include "core/placement_planner.h"
#include "monitor/snapshot.h"
#include "storage/storage_system.h"

namespace ecostore::core {

/// Tunables of the proposed method (paper Table II) plus feature flags for
/// ablation studies.
struct PowerManagementConfig {
  /// Break-even time of the off/on cycle.
  SimDuration break_even = 52 * kSecond;

  /// O and S of the planners (max IOPS / capacity per enclosure).
  double max_enclosure_iops = 900.0;
  int64_t enclosure_capacity = 0;  // 0: take from the storage config

  /// Cache areas dedicated to the method.
  int64_t preload_area_bytes = 0;       // 0: take from the storage config
  int64_t write_delay_area_bytes = 0;   // 0: take from the storage config

  /// Monitoring-period adaptation (paper §IV-H). The floor equals the
  /// initial period (ten break-even times, Table II): shorter windows
  /// cannot distinguish P3 from a single long episode, which would make
  /// the placement chase transients. The floor also rate-limits the §V-D
  /// immediate re-plan triggers.
  double alpha = 1.2;
  SimDuration initial_period = 520 * kSecond;
  SimDuration min_period = 520 * kSecond;
  SimDuration max_period = 2 * kHour;

  /// Feature flags (all on for the full method; toggled by the ablation
  /// benchmark).
  bool enable_placement = true;
  bool enable_preload = true;
  bool enable_write_delay = true;
  bool enable_adaptive_period = true;
  bool enable_pattern_change_triggers = true;

  Status Validate() const;
};

/// The complete decision of one power-management invocation (the body of
/// paper Algorithm 1).
struct ManagementPlan {
  /// The period's classification, aliasing the classifier-owned table
  /// inside PowerManagementFunction (valid until its next Run — every
  /// in-repo consumer reads the plan before then). A pointer, not a
  /// copy: at fleet scale the table is the plan's only O(catalog) part,
  /// and copying it would put the catalog back into the period-end cost
  /// that the streaming classifier just removed (DESIGN.md §13).
  const ClassificationResult* classification = nullptr;
  HotColdPartition partition;
  std::vector<Migration> migrations;
  CachePlan cache;
  /// Per-enclosure spin-down permission (true = cold, may power off).
  std::vector<bool> spin_down_allowed;
  SimDuration next_period = 0;

  /// Incremental re-plan audit (DESIGN.md §12). `incremental` is true
  /// when Algorithm 2 ran against the candidate set instead of the full
  /// catalog; `placement_skipped` when the empty-candidate fast path
  /// bypassed placement entirely (migrations trivially empty).
  bool incremental = false;
  bool placement_skipped = false;
  int64_t dirty_items = 0;        ///< pattern changes since the last period
  int64_t replan_candidates = 0;  ///< dirty ∪ moved ∪ residue handed over
};

/// \brief The power-management function (paper Algorithm 1): classify
/// patterns, split hot/cold, plan placement, pick write-delay and preload
/// items, configure power-off, and adapt the monitoring period.
///
/// Stateful across invocations: it remembers the previous period's
/// pattern table, the partition the placement settled on, the residual
/// P3-on-cold set and a cursor into the virtualization layer's move
/// journal, which together drive the incremental re-plan path
/// (DESIGN.md §12). One instance serves one experiment run.
class PowerManagementFunction {
 public:
  /// \param config method parameters; zero-valued capacity/cache fields
  ///        are filled from `system`'s configuration
  PowerManagementFunction(const PowerManagementConfig& config,
                          const storage::StorageSystem& system);

  const PowerManagementConfig& config() const { return config_; }

  /// Runs one management decision over a period snapshot. The period's
  /// I/O must already have reached classifier() (BeginPeriod at
  /// `snapshot.period_start`, then OnLogicalIo per record): Run only
  /// finalises it (DESIGN.md §13). The caller owns that lifecycle.
  ///
  /// \param force_full bypass the incremental path for this invocation
  ///        (the §V-D sudden-change triggers request this: the trigger
  ///        itself is evidence the pattern landscape shifted).
  ManagementPlan Run(const monitor::MonitorSnapshot& snapshot,
                     const storage::StorageSystem& system,
                     SimDuration current_period, bool force_full = false);

  /// The streaming classifier: policies attach it as the monitor's
  /// logical I/O sink and drive BeginPeriod() around Run().
  PatternClassifier* classifier() { return &classifier_; }

 private:
  PowerManagementConfig config_;
  PatternClassifier classifier_;
  HotColdPlanner hot_cold_;
  PlacementPlanner placement_;
  CachePlanner cache_;
  MonitoringPeriodController period_;

  // ---- incremental re-plan state (DESIGN.md §12) ----
  // The pattern table and its period-over-period diff live in the
  // classifier, which emits the dirty set as a finalisation by-product —
  // no O(catalog) diff here (DESIGN.md §13).
  bool have_prev_ = false;
  /// Partition the last placement settled on (pre safety-net).
  HotColdPartition prev_partition_;
  /// Residue: items that were P3-on-cold at the last placement (their
  /// migrations may still be in flight or may have failed).
  std::vector<DataItemId> prev_p3_cold_;
  /// Consumed prefix of BlockVirtualization::move_log().
  size_t journal_cursor_ = 0;
  std::vector<DataItemId> candidate_scratch_;

  // ---- enclosure-of cache (frontier-sized period ends) ----
  // Invariant between Run()s: final_enclosure_[i] is where item i ends
  // up under the *last emitted plan* (journal truth ⊕ that plan's
  // migrations), cached_is_p3_[i] mirrors the last classification, and
  // p3_final_count_[e] == #{i : cached_is_p3_[i] && final_enclosure_[i]
  // == e}. Each Run() reverts the optimistic migration overlay to the
  // move-journal truth (planned moves may not have committed), folds the
  // journal suffix and the classifier's dirty set, then overlays the new
  // plan — all frontier-sized work. The safety net then scans enclosures
  // (p3_final_count_ > 0), not items.
  bool have_enclosure_cache_ = false;
  std::vector<EnclosureId> final_enclosure_;  ///< item → post-plan enclosure
  std::vector<uint8_t> cached_is_p3_;         ///< item → pattern == P3
  std::vector<int64_t> p3_final_count_;       ///< enclosure → cached P3 items
  /// Consumed move_log() prefix — separate from journal_cursor_, which
  /// only advances on the enable_placement path.
  size_t enclosure_cache_cursor_ = 0;
  /// Items overlaid with the last plan's migration targets (reverted to
  /// journal truth at the next Run).
  std::vector<DataItemId> overlay_items_;
};

}  // namespace ecostore::core

#endif  // ECOSTORE_CORE_POWER_MANAGEMENT_H_
