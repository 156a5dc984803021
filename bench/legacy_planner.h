#ifndef ECOSTORE_BENCH_LEGACY_PLANNER_H_
#define ECOSTORE_BENCH_LEGACY_PLANNER_H_

// The pre-fleet-scale planners, kept verbatim (modulo inline/namespace)
// as the in-run regression reference — the same pattern as
// bench/legacy_cache.h and the PR-1 ClassifyLegacy reference. These are
// the stable_sort-based Algorithm 2/3 implementations: find_cold_target
// re-sorts the whole cold list per candidate move, the hot list is
// re-sorted per P3 item, make_space rescans the full catalog, and the
// cache planner fully sorts its candidate lists. The indexed planners in
// src/core must produce bit-identical plans (see
// tests/planner_differential_test.cc and the planner_scale entry of
// BENCH_perf.json).
//
// The one deliberate divergence from the seed code: make_space rolls its
// partial evictions back when it fails (the current planner does too) —
// the seed version left the stray moves in `evictions` and in the
// working state even though the target hot enclosure was abandoned.
//
// LegacyPowerManagementFunction freezes the period end the same way: the
// management function as it ran before the enclosure-of cache and the
// incremental re-plan were its only path (full classification, full
// placement, full final-enclosure map and an item-order safety net every
// period). It is the multi-period oracle of
// tests/planner_differential_test.cc.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "core/cache_planner.h"
#include "core/hot_cold_planner.h"
#include "core/pattern_classifier.h"
#include "core/placement_planner.h"
#include "core/power_management.h"
#include "monitor/snapshot.h"
#include "storage/block_virtualization.h"
#include "storage/storage_system.h"

namespace ecostore::legacy {

/// The stable_sort HotColdPlanner (paper §IV-C Steps 1-3).
class LegacyHotColdPlanner {
 public:
  using Options = core::HotColdPlanner::Options;

  explicit LegacyHotColdPlanner(const Options& options) : options_(options) {}

  core::HotColdPartition Plan(const core::ClassificationResult& classification,
                              const storage::BlockVirtualization& virt,
                              int min_n_hot = 0) const {
    int n = virt.num_enclosures();
    core::HotColdPartition partition;
    partition.is_hot.assign(static_cast<size_t>(n), false);

    std::vector<int64_t> p3_bytes(static_cast<size_t>(n), 0);
    int64_t p3_total_bytes = 0;
    for (const core::ItemClassification& cls : classification.items) {
      if (cls.pattern != core::IoPattern::kP3) continue;
      EnclosureId enc = virt.EnclosureOf(cls.item);
      p3_bytes[static_cast<size_t>(enc)] += cls.size_bytes;
      p3_total_bytes += cls.size_bytes;
    }

    int by_iops = static_cast<int>(
        std::ceil(classification.p3_max_iops / options_.max_enclosure_iops));
    int by_size =
        options_.enclosure_capacity > 0
            ? static_cast<int>(std::ceil(
                  static_cast<double>(p3_total_bytes) /
                  static_cast<double>(options_.enclosure_capacity)))
            : 0;
    int n_hot = std::max({by_iops, by_size, min_n_hot});
    n_hot = std::min(n_hot, n);
    partition.n_hot = n_hot;

    std::vector<int> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return p3_bytes[static_cast<size_t>(a)] >
             p3_bytes[static_cast<size_t>(b)];
    });
    for (int i = 0; i < n_hot; ++i) {
      partition.is_hot[static_cast<size_t>(order[static_cast<size_t>(i)])] =
          true;
    }
    return partition;
  }

 private:
  Options options_;
};

/// The per-item-re-sorting PlacementPlanner (paper Algorithms 2+3).
class LegacyPlacementPlanner {
 public:
  using Options = core::PlacementPlanner::Options;

  LegacyPlacementPlanner(const Options& options,
                         const LegacyHotColdPlanner* hot_cold)
      : options_(options), hot_cold_(hot_cold) {}

  core::PlacementPlan Plan(const core::ClassificationResult& classification,
                           const storage::BlockVirtualization& virt) const {
    int n = virt.num_enclosures();
    core::PlacementPlan plan;
    int min_hot = 0;
    while (true) {
      plan.partition = hot_cold_->Plan(classification, virt, min_hot);
      if (plan.partition.n_hot >= n) {
        plan.migrations.clear();
        return plan;
      }
      std::vector<core::Migration> evictions;
      std::vector<core::Migration> p3_moves;
      if (TryPlace(classification, virt, plan.partition, &evictions,
                   &p3_moves)) {
        plan.migrations = std::move(evictions);
        plan.migrations.insert(plan.migrations.end(), p3_moves.begin(),
                               p3_moves.end());
        return plan;
      }
      min_hot = plan.partition.n_hot + 1;
    }
  }

 private:
  struct WorkingState {
    std::vector<double> iops;
    std::vector<int64_t> used;
    std::vector<EnclosureId> where;

    void ApplyMove(const core::ItemClassification& cls, EnclosureId to) {
      EnclosureId from = where[static_cast<size_t>(cls.item)];
      iops[static_cast<size_t>(from)] -= cls.avg_iops;
      used[static_cast<size_t>(from)] -= cls.size_bytes;
      iops[static_cast<size_t>(to)] += cls.avg_iops;
      used[static_cast<size_t>(to)] += cls.size_bytes;
      where[static_cast<size_t>(cls.item)] = to;
    }
  };

  bool TryPlace(const core::ClassificationResult& classification,
                const storage::BlockVirtualization& virt,
                const core::HotColdPartition& partition,
                std::vector<core::Migration>* evictions,
                std::vector<core::Migration>* p3_moves) const {
    const double kO = options_.max_enclosure_iops;
    const int64_t kS = options_.enclosure_capacity > 0
                           ? options_.enclosure_capacity
                           : virt.capacity_bytes();
    int n = virt.num_enclosures();

    WorkingState state;
    state.iops.assign(static_cast<size_t>(n), 0.0);
    state.used.assign(static_cast<size_t>(n), 0);
    state.where.resize(classification.items.size());
    for (const core::ItemClassification& cls : classification.items) {
      EnclosureId enc = virt.EnclosureOf(cls.item);
      state.where[static_cast<size_t>(cls.item)] = enc;
      state.iops[static_cast<size_t>(enc)] += cls.avg_iops;
      state.used[static_cast<size_t>(enc)] += cls.size_bytes;
    }

    std::vector<EnclosureId> hot;
    std::vector<EnclosureId> cold;
    for (int e = 0; e < n; ++e) {
      (partition.IsHot(e) ? hot : cold).push_back(e);
    }

    // Algorithm 3's target choice: the cold enclosure with the largest
    // working IOPS that satisfies both guards.
    auto find_cold_target =
        [&](const core::ItemClassification& cls) -> EnclosureId {
      std::vector<EnclosureId> order = cold;
      std::stable_sort(order.begin(), order.end(),
                       [&](EnclosureId a, EnclosureId b) {
                         return state.iops[static_cast<size_t>(a)] >
                                state.iops[static_cast<size_t>(b)];
                       });
      for (EnclosureId c : order) {
        bool fits =
            cls.size_bytes <= kS - state.used[static_cast<size_t>(c)];
        bool serves =
            state.iops[static_cast<size_t>(c)] + cls.avg_iops < kO;
        if (fits && serves) return c;
      }
      return kInvalidEnclosure;
    };

    // Algorithm 3 as a space-maker; on failure every eviction this call
    // added is rolled back (the abandoned target keeps nothing).
    auto make_space = [&](EnclosureId s, int64_t need) -> bool {
      std::vector<const core::ItemClassification*> movable;
      for (const core::ItemClassification& cls : classification.items) {
        if (state.where[static_cast<size_t>(cls.item)] == s &&
            cls.pattern != core::IoPattern::kP3 &&
            !virt.catalog().item(cls.item).pinned) {
          movable.push_back(&cls);
        }
      }
      std::stable_sort(movable.begin(), movable.end(),
                       [](const core::ItemClassification* a,
                          const core::ItemClassification* b) {
                         return a->size_bytes > b->size_bytes;
                       });
      const size_t mark = evictions->size();
      for (const core::ItemClassification* cls : movable) {
        if (kS - state.used[static_cast<size_t>(s)] >= need) break;
        EnclosureId target = find_cold_target(*cls);
        if (target == kInvalidEnclosure) continue;
        evictions->push_back(core::Migration{cls->item, s, target});
        state.ApplyMove(*cls, target);
      }
      if (kS - state.used[static_cast<size_t>(s)] >= need) return true;
      while (evictions->size() > mark) {
        const core::Migration& mig = evictions->back();
        state.ApplyMove(
            classification.items[static_cast<size_t>(mig.item)], s);
        evictions->pop_back();
      }
      return false;
    };

    // Algorithm 2: move P3 items off cold enclosures, most demanding
    // (IOPS per byte) first.
    std::vector<const core::ItemClassification*> m;
    for (const core::ItemClassification& cls : classification.items) {
      if (cls.pattern == core::IoPattern::kP3 &&
          !partition.IsHot(state.where[static_cast<size_t>(cls.item)]) &&
          !virt.catalog().item(cls.item).pinned) {
        m.push_back(&cls);
      }
    }
    std::stable_sort(m.begin(), m.end(),
                     [](const core::ItemClassification* a,
                        const core::ItemClassification* b) {
                       double da = a->size_bytes > 0
                                       ? a->avg_iops /
                                             static_cast<double>(a->size_bytes)
                                       : a->avg_iops;
                       double db = b->size_bytes > 0
                                       ? b->avg_iops /
                                             static_cast<double>(b->size_bytes)
                                       : b->avg_iops;
                       return da > db;
                     });

    for (const core::ItemClassification* d : m) {
      std::vector<EnclosureId> order = hot;
      std::stable_sort(order.begin(), order.end(),
                       [&](EnclosureId a, EnclosureId b) {
                         return state.iops[static_cast<size_t>(a)] <
                                state.iops[static_cast<size_t>(b)];
                       });
      bool placed = false;
      for (EnclosureId s : order) {
        if (d->avg_iops + state.iops[static_cast<size_t>(s)] >= kO) {
          return false;
        }
        if (d->size_bytes + state.used[static_cast<size_t>(s)] <= kS) {
          p3_moves->push_back(core::Migration{
              d->item, state.where[static_cast<size_t>(d->item)], s});
          state.ApplyMove(*d, s);
          placed = true;
          break;
        }
      }
      if (!placed) {
        for (EnclosureId s : order) {
          int64_t need =
              d->size_bytes - (kS - state.used[static_cast<size_t>(s)]);
          if (make_space(s, need)) {
            p3_moves->push_back(core::Migration{
                d->item, state.where[static_cast<size_t>(d->item)], s});
            state.ApplyMove(*d, s);
            placed = true;
            break;
          }
        }
      }
      if (!placed) return false;
    }
    return true;
  }

  Options options_;
  const LegacyHotColdPlanner* hot_cold_;
};

/// The full-sort CachePlanner (paper §IV-E / §IV-F).
class LegacyCachePlanner {
 public:
  using Options = core::CachePlanner::Options;

  explicit LegacyCachePlanner(const Options& options) : options_(options) {}

  core::CachePlan Plan(
      const core::ClassificationResult& classification,
      const core::HotColdPartition& partition,
      const std::vector<EnclosureId>& final_enclosure) const {
    core::CachePlan plan;

    auto on_cold = [&](const core::ItemClassification& cls) {
      EnclosureId enc = final_enclosure.at(static_cast<size_t>(cls.item));
      return !partition.IsHot(enc);
    };

    int64_t wd_budget = options_.write_delay_area_bytes;
    for (const core::ItemClassification& cls : classification.items) {
      if (cls.pattern == core::IoPattern::kP2 && on_cold(cls)) {
        plan.write_delay.push_back(cls.item);
        wd_budget -= cls.write_bytes;
      }
    }
    if (wd_budget > 0) {
      std::vector<const core::ItemClassification*> p1;
      for (const core::ItemClassification& cls : classification.items) {
        if (cls.pattern == core::IoPattern::kP1 && on_cold(cls) &&
            cls.writes > 0) {
          p1.push_back(&cls);
        }
      }
      std::stable_sort(p1.begin(), p1.end(),
                       [](const core::ItemClassification* a,
                          const core::ItemClassification* b) {
                         return a->writes > b->writes;
                       });
      for (const core::ItemClassification* cls : p1) {
        if (cls->write_bytes > wd_budget) continue;
        plan.write_delay.push_back(cls->item);
        wd_budget -= cls->write_bytes;
      }
    }

    std::vector<const core::ItemClassification*> candidates;
    for (const core::ItemClassification& cls : classification.items) {
      if (cls.pattern == core::IoPattern::kP1 && on_cold(cls) &&
          cls.reads > 0) {
        candidates.push_back(&cls);
      }
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const core::ItemClassification* a,
                        const core::ItemClassification* b) {
                       double da =
                           a->size_bytes > 0
                               ? static_cast<double>(a->reads) /
                                     static_cast<double>(a->size_bytes)
                               : 0.0;
                       double db =
                           b->size_bytes > 0
                               ? static_cast<double>(b->reads) /
                                     static_cast<double>(b->size_bytes)
                               : 0.0;
                       return da > db;
                     });
    int64_t pl_budget = options_.preload_area_bytes;
    for (const core::ItemClassification* cls : candidates) {
      if (cls->size_bytes > pl_budget) continue;
      plan.preload.emplace_back(cls->item, cls->size_bytes);
      pl_budget -= cls->size_bytes;
    }
    return plan;
  }

 private:
  Options options_;
};

/// PowerManagementFunction::Run with every period planned from scratch
/// (paper Algorithm 1): it classifies the snapshot's captured trace in
/// one replay, plans placement over the full catalog, rebuilds the
/// item -> post-plan enclosure map and walks every P3 item for the
/// safety net. Planners and period controller are the src/core ones
/// (their own differentials are above), so a plan mismatch against the
/// production function isolates its period-end bookkeeping: the
/// enclosure-of cache, the move-journal fold and the incremental
/// candidate set.
class LegacyPowerManagementFunction {
 public:
  LegacyPowerManagementFunction(const core::PowerManagementConfig& config,
                                const storage::StorageSystem& system)
      : config_(FillDefaults(config, system)),
        classifier_(core::PatternClassifier::Options{config_.break_even,
                                                     1 * kSecond}),
        hot_cold_(core::HotColdPlanner::Options{config_.max_enclosure_iops,
                                                config_.enclosure_capacity}),
        placement_(core::PlacementPlanner::Options{
                       config_.max_enclosure_iops,
                       config_.enclosure_capacity},
                   &hot_cold_),
        cache_(core::CachePlanner::Options{config_.preload_area_bytes,
                                           config_.write_delay_area_bytes}),
        period_(core::MonitoringPeriodController::Options{
            config_.alpha, config_.min_period, config_.max_period}) {}

  /// Plans one period from `snapshot.application->buffer()`, which must
  /// hold the whole period's logical I/O. The returned plan's
  /// classification aliases a table owned here (valid until the next Run).
  core::ManagementPlan Run(const monitor::MonitorSnapshot& snapshot,
                           const storage::StorageSystem& system,
                           SimDuration current_period) {
    core::ManagementPlan plan;
    const storage::BlockVirtualization& virt = system.virtualization();

    classifier_.BeginPeriod(snapshot.period_start);
    for (const trace::LogicalIoRecord& rec :
         snapshot.application->buffer().records()) {
      classifier_.OnLogicalIo(rec);
    }
    const core::ClassificationResult& classification =
        classifier_.Finalize(virt.catalog(), snapshot.period_end);
    plan.classification = &classification;

    // Determine hot/cold enclosures + data placement.
    if (config_.enable_placement) {
      core::PlacementPlan placement = placement_.Plan(classification, virt);
      plan.partition = std::move(placement.partition);
      plan.migrations = std::move(placement.migrations);
    } else {
      plan.partition = hot_cold_.Plan(classification, virt);
      // Items stay put; cold enclosures may still hold P3 items. Such
      // enclosures must not power off, so mark them hot.
      for (const core::ItemClassification& cls : classification.items) {
        if (cls.pattern == core::IoPattern::kP3) {
          auto enc = static_cast<size_t>(virt.EnclosureOf(cls.item));
          if (!plan.partition.is_hot[enc]) {
            plan.partition.is_hot[enc] = true;
            plan.partition.n_hot++;
          }
        }
      }
    }

    // Final placement after migrations for the cache planner.
    std::vector<EnclosureId> final_enclosure(classification.items.size());
    for (const core::ItemClassification& cls : classification.items) {
      final_enclosure[static_cast<size_t>(cls.item)] =
          virt.EnclosureOf(cls.item);
    }
    for (const core::Migration& mig : plan.migrations) {
      final_enclosure[static_cast<size_t>(mig.item)] = mig.to;
    }

    // Safety net: any P3 item that ends up on a cold enclosure (pinned,
    // or unplaceable) forces that enclosure hot — powering it off would
    // stall the application.
    for (const core::ItemClassification& cls : classification.items) {
      if (cls.pattern != core::IoPattern::kP3) continue;
      auto enc = static_cast<size_t>(
          final_enclosure[static_cast<size_t>(cls.item)]);
      if (!plan.partition.is_hot[enc]) {
        plan.partition.is_hot[enc] = true;
        plan.partition.n_hot++;
      }
    }

    // Determine write delay first, then preload (paper §IV-A rationale).
    core::CachePlan cache_plan =
        cache_.Plan(classification, plan.partition, final_enclosure);
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

 private:
  static core::PowerManagementConfig FillDefaults(
      core::PowerManagementConfig config,
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

  core::PowerManagementConfig config_;
  core::PatternClassifier classifier_;
  core::HotColdPlanner hot_cold_;
  core::PlacementPlanner placement_;
  core::CachePlanner cache_;
  core::MonitoringPeriodController period_;
};

}  // namespace ecostore::legacy

#endif  // ECOSTORE_BENCH_LEGACY_PLANNER_H_
