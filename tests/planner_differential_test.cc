// Differential tests for the fleet-scale planners (DESIGN.md §12):
// the indexed/heap/nth_element implementations in src/core must produce
// bit-identical plans to the frozen stable_sort reference in
// bench/legacy_planner.h across randomized fleets, and
// PowerManagementFunction (enclosure-of cache, incremental re-plan) must
// be indistinguishable from the frozen full-replan oracle in the same
// header period after period — on a small fleet and on the fleet
// benchmark's shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/legacy_planner.h"
#include "common/random.h"
#include "core/cache_planner.h"
#include "core/hot_cold_planner.h"
#include "core/placement_planner.h"
#include "core/power_management.h"
#include "monitor/application_monitor.h"
#include "monitor/storage_monitor.h"
#include "sim/simulator.h"
#include "storage/storage_system.h"
#include "tests/test_util.h"
#include "workload/cloud_block_workload.h"

namespace ecostore::core {
namespace {

// ---------------------------------------------------------------------
// Randomized planner differential: new vs legacy on varied fleets.
// ---------------------------------------------------------------------

struct RandomFleet {
  storage::DataItemCatalog catalog;
  std::unique_ptr<storage::BlockVirtualization> virt;
  ClassificationResult result;
};

/// Geometry of one randomized differential case, all derived from the
/// seed: fleet size, fill level (capacity pressure drives Algorithm 3
/// evictions and placement failures/retries), pinned items, and how much
/// headroom N_hot gets (a 1.0 peak factor forces the "increase N_hot and
/// retry" loop).
struct FleetShape {
  int enclosures;
  int items_per_enclosure;
  double fill;          ///< target initial fill fraction of each enclosure
  double p3_fraction;
  double pinned_fraction;
  double peak_factor;   ///< p3_max_iops = peak_factor * sum(avg_iops)
};

FleetShape ShapeForSeed(uint64_t seed) {
  static constexpr int kEnclosures[] = {6, 12, 40, 120};
  static constexpr int kItems[] = {12, 50};
  static constexpr double kFill[] = {0.35, 0.65, 0.85};
  static constexpr double kPeak[] = {1.0, 1.3, 1.8};
  FleetShape shape;
  shape.enclosures = kEnclosures[seed % 4];
  shape.items_per_enclosure = kItems[(seed / 4) % 2];
  shape.fill = kFill[(seed / 8) % 3];
  shape.p3_fraction = 0.05 + 0.35 * static_cast<double>(seed % 5) / 4.0;
  shape.pinned_fraction = (seed % 2 == 0) ? 0.0 : 0.1;
  shape.peak_factor = kPeak[seed % 3];
  return shape;
}

constexpr int64_t kCap = 1000 * kMiB;

RandomFleet MakeFleet(uint64_t seed) {
  const FleetShape shape = ShapeForSeed(seed);
  RandomFleet fleet;
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  for (int e = 0; e < shape.enclosures; ++e) fleet.catalog.AddVolume(e);

  std::vector<int64_t> used(static_cast<size_t>(shape.enclosures), 0);
  const auto budget = static_cast<int64_t>(shape.fill * kCap);
  double p3_iops_sum = 0.0;
  for (int e = 0; e < shape.enclosures; ++e) {
    for (int i = 0; i < shape.items_per_enclosure; ++i) {
      int64_t max_size = std::max<int64_t>(
          budget - used[static_cast<size_t>(e)], 1 * kMiB);
      int64_t size = rng.UniformInt(
          1 * kMiB,
          std::min<int64_t>(max_size,
                            2 * budget / shape.items_per_enclosure));
      used[static_cast<size_t>(e)] += size;
      const bool p3 = rng.NextDouble() < shape.p3_fraction;
      const bool pinned = rng.NextDouble() < shape.pinned_fraction;
      DataItemId id =
          fleet.catalog
              .AddItem("i" + std::to_string(fleet.catalog.item_count()),
                       static_cast<VolumeId>(e), size,
                       storage::DataItemKind::kFile, pinned)
              .value();
      ItemClassification cls;
      cls.item = id;
      cls.size_bytes = size;
      cls.pattern = p3 ? IoPattern::kP3
                       : static_cast<IoPattern>(rng.UniformInt(0, 2));
      cls.avg_iops =
          p3 ? static_cast<double>(rng.UniformInt(1, 60)) : 0.25;
      cls.reads = rng.UniformInt(0, 200);
      cls.writes = rng.UniformInt(0, 80);
      cls.read_bytes = cls.reads * 8192;
      cls.write_bytes = cls.writes * 8192;
      cls.io_sequences = 1 + rng.UniformInt(0, 4);
      if (p3) p3_iops_sum += cls.avg_iops;
      fleet.result.items.push_back(cls);
    }
  }
  fleet.result.p3_max_iops = p3_iops_sum * shape.peak_factor;
  fleet.virt = std::make_unique<storage::BlockVirtualization>(
      &fleet.catalog, shape.enclosures, kCap);
  EXPECT_TRUE(fleet.virt->PlaceInitial().ok());
  return fleet;
}

void ExpectSamePlan(const PlacementPlan& got, const PlacementPlan& want,
                    uint64_t seed) {
  ASSERT_EQ(got.partition.n_hot, want.partition.n_hot) << "seed " << seed;
  ASSERT_EQ(got.partition.is_hot, want.partition.is_hot) << "seed " << seed;
  ASSERT_EQ(got.migrations.size(), want.migrations.size())
      << "seed " << seed;
  for (size_t i = 0; i < got.migrations.size(); ++i) {
    EXPECT_EQ(got.migrations[i].item, want.migrations[i].item)
        << "seed " << seed << " migration " << i;
    EXPECT_EQ(got.migrations[i].from, want.migrations[i].from)
        << "seed " << seed << " migration " << i;
    EXPECT_EQ(got.migrations[i].to, want.migrations[i].to)
        << "seed " << seed << " migration " << i;
  }
}

TEST(PlannerDifferentialTest, RandomFleetsMatchLegacyPlans) {
  int total_migrations = 0;
  int plans_with_migrations = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    RandomFleet fleet = MakeFleet(seed);

    HotColdPlanner::Options hc_opts{900.0, kCap};
    PlacementPlanner::Options pl_opts{900.0, kCap};
    HotColdPlanner hot_cold(hc_opts);
    PlacementPlanner indexed(pl_opts, &hot_cold);
    legacy::LegacyHotColdPlanner legacy_hot_cold(hc_opts);
    legacy::LegacyPlacementPlanner legacy_planner(pl_opts,
                                                  &legacy_hot_cold);

    // Hot/cold split alone, with and without a retry floor.
    for (int min_hot : {0, fleet.virt->num_enclosures() / 2}) {
      HotColdPartition a =
          hot_cold.Plan(fleet.result, *fleet.virt, min_hot);
      HotColdPartition b =
          legacy_hot_cold.Plan(fleet.result, *fleet.virt, min_hot);
      ASSERT_EQ(a.n_hot, b.n_hot) << "seed " << seed;
      ASSERT_EQ(a.is_hot, b.is_hot) << "seed " << seed;
    }

    PlacementPlan got = indexed.Plan(fleet.result, *fleet.virt);
    PlacementPlan want = legacy_planner.Plan(fleet.result, *fleet.virt);
    ExpectSamePlan(got, want, seed);
    total_migrations += static_cast<int>(got.migrations.size());
    if (!got.migrations.empty()) plans_with_migrations++;

    // Cache planner over the post-migration placement.
    std::vector<EnclosureId> final_enclosure(fleet.result.items.size());
    for (const ItemClassification& cls : fleet.result.items) {
      final_enclosure[static_cast<size_t>(cls.item)] =
          fleet.virt->EnclosureOf(cls.item);
    }
    for (const Migration& mig : got.migrations) {
      final_enclosure[static_cast<size_t>(mig.item)] = mig.to;
    }
    CachePlanner::Options cache_opts{64 * kMiB, 16 * kMiB};
    CachePlanner cache(cache_opts);
    legacy::LegacyCachePlanner legacy_cache(cache_opts);
    CachePlan cache_got =
        cache.Plan(fleet.result, got.partition, final_enclosure);
    CachePlan cache_want =
        legacy_cache.Plan(fleet.result, want.partition, final_enclosure);
    ASSERT_EQ(cache_got.write_delay, cache_want.write_delay)
        << "seed " << seed;
    ASSERT_EQ(cache_got.preload.size(), cache_want.preload.size())
        << "seed " << seed;
    for (size_t i = 0; i < cache_got.preload.size(); ++i) {
      EXPECT_EQ(cache_got.preload[i], cache_want.preload[i])
          << "seed " << seed << " preload " << i;
    }
  }
  // The sweep must actually exercise the machinery, not vacuously pass on
  // empty plans.
  EXPECT_GT(plans_with_migrations, 10);
  EXPECT_GT(total_migrations, 100);
}

/// Repeated planning against the same inputs must be deterministic (the
/// planners reuse scratch buffers across calls).
TEST(PlannerDifferentialTest, RepeatedPlansAreIdentical) {
  RandomFleet fleet = MakeFleet(7);
  HotColdPlanner hot_cold(HotColdPlanner::Options{900.0, kCap});
  PlacementPlanner planner(PlacementPlanner::Options{900.0, kCap},
                           &hot_cold);
  PlacementPlan first = planner.Plan(fleet.result, *fleet.virt);
  for (int i = 0; i < 3; ++i) {
    PlacementPlan again = planner.Plan(fleet.result, *fleet.virt);
    ExpectSamePlan(again, first, 7);
  }
}

/// The candidate-driven path must reproduce the full plan whenever the
/// candidate list covers every P3-on-cold item — here fed the exact
/// P3-on-cold residue of a fresh full plan.
TEST(PlannerDifferentialTest, CandidatePlanMatchesFullPlan) {
  for (uint64_t seed : {1ull, 9ull, 14ull, 22ull}) {
    RandomFleet fleet = MakeFleet(seed);
    HotColdPlanner hot_cold(HotColdPlanner::Options{900.0, kCap});
    PlacementPlanner planner(PlacementPlanner::Options{900.0, kCap},
                             &hot_cold);
    std::vector<DataItemId> residue;
    PlacementPlan full = planner.Plan(fleet.result, *fleet.virt, nullptr,
                                      &residue);
    // `residue` is exactly the P3-on-cold set, in ascending item order —
    // a valid candidate list by construction.
    std::vector<DataItemId> residue2;
    PlacementPlan incremental =
        planner.Plan(fleet.result, *fleet.virt, &residue, &residue2);
    ExpectSamePlan(incremental, full, seed);
    ASSERT_EQ(residue2, residue) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// PowerManagementFunction vs the frozen full-replan oracle
// (legacy::LegacyPowerManagementFunction), period after period, with
// migrations committing partially, late or never between periods.
// ---------------------------------------------------------------------

void ExpectSameManagementPlan(const ManagementPlan& got,
                              const ManagementPlan& want, uint64_t round) {
  ASSERT_EQ(got.classification->pattern_counts,
            want.classification->pattern_counts)
      << "round " << round;
  ASSERT_EQ(got.partition.n_hot, want.partition.n_hot) << "round " << round;
  ASSERT_EQ(got.partition.is_hot, want.partition.is_hot)
      << "round " << round;
  ASSERT_EQ(got.migrations.size(), want.migrations.size())
      << "round " << round;
  for (size_t i = 0; i < got.migrations.size(); ++i) {
    EXPECT_EQ(got.migrations[i].item, want.migrations[i].item)
        << "round " << round;
    EXPECT_EQ(got.migrations[i].to, want.migrations[i].to)
        << "round " << round;
  }
  EXPECT_EQ(got.cache.write_delay, want.cache.write_delay)
      << "round " << round;
  ASSERT_EQ(got.cache.preload.size(), want.cache.preload.size())
      << "round " << round;
  for (size_t i = 0; i < got.cache.preload.size(); ++i) {
    EXPECT_EQ(got.cache.preload[i], want.cache.preload[i])
        << "round " << round;
  }
  EXPECT_EQ(got.spin_down_allowed, want.spin_down_allowed)
      << "round " << round;
  EXPECT_EQ(got.next_period, want.next_period) << "round " << round;
}

/// What one differential run exercised (so a pass is not vacuous).
struct OracleRunStats {
  bool saw_incremental = false;
  bool saw_skip = false;
  int64_t migrations = 0;
  int64_t commits = 0;
  int64_t stale_commits = 0;
};

/// Plans `rounds` periods with the production function and the oracle
/// side by side and requires identical plans. `fill(round)` records one
/// period's traffic into `app_monitor` (capturing) and returns its
/// [start, end) window. Between periods each planned migration commits
/// at once, commits late — after the *next* period's plan, the stale
/// move only the move journal reveals — or never; from round
/// `commit_all_from` on every migration commits at once so the system
/// converges.
template <typename Fill>
OracleRunStats RunAgainstOracle(const PowerManagementConfig& config,
                                storage::StorageSystem* system,
                                monitor::ApplicationMonitor* app_monitor,
                                const monitor::StorageMonitor* storage_monitor,
                                int rounds, int commit_all_from,
                                uint64_t commit_seed, Fill fill) {
  PowerManagementFunction function(config, *system);
  legacy::LegacyPowerManagementFunction oracle(config, *system);
  storage::BlockVirtualization& virt = system->virtualization();
  Xoshiro256 commit_rng(commit_seed);
  std::vector<Migration> late;
  OracleRunStats stats;
  for (int round = 0; round < rounds; ++round) {
    const auto [start, end] = fill(round);
    monitor::MonitorSnapshot snapshot;
    snapshot.period_start = start;
    snapshot.period_end = end;
    snapshot.application = app_monitor;
    snapshot.storage = storage_monitor;

    ManagementPlan got =
        RunCapturedPeriod(&function, snapshot, *system, 520 * kSecond);
    ManagementPlan want = oracle.Run(snapshot, *system, 520 * kSecond);
    ExpectSameManagementPlan(got, want, static_cast<uint64_t>(round));
    if (::testing::Test::HasFailure()) return stats;
    stats.saw_incremental |= got.incremental;
    stats.saw_skip |= got.placement_skipped;
    stats.migrations += static_cast<int64_t>(got.migrations.size());

    // A move that no longer fits is dropped, as the migration engine
    // drops it.
    for (const Migration& mig : late) {
      stats.stale_commits += virt.MoveItem(mig.item, mig.to).ok() ? 1 : 0;
    }
    late.clear();
    for (const Migration& mig : got.migrations) {
      const double roll =
          round >= commit_all_from ? 0.0 : commit_rng.NextDouble();
      if (roll < 0.5) {
        stats.commits += virt.MoveItem(mig.item, mig.to).ok() ? 1 : 0;
      } else if (roll < 0.75) {
        late.push_back(mig);
      }
    }
  }
  return stats;
}

class IncrementalEquivalenceTest : public ::testing::Test {
 protected:
  static constexpr int kEnclosures = 8;
  static constexpr int kItemsPerEnclosure = 6;

  void SetUp() override {
    for (int e = 0; e < kEnclosures; ++e) {
      VolumeId v = catalog_.AddVolume(e);
      for (int i = 0; i < kItemsPerEnclosure; ++i) {
        items_.push_back(catalog_
                             .AddItem("e" + std::to_string(e) + "_i" +
                                          std::to_string(i),
                                      v, 40 * kMiB,
                                      storage::DataItemKind::kFile)
                             .value());
      }
    }
    config_.num_enclosures = kEnclosures;
    system_ = std::make_unique<storage::StorageSystem>(&sim_, config_,
                                                       &catalog_);
    ASSERT_TRUE(system_->Init().ok());
  }

  /// One period of traffic: items whose (item, round) hash is below the
  /// busy threshold get continuous reads (P3), a second band gets a burst
  /// of writes (P1/P2-ish), the rest one touch or nothing.
  void FillPeriod(uint64_t round, SimTime period_end) {
    Xoshiro256 rng(round * 7919 + 13);
    for (DataItemId item : items_) {
      double roll = rng.NextDouble();
      if (roll < 0.25) {
        for (SimTime t = 0; t < period_end; t += 10 * kSecond) {
          Record(item, t + (item % 7) * kSecond, IoType::kRead);
        }
      } else if (roll < 0.45) {
        for (int k = 0; k < 20; ++k) {
          Record(item, 60 * kSecond + k * kSecond, IoType::kWrite);
        }
      } else if (roll < 0.7) {
        Record(item, 100 * kSecond + (item % 11) * kSecond, IoType::kRead);
      }
    }
    buffer_.Finish();
  }

  void Record(DataItemId item, SimTime t, IoType type) {
    trace::LogicalIoRecord rec;
    rec.time = t;
    rec.item = item;
    rec.size = 8192;
    rec.type = type;
    buffer_.Add(rec);
  }

  monitor::MonitorSnapshot Snapshot(SimTime end) {
    monitor::MonitorSnapshot snapshot;
    snapshot.period_start = 0;
    snapshot.period_end = end;
    snapshot.application = &app_monitor_;
    snapshot.storage = &storage_monitor_;
    return snapshot;
  }

  /// Sorted record staging: FillPeriod emits per-item streams, the
  /// monitor wants global time order.
  struct SortedBuffer {
    std::vector<trace::LogicalIoRecord> records;
    monitor::ApplicationMonitor* monitor = nullptr;
    void Add(const trace::LogicalIoRecord& rec) { records.push_back(rec); }
    void Finish() {
      std::stable_sort(records.begin(), records.end(),
                       [](const trace::LogicalIoRecord& a,
                          const trace::LogicalIoRecord& b) {
                         return a.time < b.time;
                       });
      for (const trace::LogicalIoRecord& rec : records) {
        monitor->Record(rec);
      }
      records.clear();
    }
  };

  sim::Simulator sim_;
  storage::StorageConfig config_;
  storage::DataItemCatalog catalog_;
  std::unique_ptr<storage::StorageSystem> system_;
  monitor::ApplicationMonitor app_monitor_;
  monitor::StorageMonitor storage_monitor_{kEnclosures};
  SortedBuffer buffer_{{}, &app_monitor_};
  std::vector<DataItemId> items_;
};

/// The enclosure-of cache, the move-journal fold and the incremental
/// candidate set must reproduce the full-replan oracle exactly; with
/// placement off, the P3-count safety net must keep P3 enclosures hot
/// exactly as the oracle's item walk does.
TEST_F(IncrementalEquivalenceTest, MatchesFullReplanOracleAcrossPeriods) {
  const SimTime period_end = 520 * kSecond;
  // Rounds 4-7 repeat round 3's traffic so the pattern table goes static:
  // once every migration (late ones included) has committed, the journal
  // suffix is empty and the residue is gone — the empty-candidate fast
  // path must engage.
  const uint64_t traffic_round[] = {0, 1, 2, 3, 3, 3, 3, 3};
  auto fill = [&](int round) {
    app_monitor_.ResetPeriod(0);
    FillPeriod(traffic_round[round], period_end);
    return std::pair<SimTime, SimTime>(0, period_end);
  };

  OracleRunStats stats =
      RunAgainstOracle(PowerManagementConfig{}, system_.get(),
                       &app_monitor_, &storage_monitor_, 8,
                       /*commit_all_from=*/3, /*commit_seed=*/99, fill);
  ASSERT_FALSE(HasFailure());
  EXPECT_TRUE(stats.saw_incremental);
  EXPECT_TRUE(stats.saw_skip);
  EXPECT_GT(stats.commits, 0);
  EXPECT_GT(stats.stale_commits, 0);

  PowerManagementConfig no_placement;
  no_placement.enable_placement = false;
  stats = RunAgainstOracle(no_placement, system_.get(), &app_monitor_,
                           &storage_monitor_, 8, /*commit_all_from=*/3,
                           /*commit_seed=*/1234, fill);
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(stats.migrations, 0);
}

/// force_full must bypass the incremental path even when it would apply.
TEST_F(IncrementalEquivalenceTest, ForceFullBypassesIncremental) {
  PowerManagementConfig config;
  PowerManagementFunction function(config, *system_);
  const SimTime period_end = 520 * kSecond;

  app_monitor_.ResetPeriod(0);
  FillPeriod(0, period_end);
  ManagementPlan first = RunCapturedPeriod(&function, Snapshot(period_end),
                                           *system_, 520 * kSecond);
  EXPECT_FALSE(first.incremental);

  app_monitor_.ResetPeriod(0);
  FillPeriod(0, period_end);
  ManagementPlan second =
      RunCapturedPeriod(&function, Snapshot(period_end), *system_,
                        520 * kSecond, /*force_full=*/true);
  EXPECT_FALSE(second.incremental);

  app_monitor_.ResetPeriod(0);
  FillPeriod(0, period_end);
  ManagementPlan third = RunCapturedPeriod(&function, Snapshot(period_end),
                                           *system_, 520 * kSecond);
  EXPECT_TRUE(third.incremental);
}

// ---------------------------------------------------------------------
// The same differential on the fleet benchmark's shape: 250 enclosures ×
// 10 volumes × 10 items (25k items) of CloudBlock traffic in consecutive
// 520 s periods. Registered as its own ctest entry (label `fleet`).
// ---------------------------------------------------------------------

TEST(ManagementOracleFleetTest, MatchesFullReplanOracleOnFleetShape) {
  workload::CloudBlockConfig wl_config;
  wl_config.duration = 1 * kHour;
  wl_config.num_enclosures = 250;
  wl_config.volumes_per_enclosure = 10;
  wl_config.items_per_volume = 10;
  auto created = workload::CloudBlockWorkload::Create(wl_config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<workload::CloudBlockWorkload> workload =
      std::move(created).value();

  sim::Simulator sim;
  storage::StorageConfig config;
  config.num_enclosures = wl_config.num_enclosures;
  storage::StorageSystem system(&sim, config, &workload->catalog());
  ASSERT_TRUE(system.Init().ok());
  monitor::ApplicationMonitor app_monitor;
  monitor::StorageMonitor storage_monitor{wl_config.num_enclosures};

  const SimDuration period = 520 * kSecond;
  trace::LogicalIoRecord next;
  bool have_next = false;
  auto fill = [&](int round) {
    const SimTime start = round * period;
    if (round == 0) {
      workload->Reset();
      have_next = workload->Next(&next);
    }
    app_monitor.ResetPeriod(start);
    while (have_next && next.time < start + period) {
      app_monitor.Record(next);
      have_next = workload->Next(&next);
    }
    return std::pair<SimTime, SimTime>(start, start + period);
  };

  // Six periods cover the benchmark's simulated hour.
  OracleRunStats stats =
      RunAgainstOracle(PowerManagementConfig{}, &system, &app_monitor,
                       &storage_monitor, 6, /*commit_all_from=*/4,
                       /*commit_seed=*/7, fill);
  ASSERT_FALSE(HasFailure());
  EXPECT_TRUE(stats.saw_incremental);
  EXPECT_GT(stats.commits, 0);
  EXPECT_GT(stats.stale_commits, 0);

  PowerManagementConfig no_placement;
  no_placement.enable_placement = false;
  stats = RunAgainstOracle(no_placement, &system, &app_monitor,
                           &storage_monitor, 6, /*commit_all_from=*/4,
                           /*commit_seed=*/7, fill);
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(stats.migrations, 0);
}

}  // namespace
}  // namespace ecostore::core
