// Tests for the baseline policies: no-power-saving, fixed-timeout, PDC
// and DDR.

#include <gtest/gtest.h>

#include "monitor/application_monitor.h"
#include "monitor/storage_monitor.h"
#include "policies/basic_policies.h"
#include "policies/ddr_policy.h"
#include "policies/pdc_policy.h"
#include "sim/simulator.h"

namespace ecostore::policies {
namespace {

struct MockActuator : public PolicyActuator {
  explicit MockActuator(monitor::ApplicationMonitor* app_monitor)
      : app_monitor(app_monitor) {}

  monitor::ApplicationMonitor* app_monitor;
  SimTime now = 0;
  std::vector<std::pair<DataItemId, EnclosureId>> migrations;
  std::vector<std::tuple<EnclosureId, EnclosureId, int64_t>> block_moves;
  std::vector<bool> spin_down;

  SimTime Now() const override { return now; }
  void RequestMigration(DataItemId item, EnclosureId target) override {
    migrations.emplace_back(item, target);
  }
  void RequestBlockMigration(EnclosureId from, EnclosureId to,
                             int64_t bytes) override {
    block_moves.emplace_back(from, to, bytes);
  }
  void SetWriteDelayItems(const std::unordered_set<DataItemId>&) override {}
  void SetPreloadItems(
      const std::vector<std::pair<DataItemId, int64_t>>&) override {}
  void SetSpinDownAllowed(EnclosureId enclosure, bool allowed) override {
    if (spin_down.size() <= static_cast<size_t>(enclosure)) {
      spin_down.resize(static_cast<size_t>(enclosure) + 1, false);
    }
    spin_down[static_cast<size_t>(enclosure)] = allowed;
  }
  void TriggerImmediatePeriodEnd() override {}
  bool AttachLogicalIoSink(monitor::LogicalIoSink* sink) override {
    app_monitor->SetSink(sink);
    return true;
  }
};

class BaselineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int e = 0; e < 3; ++e) catalog_.AddVolume(e);
    for (int i = 0; i < 6; ++i) {
      items_.push_back(catalog_
                           .AddItem("i" + std::to_string(i),
                                    static_cast<VolumeId>(i % 3), 100 * kMiB,
                                    storage::DataItemKind::kFile)
                           .value());
    }
    config_.num_enclosures = 3;
    system_ = std::make_unique<storage::StorageSystem>(&sim_, config_,
                                                       &catalog_);
    ASSERT_TRUE(system_->Init().ok());
  }

  monitor::MonitorSnapshot Snapshot(SimTime start, SimTime end) {
    monitor::MonitorSnapshot snapshot;
    snapshot.period_start = start;
    snapshot.period_end = end;
    snapshot.application = &app_monitor_;
    snapshot.storage = &storage_monitor_;
    return snapshot;
  }

  void LogicalRead(SimTime t, DataItemId item, int count = 1) {
    for (int i = 0; i < count; ++i) {
      trace::LogicalIoRecord rec;
      rec.time = t;
      rec.item = item;
      rec.size = 4096;
      rec.type = IoType::kRead;
      app_monitor_.Record(rec);
    }
  }

  void PhysicalRead(SimTime t, EnclosureId enc, int count = 1) {
    for (int i = 0; i < count; ++i) {
      trace::PhysicalIoRecord rec;
      rec.time = t;
      rec.enclosure = enc;
      rec.size = 4096;
      rec.type = IoType::kRead;
      storage_monitor_.OnPhysicalIo(rec);
    }
  }

  sim::Simulator sim_;
  storage::StorageConfig config_;
  storage::DataItemCatalog catalog_;
  std::unique_ptr<storage::StorageSystem> system_;
  monitor::ApplicationMonitor app_monitor_;
  monitor::StorageMonitor storage_monitor_{3};
  std::vector<DataItemId> items_;
};

TEST_F(BaselineFixture, NoPowerSavingForbidsSpinDown) {
  NoPowerSavingPolicy policy;
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  for (bool allowed : actuator.spin_down) EXPECT_FALSE(allowed);
  EXPECT_EQ(policy.placement_determinations(), 0);
}

TEST_F(BaselineFixture, FixedTimeoutAllowsSpinDownEverywhere) {
  FixedTimeoutPolicy policy;
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  for (bool allowed : actuator.spin_down) EXPECT_TRUE(allowed);
}

TEST_F(BaselineFixture, PdcConcentratesPopularItems) {
  PdcPolicy policy{PdcPolicy::Options{}};
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  // Item on enclosure 2 is very popular; tail items quiet.
  LogicalRead(0, items_[2], 1000);
  LogicalRead(0, items_[0], 1);
  actuator.now = 30 * kMinute;
  policy.OnPeriodEnd(Snapshot(0, 30 * kMinute), *system_, &actuator);
  EXPECT_EQ(policy.placement_determinations(), 1);
  // The popular item (initially on enclosure 2 via volume 2) moves to the
  // front of the packing order: enclosure 0.
  bool moved_popular = false;
  for (auto& [item, target] : actuator.migrations) {
    if (item == items_[2]) {
      moved_popular = true;
      EXPECT_EQ(target, 0);
    }
  }
  EXPECT_TRUE(moved_popular);
}

TEST_F(BaselineFixture, PdcSpreadsWhenLoadBudgetExceeded) {
  PdcPolicy::Options options;
  options.load_fraction = 0.001;  // budget ~0.9 IOPS per enclosure
  PdcPolicy policy{options};
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  for (auto item : items_) LogicalRead(0, item, 10000);
  actuator.now = 30 * kMinute;
  policy.OnPeriodEnd(Snapshot(0, 30 * kMinute), *system_, &actuator);
  // With no enclosure satisfying the budget, items fall back to the
  // emptiest enclosure: placement still defined for every item.
  SUCCEED();
}

TEST_F(BaselineFixture, DdrClassifiesColdAndAllowsSpinDown) {
  DdrPolicy policy{DdrPolicy::Options{}};
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  for (bool allowed : actuator.spin_down) EXPECT_FALSE(allowed);

  // Enclosure 0 busy above LowTH (225 IOPS * 10 s window = 2250 I/Os);
  // enclosures 1 and 2 quiet.
  PhysicalRead(0, 0, 3000);
  actuator.now = 10 * kSecond;
  policy.OnPeriodEnd(Snapshot(0, 10 * kSecond), *system_, &actuator);
  ASSERT_EQ(actuator.spin_down.size(), 3u);
  EXPECT_FALSE(actuator.spin_down[0]);
  EXPECT_TRUE(actuator.spin_down[1]);
  EXPECT_TRUE(actuator.spin_down[2]);
  // One determination per enclosure per window.
  EXPECT_EQ(policy.placement_determinations(), 3);
}

// DDR reads the storage monitor's per-enclosure physical-I/O counters,
// which the monitor zeroes at each period reset: two windows with known
// per-enclosure mixes flip the cold set, and the second window's IOPS
// (not the sum of both) pick the migration target.
TEST_F(BaselineFixture, DdrFollowsPerEnclosureCountsAcrossWindows) {
  DdrPolicy policy{DdrPolicy::Options{}};
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);

  // Window 1 (LowTH 225 IOPS over 10 s = 2250 I/Os): enclosure 0 at
  // 300 IOPS, enclosure 1 just below LowTH, enclosure 2 exactly at it.
  PhysicalRead(0, 0, 3000);
  PhysicalRead(0, 1, 2249);
  PhysicalRead(0, 2, 2250);
  EXPECT_EQ(storage_monitor_.physical_ios(1), 2249);
  actuator.now = 10 * kSecond;
  policy.OnPeriodEnd(Snapshot(0, 10 * kSecond), *system_, &actuator);
  ASSERT_EQ(actuator.spin_down.size(), 3u);
  EXPECT_FALSE(actuator.spin_down[0]);
  EXPECT_TRUE(actuator.spin_down[1]);
  EXPECT_FALSE(actuator.spin_down[2]);
  storage_monitor_.ResetPeriod(10 * kSecond);
  for (EnclosureId e = 0; e < 3; ++e) {
    EXPECT_EQ(storage_monitor_.physical_ios(e), 0);
  }

  // Window 2: enclosure 0 goes quiet, enclosure 1 runs at 500 IOPS
  // (above TargetTH 450), enclosure 2 stays at LowTH.
  PhysicalRead(10 * kSecond, 0, 100);
  PhysicalRead(10 * kSecond, 1, 5000);
  PhysicalRead(10 * kSecond, 2, 2250);
  actuator.now = 20 * kSecond;
  policy.OnPeriodEnd(Snapshot(10 * kSecond, 20 * kSecond), *system_,
                     &actuator);
  EXPECT_TRUE(actuator.spin_down[0]);
  EXPECT_FALSE(actuator.spin_down[1]);
  EXPECT_FALSE(actuator.spin_down[2]);
  EXPECT_EQ(policy.placement_determinations(), 6);

  // An access to now-cold enclosure 0 moves its blocks to the hot
  // enclosure with headroom under TargetTH: 2, not the saturated 1.
  trace::PhysicalIoRecord rec;
  rec.time = 21 * kSecond;
  rec.enclosure = 0;
  rec.size = 65536;
  rec.type = IoType::kRead;
  policy.OnPhysicalIo(rec);
  ASSERT_EQ(actuator.block_moves.size(), 1u);
  EXPECT_EQ(std::get<0>(actuator.block_moves[0]), 0);
  EXPECT_EQ(std::get<1>(actuator.block_moves[0]), 2);
}

TEST_F(BaselineFixture, DdrMigratesBlocksOffColdEnclosures) {
  DdrPolicy policy{DdrPolicy::Options{}};
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  PhysicalRead(0, 0, 3000);  // enclosure 0 hot
  actuator.now = 10 * kSecond;
  policy.OnPeriodEnd(Snapshot(0, 10 * kSecond), *system_, &actuator);

  // An access to cold enclosure 1 migrates the touched blocks toward the
  // hot enclosure 0.
  trace::PhysicalIoRecord rec;
  rec.time = 11 * kSecond;
  rec.enclosure = 1;
  rec.size = 65536;
  rec.type = IoType::kRead;
  policy.OnPhysicalIo(rec);
  ASSERT_EQ(actuator.block_moves.size(), 1u);
  EXPECT_EQ(std::get<0>(actuator.block_moves[0]), 1);
  EXPECT_EQ(std::get<1>(actuator.block_moves[0]), 0);
  EXPECT_EQ(std::get<2>(actuator.block_moves[0]), 65536);
}

TEST_F(BaselineFixture, DdrCapsPerWindowMigration) {
  DdrPolicy::Options options;
  options.migration_cap_bytes = 100000;
  DdrPolicy policy{options};
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  PhysicalRead(0, 0, 3000);
  actuator.now = 10 * kSecond;
  policy.OnPeriodEnd(Snapshot(0, 10 * kSecond), *system_, &actuator);
  trace::PhysicalIoRecord rec;
  rec.time = 11 * kSecond;
  rec.enclosure = 1;
  rec.size = 65536;
  rec.type = IoType::kRead;
  policy.OnPhysicalIo(rec);
  policy.OnPhysicalIo(rec);  // crosses the 100 KB cap
  policy.OnPhysicalIo(rec);  // suppressed
  EXPECT_EQ(actuator.block_moves.size(), 2u);
}

TEST_F(BaselineFixture, DdrNoMigrationWhenEverythingCold) {
  DdrPolicy policy{DdrPolicy::Options{}};
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  actuator.now = 10 * kSecond;
  policy.OnPeriodEnd(Snapshot(0, 10 * kSecond), *system_, &actuator);
  trace::PhysicalIoRecord rec;
  rec.time = 11 * kSecond;
  rec.enclosure = 1;
  rec.size = 65536;
  rec.type = IoType::kRead;
  policy.OnPhysicalIo(rec);
  EXPECT_TRUE(actuator.block_moves.empty());  // no hot target exists
}

}  // namespace
}  // namespace ecostore::policies
