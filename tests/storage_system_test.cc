// Integration tests for the StorageSystem facade: logical I/O paths,
// automatic spin-down, preload, write-delay and item moves.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "sim/simulator.h"
#include "storage/storage_system.h"

namespace ecostore::storage {
namespace {

struct RecordingObserver : public StorageObserver {
  std::vector<trace::PhysicalIoRecord> physical;
  std::vector<std::pair<EnclosureId, PowerState>> power;
  std::vector<SimDuration> gaps;

  void OnPhysicalIo(const trace::PhysicalIoRecord& rec) override {
    physical.push_back(rec);
  }
  void OnIdleGapEnd(EnclosureId enclosure, SimTime at,
                    SimDuration gap) override {
    (void)at;
    (void)enclosure;
    gaps.push_back(gap);
  }
  void OnPowerStateChange(EnclosureId enclosure, SimTime at,
                          PowerState state) override {
    (void)at;
    power.emplace_back(enclosure, state);
  }
};

class StorageSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    VolumeId v0 = catalog_.AddVolume(0);
    VolumeId v1 = catalog_.AddVolume(1);
    item_a_ = catalog_.AddItem("a", v0, 64 * kMiB, DataItemKind::kFile)
                  .value();
    item_b_ = catalog_.AddItem("b", v1, 64 * kMiB, DataItemKind::kFile)
                  .value();
    config_.num_enclosures = 2;
    system_ = std::make_unique<StorageSystem>(&sim_, config_, &catalog_);
    ASSERT_TRUE(system_->Init().ok());
    system_->AddObserver(&observer_);
  }

  trace::LogicalIoRecord Read(DataItemId item, int64_t offset,
                              int32_t size = 8192) {
    trace::LogicalIoRecord rec;
    rec.time = sim_.Now();
    rec.item = item;
    rec.offset = offset;
    rec.size = size;
    rec.type = IoType::kRead;
    return rec;
  }
  trace::LogicalIoRecord Write(DataItemId item, int64_t offset,
                               int32_t size = 8192) {
    trace::LogicalIoRecord rec = Read(item, offset, size);
    rec.type = IoType::kWrite;
    return rec;
  }

  sim::Simulator sim_;
  StorageConfig config_;
  DataItemCatalog catalog_;
  std::unique_ptr<StorageSystem> system_;
  RecordingObserver observer_;
  DataItemId item_a_ = kInvalidDataItem;
  DataItemId item_b_ = kInvalidDataItem;
};

TEST_F(StorageSystemTest, ReadMissGoesToCorrectEnclosure) {
  auto result = system_->SubmitLogicalIo(Read(item_b_, 0));
  EXPECT_FALSE(result.cache_hit);
  ASSERT_EQ(observer_.physical.size(), 1u);
  EXPECT_EQ(observer_.physical[0].enclosure, 1);
  EXPECT_EQ(observer_.physical[0].type, IoType::kRead);
  // Latency includes device service + positioning + cache hop.
  EXPECT_GT(result.latency, config_.enclosure.random_access_latency);
}

TEST_F(StorageSystemTest, RereadHitsCache) {
  system_->SubmitLogicalIo(Read(item_a_, 0));
  auto result = system_->SubmitLogicalIo(Read(item_a_, 0));
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(result.latency, config_.cache.hit_latency);
  EXPECT_EQ(observer_.physical.size(), 1u);  // no second device I/O
}

TEST_F(StorageSystemTest, WriteAbsorbedByCache) {
  auto result = system_->SubmitLogicalIo(Write(item_a_, 0));
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(result.latency, config_.cache.hit_latency);
  EXPECT_TRUE(observer_.physical.empty());  // destage comes later
}

TEST_F(StorageSystemTest, SpinDownOnlyWhenAllowed) {
  system_->SubmitLogicalIo(Read(item_a_, 0));
  sim_.RunUntil(10 * kMinute);
  EXPECT_EQ(system_->enclosure(0).state(sim_.Now()), PowerState::kOn);

  system_->SetSpinDownAllowed(0, true);
  sim_.RunUntil(20 * kMinute);
  EXPECT_EQ(system_->enclosure(0).state(sim_.Now()), PowerState::kOff);
  // The observer saw the power-off.
  bool saw_off = false;
  for (auto& [enc, state] : observer_.power) {
    if (enc == 0 && state == PowerState::kOff) saw_off = true;
  }
  EXPECT_TRUE(saw_off);
}

TEST_F(StorageSystemTest, IoWakesSleepingEnclosure) {
  system_->SetSpinDownAllowed(0, true);
  system_->SubmitLogicalIo(Read(item_a_, 0));
  sim_.RunUntil(10 * kMinute);
  ASSERT_EQ(system_->enclosure(0).state(sim_.Now()), PowerState::kOff);
  auto result = system_->SubmitLogicalIo(Read(item_a_, 16 * kMiB));
  EXPECT_GT(result.latency, config_.enclosure.spinup_time);
  EXPECT_EQ(system_->enclosure(0).spinup_count(), 1);
}

TEST_F(StorageSystemTest, PreloadServesReadsAfterLoad) {
  ASSERT_TRUE(
      system_->SetPreloadItems({{item_a_, catalog_.item(item_a_).size_bytes}})
          .ok());
  // The load is a bulk read on enclosure 0.
  ASSERT_FALSE(observer_.physical.empty());
  sim_.RunUntil(1 * kMinute);  // let the load complete
  auto result = system_->SubmitLogicalIo(Read(item_a_, 32 * kMiB - 8192));
  EXPECT_TRUE(result.cache_hit);
}

TEST_F(StorageSystemTest, WriteDelayedItemsDestageInBursts) {
  ASSERT_TRUE(system_->SetWriteDelayItems({item_a_}).ok());
  int64_t wd_block_limit = static_cast<int64_t>(
      config_.cache.write_delay_dirty_ratio *
      static_cast<double>(config_.cache.write_delay_area_bytes /
                          config_.cache.block_size));
  // Write just under the destage threshold: no physical I/O at all.
  for (int64_t i = 0; i + 1 < wd_block_limit; ++i) {
    system_->SubmitLogicalIo(Write(
        item_a_, i * config_.cache.block_size, config_.cache.block_size));
  }
  EXPECT_TRUE(observer_.physical.empty());
  // One more write crosses the enlarged dirty rate: a single bulk write.
  system_->SubmitLogicalIo(Write(item_a_, wd_block_limit *
                                              config_.cache.block_size,
                                 config_.cache.block_size));
  ASSERT_EQ(observer_.physical.size(), 1u);
  EXPECT_EQ(observer_.physical[0].type, IoType::kWrite);
  EXPECT_TRUE(observer_.physical[0].sequential);
}

TEST_F(StorageSystemTest, CommitItemMoveRedirectsIo) {
  ASSERT_TRUE(system_->CommitItemMove(item_a_, 1).ok());
  observer_.physical.clear();
  system_->SubmitLogicalIo(Read(item_a_, 0));
  ASSERT_EQ(observer_.physical.size(), 1u);
  EXPECT_EQ(observer_.physical[0].enclosure, 1);
}

TEST_F(StorageSystemTest, FinalizeRunFlushesDirtyBlocks) {
  system_->SubmitLogicalIo(Write(item_a_, 0));
  sim_.RunUntil(1 * kMinute);
  observer_.physical.clear();
  system_->FinalizeRun();
  ASSERT_EQ(observer_.physical.size(), 1u);
  EXPECT_EQ(observer_.physical[0].type, IoType::kWrite);
}

TEST_F(StorageSystemTest, EnergySplitsControllerAndEnclosures) {
  sim_.RunUntil(100 * kSecond);
  Joules controller = system_->ControllerEnergy();
  Joules enclosures = system_->EnclosureEnergy();
  EXPECT_DOUBLE_EQ(controller,
                   EnergyOf(config_.controller.base_power, 100 * kSecond));
  EXPECT_NEAR(enclosures,
              2 * EnergyOf(config_.enclosure.idle_power, 100 * kSecond),
              1.0);
  EXPECT_DOUBLE_EQ(system_->TotalEnergy(), controller + enclosures);
}

TEST_F(StorageSystemTest, IdleGapsReportedAboveFloor) {
  system_->SubmitLogicalIo(Read(item_a_, 0));
  sim_.RunUntil(sim_.Now() + 30 * kSecond);
  system_->SubmitLogicalIo(Read(item_a_, 16 * kMiB));
  ASSERT_EQ(observer_.gaps.size(), 1u);
  EXPECT_NEAR(ToSeconds(observer_.gaps[0]), 30.0, 0.1);
}

TEST(StorageSystemInitTest, RejectsInvalidConfig) {
  sim::Simulator sim;
  DataItemCatalog catalog;
  StorageConfig config;
  config.num_enclosures = 0;
  StorageSystem system(&sim, config, &catalog);
  EXPECT_FALSE(system.Init().ok());
}

// ---------------------------------------------------------------------------
// Spin-down check chain vs one check event per arm.

/// What the idle-timeout rule makes observable, in occurrence order.
struct SpinDownTrace {
  std::vector<std::pair<EnclosureId, SimTime>> power_offs;
  std::vector<std::pair<EnclosureId, SimTime>> spin_ups;
  std::vector<std::tuple<EnclosureId, SimTime, SimDuration>> gaps;
};

/// Reference model of the rule as first written: every physical I/O on an
/// allowed enclosure, and every off->on toggle, schedules its own check.
class PerArmSpinDown {
 public:
  PerArmSpinDown(sim::Simulator* sim, const StorageConfig& config)
      : sim_(sim), config_(config) {
    for (int i = 0; i < config.num_enclosures; ++i) {
      enclosures_.emplace_back(static_cast<EnclosureId>(i), config.enclosure);
    }
    allowed_.assign(enclosures_.size(), false);
  }

  void SubmitPhysicalBulk(EnclosureId id, int64_t n_ios, int64_t bytes,
                          IoType type, bool sequential) {
    SimTime now = sim_->Now();
    DiskEnclosure::IoGrant grant =
        enclosure(id).SubmitIo(now, n_ios, bytes, type, sequential);
    if (grant.powered_on) trace.spin_ups.emplace_back(id, now);
    if (grant.idle_gap_before >= config_.idle_gap_notify_floor) {
      trace.gaps.emplace_back(id, now, grant.idle_gap_before);
    }
    if (allowed_[static_cast<size_t>(id)]) Arm(id);
  }

  void SetSpinDownAllowed(EnclosureId id, bool allowed) {
    bool was = allowed_[static_cast<size_t>(id)];
    allowed_[static_cast<size_t>(id)] = allowed;
    if (allowed && !was) Arm(id);
  }
  bool spin_down_allowed(EnclosureId id) const {
    return allowed_[static_cast<size_t>(id)];
  }
  DiskEnclosure& enclosure(EnclosureId id) {
    return enclosures_[static_cast<size_t>(id)];
  }

  SpinDownTrace trace;

 private:
  void Arm(EnclosureId id) {
    SimTime check_at = std::max(sim_->Now(), enclosure(id).busy_until()) +
                       config_.enclosure.spindown_timeout;
    sim_->ScheduleAt(check_at, [this, id] {
      DiskEnclosure& e = enclosure(id);
      if (allowed_[static_cast<size_t>(id)] &&
          e.EligibleForSpinDown(sim_->Now()) && e.PowerOff(sim_->Now())) {
        trace.power_offs.emplace_back(id, sim_->Now());
      }
    });
  }

  sim::Simulator* sim_;
  StorageConfig config_;
  std::vector<DiskEnclosure> enclosures_;
  std::vector<bool> allowed_;
};

/// The real StorageSystem behind the reference model's interface.
class ChainSpinDown : public StorageObserver {
 public:
  ChainSpinDown(sim::Simulator* sim, const StorageConfig& config)
      : system_(sim, config, &catalog_) {
    EXPECT_TRUE(system_.Init().ok());
    system_.AddObserver(this);
  }

  void SubmitPhysicalBulk(EnclosureId id, int64_t n_ios, int64_t bytes,
                          IoType type, bool sequential) {
    system_.SubmitPhysicalBulk(id, n_ios, bytes, type, sequential);
  }
  void SetSpinDownAllowed(EnclosureId id, bool allowed) {
    system_.SetSpinDownAllowed(id, allowed);
  }
  bool spin_down_allowed(EnclosureId id) const {
    return system_.spin_down_allowed(id);
  }
  DiskEnclosure& enclosure(EnclosureId id) { return system_.enclosure(id); }

  void OnIdleGapEnd(EnclosureId enclosure, SimTime at,
                    SimDuration gap) override {
    trace.gaps.emplace_back(enclosure, at, gap);
  }
  void OnPowerStateChange(EnclosureId enclosure, SimTime at,
                          PowerState state) override {
    if (state == PowerState::kOff) trace.power_offs.emplace_back(enclosure, at);
    if (state == PowerState::kSpinningUp) {
      trace.spin_ups.emplace_back(enclosure, at);
    }
  }

  SpinDownTrace trace;

 private:
  DataItemCatalog catalog_;
  StorageSystem system_;
};

/// What a script run exercised, and the pending-check bound it observed.
struct ScriptStats {
  int io_before_check = 0;   // I/O in the same microsecond, ahead of a check
  int check_before_io = 0;   // I/O in the same microsecond, after a check
  int quick_reenables = 0;   // off -> on within one timeout
  bool bound_held = true;    // pending checks <= enclosures + toggle arms
};

/// Drives a model with a randomized physical-I/O and toggle script. Each
/// action schedules the next one itself, so whether an action lands ahead
/// of or behind a same-microsecond check is decided by sequence order,
/// exactly as in a replay. A divergence between models changes the script
/// from then on, which only makes the traces differ more.
template <typename Model>
class SpinDownScript {
 public:
  SpinDownScript(uint64_t seed, sim::Simulator* sim, Model* model,
                 const StorageConfig& config, int steps)
      : rng_(seed), sim_(sim), model_(model), config_(config),
        steps_left_(steps) {}

  ScriptStats Run() {
    Schedule(0, kInvalidEnclosure);
    sim_->RunAll();
    return stats_;
  }

 private:
  SimDuration timeout() const { return config_.enclosure.spindown_timeout; }

  void Schedule(SimTime at, EnclosureId forced) {
    script_pending_++;
    sim_->ScheduleAt(at, [this, forced] { Step(forced); });
  }

  void CheckBound() {
    size_t toggles = 0;
    for (SimTime t : toggle_deadlines_) toggles += t >= sim_->Now() ? 1 : 0;
    size_t checks = sim_->PendingEvents() - script_pending_;
    if (checks > static_cast<size_t>(config_.num_enclosures) + toggles) {
      stats_.bound_held = false;
    }
  }

  void Step(EnclosureId forced) {
    script_pending_--;
    CheckBound();
    if (steps_left_-- <= 0) return;
    SimTime now = sim_->Now();
    auto e = forced != kInvalidEnclosure
                 ? forced
                 : static_cast<EnclosureId>(
                       rng_.UniformInt(0, config_.num_enclosures - 1));
    if (forced == kInvalidEnclosure && rng_.Bernoulli(0.15)) {
      Toggle(e);
      Schedule(now + Delay(), kInvalidEnclosure);
      return;
    }
    int64_t n_ios = rng_.UniformInt(1, 64);
    int64_t bytes = n_ios * 64 * 1024;
    IoType type = rng_.Bernoulli(0.5) ? IoType::kRead : IoType::kWrite;
    bool sequential = rng_.Bernoulli(0.5);
    int64_t mode = rng_.UniformInt(0, 5);
    if (mode == 0) {
      // Land the next I/O in the same microsecond as this I/O's check,
      // ahead of it: the next action is scheduled before the arm.
      DiskEnclosure probe = model_->enclosure(e);
      probe.SubmitIo(now, n_ios, bytes, type, sequential);
      Schedule(std::max(now, probe.busy_until()) + timeout(), e);
      if (model_->spin_down_allowed(e)) stats_.io_before_check++;
      model_->SubmitPhysicalBulk(e, n_ios, bytes, type, sequential);
      return;
    }
    model_->SubmitPhysicalBulk(e, n_ios, bytes, type, sequential);
    if (mode == 1) {
      // Same microsecond again, but behind the check (scheduled after it).
      Schedule(std::max(now, model_->enclosure(e).busy_until()) + timeout(),
               e);
      if (model_->spin_down_allowed(e)) stats_.check_before_io++;
      return;
    }
    Schedule(now + Delay(), kInvalidEnclosure);
  }

  void Toggle(EnclosureId e) {
    if (!model_->spin_down_allowed(e)) {
      Enable(e);
      return;
    }
    model_->SetSpinDownAllowed(e, false);
    if (rng_.Bernoulli(0.7)) {
      // Re-enable within one timeout, while earlier checks are pending.
      stats_.quick_reenables++;
      script_pending_++;
      sim_->ScheduleAfter(rng_.UniformInt(0, timeout() - 1), [this, e] {
        script_pending_--;
        if (!model_->spin_down_allowed(e)) Enable(e);
      });
    }
  }

  void Enable(EnclosureId e) {
    toggle_deadlines_.push_back(
        std::max(sim_->Now(), model_->enclosure(e).busy_until()) + timeout());
    model_->SetSpinDownAllowed(e, true);
  }

  SimDuration Delay() {
    switch (rng_.UniformInt(0, 3)) {
      case 0:
        return rng_.UniformInt(0, 2 * kSecond);
      case 1:
        return rng_.UniformInt(0, timeout());
      default:
        return rng_.UniformInt(timeout() / 2, 3 * timeout());
    }
  }

  Xoshiro256 rng_;
  sim::Simulator* sim_;
  Model* model_;
  StorageConfig config_;
  int steps_left_;
  size_t script_pending_ = 0;
  std::vector<SimTime> toggle_deadlines_;
  ScriptStats stats_;
};

class SpinDownChainTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpinDownChainTest, MatchesOneCheckPerArm) {
  StorageConfig config;
  config.num_enclosures = 3;
  constexpr int kSteps = 3000;

  sim::Simulator ref_sim;
  PerArmSpinDown ref(&ref_sim, config);
  ScriptStats ref_stats =
      SpinDownScript<PerArmSpinDown>(GetParam(), &ref_sim, &ref, config,
                                     kSteps)
          .Run();

  sim::Simulator chain_sim;
  ChainSpinDown chain(&chain_sim, config);
  ScriptStats chain_stats =
      SpinDownScript<ChainSpinDown>(GetParam(), &chain_sim, &chain, config,
                                    kSteps)
          .Run();

  // The script reached the cases the chain's argument rests on.
  EXPECT_GT(ref_stats.io_before_check, 0);
  EXPECT_GT(ref_stats.check_before_io, 0);
  EXPECT_GT(ref_stats.quick_reenables, 0);
  EXPECT_FALSE(ref.trace.power_offs.empty());

  EXPECT_EQ(chain.trace.power_offs, ref.trace.power_offs);
  EXPECT_EQ(chain.trace.spin_ups, ref.trace.spin_ups);
  EXPECT_EQ(chain.trace.gaps, ref.trace.gaps);
  EXPECT_EQ(chain_sim.Now(), ref_sim.Now());
  SimTime end = ref_sim.Now() + kMinute;
  for (EnclosureId e = 0; e < config.num_enclosures; ++e) {
    EXPECT_EQ(chain.enclosure(e).spinup_count(), ref.enclosure(e).spinup_count());
    EXPECT_EQ(chain.enclosure(e).served_ios(), ref.enclosure(e).served_ios());
    Joules want = ref.enclosure(e).Energy(end);
    EXPECT_NEAR(chain.enclosure(e).Energy(end), want, 1e-12 * want)
        << "enclosure " << e;
  }

  // One chain event per enclosure plus outstanding toggle arms; the
  // per-arm model piles up far more, so the bound is not vacuous.
  EXPECT_TRUE(chain_stats.bound_held);
  EXPECT_FALSE(ref_stats.bound_held);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpinDownChainTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace ecostore::storage
