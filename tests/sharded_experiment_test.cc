// Differential tests for the sharded replay engine (DESIGN.md §11):
// sharded runs must match the serial engine under the documented
// equivalence contract, and a fixed shard count must be bit-identical
// for any worker-thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/eco_storage_policy.h"
#include "policies/basic_policies.h"
#include "replay/experiment.h"
#include "replay/metrics.h"
#include "replay/sharded_experiment.h"
#include "telemetry/recorder.h"
#include "workload/file_server_workload.h"

namespace ecostore::replay {
namespace {

workload::FileServerConfig FsConfig(int num_enclosures,
                                    SimDuration duration,
                                    int popular_files, int tail_files) {
  workload::FileServerConfig config;
  config.duration = duration;
  config.num_enclosures = num_enclosures;
  config.big_hot_files = 2;
  config.small_hot_files = 6;
  config.popular_files = popular_files;
  config.tail_files = tail_files;
  config.archive_files = num_enclosures * 2;
  config.big_hot_file_bytes = 1 * kGiB;
  config.archive_file_bytes = 1 * kGiB;
  return config;
}

/// The exact-equivalence domain (DESIGN.md §11) excludes configs where
/// controller-cache capacity pressure couples shards: the general-area
/// LRU and the dirty-ratio destage thresholds are global state in the one
/// serial cache but per-lane state in a sharded run. A cache large enough
/// that neither eviction nor threshold destage triggers inside the test
/// horizon is neutral, so serial and sharded behaviour coincide.
ExperimentConfig NeutralCacheConfig() {
  ExperimentConfig config;
  config.storage.cache.total_bytes = 64 * kGiB;
  config.storage.cache.write_delay_area_bytes = 8 * kGiB;
  return config;
}

std::string Quant(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void ExpectRelNear(double a, double b, const char* what) {
  double scale = std::max(std::abs(a), std::abs(b));
  EXPECT_LE(std::abs(a - b), 1e-9 * std::max(scale, 1.0)) << what << ": "
                                                          << a << " vs "
                                                          << b;
}

/// The serial-vs-sharded equivalence contract: integer counters and
/// per-enclosure accounting are exact; run-wide floating-point reductions
/// may differ by summation order only; energies quantize equal under the
/// bench §7 rule; idle gaps are the same multiset.
void ExpectEquivalent(const ExperimentMetrics& serial,
                      const ExperimentMetrics& sharded) {
  EXPECT_EQ(serial.logical_ios, sharded.logical_ios);
  EXPECT_EQ(serial.logical_reads, sharded.logical_reads);
  EXPECT_EQ(serial.physical_batches, sharded.physical_batches);
  EXPECT_EQ(serial.cache_hit_ios, sharded.cache_hit_ios);
  EXPECT_EQ(serial.migrated_bytes, sharded.migrated_bytes);
  EXPECT_EQ(serial.item_migrations, sharded.item_migrations);
  EXPECT_EQ(serial.block_migrations, sharded.block_migrations);
  EXPECT_EQ(serial.placement_determinations,
            sharded.placement_determinations);
  EXPECT_EQ(serial.spinups, sharded.spinups);
  EXPECT_EQ(serial.monitoring_periods, sharded.monitoring_periods);

  EXPECT_EQ(Quant(serial.enclosure_energy), Quant(sharded.enclosure_energy));
  EXPECT_EQ(Quant(serial.controller_energy),
            Quant(sharded.controller_energy));
  // Stronger than the quantization rule: the sharded reduction sums
  // per-enclosure energies in enclosure order, the serial engine's own
  // order, so these are bitwise equal.
  EXPECT_DOUBLE_EQ(serial.enclosure_energy, sharded.enclosure_energy);
  EXPECT_DOUBLE_EQ(serial.controller_energy, sharded.controller_energy);

  ASSERT_EQ(serial.per_enclosure.size(), sharded.per_enclosure.size());
  for (size_t e = 0; e < serial.per_enclosure.size(); ++e) {
    EXPECT_DOUBLE_EQ(serial.per_enclosure[e].energy,
                     sharded.per_enclosure[e].energy)
        << "enclosure " << e;
    EXPECT_EQ(serial.per_enclosure[e].served_ios,
              sharded.per_enclosure[e].served_ios)
        << "enclosure " << e;
    EXPECT_EQ(serial.per_enclosure[e].spinups,
              sharded.per_enclosure[e].spinups)
        << "enclosure " << e;
    EXPECT_DOUBLE_EQ(serial.per_enclosure[e].utilization,
                     sharded.per_enclosure[e].utilization)
        << "enclosure " << e;
  }

  EXPECT_EQ(serial.response_us.count(), sharded.response_us.count());
  EXPECT_EQ(serial.response_us.min(), sharded.response_us.min());
  EXPECT_EQ(serial.response_us.max(), sharded.response_us.max());
  ExpectRelNear(serial.response_us.sum(), sharded.response_us.sum(),
                "response_us.sum");
  EXPECT_EQ(serial.read_response_us.count(),
            sharded.read_response_us.count());
  ExpectRelNear(serial.read_response_us.sum(),
                sharded.read_response_us.sum(), "read_response_us.sum");
  ExpectRelNear(serial.avg_response_ms, sharded.avg_response_ms,
                "avg_response_ms");

  ASSERT_EQ(serial.tag_stats.size(), sharded.tag_stats.size());
  for (const auto& [tag, stats] : serial.tag_stats) {
    auto it = sharded.tag_stats.find(tag);
    ASSERT_NE(it, sharded.tag_stats.end()) << "tag " << tag;
    EXPECT_EQ(stats.reads, it->second.reads) << "tag " << tag;
    EXPECT_EQ(stats.first_issue, it->second.first_issue) << "tag " << tag;
    EXPECT_EQ(stats.last_completion, it->second.last_completion)
        << "tag " << tag;
    ExpectRelNear(stats.read_response_us_sum,
                  it->second.read_response_us_sum, "tag read sum");
  }

  // Lane-order concatenation vs time-interleaved collection: compare as
  // multisets.
  ASSERT_EQ(serial.idle_gaps.size(), sharded.idle_gaps.size());
  std::vector<SimDuration> a = serial.idle_gaps;
  std::vector<SimDuration> b = sharded.idle_gaps;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

ExperimentMetrics RunSerial(const workload::FileServerConfig& fs,
                            policies::StoragePolicy* policy,
                            const ExperimentConfig& config) {
  auto workload = workload::FileServerWorkload::Create(fs);
  EXPECT_TRUE(workload.ok());
  Experiment experiment(workload.value().get(), policy, config);
  auto metrics = experiment.Run();
  EXPECT_TRUE(metrics.ok());
  return metrics.value();
}

ExperimentMetrics RunSharded(const workload::FileServerConfig& fs,
                             policies::StoragePolicy* policy,
                             const ExperimentConfig& config, int shards,
                             int workers = 0) {
  auto workload = workload::FileServerWorkload::Create(fs);
  EXPECT_TRUE(workload.ok());
  ShardedExperiment experiment(workload.value().get(), policy, config,
                               shards, workers);
  auto metrics = experiment.Run();
  EXPECT_TRUE(metrics.ok());
  return metrics.value();
}

TEST(ShardedExperimentTest, OneShardDelegatesToSerialBitIdentical) {
  workload::FileServerConfig fs = FsConfig(6, 5 * kMinute, 20, 16);
  policies::FixedTimeoutPolicy serial_policy;
  ExperimentMetrics serial =
      RunSerial(fs, &serial_policy, ExperimentConfig{});
  policies::FixedTimeoutPolicy sharded_policy;
  ExperimentMetrics sharded =
      RunSharded(fs, &sharded_policy, ExperimentConfig{}, /*shards=*/1);
  EXPECT_EQ(serial.logical_ios, sharded.logical_ios);
  EXPECT_EQ(serial.enclosure_energy, sharded.enclosure_energy);
  EXPECT_EQ(serial.avg_response_ms, sharded.avg_response_ms);
  EXPECT_EQ(serial.spinups, sharded.spinups);
  EXPECT_EQ(serial.idle_gaps, sharded.idle_gaps);
  EXPECT_EQ(serial.sim_events_executed, sharded.sim_events_executed);
}

TEST(ShardedExperimentTest, MatchesSerialAcrossShardCountsFixedTimeout) {
  // Randomized-ish sweep: different enclosure counts and workload shapes.
  struct Variant {
    int enclosures;
    int popular;
    int tail;
  };
  const Variant variants[] = {{6, 14, 10}, {12, 24, 18}, {16, 30, 12}};
  for (const Variant& v : variants) {
    workload::FileServerConfig fs =
        FsConfig(v.enclosures, 8 * kMinute, v.popular, v.tail);
    ExperimentConfig config = NeutralCacheConfig();
    policies::FixedTimeoutPolicy serial_policy;
    ExperimentMetrics serial = RunSerial(fs, &serial_policy, config);
    for (int shards : {2, 4, 8}) {
      SCOPED_TRACE("enclosures=" + std::to_string(v.enclosures) +
                   " shards=" + std::to_string(shards));
      policies::FixedTimeoutPolicy sharded_policy;
      ExperimentMetrics sharded =
          RunSharded(fs, &sharded_policy, config, shards);
      ExpectEquivalent(serial, sharded);
      EXPECT_GT(serial.spinups, 0);  // the sweep must exercise power state
    }
  }
}

TEST(ShardedExperimentTest, MatchesSerialWithEcoPolicyAndMigrations) {
  workload::FileServerConfig fs = FsConfig(12, 12 * kMinute, 30, 20);
  core::PowerManagementConfig pm;
  pm.initial_period = 130 * kSecond;
  pm.min_period = 130 * kSecond;
  // Trigger latency is epoch-quantized in the sharded engine (DESIGN.md
  // §11), so exact equivalence is claimed — and tested — without it.
  pm.enable_pattern_change_triggers = false;

  ExperimentConfig config = NeutralCacheConfig();
  core::EcoStoragePolicy serial_policy(pm);
  ExperimentMetrics serial = RunSerial(fs, &serial_policy, config);
  // The point of this config is to drive cross-shard effects: plans that
  // place, preload, write-delay and migrate.
  EXPECT_GT(serial.placement_determinations, 0);

  for (int shards : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    core::EcoStoragePolicy sharded_policy(pm);
    ExperimentMetrics sharded = RunSharded(fs, &sharded_policy, config, shards);
    ExpectEquivalent(serial, sharded);
  }
}

TEST(ShardedExperimentTest, FixedShardCountIsWorkerCountInvariant) {
  workload::FileServerConfig fs = FsConfig(12, 10 * kMinute, 24, 16);
  core::PowerManagementConfig pm;
  pm.initial_period = 130 * kSecond;
  pm.min_period = 130 * kSecond;

  auto run = [&](int workers, std::vector<telemetry::Event>* events) {
    core::EcoStoragePolicy policy(pm);
    telemetry::Recorder recorder;
    ExperimentConfig config;
    config.telemetry = &recorder;
    config.power_sample_interval = 30 * kSecond;
    ExperimentMetrics m = RunSharded(fs, &policy, config, /*shards=*/4,
                                     workers);
    *events = recorder.Drain();
    return m;
  };

  std::vector<telemetry::Event> events_one;
  std::vector<telemetry::Event> events_three;
  ExperimentMetrics one = run(1, &events_one);
  ExperimentMetrics three = run(3, &events_three);

  // Bit-identical: every field, including floating point, event streams
  // and collection order.
  EXPECT_EQ(one.logical_ios, three.logical_ios);
  EXPECT_EQ(one.physical_batches, three.physical_batches);
  EXPECT_EQ(one.cache_hit_ios, three.cache_hit_ios);
  EXPECT_EQ(one.spinups, three.spinups);
  EXPECT_EQ(one.migrated_bytes, three.migrated_bytes);
  EXPECT_EQ(one.enclosure_energy, three.enclosure_energy);
  EXPECT_EQ(one.controller_energy, three.controller_energy);
  EXPECT_EQ(one.avg_response_ms, three.avg_response_ms);
  EXPECT_EQ(one.response_us.sum(), three.response_us.sum());
  EXPECT_EQ(one.idle_gaps, three.idle_gaps);
  ASSERT_EQ(one.per_enclosure.size(), three.per_enclosure.size());
  for (size_t e = 0; e < one.per_enclosure.size(); ++e) {
    EXPECT_EQ(one.per_enclosure[e].energy, three.per_enclosure[e].energy);
    EXPECT_EQ(one.per_enclosure[e].served_ios,
              three.per_enclosure[e].served_ios);
  }
  ASSERT_EQ(one.power_samples.size(), three.power_samples.size());
  for (size_t i = 0; i < one.power_samples.size(); ++i) {
    EXPECT_EQ(one.power_samples[i].time, three.power_samples[i].time);
    EXPECT_EQ(one.power_samples[i].enclosures,
              three.power_samples[i].enclosures);
    EXPECT_EQ(one.power_samples[i].controller,
              three.power_samples[i].controller);
  }

  if (telemetry::Recorder::kEnabled) {
    ASSERT_EQ(events_one.size(), events_three.size());
    for (size_t i = 0; i < events_one.size(); ++i) {
      EXPECT_EQ(events_one[i].time, events_three[i].time) << "event " << i;
      EXPECT_EQ(events_one[i].kind, events_three[i].kind) << "event " << i;
      EXPECT_EQ(events_one[i].shard, events_three[i].shard)
          << "event " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// The §V-D period-end protocol, exercised on both engines: the 1 s floor,
// trigger coalescing, and triggers from inside a period end.
// ---------------------------------------------------------------------------

/// A policy that scripts the protocol's edge cases. At the first physical
/// I/O at or after kBurstAfter it triggers an immediate period end
/// `burst` times at one instant; that triggered period end triggers once
/// more from inside OnPeriodEnd and keeps the regular period; the period
/// end after it asks for 100 ms, below the 1 s floor.
class TriggerScriptPolicy : public policies::StoragePolicy {
 public:
  static constexpr SimDuration kPeriod = 60 * kSecond;
  static constexpr SimDuration kBurstAfter = 90 * kSecond;

  explicit TriggerScriptPolicy(int burst) : burst_(burst) {}

  std::string name() const override { return "trigger_script"; }
  SimDuration initial_period() const override { return kPeriod; }

  void Start(const storage::StorageSystem& system,
             policies::PolicyActuator* actuator) override {
    (void)system;
    actuator_ = actuator;
  }

  void OnPhysicalIo(const trace::PhysicalIoRecord& rec) override {
    if (burst_at_ >= 0 || rec.time < kBurstAfter) return;
    burst_at_ = actuator_->Now();
    for (int i = 0; i < burst_; ++i) actuator_->TriggerImmediatePeriodEnd();
  }

  SimDuration OnPeriodEnd(const monitor::MonitorSnapshot& snapshot,
                          const storage::StorageSystem& system,
                          policies::PolicyActuator* actuator) override {
    (void)system;
    ends_.push_back(snapshot.period_end);
    if (!inner_fired_ && burst_at_ >= 0 && snapshot.period_end == burst_at_) {
      inner_fired_ = true;  // once, so a broken guard fails, not loops
      actuator->TriggerImmediatePeriodEnd();
      return kPeriod;
    }
    if (burst_at_ >= 0 && snapshot.period_end == burst_at_ + kPeriod) {
      return 100 * kMillisecond;
    }
    return kPeriod;
  }

  SimTime burst_at() const { return burst_at_; }
  const std::vector<SimTime>& ends() const { return ends_; }

 private:
  int burst_;
  policies::PolicyActuator* actuator_ = nullptr;
  SimTime burst_at_ = -1;
  bool inner_fired_ = false;
  std::vector<SimTime> ends_;
};

void ExpectPeriodEndProtocol(const TriggerScriptPolicy& policy,
                             const ExperimentMetrics& m) {
  constexpr SimDuration kPeriod = TriggerScriptPolicy::kPeriod;
  const SimTime burst = policy.burst_at();
  ASSERT_GE(burst, TriggerScriptPolicy::kBurstAfter);
  // The sharded engine delivers the I/O hook at the next epoch barrier,
  // here the pending 120 s end itself, which the burst then replaces.
  ASSERT_LE(burst, 2 * kPeriod);
  const std::vector<SimTime>& ends = policy.ends();
  EXPECT_EQ(m.monitoring_periods, static_cast<int64_t>(ends.size()));
  ASSERT_GE(ends.size(), 4u);
  // One end at the burst instant, none added by the trigger inside it,
  // and the 100 ms request floored to 1 s.
  EXPECT_EQ(ends[0], kPeriod);
  EXPECT_EQ(ends[1], burst);
  EXPECT_EQ(ends[2], burst + kPeriod);
  EXPECT_EQ(ends[3], burst + kPeriod + 1 * kSecond);
  EXPECT_EQ(std::count(ends.begin(), ends.end(), burst), 1);
  for (size_t i = 4; i < ends.size(); ++i) {
    EXPECT_EQ(ends[i] - ends[i - 1], kPeriod) << "period end " << i;
  }
}

TEST(PeriodEndProtocolTest, CoalescesTriggersAndFloorsPeriod) {
  workload::FileServerConfig fs = FsConfig(6, 6 * kMinute, 20, 16);
  // One shard is the serial engine (ShardedExperiment delegates to it).
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    TriggerScriptPolicy burst(3);
    ExperimentMetrics m = RunSharded(fs, &burst, ExperimentConfig{}, shards);
    ExpectPeriodEndProtocol(burst, m);
    // The later triggers of a burst are no-ops: a single trigger gives
    // the same period ends and cancels as many events.
    TriggerScriptPolicy single(1);
    ExperimentMetrics one =
        RunSharded(fs, &single, ExperimentConfig{}, shards);
    EXPECT_EQ(single.ends(), burst.ends());
    EXPECT_EQ(one.sim_events_cancelled, m.sim_events_cancelled);
  }
}

}  // namespace
}  // namespace ecostore::replay
