// Tests for the suite runner (identical-trace methodology), the parallel
// runner's determinism, and the PaperPolicySet factory.

#include <gtest/gtest.h>

#include "core/eco_storage_policy.h"
#include "policies/basic_policies.h"
#include "replay/suite.h"
#include "workload/file_server_workload.h"
#include "workload/recorded_workload.h"

namespace ecostore::replay {
namespace {

std::unique_ptr<workload::Workload> TwoEnclosureWorkload() {
  storage::DataItemCatalog catalog;
  VolumeId v0 = catalog.AddVolume(0);
  VolumeId v1 = catalog.AddVolume(1);
  EXPECT_TRUE(
      catalog.AddItem("hot", v0, 8 * kMiB, storage::DataItemKind::kFile)
          .ok());
  EXPECT_TRUE(
      catalog.AddItem("cold", v1, 8 * kMiB, storage::DataItemKind::kFile)
          .ok());
  std::vector<trace::LogicalIoRecord> records;
  for (SimTime t = 0; t < 20 * kMinute; t += 5 * kSecond) {
    trace::LogicalIoRecord rec;
    rec.time = t;
    rec.item = 0;
    rec.size = 8192;
    rec.type = IoType::kRead;
    rec.offset = (t / (5 * kSecond)) % 1000 * 8192;
    records.push_back(rec);
    if (t % (5 * kMinute) == 0) {
      rec.item = 1;
      rec.time = t + kSecond;
      records.push_back(rec);
    }
  }
  auto workload = workload::RecordedWorkload::FromRecords(
      "two_enc", std::move(catalog), std::move(records), 20 * kMinute, 2);
  EXPECT_TRUE(workload.ok());
  return std::move(workload).value();
}

TEST(SuiteTest, PaperPolicySetHasTheFourComparisonMethods) {
  auto factories = PaperPolicySet(core::PowerManagementConfig{});
  ASSERT_EQ(factories.size(), 4u);
  std::vector<std::string> names;
  for (const PolicyFactory& factory : factories) {
    names.push_back(factory()->name());
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "no_power_saving", "proposed", "pdc", "ddr"}));
}

TEST(SuiteTest, EveryRunReplaysTheIdenticalTrace) {
  auto workload = TwoEnclosureWorkload();
  auto runs = RunSuite(workload.get(),
                       PaperPolicySet(core::PowerManagementConfig{}),
                       ExperimentConfig{});
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs.value().size(), 4u);
  for (const ExperimentMetrics& m : runs.value()) {
    EXPECT_EQ(m.logical_ios, runs.value()[0].logical_ios);
    EXPECT_EQ(m.duration, runs.value()[0].duration);
    EXPECT_EQ(m.workload, "two_enc");
  }
}

TEST(SuiteTest, FindRunByName) {
  auto workload = TwoEnclosureWorkload();
  auto runs = RunSuite(workload.get(),
                       PaperPolicySet(core::PowerManagementConfig{}),
                       ExperimentConfig{});
  ASSERT_TRUE(runs.ok());
  EXPECT_NE(FindRun(runs.value(), "proposed"), nullptr);
  EXPECT_NE(FindRun(runs.value(), "ddr"), nullptr);
  EXPECT_EQ(FindRun(runs.value(), "unknown"), nullptr);
}

// Exact (bit-identical) equality of two runs: every energy figure, both
// latency histograms, all counters and the per-enclosure breakdown. The
// simulation is deterministic, so even the doubles must match exactly.
void ExpectIdenticalMetrics(const ExperimentMetrics& a,
                            const ExperimentMetrics& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.enclosure_energy, b.enclosure_energy);
  EXPECT_EQ(a.controller_energy, b.controller_energy);
  EXPECT_EQ(a.avg_total_power, b.avg_total_power);
  EXPECT_EQ(a.avg_response_ms, b.avg_response_ms);
  EXPECT_EQ(a.avg_read_response_ms, b.avg_read_response_ms);
  EXPECT_EQ(a.response_us.count(), b.response_us.count());
  EXPECT_EQ(a.response_us.sum(), b.response_us.sum());
  EXPECT_EQ(a.response_us.min(), b.response_us.min());
  EXPECT_EQ(a.response_us.max(), b.response_us.max());
  EXPECT_EQ(a.read_response_us.count(), b.read_response_us.count());
  EXPECT_EQ(a.read_response_us.sum(), b.read_response_us.sum());
  EXPECT_EQ(a.logical_ios, b.logical_ios);
  EXPECT_EQ(a.logical_reads, b.logical_reads);
  EXPECT_EQ(a.physical_batches, b.physical_batches);
  EXPECT_EQ(a.cache_hit_ios, b.cache_hit_ios);
  EXPECT_EQ(a.migrated_bytes, b.migrated_bytes);
  EXPECT_EQ(a.item_migrations, b.item_migrations);
  EXPECT_EQ(a.block_migrations, b.block_migrations);
  EXPECT_EQ(a.placement_determinations, b.placement_determinations);
  EXPECT_EQ(a.spinups, b.spinups);
  EXPECT_EQ(a.idle_gaps, b.idle_gaps);
  ASSERT_EQ(a.per_enclosure.size(), b.per_enclosure.size());
  for (size_t e = 0; e < a.per_enclosure.size(); ++e) {
    EXPECT_EQ(a.per_enclosure[e].energy, b.per_enclosure[e].energy);
    EXPECT_EQ(a.per_enclosure[e].served_ios, b.per_enclosure[e].served_ios);
    EXPECT_EQ(a.per_enclosure[e].spinups, b.per_enclosure[e].spinups);
    EXPECT_EQ(a.per_enclosure[e].utilization,
              b.per_enclosure[e].utilization);
  }
}

workload::FileServerConfig ShortFileServerConfig() {
  workload::FileServerConfig config;
  config.duration = 10 * kMinute;
  return config;
}

WorkloadFactory ShortFileServerFactory() {
  return FactoryFor<workload::FileServerWorkload>(ShortFileServerConfig());
}

TEST(SuiteTest, ParallelRunSuiteMatchesSerialOnFileServer) {
  // The comparison policies on the file-server workload: the parallel
  // runner (4 workers, one workload clone per experiment) must produce
  // byte-identical metrics to the serial shared-instance path.
  std::vector<PolicyFactory> policies;
  policies.push_back(
      [] { return std::make_unique<policies::NoPowerSavingPolicy>(); });
  policies.push_back([] {
    return std::make_unique<core::EcoStoragePolicy>(
        core::PowerManagementConfig{});
  });

  auto workload =
      workload::FileServerWorkload::Create(ShortFileServerConfig());
  ASSERT_TRUE(workload.ok());
  auto serial =
      RunSuite(workload.value().get(), policies, ExperimentConfig{});
  ASSERT_TRUE(serial.ok());

  auto parallel = ParallelRunSuite(ShortFileServerFactory(), policies,
                                   ExperimentConfig{}, SuiteOptions{4});
  ASSERT_TRUE(parallel.ok());

  ASSERT_EQ(parallel.value().size(), serial.value().size());
  for (size_t i = 0; i < serial.value().size(); ++i) {
    ExpectIdenticalMetrics(parallel.value()[i], serial.value()[i]);
  }
}

TEST(SuiteTest, ParallelRunSuiteSingleThreadMatchesSerial) {
  std::vector<PolicyFactory> policies;
  policies.push_back(
      [] { return std::make_unique<policies::NoPowerSavingPolicy>(); });

  auto workload =
      workload::FileServerWorkload::Create(ShortFileServerConfig());
  ASSERT_TRUE(workload.ok());
  auto serial =
      RunSuite(workload.value().get(), policies, ExperimentConfig{});
  ASSERT_TRUE(serial.ok());

  auto single = ParallelRunSuite(ShortFileServerFactory(), policies,
                                 ExperimentConfig{}, SuiteOptions{1});
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(single.value().size(), 1u);
  ExpectIdenticalMetrics(single.value()[0], serial.value()[0]);
}

TEST(SuiteTest, RunExperimentsRejectsInvalidThreadCount) {
  auto result = RunExperiments({}, SuiteOptions{0});
  EXPECT_FALSE(result.ok());
}

TEST(SuiteTest, RunExperimentsPropagatesWorkloadFactoryError) {
  std::vector<ExperimentJob> jobs(2);
  for (ExperimentJob& job : jobs) {
    job.workload = []() -> Result<std::unique_ptr<workload::Workload>> {
      return Status::InvalidArgument("broken workload");
    };
    job.policy =
        [] { return std::make_unique<policies::NoPowerSavingPolicy>(); };
  }
  auto serial = RunExperiments(jobs, SuiteOptions{1});
  EXPECT_FALSE(serial.ok());
  auto parallel = RunExperiments(jobs, SuiteOptions{2});
  EXPECT_FALSE(parallel.ok());
}

TEST(SuiteTest, ProposedSleepsTheColdEnclosure) {
  // Item 0 is continuously read (P3, enclosure 0 hot); item 1 sees a read
  // every 5 minutes (P1, enclosure 1 cold -> sleeps between touches).
  auto workload = TwoEnclosureWorkload();
  auto runs = RunSuite(workload.get(),
                       PaperPolicySet(core::PowerManagementConfig{}),
                       ExperimentConfig{});
  ASSERT_TRUE(runs.ok());
  const ExperimentMetrics* base = FindRun(runs.value(), "no_power_saving");
  const ExperimentMetrics* proposed = FindRun(runs.value(), "proposed");
  EXPECT_LT(proposed->avg_enclosure_power, base->avg_enclosure_power);
  // The hot enclosure must not have cycled.
  ASSERT_EQ(proposed->per_enclosure.size(), 2u);
  EXPECT_EQ(proposed->per_enclosure[0].spinups, 0);
}

}  // namespace
}  // namespace ecostore::replay
