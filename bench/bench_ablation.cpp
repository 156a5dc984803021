// Ablation study (DESIGN.md §3): contribution of each design choice of
// the proposed method — placement, preload, write delay, adaptive
// monitoring period and the §V-D triggers — on the File Server workload,
// plus a plain fixed-timeout spin-down baseline (hd-idle style).
//
// Not a paper figure; quantifies which mechanism buys which share of the
// saving the paper attributes to the combined method.

#include <iostream>

#include "bench/bench_util.h"
#include "bench/telemetry_capture.h"
#include "core/eco_storage_policy.h"
#include "policies/basic_policies.h"
#include "replay/report.h"
#include "replay/suite.h"
#include "workload/file_server_workload.h"

using namespace ecostore;  // NOLINT

namespace {

replay::PolicyFactory Variant(core::PowerManagementConfig pm,
                              const std::string& name) {
  return [pm, name] {
    class NamedEco : public core::EcoStoragePolicy {
     public:
      NamedEco(const core::PowerManagementConfig& config, std::string name)
          : EcoStoragePolicy(config), name_(std::move(name)) {}
      std::string name() const override { return name_; }

     private:
      std::string name_;
    };
    return std::make_unique<NamedEco>(pm, name);
  };
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBenchLogging();
  const int threads = bench::ParseThreadsFlag(argc, argv);
  const std::string telemetry_base = bench::ParseTelemetryFlag(argc, argv);
  const std::string summary_path =
      bench::ParseTelemetrySummaryFlag(argc, argv);
  bench::PrintHeader("Ablation — proposed method feature contributions",
                     "design-choice study (DESIGN.md); no paper analogue");

  workload::FileServerConfig wl_config;
  wl_config.duration = bench::MaybeShorten(3 * kHour, 40 * kMinute);
  const replay::WorkloadFactory make_workload =
      replay::FactoryFor<workload::FileServerWorkload>(wl_config);

  core::PowerManagementConfig full;

  std::vector<replay::PolicyFactory> factories;
  factories.push_back(
      [] { return std::make_unique<policies::NoPowerSavingPolicy>(); });
  factories.push_back(
      [] { return std::make_unique<policies::FixedTimeoutPolicy>(); });
  factories.push_back(Variant(full, "proposed_full"));

  core::PowerManagementConfig variant = full;
  variant.enable_preload = false;
  factories.push_back(Variant(variant, "no_preload"));

  variant = full;
  variant.enable_write_delay = false;
  factories.push_back(Variant(variant, "no_write_delay"));

  variant = full;
  variant.enable_placement = false;
  factories.push_back(Variant(variant, "no_placement"));

  variant = full;
  variant.enable_adaptive_period = false;
  factories.push_back(Variant(variant, "fixed_period"));

  variant = full;
  variant.enable_pattern_change_triggers = false;
  factories.push_back(Variant(variant, "no_triggers"));

  // Every policy replays its own deterministic clone; --threads=N>1 runs
  // them concurrently — same numbers, less wall-clock.
  Result<std::vector<replay::ExperimentMetrics>> runs =
      replay::ParallelRunSuite(make_workload, factories,
                               replay::ExperimentConfig{},
                               replay::SuiteOptions{threads});
  if (!runs.ok()) {
    std::cerr << runs.status().ToString() << "\n";
    return 1;
  }

  std::cout << "\npower:\n";
  replay::PrintPowerTable(std::cout, runs.value());
  std::cout << "\nresponse:\n";
  replay::PrintResponseTable(std::cout, runs.value());
  std::cout << "\nmovement:\n";
  replay::PrintMigrationTable(std::cout, runs.value());

  if (!telemetry_base.empty()) {
    // One extra instrumented run of the full proposed variant, after the
    // ablation tables so the capture shares nothing with them.
    replay::ExperimentJob job;
    job.workload = make_workload;
    job.policy = Variant(full, "proposed_full");
    job.config = replay::ExperimentConfig{};
    return bench::CaptureTelemetry(telemetry_base, std::move(job),
                                   summary_path);
  }
  return 0;
}
