// Reproduces paper Figs. 8-10 and 17 (File Server): average power,
// average I/O response time, migrated data size, placement determinations
// and the long-interval curve, for the proposed method vs. PDC, DDR and
// no power saving.
//
// Paper values: power 2977.9 W -> proposed 2209.2 W (-25.8%), PDC -3.5%,
// DDR -3.6%; response proposed 17.1 ms < PDC 22.6 < DDR 27.0; migrated
// proposed 23.1 GB, PDC > 3 TB, DDR 1.3 GB; determinations 5 / 11 / ~91k;
// Fig. 17: proposed's cumulative long-interval length ~2x the others.

#include <iostream>

#include "bench/bench_util.h"
#include "bench/telemetry_capture.h"
#include "replay/report.h"
#include "replay/suite.h"
#include "workload/file_server_workload.h"

using namespace ecostore;  // NOLINT

int main(int argc, char** argv) {
  bench::InitBenchLogging();
  const std::string telemetry_base = bench::ParseTelemetryFlag(argc, argv);
  const std::string summary_path =
      bench::ParseTelemetrySummaryFlag(argc, argv);
  // --rolling-summary=<path> streams live rolling windows from the
  // instrumented capture run (tailable mid-run via `eco_report tail`).
  const std::string rolling_path = bench::ParseRollingSummaryFlag(argc, argv);
  const SimDuration rolling_window = bench::ParseRollingWindowFlag(argc, argv);
  // --profile=<base> attaches the wall-clock phase profiler to the
  // instrumented capture run (requires --telemetry).
  const std::string profile_base = bench::ParseProfileFlag(argc, argv);
  // --capture-only skips the four-policy figure suite and runs just the
  // instrumented capture: what the CI regression gate wants.
  const bool capture_only =
      bench::HasFlag(argc, argv, "--capture-only") && !telemetry_base.empty();
  bench::PrintHeader(
      "Figs. 8-10, 17 — File Server",
      "proposed -25.8% power, best response, 23.1 GB migrated");

  workload::FileServerConfig wl_config;
  wl_config.duration = bench::MaybeShorten(6 * kHour, 45 * kMinute);
  replay::ExperimentConfig config;
  config.power_sample_interval = 60 * kSecond;  // wall-meter sampling
  core::PowerManagementConfig pm;  // Table II defaults
  const replay::WorkloadFactory make_workload =
      replay::FactoryFor<workload::FileServerWorkload>(wl_config);

  if (capture_only) {
    replay::ExperimentJob job;
    job.workload = make_workload;
    job.policy = replay::PaperPolicySet(pm)[1];
    job.config = config;
    return bench::CaptureTelemetry(telemetry_base, std::move(job),
                                   summary_path, 1u << 21, rolling_path,
                                   rolling_window, profile_base);
  }

  Result<std::vector<replay::ExperimentMetrics>> runs =
      replay::ParallelRunSuite(make_workload, replay::PaperPolicySet(pm),
                               config, replay::SuiteOptions{});
  if (!runs.ok()) {
    std::cerr << runs.status().ToString() << "\n";
    return 1;
  }

  std::cout << "\n[Fig. 8] average power (" << FormatDuration(
                   wl_config.duration)
            << " run, " << wl_config.num_enclosures << " enclosures):\n";
  replay::PrintPowerTable(std::cout, runs.value());

  std::cout << "\n[Fig. 9] average I/O response time:\n";
  replay::PrintResponseTable(std::cout, runs.value());

  std::cout << "\n[Fig. 10 + \xC2\xA7VII-D] migrated data / "
               "determinations:\n";
  replay::PrintMigrationTable(std::cout, runs.value());

  std::cout << "\n[Fig. 17] cumulative idle-interval length by threshold:\n";
  replay::PrintIntervalCdf(
      std::cout, runs.value(),
      {10 * kSecond, 30 * kSecond, 52 * kSecond, 2 * kMinute, 5 * kMinute,
       20 * kMinute});

  const replay::ExperimentMetrics* proposed =
      replay::FindRun(runs.value(), "proposed");
  if (proposed != nullptr) {
    std::cout << "\npower profile over time (proposed; sampled at 60 s):\n";
    replay::PrintPowerTimeline(std::cout, *proposed);
    std::cout << "\nper-enclosure breakdown (proposed):\n";
    replay::PrintEnclosureTable(std::cout, *proposed);
  }

  if (!telemetry_base.empty()) {
    // One extra instrumented run of the proposed method (PaperPolicySet
    // index 1), after the figures so the capture shares nothing with them.
    replay::ExperimentJob job;
    job.workload = make_workload;
    job.policy = replay::PaperPolicySet(pm)[1];
    job.config = config;
    return bench::CaptureTelemetry(telemetry_base, std::move(job),
                                   summary_path, 1u << 21, rolling_path,
                                   rolling_window, profile_base);
  }
  return 0;
}
