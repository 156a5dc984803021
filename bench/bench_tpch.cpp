// Reproduces paper Figs. 14-16 and 19 (TPC-H / DSS): power, query
// response times (Q2 / Q7 / Q21), migrated data and the long-interval
// curve.
//
// Paper values: power 2191.2 W -> proposed 638.8 W (-70.8%), PDC -55.9%,
// DDR -69.9%; query responses worse for all methods with DDR ~3x the
// proposed method; determinations 10 / 8 / ~205k.

#include <cstdio>
#include <iostream>
#include <map>

#include "bench/bench_util.h"
#include "bench/telemetry_capture.h"
#include "replay/report.h"
#include "replay/suite.h"
#include "workload/dss_workload.h"

using namespace ecostore;  // NOLINT

int main(int argc, char** argv) {
  bench::InitBenchLogging();
  const int threads = bench::ParseThreadsFlag(argc, argv);
  const std::string telemetry_base = bench::ParseTelemetryFlag(argc, argv);
  const std::string summary_path =
      bench::ParseTelemetrySummaryFlag(argc, argv);
  // --capture-only skips the four-policy figure suite and runs just the
  // instrumented capture: what the CI regression gate wants.
  const bool capture_only =
      bench::HasFlag(argc, argv, "--capture-only") && !telemetry_base.empty();
  bench::PrintHeader("Figs. 14-16, 19 — TPC-H (DSS)",
                     "all methods save >50%; proposed & DDR ~70%, PDC "
                     "~56%; DDR's responses worst");

  workload::DssConfig wl_config;
  wl_config.duration = bench::MaybeShorten(6 * kHour, 90 * kMinute);
  if (bench::QuickMode()) wl_config.scale = 0.2;
  const replay::WorkloadFactory make_workload =
      replay::FactoryFor<workload::DssWorkload>(wl_config);

  if (capture_only) {
    replay::ExperimentConfig config;
    core::PowerManagementConfig pm;
    replay::ExperimentJob job;
    job.workload = make_workload;
    job.policy = replay::PaperPolicySet(pm)[1];
    job.config = config;
    // DSS scans are I/O-dense like OLTP: give the capture the large
    // ring so the ledger sees the whole run.
    return bench::CaptureTelemetry(telemetry_base, std::move(job),
                                   summary_path, 1u << 23);
  }

  auto workload = workload::DssWorkload::Create(wl_config);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }

  replay::ExperimentConfig config;
  core::PowerManagementConfig pm;
  // --threads=N>1 runs the four policies concurrently, each against its
  // own deterministic workload clone (identical trace, same figures).
  Result<std::vector<replay::ExperimentMetrics>> runs =
      replay::ParallelRunSuite(make_workload, replay::PaperPolicySet(pm),
                               config, replay::SuiteOptions{threads});
  if (!runs.ok()) {
    std::cerr << runs.status().ToString() << "\n";
    return 1;
  }

  std::cout << "\n[Fig. 14] average power:\n";
  replay::PrintPowerTable(std::cout, runs.value());

  std::cout << "\n[Fig. 15] query response [s], measured wall time (first "
               "issue -> last I/O completion):\n";
  std::printf("  %-18s %10s %10s %10s\n", "policy", "Q2", "Q7", "Q21");
  for (const replay::ExperimentMetrics& m : runs.value()) {
    auto wall = replay::MeasuredQueryWallSeconds(m);
    std::printf("  %-18s %10.1f %10.1f %10.1f\n", m.policy.c_str(), wall[2],
                wall[7], wall[21]);
  }

  const replay::ExperimentMetrics* base =
      replay::FindRun(runs.value(), "no_power_saving");
  std::cout << "\n[Fig. 15b] query response [s], scaled by read-response "
               "sums (paper \xC2\xA7VII-A.5 model; inflates under "
               "open-loop spin-up stalls — see EXPERIMENTS.md):\n";
  {
    std::map<int32_t, double> q_orig;
    const auto& seconds = workload.value()->query_wall_seconds();
    for (int q = 1; q <= workload::DssWorkload::kNumQueries; ++q) {
      q_orig[q] = seconds[static_cast<size_t>(q)];
    }
    std::printf("  %-18s %10s %10s %10s\n", "policy", "Q2", "Q7", "Q21");
    for (const replay::ExperimentMetrics& m : runs.value()) {
      auto scaled = replay::ScaledQueryResponses(q_orig, *base, m);
      std::printf("  %-18s %10.1f %10.1f %10.1f\n", m.policy.c_str(),
                  scaled[2], scaled[7], scaled[21]);
    }
  }

  std::cout << "\n[Fig. 16 + \xC2\xA7VII-D] migrated data / "
               "determinations:\n";
  replay::PrintMigrationTable(std::cout, runs.value());

  std::cout << "\n[Fig. 19] cumulative idle-interval length by threshold:\n";
  replay::PrintIntervalCdf(
      std::cout, runs.value(),
      {10 * kSecond, 52 * kSecond, 2 * kMinute, 10 * kMinute,
       30 * kMinute});

  if (!telemetry_base.empty()) {
    // One extra instrumented run of the proposed method, after the
    // figures so the capture shares nothing with them.
    replay::ExperimentJob job;
    job.workload = make_workload;
    job.policy = replay::PaperPolicySet(pm)[1];
    job.config = config;
    return bench::CaptureTelemetry(telemetry_base, std::move(job),
                                   summary_path);
  }
  return 0;
}
