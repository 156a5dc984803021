// Reproduces paper Figs. 11-13 and 18 (TPC-C / OLTP): power, scaled
// transaction throughput, migrated data and the long-interval curve.
//
// Paper values: power 2656.4 W -> proposed 2238.1 W (-15.7%), PDC -10.7%,
// DDR ~0; throughput proposed 1701.4 tpmC (-8.5%), PDC/DDR worse;
// migrated PDC > 1 TB, DDR minimal; determinations 7 / 3 / ~90k; Fig. 18:
// DDR has no intervals beyond the break-even time.

#include <cstdio>
#include <iostream>
#include <map>

#include "bench/bench_util.h"
#include "bench/telemetry_capture.h"
#include "replay/report.h"
#include "replay/suite.h"
#include "workload/oltp_workload.h"

using namespace ecostore;  // NOLINT

int main(int argc, char** argv) {
  bench::InitBenchLogging();
  const std::string telemetry_base = bench::ParseTelemetryFlag(argc, argv);
  const std::string summary_path =
      bench::ParseTelemetrySummaryFlag(argc, argv);
  // --capture-only skips the four-policy figure suite and runs just the
  // instrumented capture: what the CI regression gate wants.
  const bool capture_only =
      bench::HasFlag(argc, argv, "--capture-only") && !telemetry_base.empty();
  bench::PrintHeader("Figs. 11-13, 18 — TPC-C (OLTP)",
                     "proposed -15.7% power at -8.5% tpmC; DDR saves "
                     "nothing");

  workload::OltpConfig wl_config;
  wl_config.duration = bench::MaybeShorten(
      static_cast<SimDuration>(1.8 * kHour), 30 * kMinute);

  if (capture_only) {
    replay::ExperimentConfig config;
    core::PowerManagementConfig pm;
    replay::ExperimentJob job;
    job.workload = replay::FactoryFor<workload::OltpWorkload>(wl_config);
    job.policy = replay::PaperPolicySet(pm)[1];
    job.config = config;
    // The OLTP stream emits ~7.5M events in quick mode; the default 2M
    // ring would wrap and starve the ledger of the oldest windows.
    return bench::CaptureTelemetry(telemetry_base, std::move(job),
                                   summary_path, 1u << 23);
  }

  auto workload = workload::OltpWorkload::Create(wl_config);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }

  replay::ExperimentConfig config;
  core::PowerManagementConfig pm;
  auto runs = replay::RunSuite(workload.value().get(),
                               replay::PaperPolicySet(pm), config);
  if (!runs.ok()) {
    std::cerr << runs.status().ToString() << "\n";
    return 1;
  }

  std::cout << "\n[Fig. 11] average power:\n";
  replay::PrintPowerTable(std::cout, runs.value());

  std::cout << "\n[Fig. 12] transaction throughput (scaled, paper "
               "\xC2\xA7VII-A.5):\n";
  const replay::ExperimentMetrics* base =
      replay::FindRun(runs.value(), "no_power_saving");
  for (const replay::ExperimentMetrics& m : runs.value()) {
    double tpmc = replay::ScaledTransactionThroughput(
        workload::OltpWorkload::kBaselineTpmC, *base, m);
    std::printf("  %-18s %8.1f tpmC (%+.1f%%)\n", m.policy.c_str(), tpmc,
                100.0 * (tpmc / workload::OltpWorkload::kBaselineTpmC - 1.0));
  }

  std::cout << "\n(read response behind the scaling)\n";
  replay::PrintResponseTable(std::cout, runs.value());

  std::cout << "\n[Fig. 13 + \xC2\xA7VII-D] migrated data / "
               "determinations:\n";
  replay::PrintMigrationTable(std::cout, runs.value());

  std::cout << "\n[Fig. 18] cumulative idle-interval length by threshold:\n";
  replay::PrintIntervalCdf(
      std::cout, runs.value(),
      {10 * kSecond, 30 * kSecond, 52 * kSecond, 2 * kMinute, 5 * kMinute});

  if (!telemetry_base.empty()) {
    // One extra instrumented run of the proposed method, after the
    // figures so the capture shares nothing with them.
    replay::ExperimentJob job;
    job.workload = replay::FactoryFor<workload::OltpWorkload>(wl_config);
    job.policy = replay::PaperPolicySet(pm)[1];
    job.config = config;
    return bench::CaptureTelemetry(telemetry_base, std::move(job),
                                   summary_path);
  }
  return 0;
}
