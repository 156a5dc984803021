#ifndef ECOSTORE_TESTS_INSTRUMENTED_RUN_H_
#define ECOSTORE_TESTS_INSTRUMENTED_RUN_H_

// A file-server replay captured with the full telemetry class mask and a
// latency book attached: the input of the ledger, summary and
// rolling-consumer tests.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "bench/telemetry_capture.h"
#include "core/eco_storage_policy.h"
#include "policies/basic_policies.h"
#include "workload/file_server_workload.h"

namespace ecostore::telemetry {

struct CapturedRun {
  ExportMeta meta;
  std::vector<Event> events;
  replay::ExperimentMetrics metrics;

  /// The run-end record the engine hands its stream consumers.
  StreamFinal Final() const {
    StreamFinal fin;
    fin.at = meta.duration;
    fin.enclosure_energy_j = metrics.enclosure_energy;
    fin.controller_energy_j = metrics.controller_energy;
    fin.has_energy = true;
    return fin;
  }
};

/// Replays the file server for `duration` under the proposed policy
/// (`eco`) or no power saving. The 20-minute default spans two
/// monitoring periods, so spin-downs, preloads and write-delays all fire.
inline CapturedRun RunInstrumented(uint64_t seed = 42, bool eco = true,
                                   SimDuration duration = 20 * kMinute) {
  CapturedRun out;
  workload::FileServerConfig wl;
  wl.duration = duration;
  wl.seed = seed;
  auto workload = workload::FileServerWorkload::Create(wl);
  EXPECT_TRUE(workload.ok());
  std::unique_ptr<policies::StoragePolicy> policy;
  if (eco) {
    policy = std::make_unique<core::EcoStoragePolicy>(
        core::PowerManagementConfig{});
  } else {
    policy = std::make_unique<policies::NoPowerSavingPolicy>();
  }
  Recorder::Options options;
  options.thread_buffer_capacity = 1u << 20;
  options.mask = kClassAll;
  Recorder recorder(options);
  analysis::LatencyBook book;
  replay::ExperimentConfig config;
  config.telemetry = &recorder;
  config.latency_book = &book;
  replay::Experiment experiment(workload.value().get(), policy.get(),
                                config);
  auto metrics = experiment.Run();
  EXPECT_TRUE(metrics.ok());
  EXPECT_EQ(recorder.dropped(), 0u);
  out.metrics = metrics.value();
  out.meta = bench::BuildCaptureMeta(metrics.value(), *experiment.system(),
                                     &book);
  out.events = recorder.Drain();
  // The book records exactly one latency per logical I/O.
  EXPECT_EQ(book.total_count(), out.metrics.logical_ios);
  return out;
}

}  // namespace ecostore::telemetry

#endif  // ECOSTORE_TESTS_INSTRUMENTED_RUN_H_
