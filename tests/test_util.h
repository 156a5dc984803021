#ifndef ECOSTORE_TESTS_TEST_UTIL_H_
#define ECOSTORE_TESTS_TEST_UTIL_H_

// Helpers shared by the test binaries.

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

#include "core/power_management.h"
#include "monitor/snapshot.h"

namespace ecostore {

/// A scratch path under gtest's temp dir that is unique to this test
/// process. `ctest -j` runs the binaries concurrently against one temp
/// dir, so a bare file name used by two binaries would race.
inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/ecostore_" + std::to_string(::getpid()) +
         "_" + name;
}

/// Runs `function` over a period captured in `snapshot.application`,
/// first feeding the captured records to its classifier the way the
/// monitor sink does during a replay.
inline core::ManagementPlan RunCapturedPeriod(
    core::PowerManagementFunction* function,
    const monitor::MonitorSnapshot& snapshot,
    const storage::StorageSystem& system, SimDuration current_period,
    bool force_full = false) {
  core::PatternClassifier* classifier = function->classifier();
  classifier->BeginPeriod(snapshot.period_start);
  for (const trace::LogicalIoRecord& rec :
       snapshot.application->buffer().records()) {
    classifier->OnLogicalIo(rec);
  }
  return function->Run(snapshot, system, current_period, force_full);
}

}  // namespace ecostore

#endif  // ECOSTORE_TESTS_TEST_UTIL_H_
