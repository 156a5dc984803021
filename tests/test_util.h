#ifndef ECOSTORE_TESTS_TEST_UTIL_H_
#define ECOSTORE_TESTS_TEST_UTIL_H_

// Helpers shared by the test binaries.

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace ecostore {

/// A scratch path under gtest's temp dir that is unique to this test
/// process. `ctest -j` runs the binaries concurrently against one temp
/// dir, so a bare file name used by two binaries would race.
inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/ecostore_" + std::to_string(::getpid()) +
         "_" + name;
}

}  // namespace ecostore

#endif  // ECOSTORE_TESTS_TEST_UTIL_H_
