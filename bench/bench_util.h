#ifndef ECOSTORE_BENCH_BENCH_UTIL_H_
#define ECOSTORE_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure-reproduction benchmarks.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "common/logging.h"
#include "common/sim_time.h"

namespace ecostore::bench {

/// Returns the value of a `--flag=value` argument; empty when absent.
/// `prefix` includes the '=' (e.g. "--telemetry="). When the flag is
/// repeated the first occurrence wins, for every flag parsed here.
inline std::string ParseFlagValue(int argc, char** argv,
                                  const std::string& prefix) {
  for (int i = 1; i < argc; ++i) {
    std::string arg(argv[i]);
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

/// Parses a `--threads=N` argument (default 1 == today's serial
/// behaviour). `--threads=0` means "all hardware threads". Unknown
/// arguments are left alone for the caller.
inline int ParseThreadsFlag(int argc, char** argv) {
  const std::string v = ParseFlagValue(argc, argv, "--threads=");
  const int threads = v.empty() ? 1 : std::atoi(v.c_str());
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Parses a `--shards=S` argument: the lane count of the sharded replay
/// engine for `bench_micro --check/--record`, the only reader. Default
/// 1 == the serial engine; distinct from `--threads`, which runs whole
/// experiments concurrently. Values below 1 are floored to 1.
inline int ParseShardsFlag(int argc, char** argv) {
  const std::string v = ParseFlagValue(argc, argv, "--shards=");
  return v.empty() ? 1 : std::max(1, std::atoi(v.c_str()));
}

/// True when `--flag` (exact) is present.
inline bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Parses a `--telemetry=<base>` argument; empty when absent. The base
/// names the export set written by telemetry::ExportAll
/// (`<base>.jsonl`, `<base>.power.csv`, `<base>.trace.json`).
inline std::string ParseTelemetryFlag(int argc, char** argv) {
  return ParseFlagValue(argc, argv, "--telemetry=");
}

/// Parses a `--profile=<base>` argument; empty when absent. The base
/// names the wall-clock profile export pair written by
/// telemetry::profile::ExportProfile (`<base>.profile.jsonl` and
/// `<base>.profile.trace.json`).
inline std::string ParseProfileFlag(int argc, char** argv) {
  return ParseFlagValue(argc, argv, "--profile=");
}

/// Parses a `--telemetry-summary=<path>` argument; empty when absent.
/// Names the machine-readable summary JSON written from the capture run
/// (requires --telemetry as the event source).
inline std::string ParseTelemetrySummaryFlag(int argc, char** argv) {
  return ParseFlagValue(argc, argv, "--telemetry-summary=");
}

/// Parses `--rolling-summary=<path>`: the append-only rolling-window
/// JSONL the instrumented capture run streams while it executes
/// (followed live by `eco_report tail <path>`). Empty when absent —
/// rolling mode off. Requires --telemetry as the event source.
inline std::string ParseRollingSummaryFlag(int argc, char** argv) {
  return ParseFlagValue(argc, argv, "--rolling-summary=");
}

/// Parses `--rolling-window=<sec>`: the rolling-window length in sim
/// seconds (default 60 s). Values <= 0 fall back to the default.
inline SimDuration ParseRollingWindowFlag(int argc, char** argv) {
  const std::string v = ParseFlagValue(argc, argv, "--rolling-window=");
  if (v.empty()) return kMinute;
  const double sec = std::atof(v.c_str());
  if (sec <= 0) return kMinute;
  return static_cast<SimDuration>(sec * static_cast<double>(kSecond));
}

/// True when ECOSTORE_QUICK=1: benchmarks run shortened workloads (for CI
/// and smoke runs); otherwise the paper's full durations are used.
inline bool QuickMode() {
  const char* env = std::getenv("ECOSTORE_QUICK");
  return env != nullptr && std::string(env) == "1";
}

inline SimDuration MaybeShorten(SimDuration full, SimDuration quick) {
  return QuickMode() ? quick : full;
}

inline void PrintHeader(const std::string& title,
                        const std::string& paper_reference) {
  std::cout << "==========================================================\n"
            << title << "\n"
            << "paper reference: " << paper_reference << "\n"
            << "==========================================================\n";
}

inline void InitBenchLogging() {
  const char* env = std::getenv("ECOSTORE_LOG");
  Logger::threshold = (env != nullptr && std::string(env) == "debug")
                          ? LogLevel::kDebug
                          : LogLevel::kWarn;
}

}  // namespace ecostore::bench

#endif  // ECOSTORE_BENCH_BENCH_UTIL_H_
