#ifndef ECOSTORE_TELEMETRY_PROFILE_PROFILE_EXPORT_H_
#define ECOSTORE_TELEMETRY_PROFILE_PROFILE_EXPORT_H_

// Exporters for a drained wall-clock profile (DESIGN.md §15):
//  - JSONL: a profile_meta line followed by one span object per line —
//    the interchange format `eco_report profile` reads back;
//  - Chrome trace_event JSON: the *real-time* track. The sim-time trace
//    (telemetry/export.cc) uses pids 0–3 with ts = simulated µs; this
//    file uses pid 10 with ts = wall-clock µs since the profiler epoch,
//    one tid per lane. The two clock domains are correlated by the span
//    `seq` ids (period index serial / epoch index sharded), which match
//    the kPeriodBoundary indices in the sim-time stream.
//
// Compiled unconditionally (plain vectors of Span): an
// ECOSTORE_PROFILE=OFF build of eco_report still reads captures written
// by enabled builds.

#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/profile/profiler.h"

namespace ecostore::telemetry::profile {

/// Run identification + engine-level wall figures written into every
/// profile export. The pool_* figures are the common::ThreadPool stats
/// snapshot (the same numbers the engine publishes as telemetry gauges,
/// so `eco_report` and the profiler share one source of truth).
struct ProfileMeta {
  std::string workload;
  std::string policy;
  int host_cpus = 0;
  int64_t wall_ns = 0;  ///< whole-run wall time (engine entry to exit)
  uint64_t spans = 0;
  uint64_t dropped = 0;

  /// common::ThreadPool::Stats at engine exit (all zero when the run had
  /// no pool, i.e. the serial engine).
  int pool_workers = 0;
  int64_t pool_tasks = 0;
  int64_t pool_busy_ns = 0;
  int64_t pool_peak_queue = 0;
};

Status WriteProfileJsonl(const std::string& path, const ProfileMeta& meta,
                         const std::vector<Span>& spans);

/// Parses a WriteProfileJsonl file back. Unknown "type" values are
/// skipped so the format can grow; a missing meta line or a span count
/// that disagrees with the meta header fails with the line number.
Status ParseProfileJsonl(const std::string& path, ProfileMeta* meta,
                         std::vector<Span>* spans);

Status WriteProfileTrace(const std::string& path, const ProfileMeta& meta,
                         const std::vector<Span>& spans);

/// Writes both exports: `<base>.profile.jsonl` and
/// `<base>.profile.trace.json` (a trailing ".profile.jsonl" or ".jsonl"
/// on `base` is stripped first, so `--profile=run.profile.jsonl` and
/// `--profile=run` are equivalent).
Status ExportProfile(const std::string& base, const ProfileMeta& meta,
                     const std::vector<Span>& spans);

/// Phase numeric value for a PhaseName() string; Phase::kNone when the
/// name is unknown (captures from newer builds).
Phase PhaseFromName(const std::string& name);

}  // namespace ecostore::telemetry::profile

#endif  // ECOSTORE_TELEMETRY_PROFILE_PROFILE_EXPORT_H_
