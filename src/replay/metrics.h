#ifndef ECOSTORE_REPLAY_METRICS_H_
#define ECOSTORE_REPLAY_METRICS_H_

#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "common/units.h"
#include "storage/power_meter.h"
#include "trace/io_record.h"

namespace ecostore::replay {

/// One point of the paper's Fig. 17-19 curves: the cumulative length of
/// all enclosure idle intervals at least `threshold` long.
struct IntervalCdfPoint {
  SimDuration threshold = 0;
  double cumulative_seconds = 0.0;
  int64_t count = 0;
};

/// \brief Everything measured during one experiment run (one workload x
/// one policy) — the simulated counterpart of the paper's power meter and
/// trace-replayer instrumentation (§VII-A.4).
struct ExperimentMetrics {
  std::string workload;
  std::string policy;
  SimDuration duration = 0;

  // --- Energy / power (Figs. 8, 11, 14) ---
  Joules enclosure_energy = 0.0;
  Joules controller_energy = 0.0;
  Watts avg_enclosure_power = 0.0;
  Watts avg_controller_power = 0.0;
  Watts avg_total_power = 0.0;

  // --- Response times (Figs. 9, 12, 15) ---
  Histogram response_us;       ///< all logical I/Os
  Histogram read_response_us;  ///< logical reads only
  double avg_response_ms = 0.0;
  double avg_read_response_ms = 0.0;

  // --- Volume counters ---
  int64_t logical_ios = 0;
  int64_t logical_reads = 0;
  int64_t physical_batches = 0;
  int64_t cache_hit_ios = 0;

  // --- Data movement (Figs. 10, 13, 16) ---
  int64_t migrated_bytes = 0;
  int64_t item_migrations = 0;
  int64_t block_migrations = 0;
  int64_t placement_determinations = 0;

  // --- Power-state activity ---
  int64_t spinups = 0;

  // --- Host-side execution cost (excluded from the replay fingerprint:
  // wall time is nondeterministic, simulator counters are diagnostics) ---
  double wall_seconds = 0.0;  ///< host wall-clock of Experiment::Run()
  int64_t monitoring_periods = 0;
  int64_t sim_events_executed = 0;
  int64_t sim_events_cancelled = 0;
  int64_t sim_peak_heap_depth = 0;

  // --- Per-tag accounting (TPC-H query-response model) ---
  /// Everything measured for one tag. `first_issue` / `last_completion`
  /// bracket the measured query wall time (start-to-last-I/O) under each
  /// policy; the read-response sum feeds the §VII-A.5 scaling model.
  /// `reads == 0` means the tag never issued a read (the sum is then
  /// meaningless and the scaling model falls back to the baseline).
  struct TagStats {
    double read_response_us_sum = 0.0;
    int64_t reads = 0;
    SimTime first_issue = 0;
    SimTime last_completion = 0;
  };
  /// One entry per tag seen; filled by the replay hot loop with a single
  /// map probe per tagged record.
  std::map<int32_t, TagStats> tag_stats;

  // --- Enclosure idle intervals (>= the configured notify floor) ---
  std::vector<SimDuration> idle_gaps;

  // --- Per-enclosure breakdown ---
  struct EnclosureStats {
    Joules energy = 0.0;
    int64_t served_ios = 0;
    int64_t spinups = 0;
    /// Fraction of the run spent actively serving I/O.
    double utilization = 0.0;
  };
  std::vector<EnclosureStats> per_enclosure;

  // --- Sampled power time series (when sampling was enabled) ---
  std::vector<storage::PowerSample> power_samples;

  /// Accounts one replayed logical I/O: the volume counters, the two
  /// response histograms and the per-tag stats (a single map probe: one
  /// node holds the read-response sum, the read count and the
  /// first-issue/last-completion bracket). Inline because both replay
  /// engines' hot loops run it once per logical I/O.
  void RecordLogicalIo(const trace::LogicalIoRecord& rec, SimDuration latency,
                       bool cache_hit) {
    logical_ios++;
    if (cache_hit) cache_hit_ios++;
    response_us.Add(latency);
    const bool is_read = rec.is_read();
    if (is_read) {
      logical_reads++;
      read_response_us.Add(latency);
    }
    if (rec.tag != 0) {
      auto [it, inserted] = tag_stats.try_emplace(rec.tag);
      TagStats& stats = it->second;
      if (inserted) stats.first_issue = rec.time;
      if (is_read) {
        stats.read_response_us_sum += static_cast<double>(latency);
        stats.reads++;
      }
      const SimTime completion = rec.time + latency;
      if (completion > stats.last_completion) {
        stats.last_completion = completion;
      }
    }
  }

  /// Evaluates the Fig. 17-19 curve at the given thresholds.
  std::vector<IntervalCdfPoint> IntervalCdf(
      const std::vector<SimDuration>& thresholds) const;

  /// Percentage power reduction of the enclosures relative to `baseline`.
  double EnclosurePowerSavingVs(const ExperimentMetrics& baseline) const;
};

/// Paper §VII-A.5: transaction throughput scaled by the read-response
/// ratio against the no-power-saving run:
///   t = t_orig * (r_orig / r).
double ScaledTransactionThroughput(double baseline_tpmc,
                                   const ExperimentMetrics& baseline,
                                   const ExperimentMetrics& run);

/// Paper §VII-A.5: per-query response time scaled by the summed read
/// response ratio: q = q_orig * (sum(r) / sum(r_orig)). `baseline_wall`
/// maps tag -> q_orig seconds. Note: under open-loop replay, spin-up
/// stalls inflate the response *sum* far more than the wall time; prefer
/// MeasuredQueryWallSeconds for Fig.-15-style comparisons.
std::map<int32_t, double> ScaledQueryResponses(
    const std::map<int32_t, double>& baseline_wall_seconds,
    const ExperimentMetrics& baseline, const ExperimentMetrics& run);

/// Directly measured query wall time per tag: last I/O completion minus
/// first I/O issue (seconds).
std::map<int32_t, double> MeasuredQueryWallSeconds(
    const ExperimentMetrics& run);

}  // namespace ecostore::replay

#endif  // ECOSTORE_REPLAY_METRICS_H_
