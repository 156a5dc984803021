#ifndef ECOSTORE_TELEMETRY_ANALYSIS_ENERGY_LEDGER_H_
#define ECOSTORE_TELEMETRY_ANALYSIS_ENERGY_LEDGER_H_

// Energy-attribution ledger: walks a drained telemetry stream (in-process
// or parsed back from a JSONL capture) and charges joules to the
// individual decisions that caused them.
//
// The exact account is the *off-window* ledger. Every kPowerState event
// carries the enclosure's cumulative energy counter at the event instant,
// so an Off -> SpinningUp pair bounds a window whose measured energy is a
// plain difference of counters; windows are disjoint, and together with
// the kEnergyFinal events they telescope to exactly the run's
// ExperimentMetrics energy (reconcile_rel_err below). Per window:
//
//   credit = idle_power * dwell - measured        (energy saved vs idling)
//   debit  = (spinup_power - idle_power) * t_su   (extra paid to wake up)
//
// A window whose dwell is shorter than the configured break-even time has
// credit < debit by construction: the spin-down lost energy. Those are
// the *mispredicts*; each is tied back to the plan epoch that allowed the
// spin-down and — when the per-I/O detail class was recorded — to the
// classification decision (with its recorded reason) of the item whose
// demand I/O forced the wake-up.
//
// Preload / write-delay entries are *advisory*: their true savings (the
// spin-ups that did not happen) are counterfactual, so they use a
// documented model — credit one avoided spin-up if the target enclosure
// actually went off later in the same plan, debit the controller power
// share of the cache space held for the plan's remainder. Advisory
// entries are reported separately and excluded from reconciliation.

#include <cstdint>
#include <vector>

#include "telemetry/export.h"

namespace ecostore::telemetry::analysis {

/// Why an off window ended.
enum class WakeCause : uint8_t {
  kDemand = 0,     ///< demand read miss reached the enclosure
  kFlush = 1,      ///< cache flush destaged to the enclosure
  kPreload = 2,    ///< a preload bulk read targeted the enclosure
  kMigration = 3,  ///< an active migration touched the enclosure
  kRunEnd = 4,     ///< still off at the horizon (terminal window)
};

const char* WakeCauseName(WakeCause cause);

/// One enclosure power-off window, exactly accounted.
struct OffWindow {
  EnclosureId enclosure = kInvalidEnclosure;
  SimTime start = 0;
  SimTime end = 0;
  int32_t plan = 0;  ///< plan epoch in force when the spin-down fired
  double actual_j = 0.0;  ///< measured joules while off (counter delta)
  double credit_j = 0.0;  ///< idle_power * dwell - actual_j
  double debit_j = 0.0;   ///< spin-up extra over idle; 0 for terminal
  WakeCause wake = WakeCause::kDemand;
  DataItemId wake_item = kInvalidDataItem;  ///< item of the waking I/O
  bool mispredict = false;  ///< non-terminal and dwell < break-even
  bool has_culprit = false;
  /// Latest classification of wake_item before the wake (the decision —
  /// with its recorded reason fields — that mispredicted the item).
  DecisionPayload culprit;
};

/// One advisory (model-based) cache-decision entry.
struct AdvisoryEntry {
  enum class Kind : uint8_t {
    kPreload = 0,            ///< one kPreloadBegin
    kWriteDelay = 1,         ///< one item entering the write-delay set
    kWriteDelayOccupancy = 2 ///< per-plan write-delay area occupancy debit
  };
  Kind kind = Kind::kPreload;
  DataItemId item = kInvalidDataItem;
  EnclosureId enclosure = kInvalidEnclosure;
  SimTime time = 0;
  int32_t plan = 0;
  double credit_j = 0.0;
  double debit_j = 0.0;
};

const char* AdvisoryKindName(AdvisoryEntry::Kind kind);

struct EnergyLedger {
  std::vector<OffWindow> off_windows;
  std::vector<AdvisoryEntry> advisory;

  // Exact off-window account.
  double off_credit_j = 0.0;
  double off_debit_j = 0.0;
  double off_actual_j = 0.0;
  SimDuration off_dwell_us = 0;
  int64_t mispredicts = 0;
  double mispredict_loss_j = 0.0;  ///< sum of (debit - credit) over them

  // Advisory account (model estimates, not reconciled).
  double advisory_credit_j = 0.0;
  double advisory_debit_j = 0.0;

  // Reconciliation against the run's measured energy: the kEnergyFinal
  // counters must telescope to meta.enclosure_energy_j +
  // meta.controller_energy_j. has_finals is false for captures from
  // builds that predate kEnergyFinal (reconciliation then untestable).
  bool has_finals = false;
  double ledger_enclosure_j = 0.0;
  double ledger_controller_j = 0.0;
  double reconcile_rel_err = 0.0;

  // Stream tallies used by the summary.
  int64_t plans = 0;
  int64_t decisions = 0;
  int64_t migrations = 0;
  int64_t preloads = 0;
  int64_t write_delays = 0;

  // Per-item write-delay attribution (DESIGN.md §10). True when the
  // capture carries kWriteDelayAdmit/kWriteDelayFlush membership deltas;
  // advisory kWriteDelay entries are then per item with a real enclosure
  // (so the avoided-spin-up credit model applies). Captures from builds
  // that only emitted the set-level kWriteDelaySet aggregate fall back to
  // one enclosure-less advisory entry per set update.
  bool per_item_write_delay = false;
  int64_t write_delay_admits = 0;
  int64_t write_delay_flushes = 0;
  int64_t write_delay_flush_bytes = 0;
};

/// Builds the ledger from a time-ordered event stream. `meta` must carry
/// the power model (has_power_model); otherwise only the stream tallies
/// are filled. This is IncrementalEnergyLedger (incremental_ledger.h)
/// folded over the whole capture, so the batch and live ledgers share
/// one walk.
EnergyLedger BuildLedger(const ExportMeta& meta,
                         const std::vector<Event>& events);

}  // namespace ecostore::telemetry::analysis

#endif  // ECOSTORE_TELEMETRY_ANALYSIS_ENERGY_LEDGER_H_
