#ifndef ECOSTORE_TELEMETRY_ANALYSIS_INCREMENTAL_LEDGER_H_
#define ECOSTORE_TELEMETRY_ANALYSIS_INCREMENTAL_LEDGER_H_

// The energy-ledger walk (energy_ledger.h): folds the telemetry stream
// event-by-event so a running replay exposes a live energy ledger, and
// BuildLedger is this same fold over a whole capture. The batch walk it
// replaced is frozen in bench/legacy_ledger.h as the differential oracle
// — tests assert exact (bitwise-double) equality at every window boundary.
//
// Equivalence argument (DESIGN.md §14). The batch walk is a single
// forward pass whose only non-local step is probe_wake, which inspects
// the same-timestamp neighborhood of a SpinningUp edge. The fold
// therefore buffers the current same-timestamp group and replays the
// identical switch over the group once a later-time event (or an
// AdvanceTo frontier) proves the group complete; probe_wake's backward
// and forward scans are exactly a scan over that group. Every remaining
// ledger output is a pure function of walker state plus the meta (plan
// tallies, advisory resolution, reconciliation), computed by Snapshot()
// on copies without disturbing the stream state. A frontier B never
// splits a timestamp group (frontiers are exclusive), so after
// AdvanceTo(B), Snapshot() == BuildLedger(meta, {e : e.time < B})
// field-for-field, doubles bitwise.
//
// One documented deviation, on the streaming path only: BuildLedger
// pre-scans the whole capture to size the per-enclosure table off
// out-of-range kPowerState events before folding; a live stream cannot
// look ahead, so the walker grows the table when the kPowerState
// arrives. A streaming ledger and BuildLedger over the same events
// differ only for captures where an event references an enclosure above
// meta.num_enclosures *before* that enclosure's first kPowerState —
// impossible for engine-produced captures, whose meta always covers the
// fleet.

#include <cstdint>
#include <unordered_map>
#include <map>
#include <vector>

#include "telemetry/analysis/energy_ledger.h"
#include "telemetry/stream_consumer.h"

namespace ecostore::telemetry::analysis {

/// \brief The ledger walk: Consume events in (time, shard) drain order,
/// Snapshot at any frontier. Also a StreamConsumer so it can hang
/// directly off a StreamDispatcher.
class IncrementalEnergyLedger : public StreamConsumer {
 public:
  explicit IncrementalEnergyLedger(const ExportMeta& meta);

  /// Folds one event (must arrive in batch-drain order). Same-timestamp
  /// events are buffered until a later time or frontier completes them.
  void Consume(const Event& event);

  /// Declares that no event with time < `frontier` will follow; flushes
  /// the buffered group if it lies below the frontier.
  void AdvanceTo(SimTime frontier);

  /// End of stream: flushes everything and installs the measured final
  /// energies into the meta so Snapshot() reconciles.
  void Finish(const StreamFinal& final);

  /// The full ledger for the events processed so far (call AdvanceTo
  /// first so the current group is included). Runs the tail passes — plan tallies, reconciliation, advisory
  /// resolution — on copies; O(off_windows + cache entries).
  EnergyLedger Snapshot() const;

  /// The exact-account running state without the tail passes: off-window
  /// list and cumulative credit/debit/actual/dwell, mispredicts, stream
  /// tallies. Advisory/reconciliation/plans fields are UNSET here — cheap
  /// enough to read per rolling window.
  const EnergyLedger& exact() const { return base_; }

  const ExportMeta& meta() const { return meta_; }
  bool finished() const { return finished_; }

  // StreamConsumer:
  void OnEvent(const Event& event) override { Consume(event); }
  void OnFrontier(SimTime frontier) override { AdvanceTo(frontier); }
  void OnFinish(const StreamFinal& final) override { Finish(final); }

 private:
  /// Per-enclosure walker state.
  struct EncState {
    bool off = false;
    SimTime off_since = 0;
    double off_joules = 0.0;
    int32_t off_plan = 0;
    int active_migrations = 0;
    bool has_final = false;
    double final_j = 0.0;
  };

  /// Unresolved advisory raw material, resolved by Snapshot().
  struct PendingCache {
    AdvisoryEntry::Kind kind;
    DataItemId item;
    EnclosureId enclosure;
    SimTime time;
    int32_t plan;
    int64_t bytes;
  };

  void ProcessGroup();
  void ProcessOne(size_t i);
  void ProbeWake(size_t i, EnclosureId enclosure, WakeCause* cause,
                 DataItemId* item) const;
  void CloseWindow(EnclosureId enclosure, SimTime end, double joules,
                   WakeCause cause, DataItemId wake_item, bool terminal);

  ExportMeta meta_;
  double idle_w_ = 0.0;
  double spin_extra_j_ = 0.0;

  std::vector<Event> group_;  ///< buffered maximal same-timestamp run
  SimTime group_time_ = 0;

  std::vector<EncState> enc_;
  bool controller_final_ = false;
  double controller_j_ = 0.0;
  std::map<int32_t, SimTime> plan_start_;
  std::unordered_map<DataItemId, DecisionPayload> last_decision_;
  std::vector<PendingCache> pending_;
  std::vector<PendingCache> legacy_wd_;
  std::map<int32_t, SimTime> first_wd_in_plan_;

  EnergyLedger base_;  ///< exact account + stream tallies (see exact())
  bool finished_ = false;
};

}  // namespace ecostore::telemetry::analysis

#endif  // ECOSTORE_TELEMETRY_ANALYSIS_INCREMENTAL_LEDGER_H_
