#include "telemetry/analysis/energy_ledger.h"

#include "telemetry/analysis/incremental_ledger.h"

namespace ecostore::telemetry::analysis {

const char* WakeCauseName(WakeCause cause) {
  switch (cause) {
    case WakeCause::kDemand: return "demand";
    case WakeCause::kFlush: return "flush";
    case WakeCause::kPreload: return "preload";
    case WakeCause::kMigration: return "migration";
    case WakeCause::kRunEnd: return "run_end";
  }
  return "?";
}

const char* AdvisoryKindName(AdvisoryEntry::Kind kind) {
  switch (kind) {
    case AdvisoryEntry::Kind::kPreload: return "preload";
    case AdvisoryEntry::Kind::kWriteDelay: return "write_delay";
    case AdvisoryEntry::Kind::kWriteDelayOccupancy:
      return "write_delay_occupancy";
  }
  return "?";
}

EnergyLedger BuildLedger(const ExportMeta& meta,
                         const std::vector<Event>& events) {
  // Size the enclosure table off the whole capture first, so an event that
  // names an enclosure above meta.num_enclosures before that enclosure's
  // first kPowerState is still tracked (the streaming walker only grows
  // the table when the kPowerState arrives).
  ExportMeta sized = meta;
  for (const Event& e : events) {
    if (e.kind == EventKind::kPowerState &&
        e.power.enclosure >= sized.num_enclosures) {
      sized.num_enclosures = e.power.enclosure + 1;
    }
  }
  IncrementalEnergyLedger ledger(sized);
  for (const Event& e : events) ledger.Consume(e);
  // Finish, not AdvanceTo(INT64_MAX): the frontier is exclusive, so a
  // group stamped INT64_MAX would stay buffered.
  StreamFinal final;
  final.at = meta.duration;
  ledger.Finish(final);
  return ledger.Snapshot();
}

}  // namespace ecostore::telemetry::analysis
