#include "telemetry/analysis/incremental_ledger.h"

#include <algorithm>
#include <cmath>

namespace ecostore::telemetry::analysis {

IncrementalEnergyLedger::IncrementalEnergyLedger(const ExportMeta& meta)
    : meta_(meta),
      idle_w_(meta.idle_power_w),
      spin_extra_j_((meta.spinup_power_w - meta.idle_power_w) *
                    ToSeconds(meta.spinup_time_us)),
      enc_(static_cast<size_t>(std::max(meta.num_enclosures, 0))) {}

void IncrementalEnergyLedger::Consume(const Event& event) {
  if (!group_.empty() && event.time != group_time_) ProcessGroup();
  group_time_ = event.time;
  group_.push_back(event);
}

void IncrementalEnergyLedger::AdvanceTo(SimTime frontier) {
  if (!group_.empty() && group_time_ < frontier) ProcessGroup();
}

void IncrementalEnergyLedger::Finish(const StreamFinal& final) {
  if (finished_) return;
  if (!group_.empty()) ProcessGroup();
  if (final.has_energy) {
    meta_.enclosure_energy_j = final.enclosure_energy_j;
    meta_.controller_energy_j = final.controller_energy_j;
  }
  if (meta_.duration <= 0) meta_.duration = final.at;
  finished_ = true;
}

void IncrementalEnergyLedger::ProbeWake(size_t i, EnclosureId enclosure,
                                        WakeCause* cause,
                                        DataItemId* item) const {
  // Looks around group_[i] for same-timestamp events that identify why
  // the enclosure woke up (flush / preload destaging beats an active
  // migration beats a plain demand miss), and for the kPhysicalIo detail
  // event naming the item whose I/O forced the wake. The same-timestamp
  // neighborhood is exactly the buffered group.
  *cause = enc_[static_cast<size_t>(enclosure)].active_migrations > 0
               ? WakeCause::kMigration
               : WakeCause::kDemand;
  *item = kInvalidDataItem;
  auto inspect = [&](const Event& e) {
    if (e.kind == EventKind::kCacheFlush && e.cache.enclosure == enclosure) {
      *cause = WakeCause::kFlush;
    } else if (e.kind == EventKind::kPreloadBegin &&
               e.cache.enclosure == enclosure &&
               *cause != WakeCause::kFlush) {
      *cause = WakeCause::kPreload;
    } else if (e.kind == EventKind::kPhysicalIo &&
               e.cache.enclosure == enclosure &&
               *item == kInvalidDataItem) {
      *item = e.cache.item;
    }
  };
  for (size_t j = i; j-- > 0;) inspect(group_[j]);
  for (size_t j = i + 1; j < group_.size(); ++j) inspect(group_[j]);
}

void IncrementalEnergyLedger::CloseWindow(EnclosureId enclosure, SimTime end,
                                          double joules, WakeCause cause,
                                          DataItemId wake_item,
                                          bool terminal) {
  EncState& s = enc_[static_cast<size_t>(enclosure)];
  OffWindow w;
  w.enclosure = enclosure;
  w.start = s.off_since;
  w.end = end;
  w.plan = s.off_plan;
  w.actual_j = joules - s.off_joules;
  const SimDuration dwell = SaturatingSub(end, s.off_since);
  w.credit_j = idle_w_ * ToSeconds(dwell) - w.actual_j;
  w.debit_j = terminal ? 0.0 : spin_extra_j_;
  w.wake = cause;
  w.wake_item = wake_item;
  w.mispredict = !terminal && dwell < meta_.break_even_us;
  if (wake_item != kInvalidDataItem) {
    auto it = last_decision_.find(wake_item);
    if (it != last_decision_.end()) {
      w.has_culprit = true;
      w.culprit = it->second;
    }
  }
  base_.off_credit_j += w.credit_j;
  base_.off_debit_j += w.debit_j;
  base_.off_actual_j += w.actual_j;
  base_.off_dwell_us = SaturatingAdd(base_.off_dwell_us, dwell);
  if (w.mispredict) {
    base_.mispredicts++;
    base_.mispredict_loss_j += w.debit_j - w.credit_j;
  }
  base_.off_windows.push_back(w);
  s.off = false;
}

void IncrementalEnergyLedger::ProcessOne(size_t i) {
  const Event& e = group_[i];
  const int n = static_cast<int>(enc_.size());
  switch (e.kind) {
    case EventKind::kPowerState: {
      if (e.power.enclosure < 0) break;
      if (e.power.enclosure >= n) {
        // A live stream cannot pre-scan; grow on sight (see the header's
        // documented deviation — BuildLedger sizes the table up front).
        enc_.resize(static_cast<size_t>(e.power.enclosure) + 1);
      }
      EncState& s = enc_[static_cast<size_t>(e.power.enclosure)];
      if (e.power.state == 0) {  // Off
        s.off = true;
        s.off_since = e.time;
        s.off_joules = e.power.joules;
        s.off_plan = e.power.plan;
      } else if (e.power.state == 1 && s.off) {  // SpinningUp
        WakeCause cause;
        DataItemId item;
        ProbeWake(i, e.power.enclosure, &cause, &item);
        CloseWindow(e.power.enclosure, e.time, e.power.joules, cause, item,
                    /*terminal=*/false);
      }
      break;
    }
    case EventKind::kEnergyFinal: {
      if (e.power.enclosure == kInvalidEnclosure) {
        controller_final_ = true;
        controller_j_ = e.power.joules;
        break;
      }
      if (e.power.enclosure < 0 || e.power.enclosure >= n) break;
      EncState& s = enc_[static_cast<size_t>(e.power.enclosure)];
      if (s.off) {
        CloseWindow(e.power.enclosure, e.time, e.power.joules,
                    WakeCause::kRunEnd, kInvalidDataItem, /*terminal=*/true);
      }
      s.has_final = true;
      s.final_j = e.power.joules;
      break;
    }
    case EventKind::kMigrationBegin:
    case EventKind::kMigrationEnd: {
      const int delta = e.kind == EventKind::kMigrationBegin ? 1 : -1;
      for (EnclosureId enclosure : {e.migration.from, e.migration.to}) {
        if (enclosure >= 0 && enclosure < n) {
          int& c = enc_[static_cast<size_t>(enclosure)].active_migrations;
          c = std::max(0, c + delta);
        }
      }
      if (e.kind == EventKind::kMigrationEnd && e.migration.bytes >= 0) {
        base_.migrations++;
      }
      break;
    }
    case EventKind::kDecision: {
      base_.decisions++;
      last_decision_[e.decision.item] = e.decision;
      const int32_t plan = e.decision.plan;
      auto [it, inserted] = plan_start_.emplace(plan, e.time);
      if (!inserted) it->second = std::min(it->second, e.time);
      break;
    }
    case EventKind::kPreloadBegin:
      base_.preloads++;
      pending_.push_back(PendingCache{AdvisoryEntry::Kind::kPreload,
                                      e.cache.item, e.cache.enclosure, e.time,
                                      e.cache.plan, e.cache.bytes});
      break;
    case EventKind::kWriteDelaySet: {
      base_.write_delays++;
      legacy_wd_.push_back(PendingCache{AdvisoryEntry::Kind::kWriteDelay,
                                        e.cache.item, e.cache.enclosure,
                                        e.time, e.cache.plan, e.cache.bytes});
      auto [it, inserted] = first_wd_in_plan_.emplace(e.cache.plan, e.time);
      if (!inserted) it->second = std::min(it->second, e.time);
      break;
    }
    case EventKind::kWriteDelayAdmit: {
      base_.write_delay_admits++;
      pending_.push_back(PendingCache{AdvisoryEntry::Kind::kWriteDelay,
                                      e.cache.item, e.cache.enclosure, e.time,
                                      e.cache.plan, e.cache.bytes});
      auto [it, inserted] = first_wd_in_plan_.emplace(e.cache.plan, e.time);
      if (!inserted) it->second = std::min(it->second, e.time);
      break;
    }
    case EventKind::kWriteDelayFlush: {
      base_.write_delay_flushes++;
      base_.write_delay_flush_bytes += e.cache.bytes;
      break;
    }
    default:
      break;
  }
}

void IncrementalEnergyLedger::ProcessGroup() {
  for (size_t i = 0; i < group_.size(); ++i) ProcessOne(i);
  group_.clear();
}

EnergyLedger IncrementalEnergyLedger::Snapshot() const {
  EnergyLedger ledger = base_;
  const int n = static_cast<int>(enc_.size());

  ledger.plans = plan_start_.empty()
                     ? 0
                     : static_cast<int64_t>(plan_start_.rbegin()->first);

  // Per-item write-delay attribution when the capture carries membership
  // deltas; otherwise keep the old set-level advisory entries.
  std::vector<PendingCache> pending = pending_;
  ledger.per_item_write_delay = ledger.write_delay_admits > 0;
  if (!ledger.per_item_write_delay) {
    pending.insert(pending.end(), legacy_wd_.begin(), legacy_wd_.end());
  }

  // Reconciliation: the per-component cumulative counters at the horizon
  // must telescope to the run's measured totals. %.17g round-trips, so a
  // capture/parse cycle keeps this exact.
  bool all_finals = controller_final_ && n > 0;
  double sum_final = 0.0;
  for (const EncState& s : enc_) {
    all_finals = all_finals && s.has_final;
    sum_final += s.final_j;
  }
  ledger.has_finals = all_finals;
  if (all_finals) {
    ledger.ledger_enclosure_j = sum_final;
    ledger.ledger_controller_j = controller_j_;
    const double measured =
        meta_.enclosure_energy_j + meta_.controller_energy_j;
    const double accounted = sum_final + controller_j_;
    const double denom = std::max(std::fabs(measured), 1e-12);
    ledger.reconcile_rel_err = std::fabs(accounted - measured) / denom;
  }

  // Advisory resolution (documented model; excluded from reconciliation).
  auto plan_end = [&](int32_t plan) -> SimTime {
    auto it = plan_start_.upper_bound(plan);
    return it != plan_start_.end() ? it->second : meta_.duration;
  };
  auto off_windows_after = [&](EnclosureId enclosure, SimTime from,
                               SimTime until) {
    int64_t count = 0;
    for (const OffWindow& w : ledger.off_windows) {
      if (w.enclosure == enclosure && w.start >= from && w.start < until) {
        count++;
      }
    }
    return count;
  };
  const double cache_bytes =
      std::max<double>(1.0, static_cast<double>(meta_.cache_total_bytes));
  for (const PendingCache& p : pending) {
    AdvisoryEntry a;
    a.kind = p.kind;
    a.item = p.item;
    a.enclosure = p.enclosure;
    a.time = p.time;
    a.plan = p.plan;
    const SimTime end = std::max(plan_end(p.plan), p.time);
    const int64_t later_off = off_windows_after(p.enclosure, p.time, end);
    // Credit at most one avoided spin-up per entry, and only when the
    // enclosure actually went off later in the plan (otherwise holding
    // the data in cache avoided nothing).
    a.credit_j = later_off > 0 ? spin_extra_j_ : 0.0;
    if (p.kind == AdvisoryEntry::Kind::kPreload) {
      a.debit_j = meta_.controller_power_w *
                  (static_cast<double>(p.bytes) / cache_bytes) *
                  ToSeconds(end - p.time);
    }
    ledger.advisory_credit_j += a.credit_j;
    ledger.advisory_debit_j += a.debit_j;
    ledger.advisory.push_back(a);
  }
  // Write-delay occupancy: one debit per plan for the reserved area, not
  // per item (the area is shared by the plan's whole write-delay set).
  for (const auto& [plan, first_t] : first_wd_in_plan_) {
    AdvisoryEntry a;
    a.kind = AdvisoryEntry::Kind::kWriteDelayOccupancy;
    a.time = first_t;
    a.plan = plan;
    const SimTime end = std::max(plan_end(plan), first_t);
    a.debit_j = meta_.controller_power_w *
                (static_cast<double>(meta_.write_delay_area_bytes) /
                 cache_bytes) *
                ToSeconds(end - first_t);
    ledger.advisory_debit_j += a.debit_j;
    ledger.advisory.push_back(a);
  }
  return ledger;
}

}  // namespace ecostore::telemetry::analysis
