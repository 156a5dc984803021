#include "telemetry/analysis/rolling_summary.h"

#include <algorithm>
#include <map>

#include "telemetry/analysis/summary.h"
#include "telemetry/flat_json.h"

namespace ecostore::telemetry::analysis {

namespace {

// The exact-account scalars a window reports as the change in the
// ledger's cumulative value since the previous close.
template <typename T>
struct Delta {
  T RollingWindow::*window;
  T EnergyLedger::*ledger;
};

constexpr Delta<double> kEnergyDeltas[] = {
    {&RollingWindow::credit_j, &EnergyLedger::off_credit_j},
    {&RollingWindow::debit_j, &EnergyLedger::off_debit_j},
    {&RollingWindow::actual_j, &EnergyLedger::off_actual_j},
    {&RollingWindow::mispredict_loss_j, &EnergyLedger::mispredict_loss_j},
};

constexpr Delta<int64_t> kCountDeltas[] = {
    {&RollingWindow::dwell_us, &EnergyLedger::off_dwell_us},
    {&RollingWindow::mispredicts, &EnergyLedger::mispredicts},
    {&RollingWindow::decisions, &EnergyLedger::decisions},
    {&RollingWindow::migrations, &EnergyLedger::migrations},
    {&RollingWindow::preloads, &EnergyLedger::preloads},
    {&RollingWindow::write_delays, &EnergyLedger::write_delays},
    {&RollingWindow::write_delay_admits, &EnergyLedger::write_delay_admits},
    {&RollingWindow::write_delay_flushes,
     &EnergyLedger::write_delay_flushes},
    {&RollingWindow::write_delay_flush_bytes,
     &EnergyLedger::write_delay_flush_bytes},
};

}  // namespace

RollingSummary::RollingSummary(const ExportMeta& meta, const Options& options)
    : options_(options), ledger_(meta) {
  if (options_.window_us <= 0) options_.window_us = kMinute;
  if (options_.retention == 0) options_.retention = 1;
  win_start_ = 0;
  win_end_ = options_.window_us;
  WriteMetaLine();
}

void RollingSummary::OnEvent(const Event& event) {
  // Windows the event time has passed are complete: the stream arrives in
  // time order, so everything below event.time has been delivered.
  while (!finished_ && event.time >= win_end_) {
    CloseWindow(win_end_, /*terminal=*/false);
  }
  ledger_.Consume(event);
}

void RollingSummary::OnFrontier(SimTime frontier) {
  while (!finished_ && win_end_ <= frontier) {
    CloseWindow(win_end_, /*terminal=*/false);
  }
}

void RollingSummary::OnFinish(const StreamFinal& final) {
  if (finished_) return;
  final_ = final;
  // Close any still-open complete windows below the horizon BEFORE
  // folding the horizon group: terminal off-window credits recorded at
  // the horizon belong to the remainder window, not an interior one.
  while (win_end_ <= final.at) CloseWindow(win_end_, /*terminal=*/false);
  ledger_.Finish(final);
  CloseWindow(std::max(final.at, win_start_), /*terminal=*/true);
  finished_ = true;
  WriteFinalLine();
}

void RollingSummary::CloseWindow(SimTime end, bool terminal) {
  ledger_.AdvanceTo(end);
  const EnergyLedger& cur = ledger_.exact();

  RollingWindow w;
  w.index = windows_closed_;
  w.start = win_start_;
  w.end = end;
  w.terminal = terminal;
  auto take = [&](const auto& deltas) {
    for (const auto& d : deltas) {
      w.*d.window = cur.*d.ledger - prev_.*d.ledger;
      prev_.*d.ledger = cur.*d.ledger;
    }
  };
  take(kEnergyDeltas);
  take(kCountDeltas);
  w.off_windows = static_cast<int64_t>(cur.off_windows.size()) -
                  static_cast<int64_t>(prev_off_count_);
  w.cum_credit_j = cur.off_credit_j;
  w.cum_debit_j = cur.off_debit_j;
  w.cum_off_windows = static_cast<int64_t>(cur.off_windows.size());
  w.cum_mispredicts = cur.mispredicts;

  // Per-enclosure roll-up + mispredict flags over the off windows that
  // closed since the previous rolling window (attribution by close time).
  std::map<EnclosureId, RollingWindow::EncRoll> rolls;
  for (size_t i = prev_off_count_; i < cur.off_windows.size(); ++i) {
    const OffWindow& ow = cur.off_windows[i];
    RollingWindow::EncRoll& r = rolls[ow.enclosure];
    r.enclosure = ow.enclosure;
    r.windows++;
    r.credit_j += ow.credit_j;
    r.debit_j += ow.debit_j;
    r.dwell_us += ow.end - ow.start;
    if (ow.mispredict) {
      r.mispredicts++;
      w.flags.push_back(RollingWindow::Flag{ow.enclosure, ow.start, ow.end,
                                            ow.plan,
                                            ow.debit_j - ow.credit_j, ow.wake,
                                            ow.wake_item});
    }
  }
  w.enclosures.reserve(rolls.size());
  for (const auto& [id, roll] : rolls) w.enclosures.push_back(roll);

  // Latency delta: cumulative book minus the previous snapshot. The book
  // only advances between pumps, so the first window closed per pump
  // carries the delta and later ones in the same pump see zero — exactly
  // the window's own I/Os when the pump cadence equals the window length.
  if (options_.book != nullptr) {
    LatencyBook delta = *options_.book;
    delta.SubtractPrefix(prev_book_);
    prev_book_ = *options_.book;
    for (uint8_t p = 0; p < kNumPatternSlots; ++p) {
      for (uint8_t o = 0; o < kNumOutcomes; ++o) {
        const LatencyHistogram& h = delta.cell(p, o);
        if (h.count() == 0) continue;
        w.latency.push_back(RollingWindow::LatCell{p, o, h});
      }
    }
  }

  prev_off_count_ = cur.off_windows.size();

  WriteWindowLine(w);
  WriteProgressLine(w);

  windows_closed_++;
  windows_.push_back(std::move(w));
  while (windows_.size() > options_.retention) windows_.pop_front();
  win_start_ = end;
  win_end_ = end + options_.window_us;
}

void RollingSummary::WriteMetaLine() {
  if (options_.jsonl == nullptr) return;
  const ExportMeta& meta = ledger_.meta();
  std::string line = "{\"type\":\"rolling_meta\"";
  AppendKV(&line, "schema", 1);
  AppendMetaIdentity(&line, meta);
  AppendKV(&line, "window_us", options_.window_us);
  AppendKV(&line, "has_power_model", meta.has_power_model ? 1 : 0);
  line += "}\n";
  std::fputs(line.c_str(), options_.jsonl);
  std::fflush(options_.jsonl);
}

void RollingSummary::WriteWindowLine(const RollingWindow& w) {
  if (options_.jsonl == nullptr) return;
  // Scalars first: the readers (FlatJson) are linear first-match
  // scanners, so top-level keys must precede the nested arrays.
  std::string line = "{\"type\":\"window\"";
  AppendKV(&line, "index", w.index);
  AppendKV(&line, "start_us", w.start);
  AppendKV(&line, "end_us", w.end);
  AppendKV(&line, "terminal", w.terminal ? 1 : 0);
  AppendKVF(&line, "credit_j", w.credit_j);
  AppendKVF(&line, "debit_j", w.debit_j);
  AppendKVF(&line, "net_j", w.credit_j - w.debit_j);
  AppendKVF(&line, "actual_j", w.actual_j);
  AppendKV(&line, "dwell_us", w.dwell_us);
  AppendKV(&line, "off_windows", w.off_windows);
  AppendKV(&line, "mispredicts", w.mispredicts);
  AppendKVF(&line, "mispredict_loss_j", w.mispredict_loss_j);
  AppendKV(&line, "decisions", w.decisions);
  AppendKV(&line, "migrations", w.migrations);
  AppendKV(&line, "preloads", w.preloads);
  AppendKV(&line, "write_delays", w.write_delays);
  AppendKV(&line, "write_delay_admits", w.write_delay_admits);
  AppendKV(&line, "write_delay_flushes", w.write_delay_flushes);
  AppendKV(&line, "write_delay_flush_bytes", w.write_delay_flush_bytes);
  AppendKVF(&line, "cum_credit_j", w.cum_credit_j);
  AppendKVF(&line, "cum_debit_j", w.cum_debit_j);
  AppendKVF(&line, "cum_net_j", w.cum_credit_j - w.cum_debit_j);
  AppendKV(&line, "cum_off_windows", w.cum_off_windows);
  AppendKV(&line, "cum_mispredicts", w.cum_mispredicts);
  line += ",\"enclosures\":[";
  for (size_t i = 0; i < w.enclosures.size(); ++i) {
    const RollingWindow::EncRoll& r = w.enclosures[i];
    std::string item = i == 0 ? "{\"e\":" : ",{\"e\":";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%d", r.enclosure);
    item += buf;
    AppendKV(&item, "w", r.windows);
    AppendKV(&item, "mp", r.mispredicts);
    AppendKVF(&item, "cr", r.credit_j);
    AppendKVF(&item, "db", r.debit_j);
    AppendKV(&item, "dw", r.dwell_us);
    item += "}";
    line += item;
  }
  line += "]";
  line += ",\"flags\":[";
  for (size_t i = 0; i < w.flags.size(); ++i) {
    const RollingWindow::Flag& f = w.flags[i];
    std::string item = i == 0 ? "{\"e\":" : ",{\"e\":";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%d", f.enclosure);
    item += buf;
    AppendKV(&item, "s", f.start);
    AppendKV(&item, "t", f.end);
    AppendKV(&item, "p", f.plan);
    AppendKVF(&item, "loss", f.loss_j);
    item += ",\"wk\":\"";
    item += WakeCauseName(f.wake);
    item += "\"";
    AppendKV(&item, "it", f.wake_item);
    item += "}";
    line += item;
  }
  line += "]";
  line += ",\"latency\":[";
  for (size_t i = 0; i < w.latency.size(); ++i) {
    const RollingWindow::LatCell& c = w.latency[i];
    std::string item = i == 0 ? "{\"pattern\":\"" : ",{\"pattern\":\"";
    item += PatternSlotName(c.pattern);
    item += "\",\"outcome\":\"";
    item += IoOutcomeName(c.outcome);
    item += "\"";
    AppendKV(&item, "count", c.hist.count());
    AppendKV(&item, "sum_us", c.hist.sum());
    AppendKV(&item, "max_us", c.hist.max());
    item += ",\"buckets\":\"" + c.hist.EncodeBuckets() + "\"";
    item += "}";
    line += item;
  }
  line += "]}\n";
  std::fputs(line.c_str(), options_.jsonl);
  std::fflush(options_.jsonl);
}

void RollingSummary::WriteFinalLine() {
  if (options_.jsonl == nullptr) return;
  std::string line = "{\"type\":\"rolling_final\"";
  AppendKV(&line, "at_us", final_.at);
  AppendKV(&line, "windows", windows_closed_);
  AppendSummaryFields(SummarizeLedger(ledger_.meta(), ledger_.Snapshot()),
                      &line);
  line += "}\n";
  std::fputs(line.c_str(), options_.jsonl);
  std::fflush(options_.jsonl);
}

void RollingSummary::WriteProgressLine(const RollingWindow& w) {
  if (options_.progress == nullptr) return;
  std::fprintf(options_.progress,
               "%s w%lld [%.0fs,%.0fs)%s net %+.1f J (credit %.1f debit "
               "%.1f) off %lld mispredict %lld | cum net %+.1f J "
               "mispredict %lld\n",
               options_.progress_prefix, static_cast<long long>(w.index),
               ToSeconds(w.start), ToSeconds(w.end),
               w.terminal ? " end" : "", w.credit_j - w.debit_j, w.credit_j,
               w.debit_j, static_cast<long long>(w.off_windows),
               static_cast<long long>(w.mispredicts),
               w.cum_credit_j - w.cum_debit_j,
               static_cast<long long>(w.cum_mispredicts));
  std::fflush(options_.progress);
}

}  // namespace ecostore::telemetry::analysis
