// Tests for the live observability pipeline: randomized differential
// equivalence of the IncrementalEnergyLedger — and of BuildLedger, its
// fold over a whole capture — against the frozen batch walk
// (bench/legacy_ledger.h, the oracle) at every window boundary on both
// the serial and sharded engines and on a hand-built hostile capture;
// RollingSummary window/cumulative consistency; and the in-flight capture
// reader (ReadJsonlChunk + CaptureTailParser) on byte-truncated files.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/legacy_ledger.h"
#include "bench/telemetry_capture.h"
#include "core/eco_storage_policy.h"
#include "replay/experiment.h"
#include "replay/sharded_experiment.h"
#include "telemetry/analysis/energy_ledger.h"
#include "telemetry/analysis/incremental_ledger.h"
#include "telemetry/analysis/rolling_summary.h"
#include "telemetry/analysis/summary.h"
#include "telemetry/export.h"
#include "telemetry/recorder.h"
#include "telemetry/stream_consumer.h"
#include "tests/instrumented_run.h"
#include "tests/test_util.h"
#include "workload/file_server_workload.h"

namespace ecostore::telemetry::analysis {
namespace {

void WriteFileBytes(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f),
            content.size());
  std::fclose(f);
}

// --- bitwise ledger equality ----------------------------------------------

// The acceptance bar is rel err 0: every double compared with EXPECT_EQ
// (bitwise for all values the ledger can produce).
void ExpectSameLedger(const EnergyLedger& live, const EnergyLedger& batch,
                      const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(live.off_windows.size(), batch.off_windows.size());
  for (size_t i = 0; i < live.off_windows.size(); ++i) {
    SCOPED_TRACE("off_window " + std::to_string(i));
    const OffWindow& a = live.off_windows[i];
    const OffWindow& b = batch.off_windows[i];
    EXPECT_EQ(a.enclosure, b.enclosure);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.plan, b.plan);
    EXPECT_EQ(a.actual_j, b.actual_j);
    EXPECT_EQ(a.credit_j, b.credit_j);
    EXPECT_EQ(a.debit_j, b.debit_j);
    EXPECT_EQ(a.wake, b.wake);
    EXPECT_EQ(a.wake_item, b.wake_item);
    EXPECT_EQ(a.mispredict, b.mispredict);
    EXPECT_EQ(a.has_culprit, b.has_culprit);
    if (a.has_culprit && b.has_culprit) {
      EXPECT_EQ(a.culprit.item, b.culprit.item);
      EXPECT_EQ(a.culprit.pattern, b.culprit.pattern);
      EXPECT_EQ(a.culprit.plan, b.culprit.plan);
      EXPECT_EQ(a.culprit.total_ios, b.culprit.total_ios);
    }
  }
  ASSERT_EQ(live.advisory.size(), batch.advisory.size());
  for (size_t i = 0; i < live.advisory.size(); ++i) {
    SCOPED_TRACE("advisory " + std::to_string(i));
    const AdvisoryEntry& a = live.advisory[i];
    const AdvisoryEntry& b = batch.advisory[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.item, b.item);
    EXPECT_EQ(a.enclosure, b.enclosure);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.plan, b.plan);
    EXPECT_EQ(a.credit_j, b.credit_j);
    EXPECT_EQ(a.debit_j, b.debit_j);
  }
  EXPECT_EQ(live.off_credit_j, batch.off_credit_j);
  EXPECT_EQ(live.off_debit_j, batch.off_debit_j);
  EXPECT_EQ(live.off_actual_j, batch.off_actual_j);
  EXPECT_EQ(live.off_dwell_us, batch.off_dwell_us);
  EXPECT_EQ(live.mispredicts, batch.mispredicts);
  EXPECT_EQ(live.mispredict_loss_j, batch.mispredict_loss_j);
  EXPECT_EQ(live.advisory_credit_j, batch.advisory_credit_j);
  EXPECT_EQ(live.advisory_debit_j, batch.advisory_debit_j);
  EXPECT_EQ(live.has_finals, batch.has_finals);
  EXPECT_EQ(live.ledger_enclosure_j, batch.ledger_enclosure_j);
  EXPECT_EQ(live.ledger_controller_j, batch.ledger_controller_j);
  EXPECT_EQ(live.reconcile_rel_err, batch.reconcile_rel_err);
  EXPECT_EQ(live.plans, batch.plans);
  EXPECT_EQ(live.decisions, batch.decisions);
  EXPECT_EQ(live.migrations, batch.migrations);
  EXPECT_EQ(live.preloads, batch.preloads);
  EXPECT_EQ(live.write_delays, batch.write_delays);
  EXPECT_EQ(live.per_item_write_delay, batch.per_item_write_delay);
  EXPECT_EQ(live.write_delay_admits, batch.write_delay_admits);
  EXPECT_EQ(live.write_delay_flushes, batch.write_delay_flushes);
  EXPECT_EQ(live.write_delay_flush_bytes, batch.write_delay_flush_bytes);
}

// Replays the capture into an IncrementalEnergyLedger, pausing at every
// multiple of `window` to compare Snapshot() — and BuildLedger over the
// same exclusive prefix — against the batch oracle; then finishes and
// compares the full run. The boundary comparisons pass `meta` to every
// side, so every field — including reconciliation once the finals
// arrive — must match bitwise.
void CheckIncrementalMatchesBatch(const CapturedRun& run,
                                  SimDuration window) {
  IncrementalEnergyLedger inc(run.meta);
  size_t i = 0;
  int64_t boundaries = 0;
  for (SimTime b = window; b <= run.meta.duration; b += window) {
    while (i < run.events.size() && run.events[i].time < b) {
      inc.Consume(run.events[i++]);
    }
    inc.AdvanceTo(b);
    std::vector<Event> prefix(run.events.begin(), run.events.begin() + i);
    const std::string where = "window=" + std::to_string(window) +
                              " boundary=" + std::to_string(b);
    const EnergyLedger oracle = legacy::BuildLedger(run.meta, prefix);
    ExpectSameLedger(inc.Snapshot(), oracle, where);
    ExpectSameLedger(BuildLedger(run.meta, prefix), oracle, "fold " + where);
    boundaries++;
  }
  EXPECT_GT(boundaries, 0);
  while (i < run.events.size()) inc.Consume(run.events[i++]);
  inc.Finish(run.Final());
  EXPECT_TRUE(inc.finished());
  const EnergyLedger oracle = legacy::BuildLedger(run.meta, run.events);
  ExpectSameLedger(inc.Snapshot(), oracle,
                   "end-of-run window=" + std::to_string(window));
  ExpectSameLedger(BuildLedger(run.meta, run.events), oracle,
                   "fold end-of-run");
}

TEST(IncrementalLedgerTest, MatchesBatchAtEveryBoundarySerialRandomized) {
  if (!Recorder::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  // Seeds change the I/O interleaving (and hence off-window placement);
  // window lengths are deliberately not divisors of the duration and not
  // aligned with the policy's 520 s monitoring period.
  for (uint64_t seed : {42ull, 20260809ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    CapturedRun run = RunInstrumented(seed, /*eco=*/true, 20 * kMinute);
    EXPECT_GT(BuildLedger(run.meta, run.events).off_windows.size(), 0u);
    for (SimDuration window :
         {47 * kSecond, 3 * kMinute + 1, 311 * kSecond}) {
      CheckIncrementalMatchesBatch(run, window);
    }
  }
}

TEST(IncrementalLedgerTest, MatchesBatchWithoutPowerSavingPolicy) {
  if (!Recorder::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  // Degenerate coverage: no off windows, stream tallies only.
  CapturedRun run = RunInstrumented(7ull, /*eco=*/false, 10 * kMinute);
  CheckIncrementalMatchesBatch(run, kMinute);
}

// Records a Snapshot at every frontier the engine announces, so the
// sharded engine's own pump cadence (epoch-granularity, not window-
// aligned) is what gets verified.
struct SnapshottingConsumer : public StreamConsumer {
  explicit SnapshottingConsumer(const ExportMeta& meta) : inc(meta) {}
  void OnEvent(const Event& event) override { inc.Consume(event); }
  void OnFrontier(SimTime frontier) override {
    inc.AdvanceTo(frontier);
    snaps.emplace_back(frontier, inc.Snapshot());
  }
  void OnFinish(const StreamFinal& final) override { inc.Finish(final); }
  IncrementalEnergyLedger inc;
  std::vector<std::pair<SimTime, EnergyLedger>> snaps;
};

TEST(IncrementalLedgerTest, MatchesBatchAtEveryFrontierShardedEngine) {
  if (!Recorder::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  workload::FileServerConfig wl;
  wl.duration = 12 * kMinute;
  auto workload = workload::FileServerWorkload::Create(wl);
  ASSERT_TRUE(workload.ok());
  core::PowerManagementConfig pm;
  // Inside the sharded engine's documented exact-equivalence domain
  // (DESIGN.md §11): trigger latency is epoch-quantized otherwise.
  pm.enable_pattern_change_triggers = false;
  core::EcoStoragePolicy policy(pm);

  Recorder::Options options;
  options.thread_buffer_capacity = 1u << 20;
  options.mask = kClassAll;
  Recorder recorder(options);

  ExportMeta pre_meta;
  pre_meta.workload = workload.value()->info().name;
  pre_meta.num_enclosures = workload.value()->info().num_enclosures;
  pre_meta.duration = wl.duration;
  replay::ExperimentConfig config;
  bench::FillPowerModel(&pre_meta, config.storage);

  StreamDispatcher dispatcher;
  CaptureBuffer buffer;
  SnapshottingConsumer snap(pre_meta);
  dispatcher.AddConsumer(&buffer);
  dispatcher.AddConsumer(&snap);
  config.telemetry = &recorder;
  config.stream = &dispatcher;
  config.stream_window_us = 90 * kSecond;

  replay::ShardedExperiment experiment(workload.value().get(), &policy,
                                       config, /*shards=*/4);
  auto metrics = experiment.Run();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_TRUE(dispatcher.finished());
  EXPECT_TRUE(snap.inc.finished());

  std::vector<Event> events = buffer.Take();
  ASSERT_GT(events.size(), 0u);
  ASSERT_GT(snap.snaps.size(), 1u);
  for (const auto& [frontier, live] : snap.snaps) {
    std::vector<Event> prefix;
    for (const Event& e : events) {
      if (e.time < frontier) prefix.push_back(e);
    }
    ExpectSameLedger(live, legacy::BuildLedger(pre_meta, prefix),
                     "frontier=" + std::to_string(frontier));
  }
  // End-of-run: install the measured energies (as the engine's Finish
  // did) and compare against the batch oracle over the full capture.
  ExportMeta final_meta = pre_meta;
  final_meta.enclosure_energy_j = metrics.value().enclosure_energy;
  final_meta.controller_energy_j = metrics.value().controller_energy;
  EnergyLedger batch = legacy::BuildLedger(final_meta, events);
  ExpectSameLedger(snap.inc.Snapshot(), batch, "sharded end-of-run");
  EXPECT_TRUE(batch.has_finals);
  EXPECT_LE(batch.reconcile_rel_err, 1e-6);
}

// A capture no engine writes: a migration names enclosure 3 (above
// meta.num_enclosures = 2) before that enclosure's first kPowerState,
// and the final group is stamped INT64_MAX. BuildLedger must still read
// it exactly as the batch walk does: the pre-scan tracks the early
// migration, and Finish (not an exclusive frontier) flushes the last
// group. Enclosure 1 goes off at a negative time, so its terminal
// window's dwell and the dwell total saturate at INT64_MAX.
TEST(IncrementalLedgerTest, HostileCaptureMatchesBatch) {
  ExportMeta meta;
  meta.num_enclosures = 2;
  meta.duration = 60 * kSecond;
  replay::ExperimentConfig config;
  bench::FillPowerModel(&meta, config.storage);
  const SimTime end = std::numeric_limits<SimTime>::max();
  DecisionPayload decision;
  decision.item = 7;
  decision.pattern = 2;
  decision.plan = 1;
  decision.total_ios = 12;
  const std::vector<Event> events = {
      MakePowerEvent(-5 * kSecond, 1, /*state=*/0, 0, 0.0),
      MakeDecisionEvent(1 * kSecond, decision),
      MakePowerEvent(2 * kSecond, 0, /*state=*/0, 0, 100.0, /*plan=*/1),
      MakeMigrationEvent(3 * kSecond, EventKind::kMigrationBegin, 9, 3, 1,
                         0),
      MakePowerEvent(4 * kSecond, 3, /*state=*/0, 0, 50.0, /*plan=*/1),
      MakeCacheEvent(5 * kSecond, EventKind::kPreloadBegin, 7, 0, 8,
                     1 * kMiB, /*plan=*/1),
      MakeCacheEvent(30 * kSecond, EventKind::kPhysicalIo, 7, 3, 1, 4096),
      MakePowerEvent(30 * kSecond, 3, /*state=*/1, 0, 60.0, /*plan=*/1),
      MakeMigrationEvent(40 * kSecond, EventKind::kMigrationEnd, 9, 3, 1,
                         4096),
      MakeEnergyFinalEvent(end, 0, 300.0),
      MakeEnergyFinalEvent(end, 1, 400.0),
      MakeEnergyFinalEvent(end, 2, 500.0),
      MakeEnergyFinalEvent(end, 3, 600.0),
      MakeEnergyFinalEvent(end, kInvalidEnclosure, 700.0),
  };
  meta.enclosure_energy_j = 300.0 + 400.0 + 500.0 + 600.0;
  meta.controller_energy_j = 700.0;

  const EnergyLedger oracle = legacy::BuildLedger(meta, events);
  ExpectSameLedger(BuildLedger(meta, events), oracle, "hostile capture");

  // The capture does exercise both quirks: the wake on enclosure 3 is
  // blamed on the early migration, and the terminal window and the
  // reconciliation come from the INT64_MAX group.
  ASSERT_EQ(oracle.off_windows.size(), 3u);
  EXPECT_EQ(oracle.off_windows[0].enclosure, 3);
  EXPECT_EQ(oracle.off_windows[0].wake, WakeCause::kMigration);
  EXPECT_TRUE(oracle.off_windows[0].has_culprit);
  EXPECT_EQ(oracle.off_windows[1].enclosure, 0);
  EXPECT_EQ(oracle.off_windows[1].end, end);
  EXPECT_EQ(oracle.off_windows[1].wake, WakeCause::kRunEnd);
  EXPECT_EQ(oracle.off_windows[2].enclosure, 1);
  EXPECT_EQ(oracle.off_dwell_us, end);
  EXPECT_TRUE(oracle.has_finals);
  EXPECT_EQ(oracle.reconcile_rel_err, 0.0);
}

// --- rolling summary ------------------------------------------------------

TEST(RollingSummaryTest, WindowsTileTheRunAndTelescopeToTheTotal) {
  if (!Recorder::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  CapturedRun run = RunInstrumented();
  const SimDuration window = 130 * kSecond;  // not a divisor of 1200 s
  RollingSummary::Options ropt;
  ropt.window_us = window;
  ropt.retention = static_cast<size_t>(-1);
  RollingSummary rolling(run.meta, ropt);
  for (const Event& e : run.events) rolling.OnEvent(e);
  rolling.OnFinish(run.Final());

  const auto& windows = rolling.windows();
  ASSERT_GT(windows.size(), 1u);
  EXPECT_EQ(rolling.windows_closed(),
            static_cast<int64_t>(windows.size()));
  // Windows tile [0, duration): contiguous, last one terminal.
  SimTime expect_start = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(windows[i].index, static_cast<int64_t>(i));
    EXPECT_EQ(windows[i].start, expect_start);
    EXPECT_GE(windows[i].end, windows[i].start);
    EXPECT_EQ(windows[i].terminal, i + 1 == windows.size());
    expect_start = windows[i].end;
  }
  EXPECT_EQ(windows.back().end, run.meta.duration);

  // Window deltas telescope to the full-run ledger.
  EnergyLedger full = BuildLedger(run.meta, run.events);
  ASSERT_GT(full.off_windows.size(), 0u);
  double credit = 0.0, debit = 0.0, loss = 0.0;
  int64_t offs = 0, mispredicts = 0, decisions = 0, migrations = 0;
  int64_t lat_count = 0;
  for (const RollingWindow& w : windows) {
    credit += w.credit_j;
    debit += w.debit_j;
    loss += w.mispredict_loss_j;
    offs += w.off_windows;
    mispredicts += w.mispredicts;
    decisions += w.decisions;
    migrations += w.migrations;
    EXPECT_EQ(static_cast<int64_t>(w.flags.size()), w.mispredicts);
    int64_t enc_windows = 0;
    for (const RollingWindow::EncRoll& e : w.enclosures) {
      enc_windows += e.windows;
    }
    EXPECT_EQ(enc_windows, w.off_windows);
    for (const RollingWindow::LatCell& c : w.latency) {
      lat_count += c.hist.count();
    }
  }
  EXPECT_EQ(offs, static_cast<int64_t>(full.off_windows.size()));
  EXPECT_EQ(mispredicts, full.mispredicts);
  EXPECT_EQ(decisions, full.decisions);
  EXPECT_EQ(migrations, full.migrations);
  // Integer counters telescope exactly; double deltas reassociate, so
  // they get a tight relative bound instead of bitwise equality.
  EXPECT_NEAR(credit, full.off_credit_j, 1e-6 * std::abs(full.off_credit_j));
  EXPECT_NEAR(debit, full.off_debit_j, 1e-6 * std::abs(full.off_debit_j));
  EXPECT_NEAR(loss, full.mispredict_loss_j,
              1e-6 * std::abs(full.mispredict_loss_j) + 1e-9);
  // The cumulative fields of the last window ARE the ledger's (no sum).
  EXPECT_EQ(windows.back().cum_credit_j, full.off_credit_j);
  EXPECT_EQ(windows.back().cum_debit_j, full.off_debit_j);
  EXPECT_EQ(windows.back().cum_off_windows,
            static_cast<int64_t>(full.off_windows.size()));
  EXPECT_EQ(windows.back().cum_mispredicts, full.mispredicts);
  // The final ledger behind the summary is the batch ledger.
  ExpectSameLedger(rolling.FinalLedger(),
                   legacy::BuildLedger(run.meta, run.events),
                   "rolling final ledger");
  // The run's latency book flowed through the per-window deltas intact.
  int64_t book_count = 0;
  for (const LatencySlot& slot : run.meta.latency) {
    book_count += slot.hist.count();
  }
  (void)lat_count;  // LatCells only populate with a live book attached
  EXPECT_GT(book_count, 0);
}

TEST(RollingSummaryTest, RetentionBoundsMemoryButNotTheStream) {
  if (!Recorder::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  CapturedRun run = RunInstrumented();
  RollingSummary::Options ropt;
  ropt.window_us = kMinute;
  ropt.retention = 3;
  RollingSummary rolling(run.meta, ropt);
  for (const Event& e : run.events) rolling.OnEvent(e);
  rolling.OnFinish(run.Final());
  EXPECT_EQ(rolling.windows().size(), 3u);  // only the newest retained
  // 20 interior windows plus the (here zero-length) terminal remainder.
  EXPECT_EQ(rolling.windows_closed(), 21);
  EXPECT_TRUE(rolling.windows().back().terminal);
}

TEST(RollingSummaryTest, FinalLineReadsBackAsTheLedgerSummary) {
  if (!Recorder::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  CapturedRun run = RunInstrumented();
  const std::string path = TempPath("rolling_final.jsonl");
  std::FILE* jsonl = std::fopen(path.c_str(), "w");
  ASSERT_NE(jsonl, nullptr);
  RollingSummary::Options ropt;
  ropt.jsonl = jsonl;
  RollingSummary rolling(run.meta, ropt);
  for (const Event& e : run.events) rolling.OnEvent(e);
  rolling.OnFinish(run.Final());
  std::fclose(jsonl);

  JsonlChunk chunk;
  ASSERT_TRUE(ReadJsonlChunk(path, 0, &chunk).ok());
  ASSERT_FALSE(chunk.lines.empty());
  const std::string& line = chunk.lines.back();
  ASSERT_NE(line.find("\"type\":\"rolling_final\""), std::string::npos);
  const Summary live = SummarizeLedger(run.meta, rolling.FinalLedger());
  EXPECT_GT(live.off_windows, 0);
  // Every scalar, gated or not, identity included: both render to the
  // same summary file bytes.
  const std::string a = TempPath("rolling_final_line.json");
  const std::string b = TempPath("rolling_final_ledger.json");
  ASSERT_TRUE(WriteSummaryJson(a, SummaryFromLine(line)).ok());
  ASSERT_TRUE(WriteSummaryJson(b, live).ok());
  EXPECT_EQ(ReadFile(a), ReadFile(b));
}

// --- in-flight capture reader ---------------------------------------------

TEST(ReadJsonlChunkTest, PartialTailIsReportedNotReturned) {
  const std::string path = TempPath("chunk_partial.jsonl");
  WriteFileBytes(path, "aaa\nbb");
  JsonlChunk chunk;
  Status st = ReadJsonlChunk(path, 0, &chunk);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(chunk.lines.size(), 1u);
  EXPECT_EQ(chunk.lines[0], "aaa");
  EXPECT_TRUE(chunk.partial_tail);
  EXPECT_EQ(chunk.next_offset, 4);

  // The writer finishes the line and appends another: resuming from
  // next_offset yields exactly the new complete lines.
  WriteFileBytes(path, "aaa\nbbb\nccc\n");
  st = ReadJsonlChunk(path, chunk.next_offset, &chunk);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(chunk.lines.size(), 2u);
  EXPECT_EQ(chunk.lines[0], "bbb");
  EXPECT_EQ(chunk.lines[1], "ccc");
  EXPECT_FALSE(chunk.partial_tail);
  EXPECT_EQ(chunk.next_offset, 12);
}

TEST(ReadJsonlChunkTest, StripsCarriageReturnsAndHandlesEmptyReads) {
  const std::string path = TempPath("chunk_crlf.jsonl");
  WriteFileBytes(path, "x\r\ny\r\n");
  JsonlChunk chunk;
  Status st = ReadJsonlChunk(path, 0, &chunk);
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(chunk.lines.size(), 2u);
  EXPECT_EQ(chunk.lines[0], "x");
  EXPECT_EQ(chunk.lines[1], "y");
  // Reading again at EOF: no lines, no error, offset unchanged.
  st = ReadJsonlChunk(path, chunk.next_offset, &chunk);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(chunk.lines.size(), 0u);
  EXPECT_FALSE(chunk.partial_tail);
  EXPECT_EQ(chunk.next_offset, 6);
}

// A real capture byte-truncated mid-line must parse cleanly up to the
// cut ("resume at offset" semantics), then complete once the rest of the
// file lands — with events identical to a one-shot strict parse.
TEST(CaptureTailParserTest, ResumesAcrossByteTruncation) {
  if (!Recorder::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  CapturedRun run = RunInstrumented(42ull, /*eco=*/true, 5 * kMinute);
  const std::string base = TempPath("tail_capture");
  ASSERT_TRUE(ExportAll(base, run.meta, run.events).ok());
  const std::string path = base + ".jsonl";

  // Reference: the strict reader over the finished file.
  ExportMeta ref_meta;
  std::vector<Event> ref_events;
  ASSERT_TRUE(ParseJsonl(path, &ref_meta, &ref_events).ok());
  ASSERT_GT(ref_events.size(), 0u);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long full_size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string full(static_cast<size_t>(full_size), '\0');
  ASSERT_EQ(std::fread(full.data(), 1, full.size(), f), full.size());
  std::fclose(f);

  // Truncate at ~60% of the bytes — virtually guaranteed mid-line.
  const std::string trunc_path = TempPath("tail_capture_trunc.jsonl");
  const size_t cut = full.size() * 3 / 5;
  WriteFileBytes(trunc_path, full.substr(0, cut));

  CaptureTailParser parser;
  JsonlChunk chunk;
  int64_t offset = 0;
  ASSERT_TRUE(ReadJsonlChunk(trunc_path, offset, &chunk).ok());
  for (const std::string& line : chunk.lines) {
    Status st = parser.Consume(line);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  offset = chunk.next_offset;
  EXPECT_TRUE(chunk.partial_tail);
  EXPECT_TRUE(parser.have_meta());
  EXPECT_FALSE(parser.complete());  // in flight, not an error
  EXPECT_LT(parser.consumed_events(), parser.declared_events());

  // The writer catches up; resume exactly where we left off.
  WriteFileBytes(trunc_path, full);
  ASSERT_TRUE(ReadJsonlChunk(trunc_path, offset, &chunk).ok());
  for (const std::string& line : chunk.lines) {
    Status st = parser.Consume(line);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_FALSE(chunk.partial_tail);
  EXPECT_TRUE(parser.complete());
  ASSERT_EQ(parser.events().size(), ref_events.size());
  // Events are a union with unwritten tail bytes per kind, so compare
  // the header fields (raw memcmp would read uninitialized padding).
  for (size_t i = 0; i < ref_events.size(); ++i) {
    const Event& a = parser.events()[i];
    const Event& b = ref_events[i];
    ASSERT_TRUE(a.time == b.time && a.kind == b.kind && a.shard == b.shard)
        << "event " << i;
  }
  EXPECT_EQ(parser.meta().duration, ref_meta.duration);
  EXPECT_EQ(parser.meta().enclosure_energy_j, ref_meta.enclosure_energy_j);
}

TEST(CaptureTailParserTest, TruncationInsideTheMetaLineYieldsNoLines) {
  const std::string path = TempPath("meta_trunc.jsonl");
  // The first (meta) line cut after 20 bytes: nothing complete yet.
  WriteFileBytes(path, "{\"type\": \"meta\", \"wo");
  JsonlChunk chunk;
  Status st = ReadJsonlChunk(path, 0, &chunk);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(chunk.lines.size(), 0u);
  EXPECT_TRUE(chunk.partial_tail);
  EXPECT_EQ(chunk.next_offset, 0);
  CaptureTailParser parser;
  EXPECT_FALSE(parser.have_meta());
  EXPECT_FALSE(parser.complete());
}

TEST(CaptureTailParserTest, MalformedCompleteLineStillFails) {
  // Hardening must not swallow real corruption: a complete line that is
  // not a JSON object is an error, with a position-free message the
  // strict reader wraps with its line number.
  CaptureTailParser parser;
  Status st = parser.Consume("not json at all");
  EXPECT_FALSE(st.ok());
  st = parser.Consume("{\"no_type\": 1}");
  EXPECT_FALSE(st.ok());
  st = parser.Consume("{\"type\": \"meta\", \"truncated\": tru");
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace ecostore::telemetry::analysis
