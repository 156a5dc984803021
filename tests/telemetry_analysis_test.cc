// Tests for the offline telemetry analyzer: log-linear latency histogram
// bucket math and exact mergeability, energy-ledger reconciliation
// against a real instrumented run, the summary JSON round-trip, the
// regression comparator behind `eco_report regress`, and the hardened
// capture parser's line-numbered diagnostics.

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/analysis/energy_ledger.h"
#include "telemetry/analysis/latency_histogram.h"
#include "telemetry/analysis/summary.h"
#include "telemetry/export.h"
#include "telemetry/recorder.h"
#include "tests/instrumented_run.h"
#include "tests/test_util.h"

namespace ecostore::telemetry::analysis {
namespace {

void WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

// --- histogram ------------------------------------------------------------

TEST(LatencyHistogramTest, BucketBoundsAreExactInverses) {
  for (int idx = 0; idx < LatencyHistogram::kNumBuckets; ++idx) {
    int64_t low = LatencyHistogram::BucketLow(idx);
    EXPECT_EQ(LatencyHistogram::BucketIndex(low), idx) << "idx=" << idx;
    if (idx > 0) {
      EXPECT_EQ(LatencyHistogram::BucketIndex(low - 1), idx - 1)
          << "idx=" << idx;
    }
  }
}

TEST(LatencyHistogramTest, MergeIsCommutativeAndAssociative) {
  std::mt19937_64 rng(42);
  LatencyHistogram a, b, c;
  for (int i = 0; i < 5000; ++i) {
    a.Record(static_cast<int64_t>(rng() % 1000));
    b.Record(static_cast<int64_t>(rng() % 10000000));
    c.Record(static_cast<int64_t>(rng() % 64));
  }
  LatencyHistogram ab = a, ba = b;
  ab.Merge(b);
  ba.Merge(a);
  EXPECT_TRUE(ab == ba);  // merge(a,b) == merge(b,a)

  LatencyHistogram ab_c = ab, a_bc = b;
  ab_c.Merge(c);
  a_bc.Merge(c);
  LatencyHistogram left = a;
  left.Merge(a_bc);
  EXPECT_TRUE(ab_c == left);  // merge(merge(a,b),c) == merge(a,merge(b,c))
  EXPECT_EQ(ab_c.count(), a.count() + b.count() + c.count());
  EXPECT_EQ(ab_c.sum(), a.sum() + b.sum() + c.sum());
}

TEST(LatencyHistogramTest, QuantilesAndEncodeRoundTrip) {
  LatencyHistogram h;
  for (int64_t v = 0; v < 1000; ++v) h.Record(v);
  // p50 must land within one bucket width (1/16 relative) of 500.
  EXPECT_GE(h.Quantile(0.5), 448);
  EXPECT_LE(h.Quantile(0.5), 500);
  EXPECT_EQ(h.Quantile(1.0), 999);
  EXPECT_EQ(h.count(), 1000);

  LatencyHistogram parsed;
  parsed.DecodeBuckets(h.EncodeBuckets(), h.sum(), h.max());
  EXPECT_TRUE(parsed == h);
}

TEST(LatencyBookTest, OutOfRangePatternFallsBackToUnclassified) {
  LatencyBook book;
  book.Record(200, IoOutcome::kMiss, 7);
  EXPECT_EQ(book.cell(kPatternUnclassified,
                      static_cast<uint8_t>(IoOutcome::kMiss)).count(), 1);
}

// --- ledger + summary on a real instrumented run --------------------------

TEST(EnergyLedgerTest, ReconcilesWithMeasuredEnergyAndPricesWindows) {
  if (!Recorder::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  CapturedRun run = RunInstrumented();
  EnergyLedger ledger = BuildLedger(run.meta, run.events);

  // The kEnergyFinal counters must telescope to the run's measured
  // energy to (well under) 1e-6 relative error — the acceptance bound.
  ASSERT_TRUE(ledger.has_finals);
  EXPECT_LE(ledger.reconcile_rel_err, 1e-6);
  EXPECT_NEAR(ledger.ledger_enclosure_j, run.metrics.enclosure_energy,
              1e-6 * run.metrics.enclosure_energy);
  EXPECT_NEAR(ledger.ledger_controller_j, run.metrics.controller_energy,
              1e-6 * run.metrics.controller_energy);

  // The proposed policy spins enclosures down within 20 minutes.
  ASSERT_GT(ledger.off_windows.size(), 0u);
  const double break_even_s = ToSeconds(run.meta.break_even_us);
  for (const OffWindow& w : ledger.off_windows) {
    EXPECT_GT(w.end, w.start);
    EXPECT_GE(w.plan, 1);  // spin-down needs a published plan
    // credit = idle * dwell - actual; actual is bounded by idle * dwell.
    double dwell_s = ToSeconds(w.end - w.start);
    EXPECT_GE(w.credit_j, -1e-9);
    EXPECT_LE(w.credit_j, run.meta.idle_power_w * dwell_s + 1e-9);
    if (w.wake == WakeCause::kRunEnd) {
      EXPECT_EQ(w.debit_j, 0.0);  // terminal window: no wake-up paid
      EXPECT_FALSE(w.mispredict);
    } else {
      EXPECT_GT(w.debit_j, 0.0);
      EXPECT_EQ(w.mispredict, dwell_s < break_even_s);
    }
  }
  EXPECT_EQ(ledger.plans, run.metrics.placement_determinations);
}

TEST(SummaryTest, WriteParseRoundTripAndRegressGate) {
  if (!Recorder::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  CapturedRun run = RunInstrumented();
  Summary summary = BuildSummary(run.meta, run.events);
  EXPECT_GT(summary.latency.size(), 0u);
  EXPECT_NEAR(summary.total_energy_j,
              run.metrics.enclosure_energy + run.metrics.controller_energy,
              1e-9 * summary.total_energy_j);

  std::string path = TempPath("summary.json");
  ASSERT_TRUE(WriteSummaryJson(path, summary).ok());
  Summary parsed;
  ASSERT_TRUE(ParseSummaryFile(path, &parsed).ok());
  // The %.17g rendering round-trips doubles exactly, so the parsed
  // summary compares clean at zero tolerance.
  EXPECT_TRUE(CompareSummaries(summary, parsed, 0.0).empty());
  EXPECT_EQ(parsed.latency.size(), summary.latency.size());
  EXPECT_EQ(parsed.off_windows, summary.off_windows);

  // An injected 1% energy drift must trip the gate at 1e-6 tolerance —
  // the contract `eco_report regress` enforces in CI.
  Summary drifted = parsed;
  drifted.enclosure_energy_j *= 1.01;
  drifted.total_energy_j =
      drifted.enclosure_energy_j + drifted.controller_energy_j;
  std::vector<SummaryDiff> diffs = CompareSummaries(summary, drifted, 1e-6);
  ASSERT_FALSE(diffs.empty());
  bool saw_enclosure = false;
  for (const SummaryDiff& d : diffs) {
    if (d.field == "energy.enclosure_j") saw_enclosure = true;
  }
  EXPECT_TRUE(saw_enclosure);
  // ...and pass again once the tolerance covers the drift.
  EXPECT_TRUE(CompareSummaries(summary, drifted, 0.02).empty());

  // The off-window and advisory account and the reconciliation error are
  // gated like the energies: `regress` and `tail --reconcile` check one
  // field set.
  const std::pair<const char*, double Summary::*> ledger_fields[] = {
      {"energy.off_credit_j", &Summary::off_credit_j},
      {"energy.off_debit_j", &Summary::off_debit_j},
      {"energy.advisory_credit_j", &Summary::advisory_credit_j},
      {"energy.advisory_debit_j", &Summary::advisory_debit_j},
      {"energy.reconcile_rel_err", &Summary::reconcile_rel_err},
  };
  for (const auto& [name, member] : ledger_fields) {
    drifted = parsed;
    drifted.*member = drifted.*member * 1.01 + 1.0;
    diffs = CompareSummaries(summary, drifted, 1e-6);
    ASSERT_EQ(diffs.size(), 1u) << name;
    EXPECT_EQ(diffs[0].field, name);
  }
}

TEST(SummaryTest, GoldenFilesRoundTripByteForByte) {
  for (const char* name :
       {"golden_summary.json", "golden_summary_fleet.json",
        "golden_summary_tpcc.json", "golden_summary_tpch.json"}) {
    SCOPED_TRACE(name);
    const std::string golden =
        std::string(ECOSTORE_SOURCE_DIR) + "/bench/" + name;
    Summary parsed;
    ASSERT_TRUE(ParseSummaryFile(golden, &parsed).ok());
    EXPECT_GT(parsed.plans, 0);
    EXPECT_FALSE(parsed.latency.empty());
    const std::string path = TempPath(name);
    ASSERT_TRUE(WriteSummaryJson(path, parsed).ok());
    EXPECT_EQ(ReadFile(path), ReadFile(golden));
  }
}

TEST(SummaryTest, CaptureRoundTripPreservesTheSummary) {
  if (!Recorder::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  CapturedRun run = RunInstrumented();
  std::string path = TempPath("roundtrip.jsonl");
  ASSERT_TRUE(WriteJsonl(path, run.meta, run.events).ok());
  ExportMeta meta2;
  std::vector<Event> events2;
  ASSERT_TRUE(ParseJsonl(path, &meta2, &events2).ok());
  ASSERT_EQ(events2.size(), run.events.size());
  // Scoring the re-parsed capture gives the same gate summary: this is
  // what lets CI regress a fresh run against a checked-in golden file.
  Summary a = BuildSummary(run.meta, run.events);
  Summary b = BuildSummary(meta2, events2);
  EXPECT_TRUE(CompareSummaries(a, b, 0.0).empty());
}

// --- hardened capture parsing ---------------------------------------------

TEST(ParseJsonlTest, TruncatedLineReportsLineNumber) {
  std::string path = TempPath("trunc.jsonl");
  WriteFile(path,
            "{\"type\":\"meta\",\"workload\":\"w\",\"policy\":\"p\","
            "\"enclosures\":1,\"duration_us\":1000,\"events\":1}\n"
            "{\"type\":\"event\",\"kind\":\"idle_gap\",\"t\":5\n");
  ExportMeta meta;
  std::vector<Event> events;
  Status st = ParseJsonl(path, &meta, &events);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find(":2:"), std::string::npos) << st.ToString();
  EXPECT_NE(st.ToString().find("unterminated"), std::string::npos);
}

TEST(ParseJsonlTest, MissingEventsReportsTruncation) {
  std::string path = TempPath("short.jsonl");
  WriteFile(path,
            "{\"type\":\"meta\",\"workload\":\"w\",\"policy\":\"p\","
            "\"enclosures\":1,\"duration_us\":1000,\"events\":3}\n"
            "{\"type\":\"event\",\"kind\":\"idle_gap\",\"t\":5,"
            "\"enc\":0,\"gap_us\":5}\n");
  ExportMeta meta;
  std::vector<Event> events;
  Status st = ParseJsonl(path, &meta, &events);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("truncated"), std::string::npos)
      << st.ToString();
}

TEST(ParseJsonlTest, GarbageLineReportsLineNumber) {
  std::string path = TempPath("garbage.jsonl");
  WriteFile(path,
            "{\"type\":\"meta\",\"workload\":\"w\",\"policy\":\"p\","
            "\"enclosures\":1,\"duration_us\":1000,\"events\":0}\n"
            "this is not json\n");
  ExportMeta meta;
  std::vector<Event> events;
  Status st = ParseJsonl(path, &meta, &events);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find(":2:"), std::string::npos) << st.ToString();
}

TEST(ParseJsonlTest, UnknownTypeLinesAreSkippedForForwardCompat) {
  std::string path = TempPath("forward.jsonl");
  WriteFile(path,
            "{\"type\":\"meta\",\"workload\":\"w\",\"policy\":\"p\","
            "\"enclosures\":1,\"duration_us\":1000,\"events\":1}\n"
            "{\"type\":\"future_section\",\"x\":1}\n"
            "{\"type\":\"event\",\"kind\":\"idle_gap\",\"t\":5,"
            "\"enc\":0,\"gap_us\":5}\n");
  ExportMeta meta;
  std::vector<Event> events;
  ASSERT_TRUE(ParseJsonl(path, &meta, &events).ok());
  EXPECT_EQ(events.size(), 1u);
}

}  // namespace
}  // namespace ecostore::telemetry::analysis
