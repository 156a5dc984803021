// Tests for the wall-clock phase profiler (telemetry/profile/): ring
// semantics, scoped-phase stamping, thread binding, and the two export
// formats (JSONL interchange + real-time Chrome trace).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/profile/profile_export.h"
#include "telemetry/profile/profiler.h"
#include "tests/test_util.h"

namespace ecostore::telemetry::profile {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Span MakeSpan(int64_t start_ns, int64_t dur_ns, Phase phase,
              uint16_t lane = 0, uint32_t seq = 0, int64_t detail = 0) {
  Span s;
  s.start_ns = start_ns;
  s.dur_ns = dur_ns;
  s.phase = static_cast<uint16_t>(phase);
  s.lane = lane;
  s.seq = seq;
  s.detail = detail;
  return s;
}

TEST(ProfilerTest, RecordAndDrain) {
  if (!Profiler::kEnabled) GTEST_SKIP() << "profiler compiled out";
  Profiler profiler;
  profiler.Record(MakeSpan(100, 10, Phase::kIngest));
  profiler.Record(MakeSpan(50, 5, Phase::kPlan));
  EXPECT_EQ(profiler.recorded(), 2u);
  EXPECT_EQ(profiler.dropped(), 0u);

  std::vector<Span> spans = profiler.Drain();
  ASSERT_EQ(spans.size(), 2u);
  // Drain merges in start-time order regardless of record order.
  EXPECT_EQ(spans[0].start_ns, 50);
  EXPECT_EQ(spans[1].start_ns, 100);

  // Drain resets the rings.
  EXPECT_TRUE(profiler.Drain().empty());
}

TEST(ProfilerTest, RingWrapAccountsDropped) {
  if (!Profiler::kEnabled) GTEST_SKIP() << "profiler compiled out";
  Profiler::Options options;
  options.thread_ring_capacity = 4;
  Profiler profiler(options);
  for (int i = 0; i < 10; ++i) {
    profiler.Record(MakeSpan(i, 1, Phase::kIngest));
  }
  EXPECT_EQ(profiler.recorded(), 10u);
  EXPECT_EQ(profiler.dropped(), 6u);  // 10 recorded into a 4-slot ring

  // The survivors are the NEWEST 4 spans, in record order.
  std::vector<Span> spans = profiler.Drain();
  ASSERT_EQ(spans.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].start_ns, 6 + i);
  }
}

TEST(ProfilerTest, MultiThreadRingsMergeSorted) {
  if (!Profiler::kEnabled) GTEST_SKIP() << "profiler compiled out";
  Profiler profiler;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&profiler, t] {
      for (int i = 0; i < 100; ++i) {
        profiler.Record(MakeSpan(i * 4 + t, 1, Phase::kLaneAdvance,
                                 static_cast<uint16_t>(t + 1)));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(profiler.recorded(), 400u);
  EXPECT_EQ(profiler.dropped(), 0u);

  std::vector<Span> spans = profiler.Drain();
  ASSERT_EQ(spans.size(), 400u);
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].start_ns, spans[i].start_ns);
  }
}

TEST(ProfilerTest, ScopedPhaseStampsBindingLaneAndCorrelation) {
  if (!Profiler::kEnabled) GTEST_SKIP() << "profiler compiled out";
  Profiler profiler;
  {
    ScopedThreadProfiler bind(&profiler);
    ScopedProfileLane lane(3);
    ScopedCorrelation corr(17);
    ScopedPhase outer(Phase::kPeriodEnd, 42);
    { ScopedPhase inner(Phase::kPlan); }
  }
  std::vector<Span> spans = profiler.Drain();
  ASSERT_EQ(spans.size(), 2u);
  // The inner span closes first but starts later; Drain orders by start.
  EXPECT_EQ(spans[0].phase, static_cast<uint16_t>(Phase::kPeriodEnd));
  EXPECT_EQ(spans[1].phase, static_cast<uint16_t>(Phase::kPlan));
  for (const Span& s : spans) {
    EXPECT_EQ(s.lane, 3);
    EXPECT_EQ(s.seq, 17u);
    EXPECT_GE(s.dur_ns, 0);
  }
  EXPECT_EQ(spans[0].detail, 42);
  // Nesting: the inner span lies inside the outer one.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].dur_ns,
            spans[0].start_ns + spans[0].dur_ns);
}

TEST(ProfilerTest, UnboundThreadIsInert) {
  if (!Profiler::kEnabled) GTEST_SKIP() << "profiler compiled out";
  Profiler profiler;
  // No ScopedThreadProfiler: phases must not record anywhere.
  { ScopedPhase phase(Phase::kIngest); }
  EXPECT_EQ(profiler.recorded(), 0u);
  EXPECT_TRUE(profiler.Drain().empty());

  // Binding null explicitly masks an outer binding for its scope.
  ScopedThreadProfiler outer(&profiler);
  {
    ScopedThreadProfiler mask(nullptr);
    ScopedPhase phase(Phase::kIngest);
  }
  { ScopedPhase phase(Phase::kPlan); }
  std::vector<Span> spans = profiler.Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].phase, static_cast<uint16_t>(Phase::kPlan));
}

TEST(ProfilerTest, ScopedBindingsRestorePrevious) {
  if (!Profiler::kEnabled) GTEST_SKIP() << "profiler compiled out";
  Profiler a, b;
  ScopedThreadProfiler bind_a(&a);
  {
    ScopedThreadProfiler bind_b(&b);
    EXPECT_EQ(ThreadProfiler(), &b);
  }
  EXPECT_EQ(ThreadProfiler(), &a);
  SetThreadProfileLane(0);
  {
    ScopedProfileLane lane(5);
    EXPECT_EQ(ThreadProfileLane(), 5);
  }
  EXPECT_EQ(ThreadProfileLane(), 0);
  {
    ScopedCorrelation corr(9);
    EXPECT_EQ(ThreadCorrelation(), 9u);
  }
  EXPECT_EQ(ThreadCorrelation(), 0u);
}

TEST(ProfileExportTest, JsonlRoundTrip) {
  ProfileMeta meta;
  meta.workload = "file_server_20min";
  meta.policy = "eco_storage";
  meta.shards = 8;
  meta.host_cpus = 16;
  meta.wall_ns = 1234567890;
  meta.dropped = 3;
  meta.pool_workers = 8;
  meta.pool_tasks = 420;
  meta.pool_busy_ns = 987654321;
  meta.pool_peak_queue = 7;
  std::vector<Span> spans = {
      MakeSpan(100, 50, Phase::kEpoch, 0, 1, 0),
      MakeSpan(110, 20, Phase::kLaneAdvance, 2, 1, 333),
      MakeSpan(160, 5, Phase::kMerge, 0, 1, 0),
  };
  meta.spans = spans.size();

  const std::string path = TempPath("profile_roundtrip.profile.jsonl");
  ASSERT_TRUE(WriteProfileJsonl(path, meta, spans).ok());

  ProfileMeta parsed;
  std::vector<Span> parsed_spans;
  ASSERT_TRUE(ParseProfileJsonl(path, &parsed, &parsed_spans).ok());
  EXPECT_EQ(parsed.workload, meta.workload);
  EXPECT_EQ(parsed.policy, meta.policy);
  EXPECT_EQ(parsed.shards, meta.shards);
  EXPECT_EQ(parsed.host_cpus, meta.host_cpus);
  EXPECT_EQ(parsed.wall_ns, meta.wall_ns);
  EXPECT_EQ(parsed.spans, meta.spans);
  EXPECT_EQ(parsed.dropped, meta.dropped);
  EXPECT_EQ(parsed.pool_workers, meta.pool_workers);
  EXPECT_EQ(parsed.pool_tasks, meta.pool_tasks);
  EXPECT_EQ(parsed.pool_busy_ns, meta.pool_busy_ns);
  EXPECT_EQ(parsed.pool_peak_queue, meta.pool_peak_queue);
  ASSERT_EQ(parsed_spans.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(parsed_spans[i].start_ns, spans[i].start_ns);
    EXPECT_EQ(parsed_spans[i].dur_ns, spans[i].dur_ns);
    EXPECT_EQ(parsed_spans[i].phase, spans[i].phase);
    EXPECT_EQ(parsed_spans[i].lane, spans[i].lane);
    EXPECT_EQ(parsed_spans[i].seq, spans[i].seq);
    EXPECT_EQ(parsed_spans[i].detail, spans[i].detail);
  }
}

TEST(ProfileExportTest, PhaseNamesRoundTrip) {
  for (int p = 0; p < static_cast<int>(Phase::kCount); ++p) {
    const Phase phase = static_cast<Phase>(p);
    EXPECT_EQ(PhaseFromName(PhaseName(phase)), phase);
  }
  EXPECT_EQ(PhaseFromName("not_a_phase"), Phase::kNone);
}

TEST(ProfileExportTest, TraceUsesRealTimeTrack) {
  ProfileMeta meta;
  meta.workload = "w";
  meta.policy = "p";
  meta.spans = 1;
  std::vector<Span> spans = {MakeSpan(1500, 2500, Phase::kPlan, 0, 4, 0)};

  const std::string path = TempPath("profile_trace.trace.json");
  ASSERT_TRUE(WriteProfileTrace(path, meta, spans).ok());
  const std::string text = ReadFile(path);
  // The real-time track lives on pid 10 (the sim-time trace owns pids
  // 0-3) and carries the correlation seq so the two clock domains can be
  // joined.
  EXPECT_NE(text.find("\"pid\":10"), std::string::npos);
  EXPECT_NE(text.find("\"seq\":4"), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"plan\""), std::string::npos);
}

TEST(ProfileExportTest, ExportBaseStripsSuffixes) {
  ProfileMeta meta;
  meta.workload = "w";
  meta.policy = "p";
  std::vector<Span> spans;

  const std::string base = TempPath("profile_base_strip");
  // `--profile=<base>.profile.jsonl` and `--profile=<base>` are the same.
  ASSERT_TRUE(ExportProfile(base + ".profile.jsonl", meta, spans).ok());
  ProfileMeta parsed;
  std::vector<Span> parsed_spans;
  EXPECT_TRUE(
      ParseProfileJsonl(base + ".profile.jsonl", &parsed, &parsed_spans).ok());
  EXPECT_TRUE(std::ifstream(base + ".profile.trace.json").good());
}

TEST(ProfileExportTest, ParseRejectsGarbage) {
  const std::string path = TempPath("profile_garbage.jsonl");
  std::ofstream(path) << "this is not a profile capture\n";
  ProfileMeta meta;
  std::vector<Span> spans;
  EXPECT_FALSE(ParseProfileJsonl(path, &meta, &spans).ok());
}

}  // namespace
}  // namespace ecostore::telemetry::profile
