// Replay benchmark: replays one workload under EcoStoragePolicy, over and
// over for a host-time budget, checks every run, and prints its metrics
// as one JSON object on the last line of standard output.
//
//   replay_bench --workload <fileserver|fleet> --seed <n>
//                --seconds <s> --trace <0|1>
//
// --trace 0 runs untraced replays on the serial engine and reports the
// end-to-end metrics. --trace 1 alternates untraced and traced replays
// and reports the per-layer metrics; the traced-vs-untraced gap is the
// tracing overhead. On fleet it first replays the same trace once, traced,
// on the sharded engine (4 lanes) for the sharded engine's per-layer
// metrics; the serial replays get what is left of the budget.
//
// Layers are measured from outside, through decorators on the public
// interfaces the replay engine calls:
//   TimedWorkload  workload::Workload::NextBatch (records, host time)
//   TimedPolicy    policies::StoragePolicy::OnPeriodEnd (host time)
//   ActuatorProxy  policies::PolicyActuator handed to the inner policy:
//                  counts RequestMigration and wraps the sink passed to
//                  AttachLogicalIoSink in a TimedSink
//   TimedSink      monitor::LogicalIoSink::OnLogicalIo (sampled time)
// and through the phase spans the engine itself records into an attached
// telemetry::profile::Profiler (classify-finalise, plan, migrate, flush,
// and the sharded engine's epoch phases).
//
// Untraced replays attach the policy decorator (a few dozen calls per run)
// and the workload decorator in count-only mode (one extra virtual call
// per batch of records); neither reads a clock per logical I/O.
//
// Every replay, set-up included, runs in a child process of its own
// (RunReplayInChild), which hands its figures back through a pipe.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/eco_storage_policy.h"
#include "replay/experiment.h"
#include "replay/sharded_experiment.h"
#include "telemetry/profile/profiler.h"
#include "workload/cloud_block_workload.h"
#include "workload/file_server_workload.h"

using namespace ecostore;  // NOLINT

namespace {

using Clock = std::chrono::steady_clock;
namespace profile = telemetry::profile;

/// CPU time of all the process's threads, printed beside each replay's
/// wall time: a replay that mostly waits (the sharded engine) shows it.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------------------
// Layer decorators
// ---------------------------------------------------------------------------

/// Forwards a workload, counting the records NextBatch hands out and, when
/// timed, the host time spent inside it. Counters restart at Reset(),
/// which the engine calls at the start of Run().
class TimedWorkload : public workload::Workload {
 public:
  TimedWorkload(std::unique_ptr<workload::Workload> inner, bool timed)
      : inner_(std::move(inner)), timed_(timed) {}

  const workload::WorkloadInfo& info() const override {
    return inner_->info();
  }
  const storage::DataItemCatalog& catalog() const override {
    return inner_->catalog();
  }
  bool Next(trace::LogicalIoRecord* rec) override {
    const bool more = inner_->Next(rec);
    if (more) records_++;
    return more;
  }
  size_t NextBatch(std::vector<trace::LogicalIoRecord>* out,
                   size_t max_records) override {
    if (!timed_) {
      const size_t n = inner_->NextBatch(out, max_records);
      records_ += static_cast<int64_t>(n);
      return n;
    }
    const Clock::time_point start = Clock::now();
    const size_t n = inner_->NextBatch(out, max_records);
    ns_ += NsSince(start);
    calls_++;
    records_ += static_cast<int64_t>(n);
    return n;
  }
  void Reset() override {
    inner_->Reset();
    records_ = 0;
    calls_ = 0;
    ns_ = 0;
  }

  int64_t records() const { return records_; }
  int64_t calls() const { return calls_; }
  int64_t ns() const { return ns_; }

 private:
  std::unique_ptr<workload::Workload> inner_;
  bool timed_;
  int64_t records_ = 0;
  int64_t calls_ = 0;
  int64_t ns_ = 0;
};

/// Forwards the classifier's logical-I/O sink, timing one call in every
/// kSampleStride. Per-call timing would add two clock reads to every
/// logical I/O; sampling keeps the traced replay close to the untraced
/// one.
class TimedSink : public monitor::LogicalIoSink {
 public:
  static constexpr int64_t kSampleStride = 16;

  void Wrap(monitor::LogicalIoSink* inner) { inner_ = inner; }

  void OnLogicalIo(const trace::LogicalIoRecord& rec) override {
    if (calls_++ % kSampleStride != 0) {
      inner_->OnLogicalIo(rec);
      return;
    }
    const Clock::time_point start = Clock::now();
    inner_->OnLogicalIo(rec);
    sampled_ns_ += NsSince(start);
    samples_++;
  }

  /// Estimated host time of all calls: the sampled mean, less the cost
  /// of the clock read inside each sample, times the call count.
  double EstimatedNs(double clock_read_ns) const {
    if (samples_ == 0) return 0.0;
    const double per_call =
        static_cast<double>(sampled_ns_) / static_cast<double>(samples_) -
        clock_read_ns;
    return std::max(per_call, 0.0) * static_cast<double>(calls_);
  }
  int64_t calls() const { return calls_; }

 private:
  monitor::LogicalIoSink* inner_ = nullptr;
  int64_t calls_ = 0;
  int64_t samples_ = 0;
  int64_t sampled_ns_ = 0;
};

/// The actuator the inner policy sees: forwards every action to the
/// engine, counts migration requests, and (when tracing) interposes a
/// TimedSink on the streaming classifier's sink.
class ActuatorProxy : public policies::PolicyActuator {
 public:
  explicit ActuatorProxy(bool time_sink) : time_sink_(time_sink) {}

  void Bind(policies::PolicyActuator* engine) { engine_ = engine; }

  SimTime Now() const override { return engine_->Now(); }
  void RequestMigration(DataItemId item, EnclosureId target) override {
    migration_requests_++;
    engine_->RequestMigration(item, target);
  }
  void RequestBlockMigration(EnclosureId from, EnclosureId to,
                             int64_t bytes) override {
    engine_->RequestBlockMigration(from, to, bytes);
  }
  void SetWriteDelayItems(
      const std::unordered_set<DataItemId>& items) override {
    engine_->SetWriteDelayItems(items);
  }
  void SetPreloadItems(
      const std::vector<std::pair<DataItemId, int64_t>>& items) override {
    engine_->SetPreloadItems(items);
  }
  void SetSpinDownAllowed(EnclosureId enclosure, bool allowed) override {
    engine_->SetSpinDownAllowed(enclosure, allowed);
  }
  void TriggerImmediatePeriodEnd() override {
    engine_->TriggerImmediatePeriodEnd();
  }
  void PublishPlan(int32_t plan_id,
                   const std::vector<uint8_t>& item_patterns) override {
    engine_->PublishPlan(plan_id, item_patterns);
  }
  bool AttachLogicalIoSink(monitor::LogicalIoSink* sink) override {
    if (!time_sink_) return engine_->AttachLogicalIoSink(sink);
    sink_.Wrap(sink);
    return engine_->AttachLogicalIoSink(&sink_);
  }
  telemetry::Recorder* telemetry() const override {
    return engine_->telemetry();
  }

  int64_t migration_requests() const { return migration_requests_; }
  const TimedSink& sink() const { return sink_; }

 private:
  bool time_sink_;
  policies::PolicyActuator* engine_ = nullptr;
  int64_t migration_requests_ = 0;
  TimedSink sink_;
};

/// Forwards a policy, timing each OnPeriodEnd and handing the inner
/// policy an ActuatorProxy in place of the engine.
class TimedPolicy : public policies::StoragePolicy {
 public:
  TimedPolicy(policies::StoragePolicy* inner, bool time_sink)
      : inner_(inner), proxy_(time_sink) {}

  std::string name() const override { return inner_->name(); }
  SimDuration initial_period() const override {
    return inner_->initial_period();
  }
  void Start(const storage::StorageSystem& system,
             policies::PolicyActuator* actuator) override {
    proxy_.Bind(actuator);
    inner_->Start(system, &proxy_);
  }
  SimDuration OnPeriodEnd(const monitor::MonitorSnapshot& snapshot,
                          const storage::StorageSystem& system,
                          policies::PolicyActuator* actuator) override {
    proxy_.Bind(actuator);
    const Clock::time_point start = Clock::now();
    const SimDuration next = inner_->OnPeriodEnd(snapshot, system, &proxy_);
    period_end_ns_.push_back(NsSince(start));
    return next;
  }
  void OnIdleGapEnd(EnclosureId enclosure, SimTime at,
                    SimDuration gap) override {
    inner_->OnIdleGapEnd(enclosure, at, gap);
  }
  void OnPowerOn(EnclosureId enclosure, SimTime at) override {
    inner_->OnPowerOn(enclosure, at);
  }
  void OnPhysicalIo(const trace::PhysicalIoRecord& rec) override {
    inner_->OnPhysicalIo(rec);
  }
  int64_t placement_determinations() const override {
    return inner_->placement_determinations();
  }
  bool wants_logical_trace() const override {
    return inner_->wants_logical_trace();
  }

  const std::vector<int64_t>& period_end_ns() const {
    return period_end_ns_;
  }
  const ActuatorProxy& proxy() const { return proxy_; }

 private:
  policies::StoragePolicy* inner_;
  ActuatorProxy proxy_;
  std::vector<int64_t> period_end_ns_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

using WorkloadPtr = std::unique_ptr<workload::Workload>;

struct WorkloadSpec {
  const char* name;
  const char* why;
  /// When > 1, traced runs also replay the trace once on the sharded
  /// engine with this many lanes (per-layer metrics only: its wall time
  /// swings too far between runs on a shared host to gate end to end).
  int sharded_lanes;
  std::function<Result<WorkloadPtr>(uint64_t seed)> create;
};

Result<WorkloadPtr> CreateFileServer(uint64_t seed) {
  workload::FileServerConfig config;  // paper configuration, 6 h
  config.seed = seed;
  auto wl = workload::FileServerWorkload::Create(config);
  if (!wl.ok()) return wl.status();
  return WorkloadPtr(std::move(wl).value());
}

Result<WorkloadPtr> CreateFleet(uint64_t seed) {
  workload::CloudBlockConfig config;
  // 250 enclosures, not 1 000: a replay's host time then moves half as
  // much when another process streams through memory (6 % vs 13 % with
  // one such process on a 4-vCPU host), so other tenants move it less.
  config.duration = 1 * kHour;  // five period ends; ~0.73 M logical I/Os
  config.num_enclosures = 250;
  config.volumes_per_enclosure = 10;
  config.items_per_volume = 10;
  config.seed = seed;
  auto wl = workload::CloudBlockWorkload::Create(config);
  if (!wl.ok()) return wl.status();
  return WorkloadPtr(std::move(wl).value());
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"fileserver",
       "paper headline file server (12 enclosures, 6 h): tiny catalog, so "
       "the per-I/O path - generation, sink, replay loop, cache, "
       "simulator - does the work",
       0, CreateFileServer},
      {"fleet",
       "250 enclosures / 25k items, write-dominant and bursty: period ends "
       "cost ~18x fileserver's and load write delay and consolidation",
       4, CreateFleet},
  };
  return specs;
}

// ---------------------------------------------------------------------------
// One replay
// ---------------------------------------------------------------------------

/// Deterministic simulated outcome of a replay; every replay of one seed
/// must produce it bit for bit, traced or not.
struct SimOutcome {
  double avg_power_w = 0;
  double resp_ms_avg = 0;
  double resp_ms_p99 = 0;
  double enclosure_energy = 0;
  int64_t migrated_bytes = 0;
  int64_t spinups = 0;
  int64_t logical_ios = 0;
  int64_t cache_hit_ios = 0;
  int64_t physical_batches = 0;
  int64_t item_migrations = 0;
  int64_t monitoring_periods = 0;
  int64_t sim_events = 0;
  int64_t sim_events_cancelled = 0;
  int64_t sim_peak_heap_depth = 0;
  int64_t placement_determinations = 0;

  bool operator==(const SimOutcome&) const = default;
};

/// Sums of the profiler's spans by phase, plus per-lane busy time.
struct PhaseTotals {
  std::array<int64_t, static_cast<size_t>(profile::Phase::kCount)> ns{};
  std::array<int64_t, static_cast<size_t>(profile::Phase::kCount)> count{};
  std::map<uint16_t, int64_t> lane_busy_ns;
  uint64_t dropped = 0;

  double Ms(profile::Phase phase) const {
    return static_cast<double>(ns[static_cast<size_t>(phase)]) / 1e6;
  }
};

struct Replay {
  bool traced = false;
  std::vector<std::string> failures;
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;
  /// Peak RSS of the replay's process at its end: one set-up plus one
  /// replay, on top of the small parent it was forked from.
  double peak_rss_mib = 0;
  SimOutcome outcome;
  int64_t records = 0;
  int64_t workload_ns = 0;
  double sink_ns = 0;
  std::vector<int64_t> period_end_ns;
  int64_t period_end_sum_ns = 0;
  int64_t migration_requests = 0;
  int64_t incremental_replans = 0;
  int64_t placements_skipped = 0;
  size_t classifier_peak_bytes = 0;
  PhaseTotals phases;
};

/// Profiler ring per thread, in 32-byte spans. A sharded fleet replay
/// records ~4 spans per epoch on the coordinator (~120k epochs per
/// simulated hour); the default 2^18 ring wraps there, this one does not.
constexpr size_t kProfileRing = size_t{1} << 21;

/// Profiler period_end spans wrap the engine's DoPeriodEnd, the policy
/// decorator times the OnPeriodEnd inside it: the residual (profiler
/// minus decorator) is the engine's own period-end work and must lie in
/// [-kResidualFloorMs, kResidualFloorMs + kResidualShare * decorator].
constexpr double kResidualFloorMs = 1.0;
constexpr double kResidualShare = 0.25;

/// The engine under test, serial or sharded.
class Engine {
 public:
  Engine(int shards, workload::Workload* wl,
         policies::StoragePolicy* policy,
         const replay::ExperimentConfig& config) {
    if (shards > 1) {
      sharded_ = std::make_unique<replay::ShardedExperiment>(wl, policy,
                                                             config, shards);
    } else {
      serial_ = std::make_unique<replay::Experiment>(wl, policy, config);
    }
  }
  Result<replay::ExperimentMetrics> Run() {
    return sharded_ != nullptr ? sharded_->Run() : serial_->Run();
  }

 private:
  std::unique_ptr<replay::Experiment> serial_;
  std::unique_ptr<replay::ShardedExperiment> sharded_;
};

PhaseTotals SumSpans(profile::Profiler* profiler) {
  PhaseTotals totals;
  totals.dropped = profiler->dropped();
  for (const profile::Span& span : profiler->Drain()) {
    if (span.phase >= totals.ns.size()) continue;
    totals.ns[span.phase] += span.dur_ns;
    totals.count[span.phase]++;
    if (span.phase == static_cast<uint16_t>(profile::Phase::kLaneAdvance)) {
      totals.lane_busy_ns[span.lane] += span.dur_ns;
    }
  }
  return totals;
}

Replay RunReplay(const WorkloadSpec& spec, uint64_t seed, int shards,
                 bool traced, double clock_read_ns) {
  Replay r;
  r.traced = traced;
  const Clock::time_point setup_start = Clock::now();
  auto created = spec.create(seed);
  if (!created.ok()) {
    r.failures.push_back("workload create: " + created.status().ToString());
    return r;
  }
  TimedWorkload wl(std::move(created).value(), traced);
  core::EcoStoragePolicy eco(core::PowerManagementConfig{});
  TimedPolicy policy(&eco, traced);
  std::unique_ptr<profile::Profiler> profiler;
  replay::ExperimentConfig config;
  if (traced) {
    profile::Profiler::Options options;
    options.thread_ring_capacity = kProfileRing;
    profiler = std::make_unique<profile::Profiler>(options);
    config.profiler = profiler.get();
  }
  Engine engine(shards, &wl, &policy, config);
  r.setup_s = static_cast<double>(NsSince(setup_start)) / 1e9;

  const Clock::time_point run_start = Clock::now();
  const double cpu_start = ProcessCpuSeconds();
  auto result = engine.Run();
  r.cpu_s = ProcessCpuSeconds() - cpu_start;
  const int64_t run_ns = NsSince(run_start);
  r.run_s = static_cast<double>(run_ns) / 1e9;
  if (!result.ok()) {
    r.failures.push_back("run: " + result.status().ToString());
    return r;
  }
  const replay::ExperimentMetrics m = std::move(result).value();

  r.records = wl.records();
  r.workload_ns = wl.ns() - static_cast<int64_t>(
                                static_cast<double>(wl.calls()) *
                                clock_read_ns);
  r.sink_ns = policy.proxy().sink().EstimatedNs(clock_read_ns);
  r.period_end_ns = policy.period_end_ns();
  for (int64_t ns : r.period_end_ns) r.period_end_sum_ns += ns;
  r.migration_requests = policy.proxy().migration_requests();
  r.incremental_replans = eco.incremental_replans();
  r.placements_skipped = eco.placements_skipped();
  r.classifier_peak_bytes = eco.classifier_peak_state_bytes();

  r.outcome.avg_power_w = m.avg_total_power;
  r.outcome.resp_ms_avg = m.avg_response_ms;
  r.outcome.resp_ms_p99 = m.response_us.Quantile(0.99) / 1000.0;
  r.outcome.enclosure_energy = m.enclosure_energy;
  r.outcome.migrated_bytes = m.migrated_bytes;
  r.outcome.spinups = m.spinups;
  r.outcome.logical_ios = m.logical_ios;
  r.outcome.cache_hit_ios = m.cache_hit_ios;
  r.outcome.physical_batches = m.physical_batches;
  r.outcome.item_migrations = m.item_migrations;
  r.outcome.monitoring_periods = m.monitoring_periods;
  r.outcome.sim_events = m.sim_events_executed;
  r.outcome.sim_events_cancelled = m.sim_events_cancelled;
  r.outcome.sim_peak_heap_depth = m.sim_peak_heap_depth;
  r.outcome.placement_determinations = m.placement_determinations;

  // --- per-replay correctness checks ---
  if (m.logical_ios <= 0) r.failures.push_back("no logical I/O replayed");
  if (m.logical_ios != r.records) {
    r.failures.push_back("logical_ios " + std::to_string(m.logical_ios) +
                         " != records generated " +
                         std::to_string(r.records));
  }
  double energy_sum = 0;
  for (const auto& enc : m.per_enclosure) energy_sum += enc.energy;
  if (std::abs(energy_sum - m.enclosure_energy) >
      1e-9 * std::abs(m.enclosure_energy)) {
    r.failures.push_back("enclosure_energy differs from per-enclosure sum");
  }
  if (m.cache_hit_ios > m.logical_ios) {
    r.failures.push_back("cache_hit_ios > logical_ios");
  }
  if (m.item_migrations > r.migration_requests) {
    r.failures.push_back("item_migrations > migration requests");
  }
  if (static_cast<int64_t>(r.period_end_ns.size()) != m.monitoring_periods) {
    r.failures.push_back("period ends timed != monitoring_periods");
  }

  if (traced) {
    r.phases = SumSpans(profiler.get());
    if (!profile::Profiler::kEnabled) {
      r.failures.push_back("profiler compiled out (ECOSTORE_PROFILE=OFF)");
    } else if (r.phases.dropped != 0) {
      r.failures.push_back("profiler dropped " +
                           std::to_string(r.phases.dropped) + " spans");
    } else {
      const double decorator_ms =
          static_cast<double>(r.period_end_sum_ns) / 1e6;
      const double residual_ms =
          r.phases.Ms(profile::Phase::kPeriodEnd) - decorator_ms;
      if (residual_ms < -kResidualFloorMs ||
          residual_ms > kResidualFloorMs + kResidualShare * decorator_ms) {
        r.failures.push_back("period_end cross-check: profiler - decorator "
                             "= " + std::to_string(residual_ms) + " ms");
      }
    }
    if (policy.proxy().sink().calls() != m.logical_ios) {
      r.failures.push_back("sink saw " +
                           std::to_string(policy.proxy().sink().calls()) +
                           " records, engine replayed " +
                           std::to_string(m.logical_ios));
    }
  }
  return r;
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Appends values to a byte string: trivially copyable values as their
/// bytes, strings, vectors and maps as a size followed by their elements.
struct WireWriter {
  std::string bytes;

  template <typename T>
  bool operator()(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
    return true;
  }
  bool operator()(const std::string& v) {
    (*this)(v.size());
    bytes.append(v);
    return true;
  }
  template <typename T>
  bool operator()(const std::vector<T>& v) {
    (*this)(v.size());
    for (const T& e : v) (*this)(e);
    return true;
  }
  template <typename K, typename V>
  bool operator()(const std::map<K, V>& v) {
    (*this)(v.size());
    for (const auto& [key, value] : v) {
      (*this)(key);
      (*this)(value);
    }
    return true;
  }
};

/// Reads back what WireWriter wrote; false once the bytes run out.
struct WireReader {
  const std::string& bytes;
  size_t pos = 0;

  template <typename T>
  bool operator()(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (bytes.size() - pos < sizeof v) return false;
    std::memcpy(&v, bytes.data() + pos, sizeof v);
    pos += sizeof v;
    return true;
  }
  bool operator()(std::string& v) {
    size_t n = 0;
    if (!(*this)(n) || bytes.size() - pos < n) return false;
    v.assign(bytes, pos, n);
    pos += n;
    return true;
  }
  template <typename T>
  bool operator()(std::vector<T>& v) {
    size_t n = 0;
    if (!(*this)(n)) return false;
    v.resize(std::min(n, bytes.size() - pos));
    for (T& e : v) {
      if (!(*this)(e)) return false;
    }
    return v.size() == n;
  }
  template <typename K, typename V>
  bool operator()(std::map<K, V>& v) {
    size_t n = 0;
    if (!(*this)(n)) return false;
    for (size_t i = 0; i < n; ++i) {
      K key{};
      V value{};
      if (!(*this)(key) || !(*this)(value)) return false;
      v[key] = value;
    }
    return true;
  }
};

/// Every field of a Replay, through a WireWriter or a WireReader.
template <typename Wire, typename R>
bool Transfer(Wire& wire, R& r) {
  return wire(r.traced) && wire(r.failures) && wire(r.setup_s) &&
         wire(r.run_s) && wire(r.cpu_s) && wire(r.peak_rss_mib) &&
         wire(r.outcome) && wire(r.records) && wire(r.workload_ns) &&
         wire(r.sink_ns) && wire(r.period_end_ns) &&
         wire(r.period_end_sum_ns) && wire(r.migration_requests) &&
         wire(r.incremental_replans) && wire(r.placements_skipped) &&
         wire(r.classifier_peak_bytes) && wire(r.phases.ns) &&
         wire(r.phases.count) && wire(r.phases.lane_busy_ns) &&
         wire(r.phases.dropped);
}

/// Runs RunReplay in a child process and returns what it measured.
/// Where a process's heap lands in physical memory sets how its working
/// set collides in the cache: on a shared 4-vCPU host, one process's
/// replays ran at a steady speed while separate processes differed by up
/// to 2x. A fresh process per replay samples a new placement each time,
/// so the medians over a run's replays hold still between runs.
Replay RunReplayInChild(const WorkloadSpec& spec, uint64_t seed, int shards,
                        bool traced, double clock_read_ns) {
  Replay r;
  r.traced = traced;
  int fds[2];
  if (pipe(fds) != 0) {
    r.failures.push_back(std::string("pipe: ") + std::strerror(errno));
    return r;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    r.failures.push_back(std::string("fork: ") + std::strerror(errno));
    close(fds[0]);
    close(fds[1]);
    return r;
  }
  if (pid == 0) {
    // Ends with the parent, should the parent be killed mid-replay.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    Replay child = RunReplay(spec, seed, shards, traced, clock_read_ns);
    child.peak_rss_mib = PeakRssMib();
    WireWriter writer;
    Transfer(writer, child);
    size_t sent = 0;
    while (sent < writer.bytes.size()) {
      const ssize_t n = write(fds[1], writer.bytes.data() + sent,
                              writer.bytes.size() - sent);
      if (n <= 0 && errno != EINTR) _exit(1);
      if (n > 0) sent += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  while (true) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      bytes.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  WireReader reader{bytes};
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !Transfer(reader, r) || reader.pos != bytes.size()) {
    r = Replay{};
    r.traced = traced;
    r.failures.push_back("replay process ended with status " +
                         std::to_string(status) + " after sending " +
                         std::to_string(bytes.size()) + " bytes");
  }
  return r;
}

/// Host cost of one steady_clock read, subtracted from each timed
/// interval (an interval contains one read besides the work).
double CalibrateClockReadNs() {
  constexpr int kReads = 20000;
  double best = 1e9;
  for (int trial = 0; trial < 5; ++trial) {
    const Clock::time_point start = Clock::now();
    Clock::time_point last = start;
    for (int i = 0; i < kReads; ++i) last = Clock::now();
    const double per =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(last -
                                                                 start)
                .count()) /
        kReads;
    best = std::min(best, per);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Which end-to-end metric each per-layer metric should move, and on
/// which workload: the prediction a change to that layer states.
struct LayerLink {
  const char* metric;
  const char* moves;
};

constexpr LayerLink kLayerMap[] = {
    {"workload.ns_per_lio",
     "replay_lios_per_s on all workloads, most on fleet"},
    {"monitor.sink_ns_per_lio",
     "replay_lios_per_s on fleet, and replay.sharded_lios_per_s (the "
     "sink runs on the coordinator's critical path); little on "
     "fileserver"},
    {"monitor.classifier_peak_state_mib", "peak_rss_mib on fleet"},
    {"core.classify_finalize_ms core.plan_ms core.flush_ms "
     "core.migrate_ms core.placement_determinations "
     "core.incremental_replans core.placements_skipped",
     "core.period_end_ms_p50 and core.period_end_ms_sum on fleet; no "
     "change on fileserver"},
    {"replay.loop_self_ns_per_lio",
     "replay_lios_per_s on fileserver (replay loop + storage + simulator "
     "dispatch residual)"},
    {"core.period_end_ms_p50 core.period_end_ms_sum",
     "replay_lios_per_s, by their share of Run() time (~3% on fleet, ~1% "
     "on fileserver)"},
    {"replay.monitoring_periods", "core.period_end_ms_sum"},
    {"replay.migration_requests replay.item_migrations "
     "replay.migration_commit_ratio",
     "sim_migrated_gib and sim_avg_power_w"},
    {"replay.epochs replay.scatter_ms replay.lane_busy_ms_max "
     "replay.lane_busy_ms_mean replay.lane_imbalance "
     "replay.barrier_wait_ms replay.merge_ms",
     "replay.sharded_lios_per_s and replay.sharded_speedup on fleet (the "
     "sharded engine's pay-or-delete figure); no change on the serial "
     "replay_lios_per_s"},
    {"storage.cache_hit_ratio", "sim_resp_ms_avg, via preload on fileserver"},
    {"storage.physical_batches_per_lio",
     "replay_lios_per_s and sim_resp_ms_avg"},
    {"sim.events_per_lio sim.events_cancelled sim.peak_heap_depth",
     "replay_lios_per_s"},
    {"telemetry.trace_overhead_pct telemetry.profile_spans_dropped "
     "telemetry.period_end_residual_ms",
     "validity of the traced run (dropped spans must be 0)"},
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void PrintProvenance(const WorkloadSpec& spec, uint64_t seed, int seconds,
                     bool trace, double clock_read_ns) {
#ifdef ECOSTORE_TELEMETRY_DISABLED
  const char* telemetry_switch = "OFF";
#else
  const char* telemetry_switch = "ON";
#endif
#ifdef ECOSTORE_PROFILE_DISABLED
  const char* profile_switch = "OFF";
#else
  const char* profile_switch = "ON";
#endif
  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"ECOSTORE_TELEMETRY\": \"%s\", "
      "\"ECOSTORE_PROFILE\": \"%s\", \"sharded_lanes\": %d, "
      "\"sink_sample_stride\": %lld, \"clock_read_ns\": %.2f}\n",
      spec.name, static_cast<unsigned long long>(seed), seconds,
      trace ? 1 : 0, std::thread::hardware_concurrency(),
      JsonEscape(CompilerName()).c_str(), PERFBENCH_BUILD_TYPE,
      telemetry_switch, profile_switch, spec.sharded_lanes,
      static_cast<long long>(TimedSink::kSampleStride), clock_read_ns);
  std::printf("why: %s\n", spec.why);
  if (trace) {
    for (const LayerLink& link : kLayerMap) {
      std::printf("layer map: %s -> %s\n", link.metric, link.moves);
    }
    std::printf("cross-check: profiler period_end - decorator "
                "OnPeriodEnd in [-%.1f ms, %.1f ms + %.0f%% of decorator]\n",
                kResidualFloorMs, kResidualFloorMs, kResidualShare * 100);
  }
}

/// Prints the result line. A metric that is not a finite number (a
/// replay that failed before producing it) is printed as 0 and makes the
/// result incorrect.
void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("metric %s is not finite\n", m.name.c_str());
      correct = false;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Median logical I/Os per host second of Run(), over the traced or the
/// untraced replays.
double LiosPerS(const std::vector<Replay>& reps, bool traced) {
  std::vector<double> values;
  for (const Replay& r : reps) {
    if (r.traced == traced) {
      values.push_back(static_cast<double>(r.outcome.logical_ios) / r.run_s);
    }
  }
  return Median(values);
}

/// Host time of each period end, in ms, over the untraced replays. Every
/// replay of a run makes the same decisions, so period end k does the
/// same work each time: its time is the median over replays.
std::vector<double> PeriodEndMs(const std::vector<Replay>& reps) {
  std::vector<double> period_ms;
  for (size_t k = 0; k < reps.front().period_end_ns.size(); ++k) {
    std::vector<double> samples;
    for (const Replay& r : reps) {
      if (!r.traced && k < r.period_end_ns.size()) {
        samples.push_back(static_cast<double>(r.period_end_ns[k]) / 1e6);
      }
    }
    period_ms.push_back(Median(samples));
  }
  return period_ms;
}

/// End-to-end metrics from untraced serial replays.
std::vector<Metric> EndToEnd(const std::vector<Replay>& reps) {
  const SimOutcome& sim = reps.front().outcome;
  std::vector<double> setups;
  std::vector<double> peak_rss_mib;
  for (const Replay& r : reps) {
    setups.push_back(r.setup_s);
    peak_rss_mib.push_back(r.peak_rss_mib);
  }
  return {
      {"replay_lios_per_s", LiosPerS(reps, false), "lios/s"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mib", Median(peak_rss_mib), "MiB"},
      {"sim_avg_power_w", sim.avg_power_w, "W"},
      {"sim_resp_ms_avg", sim.resp_ms_avg, "ms"},
      {"sim_resp_ms_p99", sim.resp_ms_p99, "ms"},
      {"sim_migrated_gib",
       static_cast<double>(sim.migrated_bytes) / static_cast<double>(kGiB),
       "GiB"},
      {"sim_spinups", static_cast<double>(sim.spinups), "count"},
  };
}

/// Median over traced replays of a per-replay figure.
double TracedMedian(const std::vector<Replay>& reps,
                    const std::function<double(const Replay&)>& figure) {
  std::vector<double> values;
  for (const Replay& r : reps) {
    if (r.traced) values.push_back(figure(r));
  }
  return Median(values);
}

double RunSecondsMedian(const std::vector<Replay>& reps, bool traced) {
  std::vector<double> values;
  for (const Replay& r : reps) {
    if (r.traced == traced) values.push_back(r.run_s);
  }
  return Median(values);
}

double LaneBusyMaxMs(const Replay& r) {
  int64_t busy = 0;
  for (const auto& [lane, ns] : r.phases.lane_busy_ns) {
    busy = std::max(busy, ns);
  }
  return static_cast<double>(busy) / 1e6;
}

double LaneBusyMeanMs(const Replay& r) {
  if (r.phases.lane_busy_ns.empty()) return 0.0;
  int64_t busy = 0;
  for (const auto& [lane, ns] : r.phases.lane_busy_ns) busy += ns;
  return static_cast<double>(busy) / 1e6 /
         static_cast<double>(r.phases.lane_busy_ns.size());
}

/// Per-layer metrics: host times from the traced serial replays, counts
/// from the (deterministic) first replay, and the sharded engine's figures
/// from its traced replay in `sharded` (empty for workloads without one).
std::vector<Metric> PerLayer(const std::vector<Replay>& serial,
                             const std::vector<Replay>& sharded) {
  const Replay& first = serial.front();
  const SimOutcome& m = first.outcome;
  const double lios = static_cast<double>(m.logical_ios);
  auto per_lio = [](double ns, const Replay& r) {
    return ns / static_cast<double>(r.records);
  };
  auto phase_ms = [](const std::vector<Replay>& reps, profile::Phase phase) {
    return TracedMedian(
        reps, [phase](const Replay& r) { return r.phases.Ms(phase); });
  };
  auto serial_ms = [&](profile::Phase phase) {
    return phase_ms(serial, phase);
  };
  auto sharded_ms = [&](profile::Phase phase) {
    return phase_ms(sharded, phase);
  };
  uint64_t dropped = 0;
  for (const auto* reps : {&serial, &sharded}) {
    for (const Replay& r : *reps) dropped = std::max(dropped, r.phases.dropped);
  }
  // Like for like: both engines' rates come from traced replays.
  const double serial_lios_per_s = LiosPerS(serial, true);
  const std::vector<double> period_ms = PeriodEndMs(serial);
  double period_sum_ms = 0;
  for (double ms : period_ms) period_sum_ms += ms;
  const double sharded_lios_per_s = LiosPerS(sharded, true);
  const double busy_max = TracedMedian(sharded, LaneBusyMaxMs);
  const double busy_mean = TracedMedian(sharded, LaneBusyMeanMs);
  return {
      {"workload.ns_per_lio",
       TracedMedian(serial,
                    [&](const Replay& r) {
                      return per_lio(static_cast<double>(r.workload_ns), r);
                    }),
       "ns"},
      {"monitor.sink_ns_per_lio",
       TracedMedian(serial,
                    [&](const Replay& r) { return per_lio(r.sink_ns, r); }),
       "ns"},
      {"monitor.classifier_peak_state_mib",
       static_cast<double>(first.classifier_peak_bytes) /
           static_cast<double>(kMiB),
       "MiB"},
      {"core.period_end_ms_p50", Median(period_ms), "ms"},
      {"core.period_end_ms_sum", period_sum_ms, "ms"},
      {"core.classify_finalize_ms",
       serial_ms(profile::Phase::kClassifyFinalize), "ms"},
      {"core.plan_ms", serial_ms(profile::Phase::kPlan), "ms"},
      {"core.flush_ms", serial_ms(profile::Phase::kFlush), "ms"},
      {"core.migrate_ms", serial_ms(profile::Phase::kMigrate), "ms"},
      {"core.placement_determinations",
       static_cast<double>(m.placement_determinations), "count"},
      {"core.incremental_replans",
       static_cast<double>(first.incremental_replans), "count"},
      {"core.placements_skipped",
       static_cast<double>(first.placements_skipped), "count"},
      {"replay.loop_self_ns_per_lio",
       TracedMedian(serial,
                    [&](const Replay& r) {
                      return per_lio(
                          r.run_s * 1e9 -
                              static_cast<double>(r.workload_ns) - r.sink_ns -
                              static_cast<double>(r.period_end_sum_ns),
                          r);
                    }),
       "ns"},
      {"replay.monitoring_periods",
       static_cast<double>(m.monitoring_periods), "count"},
      {"replay.migration_requests",
       static_cast<double>(first.migration_requests), "count"},
      {"replay.item_migrations", static_cast<double>(m.item_migrations),
       "count"},
      {"replay.migration_commit_ratio",
       first.migration_requests > 0
           ? static_cast<double>(m.item_migrations) /
                 static_cast<double>(first.migration_requests)
           : 0.0,
       "ratio"},
      {"replay.sharded_lios_per_s", sharded_lios_per_s, "lios/s"},
      {"replay.sharded_speedup",
       serial_lios_per_s > 0 ? sharded_lios_per_s / serial_lios_per_s : 0.0,
       "ratio"},
      {"replay.epochs",
       TracedMedian(sharded,
                    [](const Replay& r) {
                      return static_cast<double>(
                          r.phases.count[static_cast<size_t>(
                              profile::Phase::kEpoch)]);
                    }),
       "count"},
      {"replay.scatter_ms", sharded_ms(profile::Phase::kScatter), "ms"},
      {"replay.lane_busy_ms_max", busy_max, "ms"},
      {"replay.lane_busy_ms_mean", busy_mean, "ms"},
      {"replay.lane_imbalance", busy_mean > 0 ? busy_max / busy_mean : 0.0,
       "ratio"},
      {"replay.barrier_wait_ms", sharded_ms(profile::Phase::kBarrierWait),
       "ms"},
      {"replay.merge_ms", sharded_ms(profile::Phase::kMerge), "ms"},
      {"storage.cache_hit_ratio",
       static_cast<double>(m.cache_hit_ios) / lios, "ratio"},
      {"storage.physical_batches_per_lio",
       static_cast<double>(m.physical_batches) / lios, "ratio"},
      {"sim.events_per_lio",
       static_cast<double>(m.sim_events) / lios, "ratio"},
      {"sim.events_cancelled", static_cast<double>(m.sim_events_cancelled),
       "count"},
      {"sim.peak_heap_depth", static_cast<double>(m.sim_peak_heap_depth),
       "count"},
      {"telemetry.trace_overhead_pct",
       (RunSecondsMedian(serial, true) / RunSecondsMedian(serial, false) -
        1.0) *
           100.0,
       "%"},
      {"telemetry.profile_spans_dropped", static_cast<double>(dropped),
       "count"},
      {"telemetry.period_end_residual_ms",
       TracedMedian(serial,
                    [](const Replay& r) {
                      return r.phases.Ms(profile::Phase::kPeriodEnd) -
                             static_cast<double>(r.period_end_sum_ns) / 1e6;
                    }),
       "ms"},
  };
}

// ---------------------------------------------------------------------------
// Replay series and main
// ---------------------------------------------------------------------------

/// Serial replays run back to back until the next one would overrun the
/// budget; at least kMinReplays run.
constexpr size_t kMinReplays = 2;

/// Which replays of a series are traced.
enum class Tracing { kNone, kAlternate, kAll };

struct Series {
  std::vector<Replay> reps;
  size_t failed = 0;
};

/// Replays `spec` on an engine with `shards` lanes (1 = serial) until
/// `budget_s` is spent, at least `min_replays` times. Every replay must
/// reproduce the first one's simulated outcome bit for bit.
Series RunSeries(const WorkloadSpec& spec, uint64_t seed, int shards,
                 Tracing tracing, size_t min_replays, double budget_s,
                 double clock_read_ns) {
  Series series;
  const Clock::time_point start = Clock::now();
  double longest_s = 0;
  while (true) {
    const bool traced =
        tracing == Tracing::kAll ||
        (tracing == Tracing::kAlternate && series.reps.size() % 2 == 1);
    Replay r = RunReplayInChild(spec, seed, shards, traced, clock_read_ns);
    if (r.failures.empty() && !series.reps.empty() &&
        !(r.outcome == series.reps.front().outcome)) {
      r.failures.push_back("simulated outcome differs from the first replay");
    }
    const bool ok = r.failures.empty();
    std::printf("replay %zu (%s, %s): setup %.3f s, run %.3f s "
                "(cpu %.3f s), %lld lios, %zu period ends, %s\n",
                series.reps.size() + 1,
                shards > 1 ? "sharded" : "serial",
                traced ? "traced" : "untraced", r.setup_s, r.run_s, r.cpu_s,
                static_cast<long long>(r.outcome.logical_ios),
                r.period_end_ns.size(), ok ? "ok" : "FAILED");
    for (const std::string& f : r.failures) {
      std::printf("  check failed: %s\n", f.c_str());
    }
    if (!ok) series.failed++;
    longest_s = std::max(longest_s, r.setup_s + r.run_s);
    series.reps.push_back(std::move(r));
    // Replays are deterministic: after one fails, the rest would too.
    if (!ok) break;
    const double elapsed = static_cast<double>(NsSince(start)) / 1e9;
    if (series.reps.size() >= min_replays && elapsed + longest_s > budget_s) {
      break;
    }
  }
  return series;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <fileserver|fleet> [--seed N] "
               "[--seconds S] [--trace 0|1]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 42;
  int seconds = 30;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atoi(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value) != 0;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || seconds <= 0) return Usage(argv[0]);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : Workloads()) {
    if (workload_name == s.name) spec = &s;
  }
  if (spec == nullptr) return Usage(argv[0]);

  const double clock_read_ns = CalibrateClockReadNs();
  PrintProvenance(*spec, seed, seconds, trace, clock_read_ns);

  // The sharded replay's wall time swings widely (its epochs wait on
  // thread wake-ups), so it runs first and is charged to the budget.
  const Clock::time_point start = Clock::now();
  const Series sharded =
      trace && spec->sharded_lanes > 1
          ? RunSeries(*spec, seed, spec->sharded_lanes, Tracing::kAll, 1, 0,
                      clock_read_ns)
          : Series{};
  const double left_s = seconds - static_cast<double>(NsSince(start)) / 1e9;
  const Series serial =
      RunSeries(*spec, seed, 1, trace ? Tracing::kAlternate : Tracing::kNone,
                kMinReplays, left_s, clock_read_ns);
  const size_t failed = serial.failed + sharded.failed;

  const SimOutcome& sim = serial.reps.front().outcome;
  std::printf("sim: avg power %.3f W, resp avg %.4f ms p99 %.4f ms, "
              "migrated %.3f GiB, %lld spin-ups, %lld lios\n",
              sim.avg_power_w, sim.resp_ms_avg, sim.resp_ms_p99,
              static_cast<double>(sim.migrated_bytes) /
                  static_cast<double>(kGiB),
              static_cast<long long>(sim.spinups),
              static_cast<long long>(sim.logical_ios));
  const std::vector<Metric> metrics =
      trace ? PerLayer(serial.reps, sharded.reps)
            : EndToEnd(serial.reps);
  PrintResult(failed == 0, serial.reps.size() + sharded.reps.size(), failed,
              metrics);
  return 0;
}
