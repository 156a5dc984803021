#ifndef ECOSTORE_TELEMETRY_RECORDER_H_
#define ECOSTORE_TELEMETRY_RECORDER_H_

// The event recorder: fixed-size POD events appended to per-thread ring
// buffers, with typed counters/gauges and a LogSink bridge so library log
// lines land next to the event stream with simulated timestamps.
//
// Two compile modes:
//  - enabled (default): the real recorder below. A site costs one
//    pointer test + one mask test when the class is filtered out, and one
//    48-byte store into a thread-bound ring when it records.
//  - ECOSTORE_TELEMETRY_DISABLED (CMake -DECOSTORE_TELEMETRY=OFF): the
//    whole API collapses to empty inline stubs (sizeof(Recorder) == 1,
//    asserted by tests/telemetry_disabled_test.cc) and Wants() is
//    constant false, so every event site folds away at compile time.
//
// Thread model: events go into a PerThreadRing (per_thread_ring.h), so
// Record() is wait-free on the recording thread once its ring is bound
// (binding takes a mutex once per (thread, recorder) pair). Drain()
// requires writers to be quiescent — it is called after Experiment::Run()
// returns, when the single replay thread is done.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "telemetry/event.h"

#ifndef ECOSTORE_TELEMETRY_DISABLED
#include "telemetry/per_thread_ring.h"
#endif

namespace ecostore::telemetry {

/// One captured log line (see LogSink bridge).
struct LogLine {
  LogLevel level = LogLevel::kInfo;
  SimTime sim_time = -1;
  std::string file;
  int line = 0;
  std::string message;
};

#ifdef ECOSTORE_TELEMETRY_DISABLED

/// Compiled-out counter: all operations vanish.
class Counter {
 public:
  void Add(int64_t) {}
  void Increment() {}
  int64_t value() const { return 0; }
};

/// Compiled-out gauge.
class Gauge {
 public:
  void Set(int64_t) {}
  void Max(int64_t) {}
  int64_t value() const { return 0; }
};

/// Compiled-out recorder: every member is an empty inline stub, so call
/// sites guarded by Wants() (constant false) are dead code the optimiser
/// removes entirely. No .cc symbol is referenced, so translation units
/// compiled with ECOSTORE_TELEMETRY_DISABLED need not link the library.
/// Deliberately NOT a LogSink (no vtable): sizeof(Recorder) must stay 1
/// so embedding a recorder pointer/member costs nothing measurable.
class Recorder {
 public:
  struct Options {
    size_t thread_buffer_capacity = 1u << 18;
    uint32_t mask = kClassDefault;
  };

  static constexpr bool kEnabled = false;

  Recorder() = default;
  explicit Recorder(const Options&) {}

  uint32_t mask() const { return 0; }
  void set_mask(uint32_t) {}
  void Record(const Event&) {}
  uint64_t dropped() const { return 0; }
  uint64_t recorded() const { return 0; }
  std::vector<Event> Drain() { return {}; }
  void DrainInto(std::vector<Event>* out) { out->clear(); }
  std::vector<LogLine> DrainLogs() { return {}; }
  Counter* counter(const std::string&) {
    static Counter c;
    return &c;
  }
  Gauge* gauge(const std::string&) {
    static Gauge g;
    return &g;
  }
  std::vector<std::pair<std::string, int64_t>> CounterValues() const {
    return {};
  }
  std::vector<std::pair<std::string, int64_t>> GaugeValues() const {
    return {};
  }
  void WriteLog(LogLevel, SimTime, const char*, int, const std::string&) {}
};

static_assert(sizeof(Recorder) == 1,
              "disabled Recorder must stay an empty stub");

#else  // !ECOSTORE_TELEMETRY_DISABLED

/// Monotonic counter, relaxed atomics (telemetry needs no ordering).
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins gauge with a monotone-max helper.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Max(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief The enabled event recorder (see file header).
class Recorder : public LogSink {
 public:
  struct Options {
    /// Per-thread ring capacity in events (48 B each). Once a thread's
    /// ring is full the oldest events are overwritten and accounted in
    /// dropped(). Rings grow lazily, so an idle recorder costs nothing.
    size_t thread_buffer_capacity = 1u << 18;
    /// Event classes to record (kClass* bitmask).
    uint32_t mask = kClassDefault;
  };

  static constexpr bool kEnabled = true;

  Recorder() : Recorder(Options{}) {}
  explicit Recorder(const Options& options)
      : ring_(options.thread_buffer_capacity), mask_(options.mask) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Current class filter; Wants() tests it without a virtual call.
  uint32_t mask() const { return mask_.load(std::memory_order_relaxed); }
  void set_mask(uint32_t mask) {
    mask_.store(mask, std::memory_order_relaxed);
  }

  /// Appends one event to the calling thread's ring (wait-free once the
  /// thread is bound; first call per thread binds under a mutex).
  void Record(const Event& event);

  /// Events overwritten because a ring wrapped, summed over all threads.
  uint64_t dropped() const { return ring_.dropped(); }
  /// Events successfully recorded (still resident or overwritten).
  uint64_t recorded() const { return ring_.recorded(); }

  /// Merges all thread buffers into one stream ordered by simulated time
  /// (stable: same-time events keep their per-thread record order) and
  /// resets the rings. Callers must ensure no Record() runs concurrently.
  std::vector<Event> Drain();

  /// Drain() into a caller-owned buffer (cleared first). Streaming
  /// consumers pump repeatedly mid-run; reusing one scratch vector keeps
  /// each pump allocation-free once it reaches steady state.
  void DrainInto(std::vector<Event>* out);

  /// Takes the captured log lines (see WriteLog).
  std::vector<LogLine> DrainLogs();

  /// Named counter/gauge registry. Pointers stay valid for the
  /// recorder's lifetime; lookups take a mutex (keep them out of per-I/O
  /// paths: resolve once, hold the pointer).
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  std::vector<std::pair<std::string, int64_t>> CounterValues() const;
  std::vector<std::pair<std::string, int64_t>> GaugeValues() const;

  /// LogSink: captures the line with its simulated timestamp. Mutex-
  /// guarded — logging is the cold path by design.
  void WriteLog(LogLevel level, SimTime sim_time, const char* file, int line,
                const std::string& message) override;

 private:
  PerThreadRing<Event> ring_;
  std::atomic<uint32_t> mask_;

  mutable std::mutex mu_;  ///< guards registries and logs
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<LogLine> logs_;
};

#endif  // ECOSTORE_TELEMETRY_DISABLED

#ifdef ECOSTORE_TELEMETRY_DISABLED

inline uint16_t SetThreadShard(uint16_t) { return 0; }
inline uint16_t ThreadShard() { return 0; }

#else

/// Sets the calling thread's shard tag; every subsequent Record() on this
/// thread (any recorder) stamps it into Event::shard. Serial runs never
/// touch it, so they record shard 0 everywhere. Returns the previous tag.
uint16_t SetThreadShard(uint16_t shard);
uint16_t ThreadShard();

#endif  // ECOSTORE_TELEMETRY_DISABLED

/// RAII shard tag for one epoch's lane advance (or the coordinator's
/// barrier work): tags the thread for the scope, restores on exit. The
/// sharded engine wraps every pool task in one of these so a worker
/// thread that serves different lanes across epochs always stamps the
/// lane it is currently advancing.
class ScopedShardTag {
 public:
  explicit ScopedShardTag(uint16_t shard) : previous_(SetThreadShard(shard)) {}
  ~ScopedShardTag() { SetThreadShard(previous_); }

  ScopedShardTag(const ScopedShardTag&) = delete;
  ScopedShardTag& operator=(const ScopedShardTag&) = delete;

 private:
  uint16_t previous_;
};

/// The universal event-site guard: one null test + one mask test when
/// telemetry is compiled in, constant false (dead code) when it is not.
inline bool Wants(const Recorder* recorder, uint32_t event_class) {
#ifdef ECOSTORE_TELEMETRY_DISABLED
  (void)recorder;
  (void)event_class;
  return false;
#else
  return recorder != nullptr && (recorder->mask() & event_class) != 0;
#endif
}

/// \brief RAII bridge: routes this thread's Logger output into `recorder`
/// with timestamps from `clock(ctx)` for the scope's duration. The clock
/// is a captureless function pointer because common/ cannot depend on
/// sim/ — the experiment passes `[](const void* s) { return
/// static_cast<const sim::Simulator*>(s)->Now(); }`.
class ScopedLoggerBridge {
 public:
  ScopedLoggerBridge(Recorder* recorder, Logger::SimTimeFn clock,
                     const void* ctx) {
#ifdef ECOSTORE_TELEMETRY_DISABLED
    (void)recorder;
    (void)clock;
    (void)ctx;
#else
    if (recorder != nullptr) {
      previous_sink_ = Logger::SetThreadSink(recorder);
      Logger::SetThreadSimClock(clock, ctx);
      active_ = true;
    }
#endif
  }

  ~ScopedLoggerBridge() {
#ifndef ECOSTORE_TELEMETRY_DISABLED
    if (active_) {
      Logger::SetThreadSink(previous_sink_);
      Logger::SetThreadSimClock(nullptr, nullptr);
    }
#endif
  }

  ScopedLoggerBridge(const ScopedLoggerBridge&) = delete;
  ScopedLoggerBridge& operator=(const ScopedLoggerBridge&) = delete;

 private:
#ifndef ECOSTORE_TELEMETRY_DISABLED
  LogSink* previous_sink_ = nullptr;
  bool active_ = false;
#endif
};

}  // namespace ecostore::telemetry

#endif  // ECOSTORE_TELEMETRY_RECORDER_H_
