#ifndef ECOSTORE_TELEMETRY_PROFILE_PROFILER_H_
#define ECOSTORE_TELEMETRY_PROFILE_PROFILER_H_

// Wall-clock phase profiler for the replay engines (DESIGN.md §15).
//
// The telemetry recorder observes *simulated* time exhaustively; this
// layer observes the engine's own *wall-clock* behaviour: scoped phase
// timers on std::chrono::steady_clock writing 32-byte POD spans into the
// same PerThreadRing (telemetry/per_thread_ring.h) as the event recorder
// (telemetry/recorder.h). Spans carry a lane tag (0 = serial /
// coordinator, lane L+1 = sharded lane L) and a correlation id (the
// monitoring-period index on the serial engine, the epoch index on the
// sharded engine) so wall-time profiles line up with the sim-time event
// stream across the two clock domains.
//
// Two compile modes, exactly mirroring the recorder:
//  - enabled (default): the real profiler below. An un-profiled run pays
//    one thread-local load + branch per ScopedPhase site; a profiled
//    thread pays two steady_clock reads per span plus one 32-byte store.
//  - ECOSTORE_PROFILE_DISABLED (CMake -DECOSTORE_PROFILE=OFF): the whole
//    API collapses to empty inline stubs (sizeof(Profiler) == 1, asserted
//    by tests/profile_disabled_test.cc) and every ScopedPhase folds away.
//
// The profiler is bound per *thread*, not threaded through call
// signatures: Experiment::Run / sharded lane workers install it with
// ScopedThreadProfiler, and interior phases (classify-finalise, plan,
// migrate, flush — core/ code with no profiler parameter) just open a
// ScopedPhase, which is inert unless the thread is bound. The profiler
// never touches simulator or policy state, so attaching one cannot change
// replay results (enforced by the fingerprint gate, which runs every job
// with a profiler attached).
//
// Thread model: Record() is wait-free on the recording thread once its
// ring is bound (binding takes a mutex once per (thread, profiler) pair).
// Drain() requires writers to be quiescent — it runs after the engine
// returns.

#include <chrono>
#include <cstdint>
#include <type_traits>
#include <vector>

#ifndef ECOSTORE_PROFILE_DISABLED
#include "telemetry/per_thread_ring.h"
#endif

namespace ecostore::telemetry::profile {

/// Which part of the engine a span covers. Serial phases first, sharded
/// phases after; the numeric values are part of the capture format, so
/// new phases append before kCount.
enum class Phase : uint16_t {
  kNone = 0,

  // --- serial replay pipeline (replay/experiment.cc + core/) ----------
  kIngest,           ///< one replay batch: generate + submit + account
  kClassifyFinalize, ///< PatternClassifier::Finalize at a period end
  kPlan,             ///< placement / cache planning (incremental or full)
  kMigrate,          ///< migration requests enacted from one plan
  kFlush,            ///< write-delay / preload / spin-down enactment
  kLedgerPump,       ///< mid-run telemetry pump into stream consumers
  kPeriodEnd,        ///< one whole DoPeriodEnd (parent of the above)
  kFinalize,         ///< end-of-run accounting after the hot loop

  // --- sharded engine (replay/sharded_experiment.cc) -------------------
  kEpoch,       ///< one bounded sim-time epoch on the coordinator
  kScatter,     ///< routing generated records into lane inboxes
  kLaneAdvance, ///< one lane consuming its inbox up to t_stop (busy time)
  kBarrierWait, ///< coordinator blocked on lane futures (contention)
  kMerge,       ///< barrier merge: lane telemetry drain + hook replay

  kCount
};

inline const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kNone: return "none";
    case Phase::kIngest: return "ingest";
    case Phase::kClassifyFinalize: return "classify_finalize";
    case Phase::kPlan: return "plan";
    case Phase::kMigrate: return "migrate";
    case Phase::kFlush: return "flush";
    case Phase::kLedgerPump: return "ledger_pump";
    case Phase::kPeriodEnd: return "period_end";
    case Phase::kFinalize: return "finalize";
    case Phase::kEpoch: return "epoch";
    case Phase::kScatter: return "scatter";
    case Phase::kLaneAdvance: return "lane_advance";
    case Phase::kBarrierWait: return "barrier_wait";
    case Phase::kMerge: return "merge";
    case Phase::kCount: break;
  }
  return "?";
}

/// \brief One closed wall-clock span. 32-byte trivially copyable POD so
/// per-thread rings are flat arrays and recording is one bounds check +
/// one 32-byte store (the profiler's analogue of the 48-byte Event).
/// `start_ns` is relative to the owning Profiler's construction instant
/// (steady_clock), `lane` is 0 for serial / coordinator work and
/// shard + 1 for sharded lanes, `seq` is the period / epoch correlation
/// id and `detail` is a phase-specific magnitude (batch records, inbox
/// events, queue depth, ...).
struct Span {
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint16_t phase = 0;  ///< Phase numeric value
  uint16_t lane = 0;
  uint32_t seq = 0;
  int64_t detail = 0;
};

static_assert(std::is_trivially_copyable_v<Span>);
static_assert(sizeof(Span) == 32, "Span grew past its 32-byte budget");

#ifdef ECOSTORE_PROFILE_DISABLED

/// Compiled-out profiler: every member is an empty inline stub, so
/// ScopedPhase sites are dead code the optimiser removes entirely. No .cc
/// symbol is referenced, so translation units compiled with
/// ECOSTORE_PROFILE_DISABLED need not link the library. sizeof(Profiler)
/// must stay 1 so embedding a profiler pointer/member costs nothing.
class Profiler {
 public:
  struct Options {
    size_t thread_ring_capacity = 1u << 18;
  };

  static constexpr bool kEnabled = false;

  Profiler() = default;
  explicit Profiler(const Options&) {}

  void Record(const Span&) {}
  uint64_t recorded() const { return 0; }
  uint64_t dropped() const { return 0; }
  std::vector<Span> Drain() { return {}; }
  void DrainInto(std::vector<Span>* out) { out->clear(); }
  int64_t NowNs() const { return 0; }
};

static_assert(sizeof(Profiler) == 1,
              "disabled Profiler must stay an empty stub");

inline Profiler* SetThreadProfiler(Profiler*) { return nullptr; }
inline Profiler* ThreadProfiler() { return nullptr; }
inline uint16_t SetThreadProfileLane(uint16_t) { return 0; }
inline uint16_t ThreadProfileLane() { return 0; }
inline uint32_t SetThreadCorrelation(uint32_t) { return 0; }
inline uint32_t ThreadCorrelation() { return 0; }

/// Compiled-out scope: constructing one is a no-op of zero size impact.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase, int64_t = 0) {}
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
};

#else  // !ECOSTORE_PROFILE_DISABLED

/// \brief The enabled wall-clock profiler (see file header).
class Profiler {
 public:
  struct Options {
    /// Per-thread ring capacity in spans (32 B each). Once a thread's
    /// ring is full the oldest spans are overwritten and accounted in
    /// dropped(). Rings grow lazily, so an idle profiler costs nothing.
    size_t thread_ring_capacity = 1u << 18;
  };

  static constexpr bool kEnabled = true;

  Profiler() : Profiler(Options{}) {}
  explicit Profiler(const Options& options)
      : ring_(options.thread_ring_capacity),
        epoch_(std::chrono::steady_clock::now()) {}
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Appends one span to the calling thread's ring (wait-free once the
  /// thread is bound; first call per thread binds under a mutex).
  void Record(const Span& span);

  /// Nanoseconds since this profiler's construction (its span epoch).
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  int64_t SinceEpochNs(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// Spans successfully recorded (still resident or overwritten).
  uint64_t recorded() const { return ring_.recorded(); }
  /// Spans overwritten because a ring wrapped, summed over all threads.
  uint64_t dropped() const { return ring_.dropped(); }

  /// Merges all thread rings into one stream ordered by start time
  /// (stable: ties keep per-thread record order, then lane order) and
  /// resets the rings. Callers must ensure no Record() runs concurrently.
  std::vector<Span> Drain();
  void DrainInto(std::vector<Span>* out);

 private:
  PerThreadRing<Span> ring_;
  std::chrono::steady_clock::time_point epoch_;
};

/// Binds `profiler` as the calling thread's span sink; every ScopedPhase
/// on this thread records into it until rebound. Returns the previous
/// binding. Thread-local on purpose: interior phases (core/ planning
/// code) need no profiler parameter, and an un-profiled run keeps the
/// binding null so every ScopedPhase is a load + branch.
Profiler* SetThreadProfiler(Profiler* profiler);
Profiler* ThreadProfiler();

/// Lane tag stamped into Span::lane (0 serial / coordinator; the sharded
/// engine tags workers with shard + 1, mirroring telemetry's thread-shard
/// tag but independent of the telemetry compile mode).
uint16_t SetThreadProfileLane(uint16_t lane);
uint16_t ThreadProfileLane();

/// Correlation id stamped into Span::seq: the monitoring-period index on
/// the serial engine, the epoch index on the sharded engine. This is the
/// join key between the wall-clock track and the sim-time event stream.
uint32_t SetThreadCorrelation(uint32_t seq);
uint32_t ThreadCorrelation();

/// \brief RAII phase timer. Reads the thread binding once at entry; when
/// the thread is unbound (the un-profiled common case) both ends are a
/// branch and no clock is read.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase, int64_t detail = 0)
      : profiler_(ThreadProfiler()) {
    if (profiler_ == nullptr) return;
    phase_ = phase;
    detail_ = detail;
    start_ = std::chrono::steady_clock::now();
  }

  ~ScopedPhase() {
    if (profiler_ == nullptr) return;
    auto end = std::chrono::steady_clock::now();
    Span span;
    span.start_ns = profiler_->SinceEpochNs(start_);
    span.dur_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count();
    span.phase = static_cast<uint16_t>(phase_);
    span.lane = ThreadProfileLane();
    span.seq = ThreadCorrelation();
    span.detail = detail_;
    profiler_->Record(span);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Profiler* profiler_;
  Phase phase_ = Phase::kNone;
  int64_t detail_ = 0;
  std::chrono::steady_clock::time_point start_;
};

#endif  // ECOSTORE_PROFILE_DISABLED

/// RAII thread binding: installs `profiler` (possibly null — an engine
/// configured without one deliberately masks any stale outer binding for
/// its scope) and restores the previous binding on exit.
class ScopedThreadProfiler {
 public:
  explicit ScopedThreadProfiler(Profiler* profiler)
      : previous_(SetThreadProfiler(profiler)) {}
  ~ScopedThreadProfiler() { SetThreadProfiler(previous_); }

  ScopedThreadProfiler(const ScopedThreadProfiler&) = delete;
  ScopedThreadProfiler& operator=(const ScopedThreadProfiler&) = delete;

 private:
  Profiler* previous_;
};

/// RAII lane tag for one epoch's lane advance (sharded workers).
class ScopedProfileLane {
 public:
  explicit ScopedProfileLane(uint16_t lane)
      : previous_(SetThreadProfileLane(lane)) {}
  ~ScopedProfileLane() { SetThreadProfileLane(previous_); }

  ScopedProfileLane(const ScopedProfileLane&) = delete;
  ScopedProfileLane& operator=(const ScopedProfileLane&) = delete;

 private:
  uint16_t previous_;
};

/// RAII correlation id (period index / epoch index) for a scope.
class ScopedCorrelation {
 public:
  explicit ScopedCorrelation(uint32_t seq)
      : previous_(SetThreadCorrelation(seq)) {}
  ~ScopedCorrelation() { SetThreadCorrelation(previous_); }

  ScopedCorrelation(const ScopedCorrelation&) = delete;
  ScopedCorrelation& operator=(const ScopedCorrelation&) = delete;

 private:
  uint32_t previous_;
};

}  // namespace ecostore::telemetry::profile

#endif  // ECOSTORE_TELEMETRY_PROFILE_PROFILER_H_
