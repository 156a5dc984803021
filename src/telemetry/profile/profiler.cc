#include "telemetry/profile/profiler.h"

#ifndef ECOSTORE_PROFILE_DISABLED

namespace ecostore::telemetry::profile {

namespace {

/// The thread's active span sink, lane tag and correlation id. All three
/// are thread-local rather than per-profiler so interior phases (core/
/// planning code) need no plumbing: a ScopedPhase reads them directly.
thread_local Profiler* t_profiler = nullptr;
thread_local uint16_t t_lane = 0;
thread_local uint32_t t_seq = 0;

}  // namespace

Profiler* SetThreadProfiler(Profiler* profiler) {
  Profiler* previous = t_profiler;
  t_profiler = profiler;
  return previous;
}

Profiler* ThreadProfiler() { return t_profiler; }

uint16_t SetThreadProfileLane(uint16_t lane) {
  uint16_t previous = t_lane;
  t_lane = lane;
  return previous;
}

uint16_t ThreadProfileLane() { return t_lane; }

uint32_t SetThreadCorrelation(uint32_t seq) {
  uint32_t previous = t_seq;
  t_seq = seq;
  return previous;
}

uint32_t ThreadCorrelation() { return t_seq; }

Profiler::~Profiler() {
  // Unbind the calling thread if it still points at us; stale bindings on
  // *other* threads are the caller's lifetime bug (writers must not
  // outlive the profiler), same contract as Drain().
  if (t_profiler == this) t_profiler = nullptr;
}

void Profiler::Record(const Span& span) { ring_.Append(span); }

std::vector<Span> Profiler::Drain() {
  std::vector<Span> merged;
  DrainInto(&merged);
  return merged;
}

void Profiler::DrainInto(std::vector<Span>* out) {
  // Stable (start, lane) order: ties keep per-thread record order, so a
  // parent span closed after its children still sorts by its earlier
  // start and the analyzer's nesting sweep sees parents first.
  ring_.DrainInto(out, [](const Span& a, const Span& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.lane < b.lane;
  });
}

}  // namespace ecostore::telemetry::profile

#endif  // ECOSTORE_PROFILE_DISABLED
