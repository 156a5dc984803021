#include "telemetry/recorder.h"

#ifndef ECOSTORE_TELEMETRY_DISABLED

namespace ecostore::telemetry {

namespace {

/// Shard tag stamped into Event::shard by Record(). Thread-local, not
/// per-recorder: one thread advances one shard at a time, whichever
/// recorder it records into.
thread_local uint16_t t_shard = 0;

}  // namespace

uint16_t SetThreadShard(uint16_t shard) {
  uint16_t previous = t_shard;
  t_shard = shard;
  return previous;
}

uint16_t ThreadShard() { return t_shard; }

void Recorder::Record(const Event& event) {
  ring_.Append(event).shard = t_shard;
}

std::vector<Event> Recorder::Drain() {
  std::vector<Event> merged;
  DrainInto(&merged);
  return merged;
}

void Recorder::DrainInto(std::vector<Event>* out) {
  // Sort key (time, shard). Stable: within one (time, shard) group events
  // keep their per-thread record order, so a single-threaded run (all
  // shard 0) drains in exactly the order it recorded. In a sharded run a
  // shard executes on exactly one thread per epoch, so every (time, shard)
  // group lives in a single ring in record order, and the drained stream
  // is deterministic for any worker-thread count.
  ring_.DrainInto(out, [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.shard < b.shard;
  });
}

std::vector<LogLine> Recorder::DrainLogs() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LogLine> out;
  out.swap(logs_);
  return out;
}

Counter* Recorder::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [existing, ptr] : counters_) {
    if (existing == name) return ptr.get();
  }
  counters_.emplace_back(name, std::make_unique<Counter>());
  return counters_.back().second.get();
}

Gauge* Recorder::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [existing, ptr] : gauges_) {
    if (existing == name) return ptr.get();
  }
  gauges_.emplace_back(name, std::make_unique<Gauge>());
  return gauges_.back().second.get();
}

std::vector<std::pair<std::string, int64_t>> Recorder::CounterValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, int64_t>> Recorder::GaugeValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->value());
  }
  return out;
}

void Recorder::WriteLog(LogLevel level, SimTime sim_time, const char* file,
                        int line, const std::string& message) {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(LogLine{level, sim_time, file, line, message});
}

}  // namespace ecostore::telemetry

#endif  // ECOSTORE_TELEMETRY_DISABLED
