#include "telemetry/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>

#include "telemetry/analysis/energy_ledger.h"
#include "telemetry/flat_json.h"

namespace ecostore::telemetry {

namespace {

constexpr EventKind kAllKinds[] = {
    EventKind::kPowerState,      EventKind::kIdleGap,
    EventKind::kCacheFlush,      EventKind::kCacheAdmit,
    EventKind::kWriteDelaySet,   EventKind::kPreloadBegin,
    EventKind::kPreloadDone,     EventKind::kPhysicalIo,
    EventKind::kMigrationBegin,  EventKind::kMigrationThrottle,
    EventKind::kMigrationEnd,    EventKind::kBlockMove,
    EventKind::kDecision,        EventKind::kHotCold,
    EventKind::kPeriodAdapt,     EventKind::kPeriodBoundary,
    EventKind::kSimStats,        EventKind::kEnergyFinal,
    EventKind::kWriteDelayAdmit, EventKind::kWriteDelayFlush,
};

EventKind KindFromName(const std::string& name) {
  for (EventKind kind : kAllKinds) {
    if (name == EventKindName(kind)) return kind;
  }
  return EventKind::kNone;
}

void AppendEventJson(std::string* out, const Event& e) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{\"type\":\"event\",\"t\":%lld,\"kind\":\"%s\"",
                static_cast<long long>(e.time), EventKindName(e.kind));
  *out += buf;
  // Serial runs record shard 0 everywhere; omit the key so their capture
  // bytes are unchanged from pre-sharding captures.
  if (e.shard != 0) AppendKV(out, "shard", e.shard);
  switch (e.kind) {
    case EventKind::kPowerState:
    case EventKind::kEnergyFinal:
      AppendKV(out, "enclosure", e.power.enclosure);
      AppendKV(out, "state", e.power.state);
      AppendKV(out, "spinup_us", e.power.spinup_us);
      AppendKVF(out, "joules", e.power.joules);
      AppendKV(out, "plan", e.power.plan);
      break;
    case EventKind::kIdleGap:
      AppendKV(out, "enclosure", e.idle.enclosure);
      AppendKV(out, "gap_us", e.idle.gap);
      break;
    case EventKind::kCacheFlush:
    case EventKind::kCacheAdmit:
    case EventKind::kWriteDelaySet:
    case EventKind::kWriteDelayAdmit:
    case EventKind::kWriteDelayFlush:
    case EventKind::kPreloadBegin:
    case EventKind::kPreloadDone:
    case EventKind::kPhysicalIo:
      AppendKV(out, "item", e.cache.item);
      AppendKV(out, "enclosure", e.cache.enclosure);
      AppendKV(out, "blocks", e.cache.blocks);
      AppendKV(out, "bytes", e.cache.bytes);
      AppendKV(out, "plan", e.cache.plan);
      break;
    case EventKind::kMigrationBegin:
    case EventKind::kMigrationThrottle:
    case EventKind::kMigrationEnd:
    case EventKind::kBlockMove:
      AppendKV(out, "item", e.migration.item);
      AppendKV(out, "from", e.migration.from);
      AppendKV(out, "to", e.migration.to);
      AppendKV(out, "bytes", e.migration.bytes);
      break;
    case EventKind::kDecision:
      AppendKV(out, "item", e.decision.item);
      AppendKV(out, "pattern", e.decision.pattern);
      AppendKV(out, "actions", e.decision.actions);
      AppendKV(out, "enclosure", e.decision.enclosure);
      AppendKV(out, "long_intervals", e.decision.long_intervals);
      AppendKV(out, "io_sequences", e.decision.io_sequences);
      AppendKV(out, "read_permille", e.decision.read_permille);
      AppendKV(out, "plan", e.decision.plan);
      AppendKV(out, "total_ios", e.decision.total_ios);
      break;
    case EventKind::kHotCold:
      AppendKVU(out, "hot_mask", e.hot_cold.hot_mask);
      AppendKV(out, "n_hot", e.hot_cold.n_hot);
      AppendKV(out, "n_enclosures", e.hot_cold.n_enclosures);
      break;
    case EventKind::kPeriodAdapt:
      AppendKV(out, "prev_period_us", e.adapt.prev_period);
      AppendKV(out, "next_period_us", e.adapt.next_period);
      AppendKV(out, "mean_long_interval_us", e.adapt.mean_long_interval);
      break;
    case EventKind::kPeriodBoundary:
      AppendKV(out, "index", e.period.index);
      AppendKV(out, "period_start_us", e.period.period_start);
      AppendKV(out, "next_period_us", e.period.next_period);
      break;
    case EventKind::kSimStats:
      AppendKV(out, "peak_heap", e.sim_stats.peak_heap_depth);
      AppendKV(out, "live", e.sim_stats.live_events);
      AppendKV(out, "tombstones", e.sim_stats.tombstones);
      AppendKV(out, "cancelled", e.sim_stats.cancelled);
      break;
    case EventKind::kNone:
      break;
  }
  *out += "}\n";
}

Event EventFromJson(const FlatJson& json, EventKind kind) {
  Event e = MakeEvent(json.Int("t"), kind);
  e.shard = static_cast<uint16_t>(json.Int("shard"));
  switch (kind) {
    case EventKind::kPowerState:
    case EventKind::kEnergyFinal:
      e.power.enclosure = static_cast<EnclosureId>(json.Int("enclosure"));
      e.power.state = static_cast<uint8_t>(json.Int("state"));
      e.power.spinup_us = json.Int("spinup_us");
      e.power.joules = json.Dbl("joules");
      e.power.plan = static_cast<int32_t>(json.Int("plan"));
      break;
    case EventKind::kIdleGap:
      e.idle.enclosure = static_cast<EnclosureId>(json.Int("enclosure"));
      e.idle.gap = json.Int("gap_us");
      break;
    case EventKind::kCacheFlush:
    case EventKind::kCacheAdmit:
    case EventKind::kWriteDelaySet:
    case EventKind::kWriteDelayAdmit:
    case EventKind::kWriteDelayFlush:
    case EventKind::kPreloadBegin:
    case EventKind::kPreloadDone:
    case EventKind::kPhysicalIo:
      e.cache.item = static_cast<DataItemId>(json.Int("item"));
      e.cache.enclosure = static_cast<EnclosureId>(json.Int("enclosure"));
      e.cache.blocks = json.Int("blocks");
      e.cache.bytes = json.Int("bytes");
      e.cache.plan = static_cast<int32_t>(json.Int("plan"));
      break;
    case EventKind::kMigrationBegin:
    case EventKind::kMigrationThrottle:
    case EventKind::kMigrationEnd:
    case EventKind::kBlockMove:
      e.migration.item = static_cast<DataItemId>(json.Int("item"));
      e.migration.from = static_cast<EnclosureId>(json.Int("from"));
      e.migration.to = static_cast<EnclosureId>(json.Int("to"));
      e.migration.bytes = json.Int("bytes");
      break;
    case EventKind::kDecision:
      e.decision.item = static_cast<DataItemId>(json.Int("item"));
      e.decision.pattern = static_cast<uint8_t>(json.Int("pattern"));
      e.decision.actions = static_cast<uint8_t>(json.Int("actions"));
      e.decision.enclosure = static_cast<int16_t>(json.Int("enclosure"));
      e.decision.long_intervals =
          static_cast<int32_t>(json.Int("long_intervals"));
      e.decision.io_sequences =
          static_cast<int32_t>(json.Int("io_sequences"));
      e.decision.read_permille =
          static_cast<int32_t>(json.Int("read_permille"));
      e.decision.plan = static_cast<int32_t>(json.Int("plan"));
      e.decision.total_ios = json.Int("total_ios");
      break;
    case EventKind::kHotCold:
      e.hot_cold.hot_mask = json.U64("hot_mask");
      e.hot_cold.n_hot = static_cast<int32_t>(json.Int("n_hot"));
      e.hot_cold.n_enclosures =
          static_cast<int32_t>(json.Int("n_enclosures"));
      break;
    case EventKind::kPeriodAdapt:
      e.adapt.prev_period = json.Int("prev_period_us");
      e.adapt.next_period = json.Int("next_period_us");
      e.adapt.mean_long_interval = json.Int("mean_long_interval_us");
      break;
    case EventKind::kPeriodBoundary:
      e.period.index = static_cast<int32_t>(json.Int("index"));
      e.period.period_start = json.Int("period_start_us");
      e.period.next_period = json.Int("next_period_us");
      break;
    case EventKind::kSimStats:
      e.sim_stats.peak_heap_depth = json.Int("peak_heap");
      e.sim_stats.live_events = json.Int("live");
      e.sim_stats.tombstones = json.Int("tombstones");
      e.sim_stats.cancelled = json.Int("cancelled");
      break;
    case EventKind::kNone:
      break;
  }
  return e;
}

// The capture meta line's run identity, in line order.
const KeyedMember<ExportMeta> kMetaIdentity[] = {
    {"workload", &ExportMeta::workload},
    {"policy", &ExportMeta::policy},
    {"num_enclosures", &ExportMeta::num_enclosures},
    {"duration_us", &ExportMeta::duration},
};

// Its power model and measured energies, written after "has_power_model"
// only when the run had one.
const KeyedMember<ExportMeta> kMetaPowerModel[] = {
    {"idle_power_w", &ExportMeta::idle_power_w},
    {"active_power_w", &ExportMeta::active_power_w},
    {"off_power_w", &ExportMeta::off_power_w},
    {"spinup_power_w", &ExportMeta::spinup_power_w},
    {"controller_power_w", &ExportMeta::controller_power_w},
    {"spinup_time_us", &ExportMeta::spinup_time_us},
    {"break_even_us", &ExportMeta::break_even_us},
    {"spindown_timeout_us", &ExportMeta::spindown_timeout_us},
    {"cache_total_bytes", &ExportMeta::cache_total_bytes},
    {"preload_area_bytes", &ExportMeta::preload_area_bytes},
    {"write_delay_area_bytes", &ExportMeta::write_delay_area_bytes},
    {"enclosure_energy_j", &ExportMeta::enclosure_energy_j},
    {"controller_energy_j", &ExportMeta::controller_energy_j},
};

}  // namespace

void AppendMetaIdentity(std::string* line, const ExportMeta& meta) {
  AppendMembers(line, meta, kMetaIdentity);
}

const char* PowerSegmentStateName(uint8_t state) {
  switch (state) {
    case 0:
      return "off";
    case 1:
      return "spinning_up";
    case 2:
      return "on";
  }
  return "?";
}

Status WriteJsonl(const std::string& path, const ExportMeta& meta,
                  const std::vector<Event>& events) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::string head = "{\"type\":\"meta\"";
  AppendMetaIdentity(&head, meta);
  if (meta.has_power_model) {
    AppendKV(&head, "has_power_model", 1);
    AppendMembers(&head, meta, kMetaPowerModel);
  }
  AppendKV(&head, "events", static_cast<int64_t>(events.size()));
  head += "}\n";
  std::fwrite(head.data(), 1, head.size(), f.get());
  std::string line;
  for (const LatencySlot& slot : meta.latency) {
    if (slot.hist.count() == 0) continue;
    line.clear();
    line += "{\"type\":\"latency\"";
    AppendKV(&line, "pattern", slot.pattern);
    AppendKV(&line, "outcome", slot.outcome);
    AppendKV(&line, "count", slot.hist.count());
    AppendKV(&line, "sum_us", slot.hist.sum());
    AppendKV(&line, "max_us", slot.hist.max());
    line += ",\"buckets\":\"" + slot.hist.EncodeBuckets() + "\"}\n";
    std::fwrite(line.data(), 1, line.size(), f.get());
  }
  for (const Event& e : events) {
    line.clear();
    AppendEventJson(&line, e);
    std::fwrite(line.data(), 1, line.size(), f.get());
  }
  return Status::OK();
}

namespace {

/// Reads one '\n'-terminated line of arbitrary length (the latency lines
/// carry bucket strings that can exceed any fixed buffer). Returns false
/// on EOF with nothing read.
bool ReadLine(std::FILE* f, std::string* line) {
  line->clear();
  char buf[1024];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    *line += buf;
    if (!line->empty() && line->back() == '\n') return true;
  }
  return !line->empty();
}

Status LineError(const std::string& path, long lineno, const char* what) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ":%ld: ", lineno);
  return Status::InvalidArgument(path + buf + what);
}

}  // namespace

Status CaptureTailParser::Consume(const std::string& raw) {
  // Defensive trim: ReadJsonlChunk and ParseJsonl both strip the line
  // terminator, but a caller feeding raw lines should still work.
  const std::string* linep = &raw;
  std::string trimmed;
  if (!raw.empty() && (raw.back() == '\n' || raw.back() == '\r')) {
    trimmed = raw;
    while (!trimmed.empty() &&
           (trimmed.back() == '\n' || trimmed.back() == '\r')) {
      trimmed.pop_back();
    }
    linep = &trimmed;
  }
  const std::string& line = *linep;
  if (line.empty()) return Status::OK();
  if (line.front() != '{') {
    return Status::InvalidArgument("line is not a JSON object");
  }
  if (line.back() != '}') {
    return Status::InvalidArgument("unterminated JSON object (truncated?)");
  }
  FlatJson json{line};
  std::string type = json.Str("type");
  if (type.empty()) {
    return Status::InvalidArgument("missing \"type\" field");
  }
  if (type == "meta") {
    have_meta_ = true;
    if (json.Has("events")) declared_events_ = json.Int("events");
    ReadMembers(json, kMetaIdentity, &meta_);
    meta_.has_power_model = json.Int("has_power_model") != 0;
    if (meta_.has_power_model) ReadMembers(json, kMetaPowerModel, &meta_);
    return Status::OK();
  }
  if (type == "latency") {
    LatencySlot slot;
    slot.pattern = static_cast<uint8_t>(json.Int("pattern"));
    slot.outcome = static_cast<uint8_t>(json.Int("outcome"));
    slot.hist.DecodeBuckets(json.Str("buckets"), json.Int("sum_us"),
                            json.Int("max_us"));
    if (slot.hist.count() != json.Int("count")) {
      return Status::InvalidArgument(
          "latency bucket counts disagree with \"count\"");
    }
    meta_.latency.push_back(std::move(slot));
    return Status::OK();
  }
  if (type == "event") {
    EventKind kind = KindFromName(json.Str("kind"));
    if (kind == EventKind::kNone) {
      return Status::InvalidArgument("unknown event kind");
    }
    events_.push_back(EventFromJson(json, kind));
    consumed_events_++;
    return Status::OK();
  }
  // Unknown "type" values are skipped so the format can grow.
  return Status::OK();
}

std::vector<Event> CaptureTailParser::TakeEvents() {
  std::vector<Event> out = std::move(events_);
  events_.clear();
  return out;
}

Status ReadJsonlChunk(const std::string& path, int64_t offset,
                      JsonlChunk* chunk) {
  chunk->lines.clear();
  chunk->next_offset = offset;
  chunk->partial_tail = false;
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::IoError("cannot read " + path);
  if (offset > 0 &&
      std::fseek(f.get(), static_cast<long>(offset), SEEK_SET) != 0) {
    return Status::IoError("cannot seek in " + path);
  }
  std::string pending;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    size_t start = 0;
    for (size_t i = 0; i < n; ++i) {
      if (buf[i] != '\n') continue;
      pending.append(buf + start, i - start);
      start = i + 1;
      // Consume the line's bytes (incl. the '\n') BEFORE stripping CR.
      chunk->next_offset += static_cast<int64_t>(pending.size()) + 1;
      while (!pending.empty() && pending.back() == '\r') pending.pop_back();
      if (!pending.empty()) chunk->lines.push_back(std::move(pending));
      pending.clear();
    }
    pending.append(buf + start, n - start);
  }
  // Unterminated trailing bytes: a writer mid-append. Leave them unread —
  // the caller resumes at next_offset once the writer finishes the line.
  chunk->partial_tail = !pending.empty();
  return Status::OK();
}

Status ParseJsonl(const std::string& path, ExportMeta* meta,
                  std::vector<Event>* events) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (f == nullptr) return Status::IoError("cannot read " + path);
  events->clear();
  CaptureTailParser parser;
  std::string line;
  long lineno = 0;
  while (ReadLine(f.get(), &line)) {
    lineno++;
    // Strip trailing newline / CR so structural checks see the payload.
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    Status st = parser.Consume(line);
    if (!st.ok()) return LineError(path, lineno, st.message().c_str());
  }
  if (!parser.have_meta()) {
    return Status::InvalidArgument(path + ": no meta line found");
  }
  *events = parser.TakeEvents();
  if (meta != nullptr) *meta = parser.meta();
  if (parser.declared_events() >= 0 &&
      parser.declared_events() != static_cast<int64_t>(events->size())) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  ": meta declares %lld events but %zu parsed (truncated?)",
                  static_cast<long long>(parser.declared_events()),
                  events->size());
    return Status::InvalidArgument(path + buf);
  }
  return Status::OK();
}

std::vector<PowerSegment> BuildPowerTimeline(
    const ExportMeta& meta, const std::vector<Event>& events) {
  int n = meta.num_enclosures;
  if (n <= 0) {
    for (const Event& e : events) {
      if (e.kind == EventKind::kPowerState && e.power.enclosure >= n) {
        n = e.power.enclosure + 1;
      }
    }
  }
  std::vector<PowerSegment> segments;
  // Every enclosure starts On at t = 0 (the array boots powered up).
  std::vector<SimTime> seg_start(static_cast<size_t>(n), 0);
  std::vector<uint8_t> state(static_cast<size_t>(n), 2);
  auto close = [&](size_t enc, SimTime at, uint8_t next_state) {
    if (at > seg_start[enc]) {
      segments.push_back(PowerSegment{static_cast<EnclosureId>(enc),
                                      seg_start[enc], at, state[enc]});
    }
    seg_start[enc] = at;
    state[enc] = next_state;
  };
  for (const Event& e : events) {
    if (e.kind != EventKind::kPowerState) continue;
    if (e.power.enclosure < 0 || e.power.enclosure >= n) continue;
    auto enc = static_cast<size_t>(e.power.enclosure);
    if (e.power.state == 1) {
      // Spin-up initiation; the On edge follows after the configured
      // spin-up latency carried in the payload.
      close(enc, e.time, 1);
      close(enc, e.time + e.power.spinup_us, 2);
    } else {
      close(enc, e.time, e.power.state);
    }
  }
  for (size_t enc = 0; enc < static_cast<size_t>(n); ++enc) {
    SimTime end = std::max(meta.duration, seg_start[enc]);
    if (end > seg_start[enc]) {
      segments.push_back(PowerSegment{static_cast<EnclosureId>(enc),
                                      seg_start[enc], end, state[enc]});
    }
  }
  std::stable_sort(segments.begin(), segments.end(),
                   [](const PowerSegment& a, const PowerSegment& b) {
                     if (a.enclosure != b.enclosure) {
                       return a.enclosure < b.enclosure;
                     }
                     return a.start < b.start;
                   });
  return segments;
}

Status WritePowerTimelineCsv(const std::string& path, const ExportMeta& meta,
                             const std::vector<Event>& events) {
  std::vector<PowerSegment> segments = BuildPowerTimeline(meta, events);
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(f.get(), "enclosure,state,start_us,end_us,duration_s\n");
  for (const PowerSegment& s : segments) {
    std::fprintf(f.get(), "%d,%s,%lld,%lld,%.3f\n", s.enclosure,
                 PowerSegmentStateName(s.state),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end), ToSeconds(s.end - s.start));
  }
  return Status::OK();
}

Status WriteChromeTrace(const std::string& path, const ExportMeta& meta,
                        const std::vector<Event>& events) {
  // One trace entry per line; entries are sorted by ts so viewers (and
  // the round-trip test) see a monotone stream. pid 0 = power states,
  // pid 1 = policy decisions/migrations, pid 2 = simulator counters,
  // pid 3 = energy-ledger counters (cumulative off-window credit/debit
  // per enclosure and the running mispredict count).
  struct Entry {
    SimTime ts;
    std::string json;
  };
  std::vector<Entry> entries;
  char buf[256];

  for (const PowerSegment& s : BuildPowerTimeline(meta, events)) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"power\",\"ph\":\"X\","
                  "\"ts\":%lld,\"dur\":%lld,\"pid\":0,\"tid\":%d}",
                  PowerSegmentStateName(s.state),
                  static_cast<long long>(s.start),
                  static_cast<long long>(s.end - s.start), s.enclosure);
    entries.push_back(Entry{s.start, buf});
  }
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kDecision:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"item %d P%u\",\"cat\":\"decision\","
                      "\"ph\":\"i\",\"ts\":%lld,\"pid\":1,\"tid\":0,"
                      "\"s\":\"p\"}",
                      e.decision.item, e.decision.pattern,
                      static_cast<long long>(e.time));
        entries.push_back(Entry{e.time, buf});
        break;
      case EventKind::kMigrationBegin:
      case EventKind::kMigrationThrottle:
      case EventKind::kMigrationEnd:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s item %d\",\"cat\":\"migration\","
                      "\"ph\":\"i\",\"ts\":%lld,\"pid\":1,\"tid\":1,"
                      "\"s\":\"p\"}",
                      EventKindName(e.kind), e.migration.item,
                      static_cast<long long>(e.time));
        entries.push_back(Entry{e.time, buf});
        break;
      case EventKind::kSimStats:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"sim heap\",\"ph\":\"C\",\"ts\":%lld,"
                      "\"pid\":2,\"args\":{\"live\":%lld,"
                      "\"tombstones\":%lld}}",
                      static_cast<long long>(e.time),
                      static_cast<long long>(e.sim_stats.live_events),
                      static_cast<long long>(e.sim_stats.tombstones));
        entries.push_back(Entry{e.time, buf});
        break;
      default:
        break;
    }
  }

  // Counter tracks from the energy ledger: one track per enclosure with
  // the cumulative off-window credit/debit, plus a global mispredict
  // count, each stepping at the instant the window closes.
  if (meta.has_power_model) {
    analysis::EnergyLedger ledger = analysis::BuildLedger(meta, events);
    std::map<EnclosureId, std::pair<double, double>> cum;
    int64_t mispredicts = 0;
    for (const analysis::OffWindow& w : ledger.off_windows) {
      auto& c = cum[w.enclosure];
      c.first += w.credit_j;
      c.second += w.debit_j;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"ledger enc %d\",\"ph\":\"C\",\"ts\":%lld,"
                    "\"pid\":3,\"args\":{\"credit_j\":%.3f,"
                    "\"debit_j\":%.3f}}",
                    w.enclosure, static_cast<long long>(w.end), c.first,
                    c.second);
      entries.push_back(Entry{w.end, buf});
      if (w.mispredict) {
        mispredicts++;
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"ledger mispredicts\",\"ph\":\"C\","
                      "\"ts\":%lld,\"pid\":3,\"args\":{\"count\":%lld}}",
                      static_cast<long long>(w.end),
                      static_cast<long long>(mispredicts));
        entries.push_back(Entry{w.end, buf});
      }
    }
  }

  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.ts < b.ts; });

  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(f.get(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    std::fprintf(f.get(), "%s%s\n", entries[i].json.c_str(),
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f.get(), "]}\n");
  return Status::OK();
}

Status ExportAll(const std::string& base, const ExportMeta& meta,
                 const std::vector<Event>& events) {
  std::string stem = base;
  const std::string suffix = ".jsonl";
  if (stem.size() > suffix.size() &&
      stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) == 0) {
    stem.resize(stem.size() - suffix.size());
  }
  ECOSTORE_RETURN_NOT_OK(WriteJsonl(stem + ".jsonl", meta, events));
  ECOSTORE_RETURN_NOT_OK(WritePowerTimelineCsv(stem + ".power.csv", meta,
                                               events));
  return WriteChromeTrace(stem + ".trace.json", meta, events);
}

}  // namespace ecostore::telemetry
