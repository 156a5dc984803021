#include "telemetry/analysis/summary.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "telemetry/flat_json.h"

namespace ecostore::telemetry::analysis {

namespace {

int PatternFromName(const std::string& name) {
  for (int p = 0; p < kNumPatternSlots; ++p) {
    if (name == PatternSlotName(static_cast<uint8_t>(p))) return p;
  }
  return kPatternUnclassified;
}

int OutcomeFromName(const std::string& name) {
  for (int o = 0; o < kNumOutcomes; ++o) {
    if (name == IoOutcomeName(static_cast<uint8_t>(o))) return o;
  }
  return 0;
}

using Value = FlatValue;
using Meta = const ExportMeta&;
using Ledger = const EnergyLedger&;

// One scalar of the account: the file section it is written in ("" for
// the top level), its key, the member it lives in, whether
// CompareSummaries gates it, and what SummarizeLedger fills it from.
struct Field {
  const char* section;
  const char* key;
  MemberOf<Summary> member;
  bool gated;
  Value (*from)(Meta meta, Ledger ledger);
};

// The run account, listed once, in file order. Every writer, reader and
// the comparison walk this table.
const Field kFields[] = {
    {"", "workload", &Summary::workload, false,
     [](Meta m, Ledger) -> Value { return m.workload; }},
    {"", "policy", &Summary::policy, false,
     [](Meta m, Ledger) -> Value { return m.policy; }},
    {"", "num_enclosures", &Summary::num_enclosures, false,
     [](Meta m, Ledger) -> Value { return m.num_enclosures; }},
    {"", "duration_us", &Summary::duration, false,
     [](Meta m, Ledger) -> Value { return m.duration; }},
    {"energy", "enclosure_j", &Summary::enclosure_energy_j, true,
     [](Meta m, Ledger) -> Value { return m.enclosure_energy_j; }},
    {"energy", "controller_j", &Summary::controller_energy_j, true,
     [](Meta m, Ledger) -> Value { return m.controller_energy_j; }},
    {"energy", "total_j", &Summary::total_energy_j, true,
     [](Meta m, Ledger) -> Value {
       return m.enclosure_energy_j + m.controller_energy_j;
     }},
    {"energy", "has_ledger", &Summary::has_ledger, false,
     [](Meta m, Ledger l) -> Value {
       return int64_t{m.has_power_model && l.has_finals};
     }},
    {"energy", "ledger_enclosure_j", &Summary::ledger_enclosure_j, false,
     [](Meta, Ledger l) -> Value { return l.ledger_enclosure_j; }},
    {"energy", "reconcile_rel_err", &Summary::reconcile_rel_err, true,
     [](Meta, Ledger l) -> Value { return l.reconcile_rel_err; }},
    {"energy", "off_credit_j", &Summary::off_credit_j, true,
     [](Meta, Ledger l) -> Value { return l.off_credit_j; }},
    {"energy", "off_debit_j", &Summary::off_debit_j, true,
     [](Meta, Ledger l) -> Value { return l.off_debit_j; }},
    {"energy", "net_saving_j", &Summary::net_saving_j, true,
     [](Meta, Ledger l) -> Value { return l.off_credit_j - l.off_debit_j; }},
    {"energy", "advisory_credit_j", &Summary::advisory_credit_j, true,
     [](Meta, Ledger l) -> Value { return l.advisory_credit_j; }},
    {"energy", "advisory_debit_j", &Summary::advisory_debit_j, true,
     [](Meta, Ledger l) -> Value { return l.advisory_debit_j; }},
    {"energy", "mispredict_loss_j", &Summary::mispredict_loss_j, true,
     [](Meta, Ledger l) -> Value { return l.mispredict_loss_j; }},
    {"plans", "plans", &Summary::plans, true,
     [](Meta, Ledger l) -> Value { return l.plans; }},
    {"plans", "decisions", &Summary::decisions, true,
     [](Meta, Ledger l) -> Value { return l.decisions; }},
    {"plans", "off_windows", &Summary::off_windows, true,
     [](Meta, Ledger l) -> Value {
       return static_cast<int64_t>(l.off_windows.size());
     }},
    {"plans", "mispredicts", &Summary::mispredicts, true,
     [](Meta, Ledger l) -> Value { return l.mispredicts; }},
    {"plans", "migrations", &Summary::migrations, true,
     [](Meta, Ledger l) -> Value { return l.migrations; }},
    {"plans", "preloads", &Summary::preloads, true,
     [](Meta, Ledger l) -> Value { return l.preloads; }},
    {"plans", "write_delays", &Summary::write_delays, true,
     [](Meta, Ledger l) -> Value { return l.write_delays; }},
};

// The digest of a latency row, after its (pattern, outcome) key; every
// one is gated.
const KeyedMember<LatencyRow> kLatencyFields[] = {
    {"count", &LatencyRow::count},   {"p50_us", &LatencyRow::p50_us},
    {"p95_us", &LatencyRow::p95_us}, {"p99_us", &LatencyRow::p99_us},
    {"max_us", &LatencyRow::max_us}, {"mean_us", &LatencyRow::mean_us},
};

// A gated value as a double (every gated field is a number).
double AsDouble(const Value& value) {
  const double* d = std::get_if<double>(&value);
  return d != nullptr ? *d : static_cast<double>(std::get<int64_t>(value));
}

void CompareField(std::vector<SummaryDiff>* diffs, const std::string& field,
                  double a, double b, double tolerance) {
  // Relative comparison floored at 1.0 absolute units so zero-valued
  // counters compare exactly without dividing by zero.
  const double denom = std::max({std::fabs(a), std::fabs(b), 1.0});
  const double rel = std::fabs(a - b) / denom;
  if (rel > tolerance) diffs->push_back(SummaryDiff{field, a, b, rel});
}

}  // namespace

Summary SummarizeLedger(const ExportMeta& meta, const EnergyLedger& ledger) {
  Summary s;
  for (const Field& field : kFields) {
    SetMember(&s, field.member, field.from(meta, ledger));
  }
  return s;
}

Summary BuildSummary(const ExportMeta& meta, const std::vector<Event>& events,
                     EnergyLedger* out_ledger) {
  EnergyLedger ledger = BuildLedger(meta, events);
  Summary s = SummarizeLedger(meta, ledger);

  // Latency digests in fixed (pattern, outcome) order regardless of the
  // order the capture carried them in.
  std::vector<const LatencySlot*> slots;
  for (const LatencySlot& slot : meta.latency) {
    if (slot.hist.count() > 0) slots.push_back(&slot);
  }
  std::sort(slots.begin(), slots.end(),
            [](const LatencySlot* a, const LatencySlot* b) {
              if (a->pattern != b->pattern) return a->pattern < b->pattern;
              return a->outcome < b->outcome;
            });
  for (const LatencySlot* slot : slots) {
    LatencyRow row;
    row.pattern = slot->pattern;
    row.outcome = slot->outcome;
    row.count = slot->hist.count();
    row.p50_us = slot->hist.Quantile(0.50);
    row.p95_us = slot->hist.Quantile(0.95);
    row.p99_us = slot->hist.Quantile(0.99);
    row.max_us = slot->hist.max();
    row.mean_us = slot->hist.Mean();
    s.latency.push_back(row);
  }

  if (out_ledger != nullptr) *out_ledger = std::move(ledger);
  return s;
}

Status WriteSummaryJson(const std::string& path, const Summary& s) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(f.get(), "{\n  \"type\": \"summary\",\n  \"schema\": 1,\n");
  // Top-level fields each end in a comma (the sections follow); a nested
  // section opens before its first field and closes after its last.
  const size_t n = std::size(kFields);
  for (size_t i = 0; i < n; ++i) {
    const Field& field = kFields[i];
    const bool top = field.section[0] == '\0';
    const bool first = i == 0 || std::strcmp(kFields[i - 1].section,
                                             field.section) != 0;
    const bool last =
        i + 1 == n || std::strcmp(kFields[i + 1].section, field.section) != 0;
    if (!top && first) std::fprintf(f.get(), "  \"%s\": {\n", field.section);
    std::fprintf(f.get(), "%s\"%s\": %s%s\n", top ? "  " : "    ", field.key,
                 FormatFlatValue(GetMember(s, field.member)).c_str(),
                 top || !last ? "," : "");
    if (!top && last) std::fprintf(f.get(), "  },\n");
  }
  std::fprintf(f.get(), "  \"latency\": [\n");
  for (size_t i = 0; i < s.latency.size(); ++i) {
    const LatencyRow& r = s.latency[i];
    std::string row = std::string("{\"pattern\": \"") +
                      PatternSlotName(r.pattern) + "\", \"outcome\": \"" +
                      IoOutcomeName(r.outcome) + "\"";
    for (const auto& [key, member] : kLatencyFields) {
      row += std::string(", \"") + key +
             "\": " + FormatFlatValue(GetMember(r, member));
    }
    std::fprintf(f.get(), "    %s}%s\n", row.c_str(),
                 i + 1 < s.latency.size() ? "," : "");
  }
  std::fprintf(f.get(), "  ]\n");
  std::fprintf(f.get(), "}\n");
  return Status::OK();
}

Status ParseSummaryFile(const std::string& path, Summary* s) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (f == nullptr) return Status::IoError("cannot read " + path);
  *s = Summary{};
  // The section the current line sits in: "" (top level), a field-table
  // section name, or "latency".
  std::string section;
  bool is_summary = false;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f.get()) != nullptr) {
    std::string line(buf);
    std::string trimmed = line;
    trimmed.erase(0, trimmed.find_first_not_of(" \t"));
    while (!trimmed.empty() &&
           (trimmed.back() == '\n' || trimmed.back() == '\r')) {
      trimmed.pop_back();
    }
    // Section openers ("\"energy\": {" / "\"latency\": [") and
    // terminators ("}," / "]").
    if (trimmed.size() > 4 && trimmed[0] == '"' &&
        (trimmed.back() == '{' || trimmed.back() == '[')) {
      section = trimmed.substr(1, trimmed.find('"', 1) - 1);
      continue;
    }
    if (!section.empty() && (trimmed == "}," || trimmed == "}" ||
                             trimmed == "]," || trimmed == "]")) {
      section.clear();
      continue;
    }
    FlatJson json{line};
    if (section == "latency") {
      if (json.Has("pattern") && json.Has("outcome")) {
        LatencyRow row;
        row.pattern =
            static_cast<uint8_t>(PatternFromName(json.Str("pattern")));
        row.outcome =
            static_cast<uint8_t>(OutcomeFromName(json.Str("outcome")));
        ReadMembers(json, kLatencyFields, &row);
        s->latency.push_back(row);
      }
      continue;
    }
    if (section.empty() && json.Str("type") == "summary") is_summary = true;
    for (const Field& field : kFields) {
      if (section == field.section && json.Has(field.key)) {
        ReadMember(json, field.key, field.member, s);
      }
    }
  }
  if (!is_summary) {
    return Status::InvalidArgument(path + ": not a telemetry summary file");
  }
  return Status::OK();
}

void AppendSummaryFields(const Summary& s, std::string* line) {
  for (const Field& field : kFields) {
    *line += ",\"";
    *line += field.key;
    *line += "\":";
    *line += FormatFlatValue(GetMember(s, field.member));
  }
}

Summary SummaryFromLine(const std::string& line) {
  Summary s;
  FlatJson json{line};
  for (const Field& field : kFields) {
    if (json.Has(field.key)) ReadMember(json, field.key, field.member, &s);
  }
  return s;
}

std::vector<SummaryDiff> CompareSummaries(const Summary& a, const Summary& b,
                                          double tolerance) {
  std::vector<SummaryDiff> diffs;
  for (const Field& field : kFields) {
    if (!field.gated) continue;
    CompareField(&diffs, std::string(field.section) + "." + field.key,
                 AsDouble(GetMember(a, field.member)),
                 AsDouble(GetMember(b, field.member)), tolerance);
  }

  auto row_key = [](const LatencyRow& r) {
    return std::string(PatternSlotName(r.pattern)) + "/" +
           IoOutcomeName(r.outcome);
  };
  auto find_row = [&](const Summary& s, const std::string& key)
      -> const LatencyRow* {
    for (const LatencyRow& r : s.latency) {
      if (row_key(r) == key) return &r;
    }
    return nullptr;
  };
  for (const LatencyRow& ra : a.latency) {
    const std::string key = row_key(ra);
    const LatencyRow* rb = find_row(b, key);
    if (rb == nullptr) {
      diffs.push_back(SummaryDiff{"latency." + key + ".count",
                                  static_cast<double>(ra.count), 0.0, 1.0});
      continue;
    }
    for (const auto& [field, member] : kLatencyFields) {
      CompareField(&diffs, "latency." + key + "." + field,
                   AsDouble(GetMember(ra, member)),
                   AsDouble(GetMember(*rb, member)), tolerance);
    }
  }
  for (const LatencyRow& rb : b.latency) {
    if (find_row(a, row_key(rb)) == nullptr) {
      diffs.push_back(SummaryDiff{"latency." + row_key(rb) + ".count", 0.0,
                                  static_cast<double>(rb.count), 1.0});
    }
  }
  return diffs;
}

}  // namespace ecostore::telemetry::analysis
