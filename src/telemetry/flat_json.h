#ifndef ECOSTORE_TELEMETRY_FLAT_JSON_H_
#define ECOSTORE_TELEMETRY_FLAT_JSON_H_

// Minimal reader/writer helpers for the flat one-line JSON objects the
// telemetry exporters produce: string values contain no escapes and
// there is no nesting, so a linear scan for "key": value pairs suffices
// (and keeps eco_report free of external JSON dependencies). Shared by
// the capture reader (export.cc) and the summary reader (analysis/).
//
// A struct written as flat JSON names its scalars once, in a field table
// of (key, MemberOf<S>) rows; GetMember/SetMember/ReadMember and
// FormatFlatValue walk any such table.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace ecostore::telemetry {

/// Closes a stdio file when it leaves scope (the JSON files' readers and
/// writers).
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

class FlatJson {
 public:
  explicit FlatJson(const std::string& line) {
    const char* p = line.c_str();
    while ((p = std::strchr(p, '"')) != nullptr) {
      const char* key_end = std::strchr(p + 1, '"');
      if (key_end == nullptr) break;
      std::string key(p + 1, key_end);
      const char* colon = key_end + 1;
      while (*colon == ' ') colon++;
      if (*colon != ':') {
        p = key_end + 1;
        continue;
      }
      const char* value = colon + 1;
      while (*value == ' ') value++;
      if (*value == '"') {
        const char* value_end = std::strchr(value + 1, '"');
        if (value_end == nullptr) break;
        keys_.emplace_back(std::move(key), std::string(value + 1, value_end));
        p = value_end + 1;
      } else {
        const char* value_end = value;
        while (*value_end != '\0' && *value_end != ',' && *value_end != '}') {
          value_end++;
        }
        keys_.emplace_back(std::move(key), std::string(value, value_end));
        p = value_end;
      }
    }
  }

  bool Has(const char* key) const { return Find(key) != nullptr; }

  std::string Str(const char* key, const std::string& fallback = "") const {
    const std::string* v = Find(key);
    return v != nullptr ? *v : fallback;
  }

  int64_t Int(const char* key, int64_t fallback = 0) const {
    const std::string* v = Find(key);
    return v != nullptr ? std::strtoll(v->c_str(), nullptr, 10) : fallback;
  }

  double Dbl(const char* key, double fallback = 0.0) const {
    const std::string* v = Find(key);
    return v != nullptr ? std::strtod(v->c_str(), nullptr) : fallback;
  }

  uint64_t U64(const char* key, uint64_t fallback = 0) const {
    const std::string* v = Find(key);
    return v != nullptr ? std::strtoull(v->c_str(), nullptr, 10) : fallback;
  }

 private:
  const std::string* Find(const char* key) const {
    for (const auto& [k, v] : keys_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  std::vector<std::pair<std::string, std::string>> keys_;
};

inline void AppendKV(std::string* out, const char* key, int64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%lld", key,
                static_cast<long long>(value));
  *out += buf;
}

inline void AppendKVU(std::string* out, const char* key, uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%llu", key,
                static_cast<unsigned long long>(value));
  *out += buf;
}

/// %.17g round-trips every finite double exactly, so energy values
/// survive a capture/parse cycle bit-for-bit (the ledger reconciliation
/// relies on this).
inline void AppendKVF(std::string* out, const char* key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%.17g", key, value);
  *out += buf;
}

/// A pointer to one scalar member of `S`, whatever its type.
template <typename S>
using MemberOf = std::variant<std::string S::*, int S::*, int64_t S::*,
                              double S::*, bool S::*>;

/// A field table row: a key and the member it holds.
template <typename S>
using KeyedMember = std::pair<const char*, MemberOf<S>>;

/// One scalar's value: a string, an integer (ints and bools widened), or
/// a double.
using FlatValue = std::variant<std::string, int64_t, double>;

template <typename S>
FlatValue GetMember(const S& s, const MemberOf<S>& member) {
  return std::visit(
      [&](auto m) -> FlatValue {
        if constexpr (std::is_integral_v<std::decay_t<decltype(s.*m)>>) {
          return int64_t{s.*m};
        } else {
          return s.*m;
        }
      },
      member);
}

template <typename S>
void SetMember(S* s, const MemberOf<S>& member, const FlatValue& value) {
  std::visit(
      [&](auto m, const auto& v) {
        using T = std::decay_t<decltype(s->*m)>;
        if constexpr (std::is_convertible_v<decltype(v), T>) {
          s->*m = static_cast<T>(v);
        }
      },
      member, value);
}

/// The JSON text of a value: strings quoted, doubles at %.17g (exact
/// round trip, as AppendKVF), integers as integers.
inline std::string FormatFlatValue(const FlatValue& value) {
  if (const auto* str = std::get_if<std::string>(&value)) {
    return "\"" + *str + "\"";
  }
  char buf[64];
  if (const auto* d = std::get_if<double>(&value)) {
    std::snprintf(buf, sizeof(buf), "%.17g", *d);
  } else {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(std::get<int64_t>(value)));
  }
  return buf;
}

/// Sets one member from the value of `key`, read as the member's kind
/// (the kind's zero when the key is absent).
template <typename S>
void ReadMember(const FlatJson& json, const char* key,
                const MemberOf<S>& member, S* s) {
  const FlatValue kind = GetMember(*s, member);
  if (std::holds_alternative<std::string>(kind)) {
    SetMember(s, member, json.Str(key));
  } else if (std::holds_alternative<double>(kind)) {
    SetMember(s, member, json.Dbl(key));
  } else {
    SetMember(s, member, json.Int(key));
  }
}

/// Appends `,"<key>":<value>` for every row of a field table.
template <typename S, size_t N>
void AppendMembers(std::string* out, const S& s,
                   const KeyedMember<S> (&rows)[N]) {
  for (const auto& [key, member] : rows) {
    *out += std::string(",\"") + key + "\":";
    *out += FormatFlatValue(GetMember(s, member));
  }
}

/// Reads every row of a field table from one parsed line.
template <typename S, size_t N>
void ReadMembers(const FlatJson& json, const KeyedMember<S> (&rows)[N],
                 S* s) {
  for (const auto& [key, member] : rows) ReadMember(json, key, member, s);
}

}  // namespace ecostore::telemetry

#endif  // ECOSTORE_TELEMETRY_FLAT_JSON_H_
