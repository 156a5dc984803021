#include "trace/trace_csv.h"

#include <cctype>
#include <charconv>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>

namespace ecostore::trace {

namespace {

constexpr std::string_view kHeader = "time_us,item,offset,size,type,sequential,tag";

constexpr int64_t kInt32Min = std::numeric_limits<int32_t>::min();
constexpr int64_t kInt32Max = std::numeric_limits<int32_t>::max();

// Parses a whole field as an integer in [lo, hi].
bool ParseInt(std::string_view field, int64_t* out,
              int64_t lo = std::numeric_limits<int64_t>::min(),
              int64_t hi = std::numeric_limits<int64_t>::max()) {
  auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), *out);
  return ec == std::errc() && ptr == field.data() + field.size() &&
         *out >= lo && *out <= hi;
}

// Splits a CSV line into exactly `n` comma-separated fields.
bool SplitFields(std::string_view line, std::string_view* fields, size_t n) {
  size_t start = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t comma = line.find(',', start);
    bool last = (i == n - 1);
    if (last) {
      if (comma != std::string_view::npos) return false;  // too many fields
      fields[i] = line.substr(start);
    } else {
      if (comma == std::string_view::npos) return false;  // too few fields
      fields[i] = line.substr(start, comma - start);
      start = comma + 1;
    }
  }
  return true;
}

}  // namespace

Status WriteLogicalCsv(std::ostream& out,
                       const std::vector<LogicalIoRecord>& records) {
  out << kHeader << '\n';
  for (const LogicalIoRecord& r : records) {
    out << r.time << ',' << r.item << ',' << r.offset << ',' << r.size << ','
        << IoTypeName(r.type) << ',' << (r.sequential ? 1 : 0) << ',' << r.tag
        << '\n';
  }
  if (!out.good()) return Status::IoError("write failed");
  return Status::OK();
}

Result<std::vector<LogicalIoRecord>> ReadLogicalCsv(std::istream& in) {
  std::vector<LogicalIoRecord> records;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    line_no++;
    if (line.empty()) continue;
    if (line_no == 1 && line == kHeader) continue;
    std::string_view fields[7];
    if (!SplitFields(line, fields, 7)) {
      return Status::IoError("malformed CSV row at line " +
                             std::to_string(line_no));
    }
    LogicalIoRecord rec;
    int64_t v = 0;
    if (!ParseInt(fields[0], &v)) {
      return Status::IoError("bad time at line " + std::to_string(line_no));
    }
    rec.time = v;
    if (!ParseInt(fields[1], &v, kInt32Min, kInt32Max)) {
      return Status::IoError("bad item at line " + std::to_string(line_no));
    }
    rec.item = static_cast<DataItemId>(v);
    if (!ParseInt(fields[2], &v, 0)) {
      return Status::IoError("bad offset at line " + std::to_string(line_no));
    }
    rec.offset = v;
    if (!ParseInt(fields[3], &v, 1, kInt32Max)) {
      return Status::IoError("bad size at line " + std::to_string(line_no));
    }
    rec.size = static_cast<int32_t>(v);
    if (fields[4] == "R") {
      rec.type = IoType::kRead;
    } else if (fields[4] == "W") {
      rec.type = IoType::kWrite;
    } else {
      return Status::IoError("bad type at line " + std::to_string(line_no));
    }
    if (!ParseInt(fields[5], &v) || (v != 0 && v != 1)) {
      return Status::IoError("bad sequential flag at line " +
                             std::to_string(line_no));
    }
    rec.sequential = (v == 1);
    if (!ParseInt(fields[6], &v, kInt32Min, kInt32Max)) {
      return Status::IoError("bad tag at line " + std::to_string(line_no));
    }
    rec.tag = static_cast<int32_t>(v);
    records.push_back(rec);
  }
  return records;
}

Status WriteLogicalCsvFile(const std::string& path,
                           const std::vector<LogicalIoRecord>& records) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  return WriteLogicalCsv(out, records);
}

Result<std::vector<LogicalIoRecord>> ReadLogicalCsvFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  return ReadLogicalCsv(in);
}

}  // namespace ecostore::trace
