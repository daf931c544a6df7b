#include "obs/timeseries.h"

#include <cstdio>
#include <cstring>

#include "obs/report.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace pds::obs {

double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kilobytes
#endif
#else
  return 0.0;
#endif
}

int TimeSeries::column(const char* name, Kind kind) {
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    if (std::strcmp(cols_[i].name, name) == 0) return static_cast<int>(i);
  }
  cols_.push_back(Column{name, kind});
  staged_.push_back(0.0);
  return static_cast<int>(cols_.size() - 1);
}

void TimeSeries::reset(SimTime start) {
  rows_.clear();
  next_at_ = start + interval_;
}

void TimeSeries::step() {
  const SimTime at = next_at_;
  next_at_ = next_at_ + interval_;
  if (!collector_) return;
  staged_.assign(cols_.size(), 0.0);
  collector_(at, *this);
  rows_.push_back(Row{at, staged_});
}

std::string TimeSeries::ndjson(bool include_wall) const {
  std::string out;
  out.reserve(64 + rows_.size() * (16 + cols_.size() * 8));
  out += "{\"schema\":\"";
  out += kTimeSeriesSchema;
  out += "\",\"interval_us\":";
  out += std::to_string(interval_.as_micros());
  out += ",\"columns\":[";
  bool first = true;
  for (const Column& c : cols_) {
    if (!include_wall && c.kind == Kind::kWall) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, c.name);
    out += ",\"kind\":\"";
    out += c.kind == Kind::kSim ? "sim" : "wall";
    out += "\"}";
  }
  out += "]}\n";
  for (const Row& row : rows_) {
    out += "{\"t_us\":";
    out += std::to_string(row.at.as_micros());
    out += ",\"v\":[";
    first = true;
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      if (!include_wall && cols_[i].kind == Kind::kWall) continue;
      if (!first) out += ',';
      first = false;
      append_json_double(out, row.v[i]);
    }
    out += "]}\n";
  }
  return out;
}

bool TimeSeries::write_ndjson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = ndjson(true);
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return (std::fclose(f) == 0) && wrote;
}

}  // namespace pds::obs
