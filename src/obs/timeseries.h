// Deterministic sim-time resource sampler ("flight recorder", DESIGN.md §15).
//
// A TimeSeries records fixed-interval snapshots of simulation state: the
// owner registers named columns up front, installs a collector callback that
// reads whatever subsystems it wants to watch, and the Simulator drives
// `advance_to` from its run loop so a row is committed at every interval
// boundary the virtual clock crosses. Sampling sits entirely off the outcome
// path — the collector only *reads* state, consumes no RNG and schedules no
// events — so a sampled run is byte-identical to an unsampled one
// (tests/timeseries_test.cc), and a detached sampler costs the run loop one
// pointer compare per event (<1% gated by
// `micro_primitives --stats-overhead-gate`).
//
// Columns carry a kind:
//  * kSim  — derived purely from simulation state; byte-identical for the
//    same seed across shard_threads and PDS_BENCH_JOBS (the
//    `timeseries-deterministic` gate compares this projection);
//  * kWall — address-space / wall-clock facts (peak RSS, thread-local pool
//    occupancy) that legitimately vary with thread count; excluded from the
//    deterministic projection.
//
// Serialized form is a compact columnar NDJSON (`pds-timeseries/1`): one
// header object naming the columns, then one row object per interval with
// the values in column order. `pdscli stats` renders/summarizes these files
// and `tools/telemetry_schema.h` is the catalog every literal column name
// must be registered in (pdslint rule `stats-schema`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sim_time.h"

namespace pds::obs {

inline constexpr const char* kTimeSeriesSchema = "pds-timeseries/1";

// Peak resident-set size of this process in megabytes (Linux getrusage);
// 0 when the platform does not report it. A wall-clock-side probe: feeds
// kWall columns and end-of-run report points, never simulation state.
[[nodiscard]] double peak_rss_mb();

class TimeSeries {
 public:
  enum class Kind : std::uint8_t {
    kSim,   // deterministic simulation state
    kWall,  // wall-clock/address-space probe, excluded from determinism
  };

  // The collector fires once per committed row, at most once per boundary.
  // It must only read state and call set(); `now` is the boundary time (the
  // simulator's clock may already sit on the event that crossed it).
  using Collector = std::function<void(SimTime now, TimeSeries& ts)>;

  explicit TimeSeries(SimTime interval) : interval_(interval) {
    next_at_ = interval_;
  }

  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  // Registers (or finds) a column. `name` must be a string literal or other
  // storage outliving the series; literal names are linted against
  // tools/telemetry_schema.h via the PDS_TS_COLUMN macro below. Registration
  // order is the column order in every row and in the NDJSON header.
  int column(const char* name, Kind kind = Kind::kSim);

  // Stages a value for the row being collected. Unset columns default to 0.
  void set(int col, double v) {
    staged_[static_cast<std::size_t>(col)] = v;
  }

  void set_collector(Collector collector) {
    collector_ = std::move(collector);
  }

  // Commits one row per interval boundary in (last committed, t]. Driven by
  // Simulator::run before executing each event and once more at the horizon;
  // safe to call with a non-monotone `t` (stale boundaries are skipped).
  void advance_to(SimTime t) {
    while (next_at_ <= t) step();
  }

  // Drops committed rows and rewinds the boundary cursor; column
  // registrations and the collector survive (a warm sampler re-attaches to
  // the next run).
  void reset(SimTime start = SimTime::zero());

  [[nodiscard]] SimTime interval() const { return interval_; }
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  [[nodiscard]] std::size_t column_count() const { return cols_.size(); }
  [[nodiscard]] const char* column_name(int col) const {
    return cols_[static_cast<std::size_t>(col)].name;
  }
  [[nodiscard]] Kind column_kind(int col) const {
    return cols_[static_cast<std::size_t>(col)].kind;
  }
  [[nodiscard]] double value(std::size_t row, int col) const {
    return rows_[row].v[static_cast<std::size_t>(col)];
  }
  [[nodiscard]] SimTime row_time(std::size_t row) const {
    return rows_[row].at;
  }

  // Columnar NDJSON (`pds-timeseries/1`). With include_wall=false the kWall
  // columns are dropped from the header and every row — the deterministic
  // projection the `timeseries-deterministic` gate byte-compares.
  [[nodiscard]] std::string ndjson(bool include_wall = true) const;
  // Writes ndjson(true) to `path`; returns false on I/O failure.
  bool write_ndjson(const std::string& path) const;

 private:
  struct Column {
    const char* name;
    Kind kind;
  };
  struct Row {
    SimTime at;
    std::vector<double> v;
  };

  void step();

  SimTime interval_;
  SimTime next_at_;
  std::vector<Column> cols_;
  std::vector<double> staged_;
  std::vector<Row> rows_;
  Collector collector_;
};

}  // namespace pds::obs

// Column registration with a lint-checked literal name: pdslint's
// `stats-schema` rule requires the string literal to be registered in
// tools/telemetry_schema.h, the catalog PDS_TRACE_* events are checked
// against too.
#define PDS_TS_COLUMN(ts, name, ...) (ts).column((name), ##__VA_ARGS__)
