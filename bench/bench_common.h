// Shared helpers for the experiment harness binaries.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "parallel_runs.h"
#include "tools/stats_analysis.h"
#include "tools/trace_causal.h"
#include "util/stats.h"
#include "util/table.h"

namespace pds::bench {

// Seeds averaged per data point. The paper averages over 5 runs; the default
// here keeps each binary within a couple of minutes. Override with
// PDS_BENCH_RUNS (invalid or non-positive values are fatal, not ignored).
inline int runs(int dflt = 2) {
  return env_positive_int("PDS_BENCH_RUNS", dflt);
}

struct Series {
  util::SampleSet recall;
  util::SampleSet latency_s;
  util::SampleSet overhead_mb;
};

// Runs `body(seed)` for `n` seeds — in parallel across PDS_BENCH_JOBS worker
// threads (each seed gets its own Simulator) — and accumulates in seed order,
// so the merged Series is bit-identical to the old serial loop.
template <typename Body>
Series average(int n, Body&& body) {
  Series s;
  const auto outcomes = run_indexed(n, [&body](int i) {
    return body(static_cast<std::uint64_t>(i + 1));
  });
  for (const auto& [recall, latency, overhead] : outcomes) {
    s.recall.add(recall);
    s.latency_s.add(latency);
    s.overhead_mb.add(overhead);
  }
  return s;
}

inline void print_header(const std::string& experiment,
                         const std::string& paper_summary,
                         int runs_used = 0) {
  std::printf("== %s ==\n", experiment.c_str());
  std::printf("paper reports: %s\n", paper_summary.c_str());
  std::printf("runs per point: %d (PDS_BENCH_RUNS to change)\n",
              runs_used > 0 ? runs_used : runs());
  std::printf("worker threads: %d (PDS_BENCH_JOBS to change)\n\n", jobs());
}

// Prints the canonical experiment header (byte-identical to the historical
// print_header output) and opens the telemetry Report the binary routes its
// results through.
inline obs::Report make_report(const char* experiment, const char* title,
                               const char* paper, int runs_used = 0) {
  const int n = runs_used > 0 ? runs_used : runs();
  print_header(title, paper, n);
  obs::Report::Options options;
  options.experiment = experiment;
  options.title = title;
  options.paper = paper;
  options.runs = n;
  options.jobs = jobs();
  return obs::Report(std::move(options));
}

// Causal-trace capture for one representative run (DESIGN.md §14): a
// tracer (which keeps every event, so the span DAG is whole) that benches
// attach to a single run — usually seed index 0 — and then fold into the
// report's "causal" section via add_causal_point().
// Tracing never perturbs outcomes, so the traced run's metrics are
// bit-identical to an untraced one; the capture only *adds* columns.
class CausalCapture {
 public:
  [[nodiscard]] obs::Tracer* tracer() { return &tracer_; }
  void clear() { tracer_.clear(); }

  // Reconstructs the captured span DAG through the same NDJSON round-trip
  // `pdscli trace critpath` uses, so bench columns can never drift from the
  // CLI's numbers.
  [[nodiscard]] tools::CausalReport analyze() const {
    std::stringstream ss;
    tracer_.write_ndjson(ss);
    std::size_t bad_line = 0;
    const std::vector<tools::ParsedEvent> events =
        tools::read_trace(ss, bad_line);
    return tools::analyze_causal(events);
  }

 private:
  obs::Tracer tracer_;
};

// The trace-wide dominant edge class: the class winning the most per-trace
// "longest edge" votes (ties break lexicographically via map order).
inline std::string dominant_edge_class(const tools::CausalReport& causal) {
  std::string best = "none";
  int best_count = 0;
  for (const auto& [cls, count] : causal.dominant_edges) {
    if (count > best_count) {
      best = cls;
      best_count = count;
    }
  }
  return best;
}

// Appends the causal health + critical-path statistics point for one
// captured run to the report's current section (callers begin_table/
// begin_section "causal" first and may prepend identifying params).
inline obs::Report::Point& add_causal_point(
    obs::Report::Point& point, const tools::CausalReport& causal) {
  return point.param("dominant_edge", dominant_edge_class(causal))
      .metric("traces", static_cast<std::int64_t>(causal.traces.size()))
      .metric("with_path",
              static_cast<std::int64_t>(causal.traces_with_path))
      .metric("orphans", static_cast<std::int64_t>(causal.total_orphans))
      .metric("dropped", static_cast<std::int64_t>(causal.dropped_events))
      .metric("cp_hops_p50", causal.cp_hops_p50, 1)
      .metric("cp_hops_p99", causal.cp_hops_p99, 1)
      .metric("cp_len_ms_p50", causal.cp_len_us_p50 / 1e3, 1)
      .metric("cp_len_ms_p99", causal.cp_len_us_p99 / 1e3, 1);
}

// Flight-recorder capture for one representative run (DESIGN.md §15): a
// sim-time sampler + wall-clock profiler a bench attaches to a single run —
// usually seed index 0 — and folds into the report's "stats" section via
// add_stats_point(). Sampling only reads state, so the sampled run's
// outcomes are bit-identical to an unsampled one.
class StatsCapture {
 public:
  explicit StatsCapture(SimTime interval = SimTime::seconds(1.0))
      : sampler_(interval) {}

  [[nodiscard]] obs::TimeSeries* sampler() { return &sampler_; }
  [[nodiscard]] obs::Profiler* profiler() { return &profiler_; }
  void reset() { sampler_.reset(); }

  // Serialized capture: the series body plus the trailing profile line.
  // include_wall=false is the deterministic projection benches byte-compare
  // for the `timeseries-deterministic` gate (no profile line either — wall
  // durations are never deterministic).
  [[nodiscard]] std::string ndjson(bool include_wall = true) const {
    std::string out = sampler_.ndjson(include_wall);
    if (include_wall) {
      out += obs::Profiler::profile_json_line(profiler_.snapshot());
    }
    return out;
  }

  // Parses the capture back through the same reader `pdscli stats` uses, so
  // bench report columns can never drift from the CLI's numbers. A capture
  // this class itself serialized must round-trip; failure is a bench bug.
  [[nodiscard]] tools::ParsedSeries analyze() const {
    std::string error;
    std::optional<tools::ParsedSeries> parsed =
        tools::parse_timeseries(ndjson(), &error);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "stats capture failed to round-trip: %s\n",
                   error.c_str());
      std::exit(1);
    }
    return *std::move(parsed);
  }

  // Writes the full capture to `path` (the STATS_<experiment>.ndjson
  // artifact CI uploads); false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    if (!out) return false;
    out << ndjson();
    return static_cast<bool>(out);
  }

 private:
  obs::TimeSeries sampler_;
  obs::Profiler profiler_;
};

// Appends the flight-recorder health + resource-peak statistics for one
// captured run to the report's current section (callers begin_section
// "stats" first and may prepend identifying params such as the determinism
// A/B verdict). `util_ceiling` is the bench's concurrent-transmission
// ceiling (node count for grid scenarios): derived channel utilization is
// the average number of concurrent transmissions per interval, which can
// never exceed it — the `channel-utilization-bounded` gate checks the
// verdict recorded here.
inline obs::Report::Point& add_stats_point(obs::Report::Point& point,
                                           const tools::ParsedSeries& s,
                                           double util_ceiling) {
  const std::vector<tools::SeriesSummary> sums = tools::summarize_series(s);
  const auto peak = [&sums](const char* name) -> double {
    for (const tools::SeriesSummary& sum : sums) {
      if (sum.name == name) return sum.peak;
    }
    return 0.0;
  };
  const std::vector<double> util = tools::channel_utilization(s);
  double util_max = 0.0;
  double util_min = 0.0;
  if (!util.empty()) {
    util_max = *std::max_element(util.begin(), util.end());
    util_min = *std::min_element(util.begin(), util.end());
  }
  const bool util_bounded = util_min >= 0.0 && util_max <= util_ceiling;
  return point.param("util_bounded", util_bounded, util_bounded ? "yes" : "NO")
      .metric("rows", static_cast<std::int64_t>(s.rows.size()))
      .metric("channel_util_max", util_max, 3)
      .metric("peak_rss_mb", peak("rss.peak_mb"), 1)
      .metric("queue_peak", peak("sched.queue_len"), 0)
      .metric("inflight_peak", peak("transport.inflight"), 0)
      .metric("chunk_bytes_peak_mb", peak("store.chunk_bytes") / 1e6, 1);
}

// Writes BENCH_<experiment>.json, announcing on *stderr* so the stdout
// tables stay byte-identical to the pre-telemetry harnesses. Returns the
// binary's exit status: a bench run whose results cannot be recorded fails.
inline int finish(const obs::Report& report) {
  if (!report.write_json()) return 1;
  std::fprintf(stderr, "wrote %s\n", report.json_path().c_str());
  return 0;
}

}  // namespace pds::bench
