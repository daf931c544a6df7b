// pdscli — command-line experiment driver.
//
// Runs any of the repo's standard experiment harnesses with parameters from
// flags and prints the paper's metrics (recall / latency / message
// overhead). Examples:
//
//   pdscli --experiment=pdd --grid=10 --entries=5000 --runs=5
//   pdscli --experiment=pdr --item-mb=20 --redundancy=3
//   pdscli --experiment=mdr --item-mb=10
//   pdscli --experiment=pdd-mobility --scenario=student_center --mobility=2
//   pdscli --experiment=pdr-mobility --item-mb=20
//   pdscli --experiment=singlehop --mode=leaky_ack --senders=3
//
// Every run is deterministic for a given --seed; --runs averages seeds
// seed, seed+1, ...
//
// Any experiment accepts --trace=FILE to capture the final run's structured
// event trace as NDJSON (--trace-format=chrome writes Chrome trace_event
// JSON for chrome://tracing instead). `pdscli trace --file=FILE` renders a
// captured trace: per-round recall table, top talkers, retransmit heatmap.
// `pdscli trace --json` emits the same statistics as a single JSON document
// (schema pds-trace-report/1) for scripting instead of the text tables.
// `pdscli trace check --file=FILE` validates a capture against the event
// catalog (tools/telemetry_schema.h): exit 0 when clean, 1 on violations
// (the first 20 printed), 2 on a usage or I/O error.
//
// A misspelled flag, a stray argument or a malformed value (`--grid=abc`,
// `--runs=0`, `--mode=fast`) is refused with the usage text and exit 2
// before anything runs.
//
// Grid experiments (pdd/pdr/mdr) also accept --stats=FILE to capture the
// final run's flight-recorder series (pds-timeseries/1 NDJSON, sampled every
// --stats-interval-ms, default 1000) with a trailing wall-clock profile
// line. `pdscli stats --file=FILE` summarizes a capture (per-column peaks
// and percentiles, channel utilization, profile shares); --json emits the
// same as a pds-stats-report/1 document and --csv exports the raw rows.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "tools/stats_analysis.h"
#include "tools/trace_causal.h"
#include "tools/trace_reader.h"
#include "util/stats.h"
#include "workload/experiment.h"

namespace pds {
namespace {

// What a flag's value must look like. Every flag pdscli reads is in kFlags
// with the commands that take it, so a misspelled flag or a malformed value
// is refused with the usage text and exit 2 before anything runs, as the
// bench env knobs are (bench/parallel_runs.h): a run with a silently
// substituted default answers a question nobody asked.
enum class FlagKind : std::uint8_t {
  kText,    // `--name=VALUE`; with choices, one of them
  kCount,   // integer >= 1
  kInt,     // integer >= 0
  kReal,    // finite number >= 0
  kSwitch,  // bare `--name`, or `--name=0|1`
};

struct FlagSpec {
  const char* name;
  FlagKind kind;
  const char* commands;           // '|'-separated
  const char* choices = nullptr;  // kText: '|'-separated allowed values
};

// Commands are an experiment name or the subcommand words.
constexpr const char* kCommands =
    "pdd|pdr|mdr|pdd-mobility|pdr-mobility|singlehop|trace|trace critpath|"
    "trace check|stats";
constexpr const char* kRuns = "pdd|pdr|mdr|pdd-mobility|pdr-mobility|singlehop";
constexpr const char* kGrids = "pdd|pdr|mdr";
constexpr const char* kMobility = "pdd-mobility|pdr-mobility";
constexpr const char* kReports = "trace|trace critpath|stats";

constexpr FlagSpec kFlags[] = {
    {"experiment", FlagKind::kText, kRuns},  // names the command itself
    {"seed", FlagKind::kInt, kRuns},
    {"runs", FlagKind::kCount, kRuns},
    {"trace", FlagKind::kText, kRuns},
    {"trace-format", FlagKind::kText, kRuns, "ndjson|chrome"},
    {"grid", FlagKind::kCount, kGrids},
    {"consumers", FlagKind::kCount, kGrids},
    {"sequential", FlagKind::kSwitch, kGrids},
    {"stats", FlagKind::kText, kGrids},
    {"stats-interval-ms", FlagKind::kCount, kGrids},
    {"redundancy", FlagKind::kCount, "pdd|pdr|mdr|pdr-mobility"},
    {"entries", FlagKind::kCount, "pdd|pdd-mobility"},
    {"single-round", FlagKind::kSwitch, "pdd"},
    {"no-ack", FlagKind::kSwitch, "pdd"},
    {"item-mb", FlagKind::kCount, "pdr|mdr|pdr-mobility"},
    {"contended", FlagKind::kSwitch, "pdr|mdr"},
    {"scenario", FlagKind::kText, kMobility, "student_center|classroom"},
    {"mobility", FlagKind::kReal, kMobility},
    {"minutes", FlagKind::kReal, kMobility},
    {"mode", FlagKind::kText, "singlehop", "raw|leaky|leaky_ack"},
    {"senders", FlagKind::kCount, "singlehop"},
    {"messages", FlagKind::kCount, "singlehop"},
    {"file", FlagKind::kText, "trace|trace critpath|trace check|stats"},
    {"entries", FlagKind::kReal, "trace"},
    {"top", FlagKind::kInt, kReports},
    {"json", FlagKind::kSwitch, kReports},
    {"max-traces", FlagKind::kInt, "trace critpath"},
    {"csv", FlagKind::kSwitch, "stats"},
};

// Whether `word` is one of the '|'-separated words of `list`.
bool in_list(const char* list, const std::string& word) {
  const std::string all = std::string("|") + list + "|";
  return word.find('|') == std::string::npos &&
         all.find("|" + word + "|") != std::string::npos;
}

// Empty when `value` (nullopt for a bare `--name`) fits `spec`; otherwise
// what it should have been.
std::string check_value(const FlagSpec& spec,
                        const std::optional<std::string>& value) {
  if (spec.kind == FlagKind::kSwitch) {
    return !value || *value == "0" || *value == "1" ? "" : "0 or 1";
  }
  if (!value) return "a value";
  const char* text = value->c_str();
  char* end = nullptr;
  errno = 0;
  switch (spec.kind) {
    case FlagKind::kText:
      if (spec.choices == nullptr || in_list(spec.choices, *value)) {
        return "";
      }
      return std::string("one of ") + spec.choices;
    case FlagKind::kCount:
    case FlagKind::kInt: {
      const long long v = std::strtoll(text, &end, 10);
      const long long min = spec.kind == FlagKind::kCount ? 1 : 0;
      if (end != text && *end == '\0' && errno == 0 && v >= min) return "";
      return min == 1 ? "an integer >= 1" : "an integer >= 0";
    }
    case FlagKind::kReal: {
      const double v = std::strtod(text, &end);
      if (end != text && *end == '\0' && errno == 0 && std::isfinite(v) &&
          v >= 0.0) {
        return "";
      }
      return "a number >= 0";
    }
    case FlagKind::kSwitch:
      break;
  }
  return "";
}

// Parsed `--name[=value]` flags (nullopt for a bare `--name`); every value
// was checked against its FlagSpec before a getter runs.
struct Flags {
  std::map<std::string, std::optional<std::string>> values;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& dflt) const {
    auto it = values.find(key);
    return it == values.end() ? dflt : it->second.value_or("1");
  }
  [[nodiscard]] long num(const std::string& key, long dflt) const {
    return values.contains(key) ? std::atol(get(key, "").c_str()) : dflt;
  }
  [[nodiscard]] double real(const std::string& key, double dflt) const {
    return values.contains(key) ? std::atof(get(key, "").c_str()) : dflt;
  }
  [[nodiscard]] bool on(const std::string& key) const {
    return get(key, "0") == "1";
  }
};

int usage(const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "pdscli: %s\n", error.c_str());
  std::fprintf(
      stderr,
      "usage: pdscli --experiment=<pdd|pdr|mdr|pdd-mobility|pdr-mobility|"
      "singlehop> [options]\n"
      "       pdscli trace --file=<trace.ndjson> [--entries=N] [--top=N] "
      "[--json]\n"
      "       pdscli trace critpath --file=<trace.ndjson> [--top=N] "
      "[--max-traces=N] [--json]\n"
      "       pdscli trace check --file=<trace.ndjson>\n"
      "       pdscli stats --file=<stats.ndjson> [--top=N] [--json|--csv]\n"
      "  common:       --seed=N --runs=N --trace=FILE "
      "[--trace-format=chrome]\n"
      "  pdd/pdr/mdr:  --stats=FILE [--stats-interval-ms=N]\n"
      "  pdd:          --grid=N --entries=N --redundancy=N --consumers=N\n"
      "                --sequential --single-round --no-ack\n"
      "  pdr/mdr:      --grid=N --item-mb=N --redundancy=N --consumers=N\n"
      "                --sequential --contended\n"
      "  *-mobility:   --scenario=<student_center|classroom> --mobility=X\n"
      "                --minutes=X --entries=N (pdd) / --item-mb=N "
      "--redundancy=N (pdr)\n"
      "  singlehop:    --mode=<raw|leaky|leaky_ack> --senders=N "
      "--messages=N\n");
  return 2;
}

// --trace=FILE support: a tracer attached to every run (cleared between
// runs, so the file holds the final seed's trace), written on scope exit as
// NDJSON or Chrome trace_event JSON.
class TraceSink {
 public:
  explicit TraceSink(const Flags& flags)
      : path_(flags.get("trace", "")),
        chrome_(flags.get("trace-format", "ndjson") == "chrome"),
        tracer_(path_.empty() ? nullptr : std::make_unique<obs::Tracer>()) {}

  ~TraceSink() {
    if (!tracer_) return;
    std::ofstream out(path_, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "pdscli: cannot write trace to %s\n",
                   path_.c_str());
      return;
    }
    if (chrome_) {
      tracer_->write_chrome_trace(out);
    } else {
      tracer_->write_ndjson(out);
    }
    std::fprintf(stderr, "pdscli: wrote %zu trace events to %s\n",
                 tracer_->events().size(), path_.c_str());
  }

  // Call at the start of each run; returns the tracer for params.tracer.
  obs::Tracer* begin_run() {
    if (tracer_) tracer_->clear();
    return tracer_.get();
  }

 private:
  std::string path_;
  bool chrome_ = false;
  std::unique_ptr<obs::Tracer> tracer_;
};

// --stats=FILE support: a flight-recorder sampler + wall-clock profiler
// attached to every run (sampler reset between runs, so the file holds the
// final seed's series; the profiler accumulates across all runs), written on
// scope exit as pds-timeseries/1 NDJSON with a trailing profile line.
class StatsSink {
 public:
  explicit StatsSink(const Flags& flags) : path_(flags.get("stats", "")) {
    if (path_.empty()) return;
    sampler_ = std::make_unique<obs::TimeSeries>(
        SimTime::millis(flags.num("stats-interval-ms", 1000)));
    profiler_ = std::make_unique<obs::Profiler>();
  }

  ~StatsSink() {
    if (!sampler_) return;
    std::ofstream out(path_, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "pdscli: cannot write stats to %s\n",
                   path_.c_str());
      return;
    }
    out << sampler_->ndjson();
    out << obs::Profiler::profile_json_line(profiler_->snapshot());
    std::fprintf(stderr, "pdscli: wrote %zu sample rows to %s\n",
                 sampler_->row_count(), path_.c_str());
  }

  // Call at the start of each run; returns the sampler for params.sampler.
  obs::TimeSeries* begin_run() {
    if (sampler_) sampler_->reset();
    return sampler_.get();
  }
  [[nodiscard]] obs::Profiler* profiler() { return profiler_.get(); }

 private:
  std::string path_;
  std::unique_ptr<obs::TimeSeries> sampler_;
  std::unique_ptr<obs::Profiler> profiler_;
};

sim::MobilityParams scenario_params(const std::string& name) {
  return name == "classroom" ? sim::classroom_params()
                             : sim::student_center_params();
}

int run_pdd(const Flags& flags) {
  util::SampleSet recall, latency, overhead;
  const long runs = flags.num("runs", 1);
  TraceSink trace(flags);
  StatsSink stats(flags);
  for (long r = 0; r < runs; ++r) {
    wl::PddGridParams p;
    p.tracer = trace.begin_run();
    p.sampler = stats.begin_run();
    p.profiler = stats.profiler();
    p.nx = p.ny = static_cast<std::size_t>(flags.num("grid", 10));
    p.metadata_count = static_cast<std::size_t>(flags.num("entries", 5000));
    p.redundancy = static_cast<int>(flags.num("redundancy", 1));
    p.consumers = static_cast<std::size_t>(flags.num("consumers", 1));
    p.sequential = flags.on("sequential");
    p.multi_round = !flags.on("single-round");
    p.ack = !flags.on("no-ack");
    p.seed = static_cast<std::uint64_t>(flags.num("seed", 1) + r);
    const wl::PddOutcome out = wl::run_pdd_grid(p);
    recall.add(out.recall);
    latency.add(out.latency_s);
    overhead.add(out.overhead_mb);
  }
  std::printf("pdd: recall=%.3f latency=%.2fs overhead=%.2fMB (%ld run%s)\n",
              recall.mean(), latency.mean(), overhead.mean(), runs,
              runs == 1 ? "" : "s");
  return 0;
}

int run_retrieval(const Flags& flags, wl::RetrievalMethod method) {
  util::SampleSet recall, latency, overhead;
  const long runs = flags.num("runs", 1);
  bool all_complete = true;
  TraceSink trace(flags);
  StatsSink stats(flags);
  for (long r = 0; r < runs; ++r) {
    wl::RetrievalGridParams p;
    p.tracer = trace.begin_run();
    p.sampler = stats.begin_run();
    p.profiler = stats.profiler();
    p.nx = p.ny = static_cast<std::size_t>(flags.num("grid", 10));
    p.item_size_bytes =
        static_cast<std::size_t>(flags.num("item-mb", 20)) * 1024 * 1024;
    p.redundancy = static_cast<int>(flags.num("redundancy", 1));
    p.consumers = static_cast<std::size_t>(flags.num("consumers", 1));
    p.sequential = flags.on("sequential");
    p.contended_medium = flags.on("contended");
    p.method = method;
    p.seed = static_cast<std::uint64_t>(flags.num("seed", 1) + r);
    const wl::RetrievalOutcome out = wl::run_retrieval_grid(p);
    recall.add(out.recall);
    latency.add(out.latency_s);
    overhead.add(out.overhead_mb);
    all_complete = all_complete && out.all_complete;
  }
  std::printf(
      "%s: recall=%.3f latency=%.1fs overhead=%.1fMB%s (%ld run%s)\n",
      method == wl::RetrievalMethod::kPdr ? "pdr" : "mdr", recall.mean(),
      latency.mean(), overhead.mean(), all_complete ? "" : " [incomplete]",
      runs, runs == 1 ? "" : "s");
  return 0;
}

int run_pdd_mobility(const Flags& flags) {
  util::SampleSet recall, latency, overhead;
  const long runs = flags.num("runs", 1);
  TraceSink trace(flags);
  for (long r = 0; r < runs; ++r) {
    wl::PddMobilityParams p;
    p.tracer = trace.begin_run();
    p.mobility = scenario_params(flags.get("scenario", "student_center"));
    p.mobility.frequency_multiplier = flags.real("mobility", 1.0);
    p.mobility.duration = SimTime::minutes(flags.real("minutes", 5.0));
    p.range_m = flags.get("scenario", "student_center") == "classroom"
                    ? 15.0
                    : 40.0;
    p.metadata_count = static_cast<std::size_t>(flags.num("entries", 5000));
    p.seed = static_cast<std::uint64_t>(flags.num("seed", 1) + r);
    const wl::PddOutcome out = wl::run_pdd_mobility(p);
    recall.add(out.recall);
    latency.add(out.latency_s);
    overhead.add(out.overhead_mb);
  }
  std::printf(
      "pdd-mobility: recall=%.3f latency=%.2fs overhead=%.2fMB (%ld run%s)\n",
      recall.mean(), latency.mean(), overhead.mean(), runs,
      runs == 1 ? "" : "s");
  return 0;
}

int run_pdr_mobility(const Flags& flags) {
  util::SampleSet recall, latency, overhead;
  const long runs = flags.num("runs", 1);
  TraceSink trace(flags);
  for (long r = 0; r < runs; ++r) {
    wl::RetrievalMobilityParams p;
    p.tracer = trace.begin_run();
    p.mobility = scenario_params(flags.get("scenario", "student_center"));
    p.mobility.frequency_multiplier = flags.real("mobility", 1.0);
    p.mobility.duration = SimTime::minutes(flags.real("minutes", 20.0));
    p.item_size_bytes =
        static_cast<std::size_t>(flags.num("item-mb", 20)) * 1024 * 1024;
    p.redundancy = static_cast<int>(flags.num("redundancy", 2));
    p.seed = static_cast<std::uint64_t>(flags.num("seed", 1) + r);
    const wl::RetrievalOutcome out = wl::run_retrieval_mobility(p);
    recall.add(out.recall);
    latency.add(out.latency_s);
    overhead.add(out.overhead_mb);
  }
  std::printf(
      "pdr-mobility: recall=%.3f latency=%.1fs overhead=%.1fMB (%ld run%s)\n",
      recall.mean(), latency.mean(), overhead.mean(), runs,
      runs == 1 ? "" : "s");
  return 0;
}

int run_singlehop(const Flags& flags) {
  util::SampleSet reception, rate;
  const long runs = flags.num("runs", 1);
  TraceSink trace(flags);
  for (long r = 0; r < runs; ++r) {
    wl::SingleHopParams p;
    p.tracer = trace.begin_run();
    const std::string mode = flags.get("mode", "leaky_ack");
    p.mode = mode == "raw"     ? wl::TransportMode::kRawUdp
             : mode == "leaky" ? wl::TransportMode::kLeakyBucket
                               : wl::TransportMode::kLeakyBucketAck;
    p.senders = static_cast<std::size_t>(flags.num("senders", 2));
    p.messages_per_sender =
        static_cast<std::size_t>(flags.num("messages", 10000));
    p.seed = static_cast<std::uint64_t>(flags.num("seed", 1) + r);
    const wl::SingleHopOutcome out = wl::run_single_hop(p);
    reception.add(out.reception);
    rate.add(out.data_rate_mbps);
  }
  std::printf("singlehop: reception=%.3f data_rate=%.2fMb/s (%ld run%s)\n",
              reception.mean(), rate.mean(), runs, runs == 1 ? "" : "s");
  return 0;
}

// -- `pdscli trace` — render a captured NDJSON trace -------------------------

// Statistics extracted from a captured trace, shared by the text and JSON
// renderers so both views always agree.
struct TraceRoundRow {
  std::uint32_t node = 0;
  double round = 0;
  double end_s = 0;
  double fresh = 0;  // "new" in the trace args
  double total = 0;
  double responses = 0;
};

struct TraceTalker {
  std::uint32_t node = 0;
  std::uint64_t frames = 0;
  double bytes = 0;
};

struct TraceStats {
  std::size_t events = 0;
  // Drop trailer ("trace"/"drops") that ring-buffered tracers of older
  // builds wrote: events the capture lacks. Non-zero means every other
  // statistic is a lower bound.
  std::uint64_t dropped = 0;
  std::vector<TraceRoundRow> rounds;
  std::vector<TraceTalker> talkers;  // ranked by bytes desc, node asc
  std::map<std::uint32_t, std::map<int, std::uint64_t>> retr;
  std::map<std::uint32_t, std::uint64_t> give_ups;
  int max_attempt = 0;
};

TraceStats compute_trace_stats(const std::vector<tools::ParsedEvent>& events) {
  TraceStats stats;
  stats.events = events.size();
  for (const tools::ParsedEvent& e : events) {
    if (e.sub == "trace" && e.ev == "drops") {
      stats.dropped += tools::arg_u64(e, "count");
    }
  }

  // Per-round progress: every closed PDD round ("pdd"/"round" ph=E).
  for (const tools::ParsedEvent& e : events) {
    if (e.sub != "pdd" || e.ev != "round" || e.ph != 'E') continue;
    stats.rounds.push_back({e.node, e.num("round"),
                            static_cast<double>(e.t_us) / 1e6, e.num("new"),
                            e.num("total"), e.num("responses")});
  }

  // Top talkers: radio transmissions per node.
  std::map<std::uint32_t, TraceTalker> talkers;
  for (const tools::ParsedEvent& e : events) {
    if (e.sub != "radio" || e.ev != "tx") continue;
    TraceTalker& t = talkers[e.node];
    t.node = e.node;
    ++t.frames;
    t.bytes += e.num("bytes");
  }
  for (const auto& [node, t] : talkers) stats.talkers.push_back(t);
  std::sort(stats.talkers.begin(), stats.talkers.end(),
            [](const TraceTalker& a, const TraceTalker& b) {
              return a.bytes != b.bytes ? a.bytes > b.bytes : a.node < b.node;
            });

  // Retransmissions per node by attempt number (transport "round" arg),
  // plus give-ups.
  for (const tools::ParsedEvent& e : events) {
    if (e.sub != "transport") continue;
    if (e.ev == "retransmit") {
      const int attempt = static_cast<int>(e.num("round"));
      ++stats.retr[e.node][attempt];
      stats.max_attempt = std::max(stats.max_attempt, attempt);
    } else if (e.ev == "give_up") {
      ++stats.give_ups[e.node];
    }
  }
  return stats;
}

// Default human-readable rendering: per-round recall table, top talkers,
// retransmit heatmap. --entries converts cumulative counts into the paper's
// recall fraction.
void print_trace_text(const TraceStats& stats, double entries,
                      std::size_t top) {
  if (stats.dropped > 0) {
    std::printf("WARNING: tracer ring dropped %llu events; "
                "all statistics below are lower bounds\n\n",
                static_cast<unsigned long long>(stats.dropped));
  }
  std::printf("per-round discovery progress:\n");
  std::printf("  %-6s %-6s %10s %8s %8s %10s", "node", "round", "end_s",
              "new", "total", "responses");
  if (entries > 0) std::printf(" %8s", "recall");
  std::printf("\n");
  for (const TraceRoundRow& r : stats.rounds) {
    std::printf("  %-6u %-6.0f %10.3f %8.0f %8.0f %10.0f", r.node, r.round,
                r.end_s, r.fresh, r.total, r.responses);
    if (entries > 0) std::printf(" %8.3f", r.total / entries);
    std::printf("\n");
  }
  if (stats.rounds.empty()) std::printf("  (no closed pdd rounds in trace)\n");

  std::printf("\ntop talkers (radio tx):\n");
  std::printf("  %-6s %10s %12s\n", "node", "frames", "kbytes");
  for (std::size_t i = 0; i < stats.talkers.size() && i < top; ++i) {
    std::printf("  %-6u %10llu %12.1f\n", stats.talkers[i].node,
                static_cast<unsigned long long>(stats.talkers[i].frames),
                stats.talkers[i].bytes / 1e3);
  }
  if (stats.talkers.empty()) std::printf("  (no radio tx events in trace)\n");

  std::printf("\nretransmit heatmap (node x attempt):\n");
  if (stats.retr.empty() && stats.give_ups.empty()) {
    std::printf("  (no retransmissions in trace)\n");
    return;
  }
  std::printf("  %-6s", "node");
  for (int a = 1; a <= stats.max_attempt; ++a) std::printf(" %7s%d", "try", a);
  std::printf(" %8s\n", "give_up");
  for (const auto& [node, by_attempt] : stats.retr) {
    std::printf("  %-6u", node);
    for (int a = 1; a <= stats.max_attempt; ++a) {
      const auto it = by_attempt.find(a);
      std::printf(" %8llu",
                  static_cast<unsigned long long>(
                      it == by_attempt.end() ? 0 : it->second));
    }
    const auto gu = stats.give_ups.find(node);
    std::printf(" %8llu\n",
                static_cast<unsigned long long>(
                    gu == stats.give_ups.end() ? 0 : gu->second));
  }
  for (const auto& [node, count] : stats.give_ups) {
    if (stats.retr.contains(node)) continue;
    std::printf("  %-6u", node);
    for (int a = 1; a <= stats.max_attempt; ++a) std::printf(" %8u", 0u);
    std::printf(" %8llu\n", static_cast<unsigned long long>(count));
  }
}

// --json rendering: the same statistics as one JSON document for scripting.
// `top` is intentionally not applied — JSON consumers get every talker.
void print_trace_json(const TraceStats& stats, double entries,
                      const std::string& path) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("pds-trace-report/1");
  w.key("file").value(path);
  w.key("events").value(static_cast<std::uint64_t>(stats.events));
  w.key("dropped_events").value(stats.dropped);

  w.key("rounds").begin_array();
  for (const TraceRoundRow& r : stats.rounds) {
    w.begin_object();
    w.key("node").value(static_cast<std::int64_t>(r.node));
    w.key("round").value(static_cast<std::int64_t>(r.round));
    w.key("end_s").value(r.end_s);
    w.key("new").value(static_cast<std::int64_t>(r.fresh));
    w.key("total").value(static_cast<std::int64_t>(r.total));
    w.key("responses").value(static_cast<std::int64_t>(r.responses));
    if (entries > 0) w.key("recall").value(r.total / entries);
    w.end_object();
  }
  w.end_array();

  w.key("top_talkers").begin_array();
  for (const TraceTalker& t : stats.talkers) {
    w.begin_object();
    w.key("node").value(static_cast<std::int64_t>(t.node));
    w.key("frames").value(static_cast<std::uint64_t>(t.frames));
    w.key("bytes").value(t.bytes);
    w.end_object();
  }
  w.end_array();

  w.key("retransmits").begin_array();
  std::vector<std::uint32_t> nodes;
  for (const auto& [node, by_attempt] : stats.retr) nodes.push_back(node);
  for (const auto& [node, count] : stats.give_ups) {
    if (!stats.retr.contains(node)) nodes.push_back(node);
  }
  std::sort(nodes.begin(), nodes.end());
  for (const std::uint32_t node : nodes) {
    w.begin_object();
    w.key("node").value(static_cast<std::int64_t>(node));
    w.key("attempts").begin_array();
    const auto by_attempt = stats.retr.find(node);
    for (int a = 1; a <= stats.max_attempt; ++a) {
      std::uint64_t count = 0;
      if (by_attempt != stats.retr.end()) {
        const auto it = by_attempt->second.find(a);
        if (it != by_attempt->second.end()) count = it->second;
      }
      w.value(count);
    }
    w.end_array();
    const auto gu = stats.give_ups.find(node);
    w.key("give_ups")
        .value(static_cast<std::uint64_t>(
            gu == stats.give_ups.end() ? 0 : gu->second));
    w.end_object();
  }
  w.end_array();

  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

// The one load path every `pdscli trace` subcommand shares. A nonzero
// `status` is the exit code, with the reason already printed: 2 for a
// missing --file or an unreadable file, 1 for a malformed line.
struct LoadedTrace {
  std::string path;
  std::vector<tools::ParsedEvent> events;
  int status = 0;
};

LoadedTrace load_trace(const Flags& flags, const char* usage) {
  LoadedTrace trace;
  trace.path = flags.get("file", "");
  if (trace.path.empty()) {
    std::fprintf(stderr, "usage: %s\n", usage);
    trace.status = 2;
    return trace;
  }
  std::ifstream in(trace.path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "pdscli: cannot open %s\n", trace.path.c_str());
    trace.status = 2;
    return trace;
  }
  std::size_t bad_line = 0;
  trace.events = tools::read_trace(in, bad_line);
  if (bad_line != 0) {
    std::fprintf(stderr, "pdscli: malformed trace line %zu in %s\n", bad_line,
                 trace.path.c_str());
    trace.status = 1;
  }
  return trace;
}

int run_trace_report(const Flags& flags) {
  const LoadedTrace trace =
      load_trace(flags, "pdscli trace --file=<trace.ndjson> [--entries=N] "
                        "[--top=N] [--json]");
  if (trace.status != 0) return trace.status;
  const TraceStats stats = compute_trace_stats(trace.events);
  const double entries = flags.real("entries", 0.0);
  if (flags.on("json")) {
    print_trace_json(stats, entries, trace.path);
  } else {
    print_trace_text(stats, entries,
                     static_cast<std::size_t>(flags.num("top", 10)));
  }
  return 0;
}

// -- `pdscli trace check` — validate against the telemetry catalog -----------

int run_check_trace(const Flags& flags) {
  const LoadedTrace trace =
      load_trace(flags, "pdscli trace check --file=<trace.ndjson>");
  if (trace.status != 0) return trace.status;
  const tools::TraceCheck check = tools::check_trace(trace.events);
  constexpr std::size_t kMaxReported = 20;
  for (std::size_t i = 0; i < check.violations.size() && i < kMaxReported;
       ++i) {
    std::fprintf(stderr, "trace check: line %zu: %s\n",
                 check.violations[i].line, check.violations[i].what.c_str());
  }
  for (const std::string& warning : check.warnings) {
    std::fprintf(stderr, "trace check: warning: %s\n", warning.c_str());
  }
  if (!check.violations.empty()) {
    std::fprintf(stderr, "trace check: %zu violation(s) in %zu event(s)\n",
                 check.violations.size(), trace.events.size());
    return 1;
  }
  std::printf("trace check: OK (%zu events)\n", trace.events.size());
  return 0;
}

// -- `pdscli trace critpath` — causal span-DAG analysis ----------------------

void print_critpath_text(const tools::CausalReport& report, std::size_t top) {
  std::printf("causal summary: traces=%zu with_path=%zu orphans=%zu "
              "dropped=%llu\n",
              report.traces.size(), report.traces_with_path,
              report.total_orphans,
              static_cast<unsigned long long>(report.dropped_events));
  std::printf("  critical path: hops p50=%.1f p99=%.1f  length p50=%.1fms "
              "p99=%.1fms\n",
              report.cp_hops_p50, report.cp_hops_p99,
              report.cp_len_us_p50 / 1e3, report.cp_len_us_p99 / 1e3);
  std::printf("  dominant edges:");
  for (const auto& [cls, count] : report.dominant_edges) {
    std::printf(" %s=%d", cls.c_str(), count);
  }
  if (report.dominant_edges.empty()) std::printf(" (none)");
  std::printf("\n");

  std::size_t shown = 0;
  for (const tools::TraceAnalysis& ta : report.traces) {
    if (shown++ >= top) break;
    std::printf("\ntrace %llu kind=%s spans=%zu orphans=%zu cp_hops=%d "
                "cp_len=%.1fms bytes_on_air=%llu airtime=%.1fms retx=%d "
                "overhears=%d suppressed=%d\n",
                static_cast<unsigned long long>(ta.trace_id),
                ta.kind.empty() ? "?" : ta.kind.c_str(), ta.spans.size(),
                ta.orphans.size(), ta.cp_air_hops,
                static_cast<double>(ta.cp_len_us) / 1e3,
                static_cast<unsigned long long>(ta.bytes_on_air),
                static_cast<double>(ta.airtime_us) / 1e3, ta.retx,
                ta.overhears, ta.suppressed);
    for (const tools::CriticalEdge& edge : ta.critical_path) {
      const auto from = ta.spans.find(edge.from);
      const auto to = ta.spans.find(edge.to);
      std::printf("  node %u %s --%s(%.1fms)--> node %u %s\n",
                  from->second.node, from->second.ev.c_str(),
                  edge.cls.c_str(), static_cast<double>(edge.dt_us) / 1e3,
                  to->second.node, to->second.ev.c_str());
    }
    if (ta.critical_path.empty()) std::printf("  (no delivery in trace)\n");
  }
}

int run_trace_critpath(const Flags& flags) {
  const LoadedTrace trace =
      load_trace(flags, "pdscli trace critpath --file=<trace.ndjson> "
                        "[--top=N] [--max-traces=N] [--json]");
  if (trace.status != 0) return trace.status;
  const tools::CausalReport report = tools::analyze_causal(trace.events);
  if (flags.on("json")) {
    std::printf("%s\n",
                tools::causal_report_json(
                    report,
                    static_cast<std::size_t>(flags.num("max-traces", 64)))
                    .c_str());
  } else {
    print_critpath_text(report,
                        static_cast<std::size_t>(flags.num("top", 5)));
  }
  // Orphan spans or a dropped-event trailer mean the DAG is incomplete; make
  // that a hard failure so CI smoke jobs cannot silently pass on bad data.
  if (report.total_orphans > 0) {
    std::fprintf(stderr, "pdscli: %zu orphan spans in %s\n",
                 report.total_orphans, trace.path.c_str());
    return 1;
  }
  if (report.dropped_events > 0) {
    std::fprintf(stderr, "pdscli: tracer dropped %llu events in %s\n",
                 static_cast<unsigned long long>(report.dropped_events),
                 trace.path.c_str());
    return 1;
  }
  return 0;
}

// -- `pdscli stats` — render a captured flight-recorder series ---------------

// Total nanoseconds across root profile scopes — the denominator for the
// per-scope share column (children are counted inside their parents).
double profile_root_ns(const std::vector<tools::ProfileEntry>& profile) {
  double total = 0.0;
  for (const tools::ProfileEntry& e : profile) {
    if (e.depth == 0) total += static_cast<double>(e.ns);
  }
  return total;
}

void print_stats_text(const tools::ParsedSeries& s, std::size_t top) {
  const std::vector<tools::SeriesSummary> summaries =
      tools::summarize_series(s);
  std::printf("series: %zu columns x %zu rows, interval %.3fs\n",
              s.columns.size(), s.rows.size(),
              static_cast<double>(s.interval_us) / 1e6);
  std::printf("  %-30s %-4s %12s %8s %12s %12s %12s\n", "column", "kind",
              "peak", "t_peak_s", "mean", "p99", "last");
  for (const tools::SeriesSummary& sum : summaries) {
    std::printf("  %-30s %-4s %12.1f %8.1f %12.1f %12.1f %12.1f\n",
                sum.name.c_str(), sum.kind.c_str(), sum.peak,
                static_cast<double>(sum.t_peak_us) / 1e6, sum.mean, sum.p99,
                sum.last);
  }

  const std::vector<double> util = tools::channel_utilization(s);
  if (!util.empty()) {
    const double peak = *std::max_element(util.begin(), util.end());
    double mean = 0.0;
    for (const double u : util) mean += u;
    mean /= static_cast<double>(util.size());
    std::printf("\nchannel utilization (avg concurrent tx): peak=%.3f "
                "mean=%.3f p99=%.3f\n",
                peak, mean, tools::series_percentile(util, 99.0));
  }

  if (!s.profile.empty()) {
    const double root_ns = profile_root_ns(s.profile);
    std::printf("\nwall-clock profile (top %zu by time):\n", top);
    std::printf("  %-40s %10s %12s %7s\n", "path", "ms", "calls", "share");
    std::vector<tools::ProfileEntry> ranked = s.profile;
    std::sort(ranked.begin(), ranked.end(),
              [](const tools::ProfileEntry& a, const tools::ProfileEntry& b) {
                return a.ns != b.ns ? a.ns > b.ns : a.path < b.path;
              });
    for (std::size_t i = 0; i < ranked.size() && i < top; ++i) {
      const tools::ProfileEntry& e = ranked[i];
      std::printf("  %-40s %10.1f %12llu %6.1f%%\n", e.path.c_str(),
                  static_cast<double>(e.ns) / 1e6,
                  static_cast<unsigned long long>(e.calls),
                  root_ns > 0 ? 100.0 * static_cast<double>(e.ns) / root_ns
                              : 0.0);
    }
  }
}

// --json rendering: schema pds-stats-report/1, the machine-readable twin of
// the text view (and the shape pdsreport validates/gates).
void print_stats_json(const tools::ParsedSeries& s, const std::string& path) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("pds-stats-report/1");
  w.key("file").value(path);
  w.key("interval_us").value(static_cast<std::int64_t>(s.interval_us));
  w.key("rows").value(static_cast<std::uint64_t>(s.rows.size()));

  w.key("columns").begin_array();
  for (const tools::SeriesSummary& sum : tools::summarize_series(s)) {
    w.begin_object();
    w.key("name").value(sum.name);
    w.key("kind").value(sum.kind);
    w.key("peak").value(sum.peak);
    w.key("t_peak_us").value(static_cast<std::int64_t>(sum.t_peak_us));
    w.key("mean").value(sum.mean);
    w.key("p50").value(sum.p50);
    w.key("p95").value(sum.p95);
    w.key("p99").value(sum.p99);
    w.key("last").value(sum.last);
    w.end_object();
  }
  w.end_array();

  const std::vector<double> util = tools::channel_utilization(s);
  if (!util.empty()) {
    const double peak = *std::max_element(util.begin(), util.end());
    double mean = 0.0;
    for (const double u : util) mean += u;
    mean /= static_cast<double>(util.size());
    w.key("channel_utilization").begin_object();
    w.key("peak").value(peak);
    w.key("mean").value(mean);
    w.key("p99").value(tools::series_percentile(util, 99.0));
    w.end_object();
  }

  if (!s.profile.empty()) {
    const double root_ns = profile_root_ns(s.profile);
    w.key("profile").begin_array();
    for (const tools::ProfileEntry& e : s.profile) {
      w.begin_object();
      w.key("path").value(e.path);
      w.key("depth").value(static_cast<std::int64_t>(e.depth));
      w.key("ns").value(static_cast<std::int64_t>(e.ns));
      w.key("calls").value(static_cast<std::uint64_t>(e.calls));
      w.key("share").value(
          root_ns > 0 ? static_cast<double>(e.ns) / root_ns : 0.0);
      w.end_object();
    }
    w.end_array();
  }

  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

// --csv rendering: raw rows, one line per sample, for spreadsheets/pandas.
void print_stats_csv(const tools::ParsedSeries& s) {
  std::printf("t_us");
  for (const tools::SeriesColumn& c : s.columns) {
    std::printf(",%s", c.name.c_str());
  }
  std::printf("\n");
  for (const tools::SeriesRow& row : s.rows) {
    std::printf("%lld", static_cast<long long>(row.t_us));
    for (const double v : row.v) std::printf(",%.17g", v);
    std::printf("\n");
  }
}

int run_stats_report(const Flags& flags) {
  const std::string path = flags.get("file", "");
  if (path.empty()) {
    std::fprintf(stderr, "usage: pdscli stats --file=<stats.ndjson> "
                         "[--top=N] [--json|--csv]\n");
    return 2;
  }
  std::string error;
  const std::optional<tools::ParsedSeries> series =
      tools::read_timeseries(path, &error);
  if (!series.has_value()) {
    std::fprintf(stderr, "pdscli: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  if (flags.on("csv")) {
    print_stats_csv(*series);
  } else if (flags.on("json")) {
    print_stats_json(*series, path);
  } else {
    print_stats_text(*series,
                     static_cast<std::size_t>(flags.num("top", 12)));
  }
  return 0;
}

int run_main(int argc, char** argv) {
  // Leading words name a subcommand ("trace", "trace critpath", "trace
  // check", "stats"); without them --experiment names the command.
  int first_flag = 1;
  std::string command;
  while (first_flag < argc && std::strncmp(argv[first_flag], "--", 2) != 0) {
    if (!command.empty()) command += ' ';
    command += argv[first_flag++];
  }
  Flags flags;
  for (int i = first_flag; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return usage("unexpected argument \"" + arg + "\"");
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags.values[arg.substr(2)] = std::nullopt;
    } else {
      flags.values[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  if (command.empty()) {
    const auto it = flags.values.find("experiment");
    if (it != flags.values.end() && it->second) command = *it->second;
  }
  if (!in_list(kCommands, command)) {
    return usage(command.empty() ? "" : "unknown command \"" + command + "\"");
  }
  for (const auto& [name, value] : flags.values) {
    const FlagSpec* spec = std::find_if(
        std::begin(kFlags), std::end(kFlags), [&](const FlagSpec& f) {
          return name == f.name && in_list(f.commands, command);
        });
    if (spec == std::end(kFlags)) {
      return usage("unknown flag --" + name + " for \"" + command + "\"");
    }
    const std::string want = check_value(*spec, value);
    if (!want.empty()) {
      return usage("--" + name + (value ? "=" + *value : "") + ": expected " +
                   want);
    }
  }

  if (command == "trace") return run_trace_report(flags);
  if (command == "trace critpath") return run_trace_critpath(flags);
  if (command == "trace check") return run_check_trace(flags);
  if (command == "stats") return run_stats_report(flags);
  if (command == "pdd") return run_pdd(flags);
  if (command == "pdr") return run_retrieval(flags, wl::RetrievalMethod::kPdr);
  if (command == "mdr") return run_retrieval(flags, wl::RetrievalMethod::kMdr);
  if (command == "pdd-mobility") return run_pdd_mobility(flags);
  if (command == "pdr-mobility") return run_pdr_mobility(flags);
  return run_singlehop(flags);
}

}  // namespace
}  // namespace pds

int main(int argc, char** argv) { return pds::run_main(argc, argv); }
