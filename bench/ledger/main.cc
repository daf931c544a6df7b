// pds_ledger — one run of the cost ledger on one workload (README.md).
//
//   pds_ledger --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//              [--out=DIR]
//   pds_ledger --list
//
// --trace=0 reports the end-to-end metrics over seeds N … N+n-1, where n
// fills about S seconds; --trace=1 reports the per-layer metrics from the
// traced and sampled passes on the first two seeds. Human tables go to
// stdout first; the last stdout line is one JSON object
//   {"correct":…,"attempted":…,"failed":…,"metrics":{NAME:{"value":…,
//    "unit":…},…}}
// With --out, the run is also written to DIR as an obs::Report
// (BENCH_ledger_<workload>[_trace].json, readable by pdsreport and
// compare.py) and, traced, as span NDJSON (TRACE_<workload>.ndjson).
//
// Exit status: 0 when every check passed, 1 on a correctness failure
// (oracle mismatch, traced or sampled outcome differing from untraced, a
// failed consumer session, self times not closing on run time), 2 on a
// usage or I/O error.
#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "ledger.h"
#include "obs/report.h"

namespace pds::ledger {
namespace {

constexpr const char* kUsage =
    "usage: pds_ledger --workload=NAME [--seed=N] [--seconds=S] "
    "[--trace=0|1] [--out=DIR]\n"
    "       pds_ledger --list\n";

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  return static_cast<bool>(out);
}

obs::Report make_report(const Workload& w, const Options& opt,
                        const Result& res) {
  obs::Report::Options ro;
  ro.experiment = "ledger_" + w.name + (opt.trace ? "_trace" : "");
  ro.title = "cost ledger — " + w.name + (opt.trace ? " (per layer)" : "");
  ro.paper = "engineering benchmark (not a paper figure): host cost of the "
             "simulator per workload, end to end and per layer";
  ro.runs = static_cast<int>(res.scenarios.size());
  ro.jobs = 1;
  obs::Report report(std::move(ro));
  report.set_param("workload", w.name);
  report.set_param("seed", static_cast<std::int64_t>(opt.seed));
  report.set_param("trace", static_cast<std::int64_t>(opt.trace ? 1 : 0));
  report.set_param("attempted", static_cast<std::int64_t>(res.attempted));
  report.set_param("failed", static_cast<std::int64_t>(res.failed));
  report.set_param("correct", static_cast<std::int64_t>(res.correct ? 1 : 0));

  // Per scenario, with the host costs the end-to-end metrics leave out
  // because they move with the seed far more than with the code: wall time
  // per delivered entry or chunk, and simulated seconds per run second.
  report.begin_table("scenarios",
                     {"seed", "setup (s)", "run (s)", "teardown (s)",
                      "events", "heap (MB)", "delivered", "us/delivered",
                      "sim s/run s", "recall", "latency (s)",
                      "overhead (MB)"});
  for (const ScenarioRun& r : res.scenarios) {
    const Phases& p = r.phases;
    const Outcome& o = r.outcome;
    const double delivered = static_cast<double>(o.delivered);
    report.point()
        .param("seed", static_cast<std::int64_t>(r.seed))
        .metric("setup_s", p.setup_s(), 4)
        .metric("run_s", p.run_s(), 3)
        .metric("teardown_s", p.teardown_s(), 4)
        .metric("events", static_cast<std::int64_t>(o.events))
        .metric("peak_heap_mb", static_cast<double>(r.peak_heap_bytes) / 1e6,
                1)
        .metric("delivered", static_cast<std::int64_t>(o.delivered))
        .metric("wall_us_per_delivered",
                delivered > 0.0 ? p.run_s() * 1e6 / delivered : 0.0, 1)
        .metric("sim_s_per_run_s",
                p.run_s() > 0.0 ? o.sim_done_s / p.run_s() : 0.0, 2)
        .metric("recall", o.recall, 4)
        .metric("latency_s", o.latency_s, 2)
        .metric("overhead_mb", o.overhead_mb, 2);
  }
  report.print_table();

  report.begin_table(opt.trace ? "per_layer" : "end_to_end",
                     {"metric", "unit", "value", "samples"});
  for (const Metric& m : res.metrics) {
    util::SampleSet samples;
    for (const double s : m.samples) samples.add(s);
    report.point()
        .param("metric", m.name)
        .param("unit", m.unit)
        .metric("value", samples, 6)
        .metric("samples", static_cast<std::int64_t>(m.samples.size()));
  }
  report.print_table();
  return report;
}

std::string result_line(const Result& res) {
  obs::JsonWriter j;
  j.begin_object();
  j.key("correct").value(res.correct);
  j.key("attempted").value(static_cast<std::uint64_t>(res.attempted));
  j.key("failed").value(static_cast<std::uint64_t>(res.failed));
  j.key("metrics").begin_object();
  for (const Metric& m : res.metrics) {
    j.key(m.name).begin_object();
    j.key("value").value(m.value);
    j.key("unit").value(m.unit);
    j.end_object();
  }
  j.end_object();
  j.end_object();
  return j.take();
}

int run_main(int argc, char** argv) {
  std::string workload;
  std::string out_dir;
  double seconds = 20.0;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : arg.substr(eq + 1);
    if (arg == "--list") {
      for (const Workload& w : workloads()) std::printf("%s\n", w.name.c_str());
      return 0;
    }
    bool ok = !value.empty();
    if (key == "--workload") {
      workload = value;
    } else if (key == "--out") {
      out_dir = value;
    } else if (key == "--seed") {
      ok = ok && parse_number(value, opt.seed) && opt.seed > 0;
    } else if (key == "--seconds") {
      ok = ok && parse_number(value, seconds) && seconds > 0.0;
    } else if (key == "--trace") {
      int trace = -1;
      ok = ok && parse_number(value, trace) && (trace == 0 || trace == 1);
      opt.trace = trace == 1;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "pds_ledger: bad argument %s\n%s", argv[i], kUsage);
      return 2;
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) {
    std::fprintf(stderr, "pds_ledger: unknown workload '%s'\n%s",
                 workload.c_str(), kUsage);
    return 2;
  }
  opt.scenarios = scenarios_for(*w, seconds);

  std::printf("== cost ledger: %s, seed %llu, %s ==\n", w->name.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced + sampled passes" : "untraced pass");
  const Result res = run(*w, opt);
  const obs::Report report = make_report(*w, opt, res);
  if (opt.trace) std::printf("\nself time by layer (traced pass)\n%s",
                             res.layer_table.c_str());
  for (const std::string& p : res.problems) {
    std::fprintf(stderr, "FAIL: %s\n", p.c_str());
  }
  if (!out_dir.empty()) {
    const std::string report_path = out_dir + "/" + report.json_path();
    if (!write_file(report_path, report.to_json()) ||
        (opt.trace && !write_file(out_dir + "/TRACE_" + w->name + ".ndjson",
                                  res.trace_ndjson))) {
      std::fprintf(stderr, "pds_ledger: cannot write under %s\n",
                   out_dir.c_str());
      return 2;
    }
  }
  std::printf("%s\n", result_line(res).c_str());
  return res.correct ? 0 : 1;
}

}  // namespace
}  // namespace pds::ledger

int main(int argc, char** argv) { return pds::ledger::run_main(argc, argv); }
