// pdsreport — works over the BENCH_<experiment>.json reports every bench
// binary emits (schema pds-bench-report/1, DESIGN.md §10).
//
//   pdsreport validate <dir|file...>           schema-check reports
//   pdsreport render   <dir|file...>           markdown tables to stdout
//   pdsreport diff     <dirA> <dirB> [--tol=X] compare two result sets
//   pdsreport gate     <dir|file...>           per-experiment shape asserts
//
// validate/gate exit 0 only when every report passes; diff exits 0 only when
// all matched metrics agree within --tol (default 0.05 relative), and exits 2
// with the usage text, before reading a report, when --tol is not a finite
// number above zero or a side is not a directory. render is
// what EXPERIMENTS.md's tables are regenerated from. CI runs the smoke bench
// subset, then `pdsreport validate` + `pdsreport gate` over the artifacts.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "tools/report_checks.h"
#include "tools/report_reader.h"

namespace pds::tools {
namespace {

namespace fs = std::filesystem;

int usage() {
  std::fprintf(stderr,
               "usage: pdsreport <validate|render|gate> <dir|file...>\n"
               "       pdsreport diff <dirA> <dirB> [--tol=REL]\n");
  return 2;
}

// Expands each argument: a directory contributes its BENCH_*.json files
// (sorted), anything else is taken as a file path.
std::vector<std::string> collect_reports(const std::vector<std::string>& args,
                                         bool& ok) {
  std::vector<std::string> files;
  ok = true;
  for (const std::string& arg : args) {
    std::error_code ec;
    if (fs::is_directory(arg, ec)) {
      std::vector<std::string> found;
      for (const auto& entry : fs::directory_iterator(arg, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 &&
            entry.path().extension() == ".json") {
          found.push_back(entry.path().string());
        }
      }
      if (found.empty()) {
        std::fprintf(stderr, "pdsreport: no BENCH_*.json under %s\n",
                     arg.c_str());
        ok = false;
      }
      std::sort(found.begin(), found.end());
      files.insert(files.end(), found.begin(), found.end());
    } else {
      files.push_back(arg);
    }
  }
  return files;
}

// `sidecar`, when non-null, is set to "causal", "stats" or "lint" for
// pds-causal-report/1 / pds-stats-report/1 / pds-lint-report/1 documents
// (which validate against their own schema and produce no ParsedReport).
std::optional<ParsedReport> load_report(const std::string& path,
                                        std::vector<std::string>& errors,
                                        const char** sidecar = nullptr) {
  std::ifstream in(path);
  if (!in) {
    errors.push_back("cannot open " + path);
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string parse_error;
  const std::optional<JsonValue> root = parse_json(buffer.str(), &parse_error);
  if (!root.has_value()) {
    errors.push_back(path + ": " + parse_error);
    return std::nullopt;
  }
  if (const JsonValue* schema = root->find("schema");
      schema != nullptr && schema->is_string()) {
    if (schema->text == kCausalReportSchema) {
      if (sidecar != nullptr) *sidecar = "causal";
      validate_causal_report(*root, errors);
      return std::nullopt;
    }
    if (schema->text == kStatsReportSchema) {
      if (sidecar != nullptr) *sidecar = "stats";
      validate_stats_report(*root, errors);
      return std::nullopt;
    }
    if (schema->text == kLintReportSchema) {
      if (sidecar != nullptr) *sidecar = "lint";
      validate_lint_report(*root, errors);
      return std::nullopt;
    }
  }
  ParsedReport rep = parse_report(*root, errors);
  // The filename is part of the contract: BENCH_<experiment>.json.
  const std::string expected = "BENCH_" + rep.experiment + ".json";
  if (!rep.experiment.empty() &&
      fs::path(path).filename().string() != expected) {
    errors.push_back(path + ": filename does not match experiment \"" +
                     rep.experiment + "\" (want " + expected + ")");
  }
  return rep;
}

int run_validate(const std::vector<std::string>& files) {
  int bad = 0;
  for (const std::string& path : files) {
    std::vector<std::string> errors;
    const char* sidecar = nullptr;
    load_report(path, errors, &sidecar);
    if (errors.empty()) {
      std::printf("%s: OK%s%s%s\n", path.c_str(), sidecar ? " (" : "",
                  sidecar ? sidecar : "", sidecar ? ")" : "");
    } else {
      ++bad;
      for (const std::string& e : errors) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), e.c_str());
      }
    }
  }
  std::printf("%zu report(s), %d invalid\n", files.size(), bad);
  return bad == 0 ? 0 : 1;
}

int run_gate(const std::vector<std::string>& files) {
  int bad = 0;
  for (const std::string& path : files) {
    std::vector<std::string> errors;
    const char* sidecar = nullptr;
    const std::optional<ParsedReport> rep =
        load_report(path, errors, &sidecar);
    if (sidecar != nullptr && errors.empty()) {
      // Sidecar reports carry no per-experiment shape gates; the DAG-health
      // and flight-recorder gates run against the bench report's "causal"
      // and "stats" sections instead.
      std::printf("%s: PASS (%s report, no gates)\n", path.c_str(), sidecar);
      continue;
    }
    if (!rep.has_value() || !errors.empty()) {
      ++bad;
      for (const std::string& e : errors) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), e.c_str());
      }
      continue;
    }
    const std::vector<GateFailure> failures = run_gates(*rep);
    if (failures.empty()) {
      std::printf("%s: PASS\n", rep->experiment.c_str());
    } else {
      ++bad;
      for (const GateFailure& f : failures) {
        std::fprintf(stderr, "%s: GATE FAIL [%s]: %s\n",
                     f.experiment.c_str(), f.assertion.c_str(),
                     f.detail.c_str());
      }
    }
  }
  std::printf("%zu report(s), %d failing\n", files.size(), bad);
  return bad == 0 ? 0 : 1;
}

// One markdown block per report: title, provenance, run params, then each
// table section as a pipe table (param columns, then metric means with
// stddev when more than one seed contributed).
void render_report(const ParsedReport& rep) {
  std::printf("## %s (`%s`)\n\n", rep.title.c_str(), rep.experiment.c_str());
  std::printf("paper reports: %s\n\n", rep.paper.c_str());
  std::printf("`runs=%d jobs=%d` · git `%s` · %s build · sanitizers: %s",
              rep.runs, rep.jobs, rep.git_sha.c_str(),
              rep.build_type.c_str(), rep.sanitizers.c_str());
  for (const auto& [name, value] : rep.params) {
    std::printf(" · %s=%s", name.c_str(), value.display().c_str());
  }
  std::printf("\n");

  // Group points by section, preserving first-appearance order.
  std::vector<std::string> sections;
  for (const ReportPoint& p : rep.points) {
    if (std::find(sections.begin(), sections.end(), p.section) ==
        sections.end()) {
      sections.push_back(p.section);
    }
  }
  for (const std::string& section : sections) {
    const std::vector<const ReportPoint*> pts = rep.section(section);
    if (pts.empty()) continue;
    std::printf("\n### %s\n\n", section.c_str());
    // Column set = union of param and metric names in emission order.
    std::vector<std::string> param_cols;
    std::vector<std::string> metric_cols;
    for (const ReportPoint* p : pts) {
      for (const auto& [name, value] : p->params) {
        if (std::find(param_cols.begin(), param_cols.end(), name) ==
            param_cols.end()) {
          param_cols.push_back(name);
        }
      }
      for (const auto& [name, metric] : p->metrics) {
        if (std::find(metric_cols.begin(), metric_cols.end(), name) ==
            metric_cols.end()) {
          metric_cols.push_back(name);
        }
      }
    }
    std::printf("|");
    for (const std::string& c : param_cols) std::printf(" %s |", c.c_str());
    for (const std::string& c : metric_cols) std::printf(" %s |", c.c_str());
    std::printf("\n|");
    for (std::size_t i = 0; i < param_cols.size() + metric_cols.size(); ++i) {
      std::printf("---|");
    }
    std::printf("\n");
    for (const ReportPoint* p : pts) {
      std::printf("|");
      for (const std::string& c : param_cols) {
        const JsonValue* v = p->param(c);
        std::printf(" %s |", v != nullptr ? v->display().c_str() : "");
      }
      for (const std::string& c : metric_cols) {
        const ReportMetric* m = p->metric(c);
        if (m == nullptr) {
          std::printf("  |");
        } else if (m->count > 1) {
          std::printf(" %g ± %g |", m->mean, m->stddev);
        } else {
          std::printf(" %g |", m->mean);
        }
      }
      std::printf("\n");
    }
  }
  std::printf("\n");
}

int run_render(const std::vector<std::string>& files) {
  int bad = 0;
  for (const std::string& path : files) {
    std::vector<std::string> errors;
    const char* sidecar = nullptr;
    const std::optional<ParsedReport> rep =
        load_report(path, errors, &sidecar);
    if (sidecar != nullptr && errors.empty()) continue;  // no markdown form
    if (!rep.has_value() || !errors.empty()) {
      ++bad;
      for (const std::string& e : errors) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), e.c_str());
      }
      continue;
    }
    render_report(*rep);
  }
  return bad == 0 ? 0 : 1;
}

int run_diff(const std::string& dir_a, const std::string& dir_b, double tol) {
  bool ok_a = false;
  bool ok_b = false;
  const std::vector<std::string> files_a = collect_reports({dir_a}, ok_a);
  if (!ok_a) return 2;
  collect_reports({dir_b}, ok_b);
  if (!ok_b) return 2;

  int differing = 0;
  std::size_t compared = 0;
  for (const std::string& path_a : files_a) {
    const std::string name = fs::path(path_a).filename().string();
    const std::string path_b = (fs::path(dir_b) / name).string();
    std::error_code ec;
    if (!fs::exists(path_b, ec)) {
      std::fprintf(stderr, "diff: %s only in %s\n", name.c_str(),
                   dir_a.c_str());
      ++differing;
      continue;
    }
    std::vector<std::string> errors;
    const std::optional<ParsedReport> a = load_report(path_a, errors);
    const std::optional<ParsedReport> b = load_report(path_b, errors);
    if (!a.has_value() || !b.has_value() || !errors.empty()) {
      for (const std::string& e : errors) {
        std::fprintf(stderr, "diff: %s\n", e.c_str());
      }
      ++differing;
      continue;
    }
    ++compared;
    const std::vector<DiffEntry> entries = diff_reports(*a, *b, tol);
    if (entries.empty()) continue;
    ++differing;
    for (const DiffEntry& d : entries) {
      if (d.missing) {
        std::fprintf(stderr, "diff: %s: %s [%s] present on one side only\n",
                     name.c_str(), d.point_key.c_str(), d.metric.c_str());
      } else {
        std::fprintf(stderr,
                     "diff: %s: %s [%s] %g vs %g (rel %.3f > tol %.3f)\n",
                     name.c_str(), d.point_key.c_str(), d.metric.c_str(),
                     d.a, d.b, d.rel, tol);
      }
    }
  }
  std::printf("%zu report(s) compared, %d differing (tol %.3f)\n", compared,
              differing, tol);
  return differing == 0 ? 0 : 1;
}

int run_main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];

  if (command == "diff") {
    double tol = 0.05;
    std::vector<std::string> dirs;
    for (int i = 2; i < argc; ++i) {
      if (std::strncmp(argv[i], "--tol=", 6) == 0) {
        // A finite number above zero with nothing after it: NaN, infinity
        // or an overflow would pass every metric as equal.
        const char* text = argv[i] + 6;
        char* end = nullptr;
        errno = 0;
        tol = std::strtod(text, &end);
        if (end == text || *end != '\0' || errno != 0 || !std::isfinite(tol) ||
            tol <= 0.0) {
          std::fprintf(stderr, "pdsreport: bad --tol value \"%s\"\n", text);
          return usage();
        }
      } else {
        dirs.emplace_back(argv[i]);
      }
    }
    if (dirs.size() != 2) return usage();
    for (const std::string& dir : dirs) {
      std::error_code ec;
      if (!fs::is_directory(dir, ec)) {
        std::fprintf(stderr, "pdsreport: %s is not a directory\n",
                     dir.c_str());
        return usage();
      }
    }
    return run_diff(dirs[0], dirs[1], tol);
  }

  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  bool ok = false;
  const std::vector<std::string> files = collect_reports(args, ok);
  if (!ok || files.empty()) return 2;
  if (command == "validate") return run_validate(files);
  if (command == "render") return run_render(files);
  if (command == "gate") return run_gate(files);
  return usage();
}

}  // namespace
}  // namespace pds::tools

int main(int argc, char** argv) { return pds::tools::run_main(argc, argv); }
