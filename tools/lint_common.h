// Shared plumbing of pdslint's two rule families (DESIGN.md §12, §17).
//
// The token rules (tools/lint_rules.h) and the flow rules
// (tools/flow_analysis.h) share everything that is not a check: the one rule
// table, the finding and summary types, the severity model, the audited
// suppression tags, the deterministic JSON report and the CLI
// file-gathering helpers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/report.h"
#include "tools/lint_lexer.h"

namespace pds::lint {

// Schema identifier of the machine-readable findings report.
inline constexpr const char* kLintReportSchema = "pds-lint-report/1";

enum class Severity { kWarning, kError };

inline const char* severity_name(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

// One rule row. Adding a rule = adding a row here plus a check routine in
// tools/lint_rules.h (token rules) or tools/flow_analysis.h (flow rules).
struct RuleSpec {
  const char* id;
  Severity severity;
  // The runtime invariant the rule protects, verbatim in `--list-rules` and
  // the JSON report.
  const char* invariant;
};

inline constexpr RuleSpec kRules[] = {
    {"wall-clock", Severity::kError,
     "sim-time determinism: traces and bench reports are byte-identical "
     "run-to-run; ambient clocks would leak real time into results"},
    {"ambient-rng", Severity::kError,
     "seed reproducibility: every random draw derives from one explicit "
     "seed via pds::Rng; ambient RNGs differ across runs and platforms"},
    {"unordered-iter", Severity::kError,
     "output/RNG-order determinism: hash-order iteration feeding trace, "
     "report, stats or Rng-consuming paths varies across libstdc++ versions "
     "and seeds of the hash function"},
    {"pointer-order", Severity::kError,
     "cross-run determinism: pointer values change with ASLR, so ordering "
     "or hashing by pointer yields a different order every run"},
    {"ambient-parallelism", Severity::kError,
     "thread-count independence: same-seed runs are byte-identical on any "
     "machine, so worker counts come from explicit config (PDS_BENCH_JOBS, "
     "RadioConfig::shard_threads), never from probing the host"},
    {"uninit-field", Severity::kWarning,
     "wire correctness: codec/message scalar fields need default member "
     "initializers so partially-filled messages encode deterministically"},
    {"decode-assert", Severity::kWarning,
     "decode robustness: decoders must validate input (PDS_ENSURE / "
     "DecodeError / throw) instead of trusting wire bytes"},
    {"trace-schema", Severity::kError,
     "trace catalog completeness: every PDS_TRACE_* emission names a "
     "(subsystem, event) registered in tools/telemetry_schema.h, so "
     "`pdscli trace check` can validate any capture and analysis tools never "
     "meet unknown events"},
    {"stats-schema", Severity::kError,
     "flight-recorder catalog completeness: every PDS_TS_COLUMN column and "
     "PDS_PROF_SCOPE scope names an entry registered in "
     "tools/telemetry_schema.h, so pdscli stats can render any capture and "
     "resource gates never meet unknown series"},
    {"wire-taint", Severity::kError,
     "allocation/OOB safety: a length or count decoded from the wire is "
     "attacker-controlled until compared against a bound; it must not reach "
     "resize/reserve/new[]/an index expression/a loop bound unchecked"},
    {"decode-atomicity", Severity::kError,
     "decode transactionality: a function that can throw DecodeError must "
     "not mutate member/engine state before its last potential throw point, "
     "so a malformed frame never leaves caches half-updated"},
    {"layering", Severity::kError,
     "architecture DAG: includes must point from higher layers to lower "
     "ones (common < util < obs < sim < net < core < workload < tools); a "
     "back-edge fails CI unless its include line carries a "
     "pdslint:allow(layering) that states why"},
    {"bad-suppression", Severity::kError,
     "suppression hygiene: a misspelled pdslint:allow(...) must fail loudly "
     "rather than silently disabling a gate"},
};

inline const RuleSpec* find_rule(std::string_view id) {
  for (const RuleSpec& r : kRules) {
    if (id == r.id) return &r;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Findings & summaries.

struct Finding {
  std::string rule;
  Severity severity = Severity::kError;
  std::string file;  // repo-relative, forward slashes
  int line = 1;
  std::string message;
  bool suppressed = false;
};

struct LintSummary {
  int files_scanned = 0;
  int errors = 0;    // unsuppressed errors
  int warnings = 0;  // unsuppressed warnings
  int suppressed = 0;

  [[nodiscard]] int unsuppressed() const { return errors + warnings; }
};

inline void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
}

inline LintSummary summarize(const std::vector<Finding>& findings,
                             int files_scanned) {
  LintSummary s;
  s.files_scanned = files_scanned;
  for (const Finding& f : findings) {
    if (f.suppressed) {
      ++s.suppressed;
    } else if (f.severity == Severity::kError) {
      ++s.errors;
    } else {
      ++s.warnings;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Audited suppressions.

// Parsed suppression state for one file.
struct Suppressions {
  // line -> rules allowed on that line (and the one below it).
  std::map<int, std::set<std::string>> by_line;
  std::set<std::string> file_wide;
  std::vector<Finding> bad;  // unknown rule names inside allow(...)
};

namespace common_detail {

inline void parse_allow_list(const std::string& args, const std::string& file,
                             int line, std::set<std::string>& out,
                             std::vector<Finding>& bad) {
  std::size_t pos = 0;
  while (pos <= args.size()) {
    std::size_t comma = args.find(',', pos);
    if (comma == std::string::npos) comma = args.size();
    std::string name = args.substr(pos, comma - pos);
    // trim
    const auto b = name.find_first_not_of(" \t");
    const auto e = name.find_last_not_of(" \t");
    name = (b == std::string::npos) ? "" : name.substr(b, e - b + 1);
    if (!name.empty()) {
      if (find_rule(name) == nullptr || name == "bad-suppression") {
        bad.push_back({"bad-suppression", Severity::kError, file, line,
                       "unknown rule '" + name + "' in pdslint suppression",
                       false});
      } else {
        out.insert(name);
      }
    }
    if (comma == args.size()) break;
    pos = comma + 1;
  }
}

}  // namespace common_detail

// Parses the line and file-wide allow tags in the comments of `lexed`.
// Unknown rule names land in `bad` as bad-suppression findings.
inline Suppressions collect_suppressions(const LexedFile& lexed,
                                         const std::string& file) {
  Suppressions sup;
  for (const Comment& c : lexed.comments) {
    for (const bool file_wide : {true, false}) {
      const std::string marker =
          file_wide ? "pdslint:allow-file(" : "pdslint:allow(";
      std::size_t at = 0;
      while ((at = c.text.find(marker, at)) != std::string::npos) {
        const std::size_t open = at + marker.size();
        const std::size_t close = c.text.find(')', open);
        if (close == std::string::npos) break;
        common_detail::parse_allow_list(
            c.text.substr(open, close - open), file, c.line,
            file_wide ? sup.file_wide : sup.by_line[c.end_line], sup.bad);
        at = close;
      }
    }
  }
  return sup;
}

inline bool suppressed_at(const Suppressions& sup, const std::string& rule,
                          int line) {
  if (sup.file_wide.count(rule) != 0) return true;
  for (int l : {line, line - 1}) {
    const auto it = sup.by_line.find(l);
    if (it != sup.by_line.end() && it->second.count(rule) != 0) return true;
  }
  return false;
}

// Appends a finding of `rule` (a kRules id) at `line`, marked suppressed when
// an allow tag covers it.
inline void add_finding(std::vector<Finding>& out, const Suppressions& sup,
                        const std::string& file, const char* rule, int line,
                        std::string message) {
  Finding f;
  f.rule = rule;
  f.severity = find_rule(rule)->severity;
  f.file = file;
  f.line = line;
  f.message = std::move(message);
  f.suppressed = suppressed_at(sup, f.rule, line);
  out.push_back(std::move(f));
}

// One input file, lexed once and shared by every rule. `path` is the
// repo-relative display path and decides which rules apply.
struct ScannedFile {
  std::string path;
  LexedFile lexed;
  Suppressions sup;
};

// ---------------------------------------------------------------------------
// Deterministic JSON report.

// Machine-readable findings report (schema pds-lint-report/1) rendered with
// the same JsonWriter the bench telemetry uses, so output is
// byte-deterministic.
inline std::string render_json(const std::vector<Finding>& findings,
                               const LintSummary& summary) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kLintReportSchema);
  w.key("rules").begin_array();
  for (const RuleSpec& r : kRules) {
    w.begin_object();
    w.key("id").value(r.id);
    w.key("severity").value(severity_name(r.severity));
    w.key("invariant").value(r.invariant);
    w.end_object();
  }
  w.end_array();
  w.key("findings").begin_array();
  for (const Finding& f : findings) {
    w.begin_object();
    w.key("rule").value(f.rule);
    w.key("severity").value(severity_name(f.severity));
    w.key("file").value(f.file);
    w.key("line").value(static_cast<std::int64_t>(f.line));
    w.key("message").value(f.message);
    w.key("suppressed").value(f.suppressed);
    w.end_object();
  }
  w.end_array();
  w.key("summary").begin_object();
  w.key("files_scanned")
      .value(static_cast<std::int64_t>(summary.files_scanned));
  w.key("errors").value(static_cast<std::int64_t>(summary.errors));
  w.key("warnings").value(static_cast<std::int64_t>(summary.warnings));
  w.key("suppressed").value(static_cast<std::int64_t>(summary.suppressed));
  w.end_object();
  w.end_object();
  return w.take();
}

// ---------------------------------------------------------------------------
// CLI file-gathering helpers.

namespace cli {

namespace fs = std::filesystem;

inline bool has_source_ext(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".h" || e == ".cc" || e == ".cpp" || e == ".hpp";
}

inline bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

// Repo-relative display path with forward slashes.
inline std::string display_path(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(file, root, ec);
  if (ec || rel.empty()) rel = file;
  return rel.generic_string();
}

// Expands directories recursively into the sorted, deduplicated list of
// source files, so findings and reports are deterministic regardless of
// directory enumeration order. Returns false (and names the offender) when
// an input is neither a file nor a directory.
inline bool gather_files(const std::vector<fs::path>& inputs,
                         std::vector<fs::path>& files, std::string& error) {
  for (const fs::path& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      for (auto it = fs::recursive_directory_iterator(input, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file() && has_source_ext(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(input, ec)) {
      files.push_back(input);
    } else {
      error = input.string();
      return false;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return true;
}

}  // namespace cli

}  // namespace pds::lint
