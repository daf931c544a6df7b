// Shared plumbing for the repo's static-analysis tools (DESIGN.md §12, §17).
//
// pdslint (token-level invariant checks, tools/lint_rules.h) and pdsflow
// (flow-sensitive wire-taint/atomicity/layering analysis,
// tools/flow_analysis.h) share everything that is not a rule: the finding
// and summary types, the severity model, the audited suppression machinery,
// the deterministic JSON report rendering, and the CLI file-gathering
// helpers. Keeping these here means the two linters cannot diverge on
// suppression syntax or report shape.
//
// Suppressions are multi-tool by design: both linters parse BOTH the
// pdslint and pdsflow allow-comment families, so a typo
// in either tool's tag is a `bad-suppression` finding no matter which tool
// scans the file first — a misspelled suppression must never silently
// disable a gate. Each tool only *honors* its own prefix.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/report.h"
#include "tools/lint_lexer.h"

namespace pds::lint {

// Schema identifiers of the machine-readable findings reports.
inline constexpr const char* kLintReportSchema = "pds-lint-report/1";
inline constexpr const char* kFlowReportSchema = "pds-flow-report/1";

enum class Severity { kWarning, kError };

inline const char* severity_name(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

// One rule row. Adding a rule = adding a row to the owning tool's table plus
// a check routine there.
struct RuleSpec {
  const char* id;
  Severity severity;
  // The runtime invariant the rule protects, verbatim in `--list-rules` and
  // the JSON report.
  const char* invariant;
};

// ---------------------------------------------------------------------------
// pdslint rule table (checks live in tools/lint_rules.h).

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
    {"bad-suppression", Severity::kError,
     "suppression hygiene: a misspelled pdslint:allow(...) must fail loudly "
     "rather than silently disabling a gate"},
};

// ---------------------------------------------------------------------------
// pdsflow rule table (checks live in tools/flow_analysis.h).

inline constexpr RuleSpec kFlowRules[] = {
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
     "ones (common < util < obs < sim < net < core < workload < tools); new "
     "back-edges fail CI unless baselined in tools/pdsflow_baseline.txt"},
    {"bad-suppression", Severity::kError,
     "suppression hygiene: a misspelled pdsflow:allow(...) must fail loudly "
     "rather than silently disabling a gate"},
};

inline const RuleSpec* find_rule_in(std::span<const RuleSpec> rules,
                                    std::string_view id) {
  for (const RuleSpec& r : rules) {
    if (id == r.id) return &r;
  }
  return nullptr;
}

inline const RuleSpec* find_rule(std::string_view id) {
  return find_rule_in(kRules, id);
}

inline const RuleSpec* find_flow_rule(std::string_view id) {
  return find_rule_in(kFlowRules, id);
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
  // pdsflow only: stable, line-free identity used by the baseline file and
  // emitted in the JSON report when non-empty. Empty for pdslint findings.
  std::string fingerprint;
  // True when the finding was waived by an entry in the baseline file (as
  // opposed to an inline allow comment). Baselined findings count as
  // suppressed in the summary.
  bool baselined = false;
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
// Audited suppressions, shared across tools.

// One suppression-comment family. Every tool's family is parsed by every
// tool (for the bad-suppression audit); only the primary tool's tags
// actually suppress findings.
struct SuppressionTool {
  const char* prefix;               // "pdslint" / "pdsflow"
  std::span<const RuleSpec> rules;  // rule ids this tool's tags may name
};

inline const std::span<const SuppressionTool> suppression_tools() {
  static constexpr SuppressionTool kTools[] = {
      {"pdslint", kRules},
      {"pdsflow", kFlowRules},
  };
  return kTools;
}

// Parsed suppression state for one file.
struct Suppressions {
  // line -> rules allowed on that line (and the one below it).
  std::map<int, std::set<std::string>> by_line;
  std::set<std::string> file_wide;
  std::vector<Finding> bad;  // unknown rule names inside allow(...)
};

namespace common_detail {

inline void parse_allow_list(const std::string& args, const std::string& file,
                             int line, const SuppressionTool& tool,
                             std::set<std::string>* out,
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
      if (find_rule_in(tool.rules, name) == nullptr ||
          name == "bad-suppression") {
        bad.push_back({"bad-suppression", Severity::kError, file, line,
                       "unknown rule '" + name + "' in " +
                           std::string(tool.prefix) + " suppression",
                       false, std::string(), false});
      } else if (out != nullptr) {
        out->insert(name);
      }
    }
    if (comma == args.size()) break;
    pos = comma + 1;
  }
}

}  // namespace common_detail

// Parses every tool's allow comments from `lexed`. Tags of `primary_prefix`
// populate by_line/file_wide; tags of every tool are audited for unknown
// rule names (the bad-suppression findings land in `bad` either way, so
// whichever linter scans the file reports the typo).
inline Suppressions collect_suppressions(const LexedFile& lexed,
                                         const std::string& file,
                                         std::string_view primary_prefix) {
  Suppressions sup;
  for (const Comment& c : lexed.comments) {
    for (const SuppressionTool& tool : suppression_tools()) {
      const bool primary = primary_prefix == tool.prefix;
      const std::string allow_file =
          std::string(tool.prefix) + ":allow-file(";
      const std::string allow_line = std::string(tool.prefix) + ":allow(";
      for (const std::string& marker : {allow_file, allow_line}) {
        std::size_t at = 0;
        while ((at = c.text.find(marker, at)) != std::string::npos) {
          const std::size_t open = at + marker.size();
          const std::size_t close = c.text.find(')', open);
          if (close == std::string::npos) break;
          const std::string args = c.text.substr(open, close - open);
          const bool file_wide = marker == allow_file;
          std::set<std::string>* out = nullptr;
          if (primary) {
            out = file_wide ? &sup.file_wide : &sup.by_line[c.end_line];
          }
          common_detail::parse_allow_list(args, file, c.line, tool, out,
                                          sup.bad);
          at = close;
        }
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

// ---------------------------------------------------------------------------
// Deterministic JSON report, shared shape across schemas.

// Machine-readable findings report rendered with the same JsonWriter the
// bench telemetry uses, so output is byte-deterministic. `fingerprint` and
// `baselined` are emitted only when set (pdsflow), keeping pdslint's
// pds-lint-report/1 output unchanged.
inline std::string render_findings_json(const char* schema,
                                        std::span<const RuleSpec> rules,
                                        const std::vector<Finding>& findings,
                                        const LintSummary& summary) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value(schema);
  w.key("rules").begin_array();
  for (const RuleSpec& r : rules) {
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
    if (!f.fingerprint.empty()) w.key("fingerprint").value(f.fingerprint);
    if (f.baselined) w.key("baselined").value(true);
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
// CLI file-gathering helpers (shared by the pdslint/pdsflow drivers).

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
