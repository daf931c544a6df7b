// pdslint — project-invariant static analysis gate (DESIGN.md §12, §17).
//
// Scans src/, bench/, tools/, tests/ and examples/ (or explicit paths) with
// the token rules of tools/lint_rules.h and the flow rules of
// tools/flow_analysis.h, prints compiler-style diagnostics, and optionally
// writes a machine-readable JSON report (schema pds-lint-report/1) that
// `pdsreport validate` checks.
//
// Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/IO error.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "tools/lint_rules.h"

namespace fs = std::filesystem;
using pds::lint::cli::display_path;
using pds::lint::cli::read_file;

namespace {

constexpr const char* kUsage =
    "usage: pdslint [--root=DIR] [--json=PATH] [--list-rules] [PATH...]\n"
    "\n"
    "Lints C++ sources for determinism, wire-safety and layering violations.\n"
    "With no PATH arguments, scans src/, bench/, tools/, tests/ and examples/\n"
    "under --root (default: the current directory). Token rules apply to\n"
    "src/, bench/ and tools/; wire-taint and decode-atomicity to src/;\n"
    "layering and the suppression audit to every file. Suppress a finding\n"
    "with // pdslint:allow(<rule>) on the offending or preceding line, or\n"
    "file-wide with // pdslint:allow-file(<rule>).\n";

// Collects unordered-container names from the paired header of a .cc file,
// so member iteration in the implementation file is attributed.
std::vector<std::string> paired_header_names(const fs::path& cc) {
  for (const char* ext : {".h", ".hpp"}) {
    fs::path header = cc;
    header.replace_extension(ext);
    std::string content;
    if (fs::exists(header) && read_file(header, content)) {
      return pds::lint::collect_unordered_names(pds::lint::lex(content));
    }
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string json_path;
  std::vector<fs::path> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--list-rules") {
      for (const pds::lint::RuleSpec& r : pds::lint::kRules) {
        std::printf("%-19s %-8s %s\n", r.id,
                    pds::lint::severity_name(r.severity), r.invariant);
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "pdslint: unknown option %s\n%s", arg.c_str(),
                   kUsage);
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }

  if (inputs.empty()) {
    for (const char* dir : {"src", "bench", "tools", "tests", "examples"}) {
      const fs::path p = root / dir;
      if (fs::exists(p)) inputs.push_back(p);
    }
    if (inputs.empty()) {
      std::fprintf(stderr, "pdslint: nothing to scan under %s\n",
                   root.string().c_str());
      return 2;
    }
  }

  std::vector<fs::path> files;
  std::string gather_error;
  if (!pds::lint::cli::gather_files(inputs, files, gather_error)) {
    std::fprintf(stderr, "pdslint: cannot read %s\n", gather_error.c_str());
    return 2;
  }

  std::vector<pds::lint::SourceFile> sources;
  sources.reserve(files.size());
  for (const fs::path& file : files) {
    std::string content;
    if (!read_file(file, content)) {
      std::fprintf(stderr, "pdslint: cannot read %s\n",
                   file.string().c_str());
      return 2;
    }
    std::vector<std::string> header_names;
    if (file.extension() != ".h" && file.extension() != ".hpp") {
      header_names = paired_header_names(file);
    }
    sources.push_back({display_path(file, root), std::move(content),
                       std::move(header_names)});
  }

  const pds::lint::LintResult res = pds::lint::analyze(sources);

  for (const pds::lint::Finding& f : res.findings) {
    if (f.suppressed) continue;
    std::fprintf(stderr, "%s:%d: %s: [%s] %s\n", f.file.c_str(), f.line,
                 pds::lint::severity_name(f.severity), f.rule.c_str(),
                 f.message.c_str());
  }
  std::fprintf(stderr,
               "pdslint: %d file(s), %d error(s), %d warning(s), "
               "%d suppressed\n",
               res.summary.files_scanned, res.summary.errors,
               res.summary.warnings, res.summary.suppressed);

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "pdslint: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << pds::lint::render_json(res.findings, res.summary) << "\n";
  }

  return res.summary.unsuppressed() > 0 ? 1 : 0;
}
