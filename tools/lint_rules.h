// pdslint rule engine (DESIGN.md §12, §17).
//
// The token-level rules, which guard the repo's determinism and protocol
// invariants, plus analyze(): the one entry point, which lexes each file
// once and runs these rules together with the flow rules of
// tools/flow_analysis.h.
//
//   wall-clock      — no ambient time sources; the simulator owns time
//                     (SimClock), and bench reports must be byte-identical
//                     run-to-run. Timing benches are whitelisted by table.
//   ambient-rng     — no std::random_device / rand() / srand(); every
//                     stochastic draw must come from a seeded pds::Rng so a
//                     whole simulation is a function of one seed.
//   unordered-iter  — no iteration over std::unordered_{map,set} in files
//                     that emit trace/report/stats output or consume Rng;
//                     hash-order iteration feeding either breaks trace byte
//                     determinism or reorders RNG draws across platforms.
//   pointer-order   — no ordered containers keyed by pointers and no
//                     std::hash over pointers: pointer values differ between
//                     runs (ASLR), so any order derived from them is
//                     nondeterministic.
//   uninit-field    — scalar struct fields in codec/message headers must
//                     have default member initializers; a garbage field that
//                     survives an encode/decode round trip corrupts traffic
//                     silently.
//   decode-assert   — every decode() definition must validate its input
//                     (PDS_ENSURE, DecodeError or another throw); decoders
//                     that trust the wire turn fuzzed bytes into UB.
//
// Findings can be suppressed per line with a `pdslint:allow` comment naming
// rule ids in parentheses (same line or the line above) or per file with the
// `pdslint:allow-file` form; suppressed findings still land in the
// JSON report with `"suppressed": true` so the suppression surface is
// auditable. Unknown rule names in a suppression are themselves findings
// (`bad-suppression`) — a typo must not silently disable a gate.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "tools/flow_analysis.h"
#include "tools/lint_common.h"
#include "tools/lint_lexer.h"
#include "tools/telemetry_schema.h"

namespace pds::lint {

// Identifier-level bans. `call_only` rows fire only when the identifier is
// followed by `(` — `time` and `clock` are too common as substrings of
// member names to ban as bare tokens.
struct TokenRule {
  const char* rule;
  const char* token;
  bool call_only;
  const char* message;
};

inline constexpr TokenRule kBannedTokens[] = {
    {"ambient-rng", "random_device", false,
     "std::random_device is nondeterministic; seed a pds::Rng instead"},
    {"ambient-rng", "rand", true,
     "rand() draws from hidden global state; use pds::Rng"},
    {"ambient-rng", "srand", true,
     "srand() reseeds hidden global state; use pds::Rng"},
    {"ambient-rng", "drand48", true,
     "drand48() draws from hidden global state; use pds::Rng"},
    {"ambient-rng", "lrand48", true,
     "lrand48() draws from hidden global state; use pds::Rng"},
    {"wall-clock", "system_clock", false,
     "std::chrono::system_clock reads wall time; use sim::SimClock"},
    {"wall-clock", "steady_clock", false,
     "std::chrono::steady_clock reads host time; use sim::SimClock"},
    {"wall-clock", "high_resolution_clock", false,
     "std::chrono::high_resolution_clock reads host time; use sim::SimClock"},
    {"wall-clock", "gettimeofday", true,
     "gettimeofday() reads wall time; use sim::SimClock"},
    {"wall-clock", "clock_gettime", true,
     "clock_gettime() reads host time; use sim::SimClock"},
    {"wall-clock", "timespec_get", true,
     "timespec_get() reads wall time; use sim::SimClock"},
    {"wall-clock", "time", true,
     "time() reads wall time; use sim::SimClock"},
    {"wall-clock", "clock", true,
     "clock() reads CPU time; use sim::SimClock"},
    {"ambient-parallelism", "hardware_concurrency", true,
     "std::thread::hardware_concurrency() keys behavior on the host; plumb "
     "an explicit thread count instead"},
};

// Per-rule file whitelist (path-suffix match on the repo-relative path).
// Timing benches measure host time on purpose: wall-clock durations are
// their *output*, they never feed simulation state.
struct FileAllowEntry {
  const char* rule;
  const char* path_suffix;
};

inline constexpr FileAllowEntry kFileAllowlist[] = {
    {"wall-clock", "bench/micro_primitives.cc"},
    {"wall-clock", "bench/perf_radio.cc"},
    {"wall-clock", "bench/tab_scale.cc"},
    // The one sanctioned probe: PDS_BENCH_JOBS's default. Worker counts
    // parallelise identical per-seed work; merge order stays fixed.
    {"ambient-parallelism", "bench/parallel_runs.h"},
    // The profiler's whole job is reading host time; its readings are
    // observability output and never feed simulation state (DESIGN.md §15).
    {"wall-clock", "src/obs/profiler.cc"},
};

// unordered-iter fires only in determinism-sensitive files: ones that emit
// trace/report/stats output, print, or consume Rng. Sensitivity is detected
// from the file's own tokens.
inline constexpr const char* kOutputTokens[] = {
    "Tracer",          "PDS_TRACE_EMIT", "PDS_TRACE_INSTANT",
    "PDS_TRACE_BEGIN", "PDS_TRACE_END",  "Report",
    "JsonWriter",      "Table",          "printf",
    "fprintf",         "snprintf",       "cout",
    "cerr",            "Rng",            "Stats",
};

// uninit-field scans only codec/message-type headers (path-suffix match):
// the types that cross the wire or describe what does.
inline constexpr const char* kCodecTypeFiles[] = {
    "src/net/message.h",    "src/net/codec.h",     "src/net/transport.h",
    "src/net/face.h",       "src/core/descriptor.h", "src/core/attribute.h",
    "src/core/predicate.h", "src/net/bloom_delta.h",
};

// Scalar type heads: a member whose type starts with one of these and that
// lacks an initializer is flagged by uninit-field. Class types (StrongId,
// SimTime, vectors, ...) value-initialize themselves and are exempt.
inline constexpr const char* kScalarTypeTokens[] = {
    "bool",     "char",     "short",    "int",      "long",     "unsigned",
    "signed",   "float",    "double",   "int8_t",   "int16_t",  "int32_t",
    "int64_t",  "uint8_t",  "uint16_t", "uint32_t", "uint64_t", "size_t",
    "intptr_t", "uintptr_t", "byte",    "ChunkIndex",
};

// ---------------------------------------------------------------------------

namespace rules_detail {

inline bool has_suffix(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

inline bool file_allowlisted(std::string_view rule, std::string_view path) {
  for (const FileAllowEntry& e : kFileAllowlist) {
    if (rule == e.rule && has_suffix(path, e.path_suffix)) return true;
  }
  return false;
}

// Skips a balanced template argument list: `tokens[i]` must be `<`; returns
// the index one past the matching `>`, or `tokens.size()` when unbalanced.
inline std::size_t skip_template_args(const std::vector<Token>& tokens,
                                      std::size_t i) {
  if (i >= tokens.size() || tokens[i].text != "<") return tokens.size();
  int depth = 0;
  for (; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kPunct) continue;
    if (tokens[i].text == "<") ++depth;
    if (tokens[i].text == ">") {
      if (--depth == 0) return i + 1;
    }
    // `;` inside template args means we mis-lexed an operator< expression;
    // bail instead of swallowing the rest of the file.
    if (tokens[i].text == ";") return tokens.size();
  }
  return tokens.size();
}

inline bool is_unordered_container(std::string_view ident) {
  return ident == "unordered_map" || ident == "unordered_set" ||
         ident == "unordered_multimap" || ident == "unordered_multiset";
}

inline bool is_ordered_container(std::string_view ident) {
  return ident == "map" || ident == "set" || ident == "multimap" ||
         ident == "multiset";
}

}  // namespace rules_detail

// Names (variables, members, accessor functions) declared in `lexed` whose
// type is an unordered container. A .cc file is linted with the names
// collected from its paired header merged in, so member iteration in the
// implementation file is attributed correctly.
inline std::vector<std::string> collect_unordered_names(
    const LexedFile& lexed) {
  using rules_detail::is_unordered_container;
  using rules_detail::skip_template_args;
  std::vector<std::string> names;
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        !is_unordered_container(toks[i].text)) {
      continue;
    }
    std::size_t j = skip_template_args(toks, i + 1);
    // Skip cv/ref/ptr decorations between the type and the declared name.
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const")) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
      names.push_back(toks[j].text);
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

// Whether the file emits output or consumes Rng (see kOutputTokens).
inline bool is_determinism_sensitive(const LexedFile& lexed) {
  for (const Token& t : lexed.tokens) {
    if (t.kind != TokKind::kIdent) continue;
    for (const char* s : kOutputTokens) {
      if (t.text == s) return true;
    }
  }
  return false;
}

namespace rules_detail {

// wall-clock + ambient-rng: banned identifier scan.
inline void check_banned_tokens(const LexedFile& lexed,
                                const std::string& file,
                                const Suppressions& sup,
                                std::vector<Finding>& out) {
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    for (const TokenRule& b : kBannedTokens) {
      if (toks[i].text != b.token) continue;
      if (b.call_only &&
          (i + 1 >= toks.size() || toks[i + 1].text != "(")) {
        continue;
      }
      // Member calls (`x.time()`, `obj->clock()`) are the object's own API,
      // not the C library; only flag free/qualified calls.
      if (b.call_only && i > 0 &&
          (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
        continue;
      }
      if (file_allowlisted(b.rule, file)) continue;
      add_finding(out, sup, file, b.rule, toks[i].line, b.message);
      break;
    }
  }
}

// unordered-iter: range-for over an unordered name, or iterator loops via
// name.begin()/name.cbegin(), in determinism-sensitive files.
inline void check_unordered_iteration(const LexedFile& lexed,
                                      const std::string& file,
                                      const std::vector<std::string>& names,
                                      const Suppressions& sup,
                                      std::vector<Finding>& out) {
  if (names.empty()) return;
  if (!is_determinism_sensitive(lexed)) return;
  const auto known = [&](const std::string& n) {
    return std::binary_search(names.begin(), names.end(), n);
  };
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // for ( ... : range-expr )
    if (toks[i].kind == TokKind::kIdent && toks[i].text == "for" &&
        i + 1 < toks.size() && toks[i + 1].text == "(") {
      int depth = 0;
      std::size_t colon = 0, close = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].kind != TokKind::kPunct) continue;
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")") {
          if (--depth == 0) {
            close = j;
            break;
          }
        }
        if (toks[j].text == ":" && depth == 1 && colon == 0) colon = j;
      }
      if (colon != 0 && close != 0) {
        // Last identifier of the range expression names the container
        // (handles `m_`, `obj.m_`, `node.arrivals()`).
        for (std::size_t j = close; j > colon; --j) {
          if (toks[j - 1].kind == TokKind::kIdent) {
            if (known(toks[j - 1].text)) {
              add_finding(out, sup, file, "unordered-iter", toks[j - 1].line,
                          "range-for over unordered container '" +
                              toks[j - 1].text +
                              "' in a determinism-sensitive file; iterate a "
                              "sorted copy or use std::map");
            }
            break;
          }
        }
      }
    }
    // name.begin() / name.cbegin()
    if (toks[i].kind == TokKind::kIdent && known(toks[i].text) &&
        i + 2 < toks.size() && toks[i + 1].text == "." &&
        (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin")) {
      add_finding(out, sup, file, "unordered-iter", toks[i].line,
                  "iterator walk over unordered container '" + toks[i].text +
                      "' in a determinism-sensitive file; iterate a sorted "
                      "copy or use std::map");
    }
  }
}

// pointer-order: ordered/unordered containers keyed by a pointer type, and
// std::hash<T*> specializations/uses.
inline void check_pointer_ordering(const LexedFile& lexed,
                                   const std::string& file,
                                   const Suppressions& sup,
                                   std::vector<Finding>& out) {
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const bool container = is_ordered_container(toks[i].text) ||
                           is_unordered_container(toks[i].text);
    const bool hash = toks[i].text == "hash";
    if (!container && !hash) continue;
    if (i + 1 >= toks.size() || toks[i + 1].text != "<") continue;
    // Examine the first top-level template argument for a trailing `*`.
    int depth = 0;
    bool pointer_key = false;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      const std::string& t = toks[j].text;
      if (toks[j].kind == TokKind::kPunct) {
        if (t == "<") ++depth;
        else if (t == ">") {
          if (--depth == 0) break;
        } else if (t == "," && depth == 1) {
          break;  // end of first argument
        } else if (t == "*" && depth == 1) {
          pointer_key = true;
        } else if (t == ";") {
          break;  // operator< mis-parse; bail
        }
      }
    }
    if (pointer_key) {
      add_finding(out, sup, file, "pointer-order", toks[i].line,
                  container
                      ? "container keyed by pointer value; pointer order "
                        "varies with ASLR — key by a stable id instead"
                      : "std::hash over a pointer; hash order varies with "
                        "ASLR — hash a stable id instead");
    }
  }
}

// uninit-field: scalar struct members without default initializers in
// codec/message headers.
inline void check_uninit_fields(const LexedFile& lexed,
                                const std::string& file,
                                const Suppressions& sup,
                                std::vector<Finding>& out) {
  bool in_scope = false;
  for (const char* f : kCodecTypeFiles) {
    if (has_suffix(file, f)) in_scope = true;
  }
  if (!in_scope) return;
  const auto is_scalar_head = [](const std::string& t) {
    for (const char* s : kScalarTypeTokens) {
      if (t == s) return true;
    }
    return false;
  };
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "struct") continue;
    // struct NAME [final] [: bases] {
    std::size_t j = i + 1;
    if (j >= toks.size() || toks[j].kind != TokKind::kIdent) continue;
    ++j;
    while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") ++j;
    if (j >= toks.size() || toks[j].text != "{") continue;  // fwd decl
    // Walk the struct body at depth 1, statement by statement.
    int depth = 1;
    std::size_t k = j + 1;
    std::size_t stmt = k;  // first token of the current member declaration
    while (k < toks.size() && depth > 0) {
      const Token& t = toks[k];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "{") {
          // Function body / nested type / init list: skip it wholesale.
          int d = 1;
          ++k;
          while (k < toks.size() && d > 0) {
            if (toks[k].text == "{") ++d;
            if (toks[k].text == "}") --d;
            ++k;
          }
          stmt = k;
          continue;
        }
        if (t.text == "}") {
          --depth;
          ++k;
          continue;
        }
        if (t.text == ";") {
          // Statement [stmt, k) is a member declaration candidate.
          const std::size_t b = stmt, e = k;
          stmt = k + 1;
          ++k;
          if (b >= e) continue;
          // Reject non-field statements.
          bool skip = false;
          for (std::size_t m = b; m < e; ++m) {
            const std::string& w = toks[m].text;
            if (w == "(" || w == "=" || w == "using" || w == "friend" ||
                w == "static" || w == "typedef" || w == "enum" ||
                w == "operator" || w == "~") {
              skip = true;
              break;
            }
          }
          if (skip) continue;
          // Strip leading qualifiers; the first remaining identifier is the
          // type head, possibly std::-qualified.
          std::size_t m = b;
          while (m < e && (toks[m].text == "const" ||
                           toks[m].text == "mutable" ||
                           toks[m].text == "volatile")) {
            ++m;
          }
          if (m < e && toks[m].text == "std" && m + 1 < e &&
              toks[m + 1].text == "::") {
            m += 2;
          }
          if (m >= e || toks[m].kind != TokKind::kIdent ||
              !is_scalar_head(toks[m].text)) {
            continue;
          }
          // Multi-token scalar heads (`unsigned long long`, `long double`).
          std::size_t name_at = m + 1;
          while (name_at < e && toks[name_at].kind == TokKind::kIdent &&
                 is_scalar_head(toks[name_at].text)) {
            ++name_at;
          }
          if (name_at >= e || toks[name_at].kind != TokKind::kIdent) continue;
          if (name_at + 1 != e) continue;  // arrays, bitfields — not fields
          add_finding(out, sup, file, "uninit-field", toks[name_at].line,
                      "scalar field '" + toks[name_at].text +
                          "' has no default initializer in a codec/message "
                          "type");
          continue;
        }
      }
      // `public:` / `private:` reset the statement start.
      if (t.kind == TokKind::kPunct && t.text == ":") stmt = k + 1;
      ++k;
    }
  }
}

// Splits the macro call named by toks[i] at its top-level commas and returns,
// per argument, the unquoted text of an argument that is one string literal
// (nullopt for any other argument). Empty when toks[i] is not a call.
inline std::vector<std::optional<std::string>> macro_string_args(
    const std::vector<Token>& toks, std::size_t i) {
  std::vector<std::optional<std::string>> args;
  if (i + 1 >= toks.size() || toks[i + 1].text != "(") return args;
  int depth = 0;
  std::size_t arg_start = i + 2;
  for (std::size_t j = i + 1; j < toks.size(); ++j) {
    if (toks[j].kind != TokKind::kPunct) continue;
    const std::string& t = toks[j].text;
    bool boundary = false;
    if (t == "(" || t == "{" || t == "[") {
      ++depth;
    } else if (t == ")" || t == "}" || t == "]") {
      --depth;
      if (depth == 0) boundary = true;
    } else if (t == "," && depth == 1) {
      boundary = true;
    }
    if (!boundary) continue;
    // Lexer string tokens keep their quotes.
    const std::string& first = toks[arg_start].text;
    if (j == arg_start + 1 && toks[arg_start].kind == TokKind::kString &&
        first.size() >= 2) {
      args.emplace_back(first.substr(1, first.size() - 2));
    } else {
      args.emplace_back(std::nullopt);
    }
    arg_start = j + 1;
    if (depth == 0) break;
  }
  return args;
}

// trace-schema: every PDS_TRACE_* emission whose subsystem and event are
// literal strings must name a (sub, ev) pair registered in kEventCatalog
// (tools/telemetry_schema.h). Computed names cannot be checked statically
// and are skipped (the repo's emission sites all use literals).
inline void check_trace_schema(const LexedFile& lexed,
                               const std::string& file,
                               const Suppressions& sup,
                               std::vector<Finding>& out) {
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    // 0-indexed macro argument holding the subsystem string; the event name
    // is the next argument. PDS_TRACE_{INSTANT,BEGIN,END}(tracer, t, node,
    // sub, ev, ...) vs PDS_TRACE_EMIT(tracer, phase, t, node, sub, ev, ...).
    std::size_t sub_arg = 0;
    if (toks[i].text == "PDS_TRACE_INSTANT" ||
        toks[i].text == "PDS_TRACE_BEGIN" ||
        toks[i].text == "PDS_TRACE_END") {
      sub_arg = 3;
    } else if (toks[i].text == "PDS_TRACE_EMIT") {
      sub_arg = 4;
    } else {
      continue;
    }
    const auto args = macro_string_args(toks, i);
    if (args.size() <= sub_arg + 1 || !args[sub_arg] || !args[sub_arg + 1]) {
      continue;
    }
    const std::string& sub = *args[sub_arg];
    const std::string& ev = *args[sub_arg + 1];
    const bool registered = std::any_of(
        tools::kEventCatalog.begin(), tools::kEventCatalog.end(),
        [&](const tools::EventSchema& s) {
          return sub == s.sub && ev == s.ev;
        });
    if (!registered) {
      add_finding(out, sup, file, "trace-schema", toks[i].line,
                  "trace event " + sub + "/" + ev +
                      " is not registered in tools/telemetry_schema.h");
    }
  }
}

// stats-schema: every PDS_TS_COLUMN registration and PDS_PROF_SCOPE site
// whose name is a literal string must be registered in kSeriesCatalog /
// kProfileScopeCatalog (tools/telemetry_schema.h). Computed names cannot be
// checked statically and are skipped.
inline void check_stats_schema(const LexedFile& lexed, const std::string& file,
                               const Suppressions& sup,
                               std::vector<Finding>& out) {
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const bool is_column = toks[i].text == "PDS_TS_COLUMN";
    const bool is_scope = toks[i].text == "PDS_PROF_SCOPE";
    if (!is_column && !is_scope) continue;
    // Both macros carry the name as argument 1 (0-indexed):
    // PDS_TS_COLUMN(ts, name[, kind]) / PDS_PROF_SCOPE(profiler, name).
    const auto args = macro_string_args(toks, i);
    if (args.size() < 2 || !args[1]) continue;
    const std::string& name = *args[1];
    const bool registered =
        is_column
            ? std::any_of(tools::kSeriesCatalog.begin(),
                          tools::kSeriesCatalog.end(),
                          [&](const tools::SeriesSchema& s) {
                            return name == s.name;
                          })
            : std::find(tools::kProfileScopeCatalog.begin(),
                        tools::kProfileScopeCatalog.end(),
                        name) != tools::kProfileScopeCatalog.end();
    if (!registered) {
      add_finding(out, sup, file, "stats-schema", toks[i].line,
                  std::string(is_column ? "series column '"
                                        : "profiler scope '") +
                      name + "' is not registered in tools/telemetry_schema.h");
    }
  }
}

// decode-assert: decode() definitions whose body never validates.
inline void check_decode_assert(const LexedFile& lexed,
                                const std::string& file,
                                const Suppressions& sup,
                                std::vector<Finding>& out) {
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "decode") continue;
    if (i + 1 >= toks.size() || toks[i + 1].text != "(") continue;
    // Method calls (`r.decode(...)`) are uses, not definitions.
    if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
      continue;
    }
    // Find the parameter list's closing paren.
    int depth = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")" && --depth == 0) {
        close = j;
        break;
      }
    }
    if (close == 0) continue;
    std::size_t j = close + 1;
    while (j < toks.size() &&
           (toks[j].text == "const" || toks[j].text == "noexcept")) {
      ++j;
    }
    if (j >= toks.size() || toks[j].text != "{") continue;  // declaration
    // Scan the body for validation tokens.
    int d = 1;
    bool validated = false;
    std::size_t k = j + 1;
    while (k < toks.size() && d > 0) {
      const std::string& t = toks[k].text;
      if (t == "{") ++d;
      if (t == "}") --d;
      if (t == "PDS_ENSURE" || t == "DecodeError" || t == "throw") {
        validated = true;
      }
      ++k;
    }
    if (!validated) {
      add_finding(out, sup, file, "decode-assert", toks[i].line,
                  "decode() body performs no input validation (expected "
                  "PDS_ENSURE, DecodeError or throw)");
    }
  }
}

}  // namespace rules_detail

// Runs the token rules over one file. `header_names` carries
// unordered-container names collected from the paired header when linting a
// .cc file.
inline void check_tokens(const ScannedFile& file,
                         const std::vector<std::string>& header_names,
                         std::vector<Finding>& out) {
  using namespace rules_detail;
  const LexedFile& lexed = file.lexed;
  const std::string& path = file.path;
  const Suppressions& sup = file.sup;
  check_banned_tokens(lexed, path, sup, out);

  std::vector<std::string> names = collect_unordered_names(lexed);
  names.insert(names.end(), header_names.begin(), header_names.end());
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  check_unordered_iteration(lexed, path, names, sup, out);

  check_pointer_ordering(lexed, path, sup, out);
  check_uninit_fields(lexed, path, sup, out);
  check_decode_assert(lexed, path, sup, out);
  check_trace_schema(lexed, path, sup, out);
  check_stats_schema(lexed, path, sup, out);
}

// One input to analyze().
struct SourceFile {
  std::string path;  // repo-relative display path; decides rule scopes
  std::string content;
  std::vector<std::string> header_names = {};  // see check_tokens()
};

struct LintResult {
  std::vector<Finding> findings;
  LintSummary summary;
};

// Token rules cover the shipped code and its benches and tools; tests and
// examples construct violations on purpose.
inline bool in_token_scope(std::string_view path) {
  for (const std::string_view dir : {"src/", "bench/", "tools/"}) {
    if (path.rfind(dir, 0) == 0) return true;
  }
  return false;
}

// Lexes each file once, audits its suppression tags, runs the token rules
// (src/, bench/, tools/), layering (every file) and wire-taint and
// decode-atomicity (src/), then sorts and summarizes the findings.
inline LintResult analyze(const std::vector<SourceFile>& files) {
  std::vector<ScannedFile> scanned;
  scanned.reserve(files.size());
  std::vector<Finding> findings;
  for (const SourceFile& f : files) {
    ScannedFile& file = scanned.emplace_back();
    file.path = f.path;
    file.lexed = lex(f.content);
    file.sup = collect_suppressions(file.lexed, f.path);
    findings.insert(findings.end(), file.sup.bad.begin(), file.sup.bad.end());
    if (in_token_scope(f.path)) check_tokens(file, f.header_names, findings);
  }
  flow::check_flow(scanned, findings);

  sort_findings(findings);
  LintResult res;
  res.summary = summarize(findings, static_cast<int>(files.size()));
  res.findings = std::move(findings);
  return res;
}

}  // namespace pds::lint
