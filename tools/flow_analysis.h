// pdslint flow rules (DESIGN.md §17): flow-sensitive static analysis over
// the repo's pragmatic C++ subset, built on the same dependency-free lexer
// as the token rules (tools/lint_lexer.h) plus a declaration/statement
// parser with per-function statement trees and def-use taint tracking.
//
// Three rule families:
//
//   wire-taint       — values originating from ByteReader/varint getters
//                      (get_u8 ... get_varint, get_string, get_bytes) are
//                      tainted until compared against a bound; tainted
//                      values must not reach resize/reserve/assign-count,
//                      new[] extents, index expressions or loop bounds.
//                      Interprocedural via per-function summaries: taint
//                      through locals, arguments and return values.
//   decode-atomicity — a function that can throw DecodeError must not
//                      mutate member state (`x_`, `this->x`, references
//                      bound to members, container mutators) before a later
//                      potential-throw point; copy-then-swap passes.
//   layering         — the include graph must follow the architecture DAG
//                      (common < util < obs < sim < net < core < workload
//                      < tools < bench/tests/examples); a deliberate upward
//                      include carries a pdslint:allow(layering) tag saying
//                      why.
//
// Scope: wire-taint and decode-atomicity run only over files under src/
// (tests construct malformed inputs on purpose); layering covers the whole
// tree. Suppressions are the pdslint:allow tags of tools/lint_common.h.
// PDS_ENSURE aborts rather than throwing, so it counts as validation for
// taint but never as a throw point.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tools/lint_common.h"
#include "tools/lint_lexer.h"

namespace pds::flow {

using lint::Finding;
using lint::LexedFile;
using lint::ScannedFile;
using lint::Suppressions;
using lint::Token;
using lint::TokKind;

// ---------------------------------------------------------------------------
// Layering: the architecture DAG. A file may include headers of its own
// layer or lower ranks; an include pointing at a strictly higher rank is a
// back-edge. Paths are matched on their first component (after stripping a
// leading `src/`), so `src/net/codec.cc`, `tools/pdslint.cc` and
// `tests/foo.cc` all resolve; includes without a known first component
// (same-directory, system, third-party) are exempt.

struct LayerSpec {
  const char* dir;
  int rank;
};

inline constexpr LayerSpec kLayers[] = {
    {"common", 0}, {"util", 1},     {"obs", 2},   {"sim", 3},
    {"net", 4},    {"core", 5},     {"workload", 6}, {"tools", 7},
    {"bench", 8},  {"tests", 8},    {"examples", 8},
};

inline int layer_rank(std::string_view first_component) {
  for (const LayerSpec& l : kLayers) {
    if (first_component == l.dir) return l.rank;
  }
  return -1;
}

inline std::string_view first_path_component(std::string_view path) {
  const std::size_t slash = path.find('/');
  return slash == std::string_view::npos ? std::string_view{}
                                         : path.substr(0, slash);
}

// Layer rank of a repo-relative file path, or -1 when it lives outside the
// layered tree.
inline int file_layer_rank(std::string_view path) {
  if (path.rfind("src/", 0) == 0) path.remove_prefix(4);
  return layer_rank(first_path_component(path));
}

namespace flow_detail {

// ---------------------------------------------------------------------------
// Token helpers.

inline bool is_punct(const Token& t, std::string_view s) {
  return t.kind == TokKind::kPunct && t.text == s;
}

inline bool is_ident(const Token& t, std::string_view s) {
  return t.kind == TokKind::kIdent && t.text == s;
}

// Index of the token matching `open` at `i` (whose text is `open`), or
// `end` when unbalanced. Balances (), {} and [] jointly.
inline std::size_t match_balanced(const std::vector<Token>& toks,
                                  std::size_t i, std::size_t end) {
  int depth = 0;
  for (; i < end; ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    const std::string& t = toks[i].text;
    if (t == "(" || t == "{" || t == "[") ++depth;
    if (t == ")" || t == "}" || t == "]") {
      if (--depth == 0) return i;
    }
  }
  return end;
}

// Skips every token of the preprocessor directive starting at the `#`
// token, including backslash-continued lines. Returns the next index.
inline std::size_t skip_pp_line(const std::vector<Token>& toks,
                                std::size_t i, std::size_t end) {
  int line = toks[i].line;
  while (i < end) {
    if (toks[i].line > line) {
      if (i > 0 && is_punct(toks[i - 1], "\\")) {
        line = toks[i].line;  // continued directive
      } else {
        break;
      }
    }
    ++i;
  }
  return i;
}

inline bool is_control_keyword(const std::string& s) {
  static const std::set<std::string> kw = {
      "if",     "for",      "while",   "switch",  "catch",   "return",
      "sizeof", "alignof",  "decltype", "noexcept", "new",    "delete",
      "else",   "do",       "case",    "operator", "static_assert",
      "alignas", "defined", "assert",  "throw",   "typeid",  "requires"};
  return kw.count(s) != 0;
}

// ---------------------------------------------------------------------------
// Pragmatic statement parser. The subset: blocks, if/else, for/while/do,
// switch, try/catch, return/throw/break/continue, and "plain" statements
// (declarations, expressions) consumed up to the next top-level `;`.
// Lambdas and nested class bodies inside a plain statement are swallowed
// into it (their tokens are still scanned, flat). Labels and case/default
// markers are skipped.

struct Stmt {
  enum class Kind {
    kPlain,
    kIf,
    kLoop,
    kSwitch,
    kTry,
    kBlock,
    kReturn,
    kThrow,
    kJump,
  };
  Kind kind = Kind::kPlain;
  // Token range of the full statement and of its "head" (the condition of
  // if/loop/switch, the value of return/throw, the whole plain statement).
  std::size_t begin = 0, end = 0;
  std::size_t head_begin = 0, head_end = 0;
  std::vector<Stmt> body;       // then / loop body / block / try body
  std::vector<Stmt> else_body;  // else branch / merged catch bodies
};

inline void parse_stmts(const std::vector<Token>& toks, std::size_t begin,
                        std::size_t end, std::vector<Stmt>& out, int depth);

// Parses one statement starting at `i`; appends zero or one Stmt to `out`
// and returns the index just past it.
inline std::size_t parse_stmt(const std::vector<Token>& toks, std::size_t i,
                              std::size_t end, std::vector<Stmt>& out,
                              int depth) {
  if (i >= end || depth > 64) return end;
  const Token& t = toks[i];

  if (is_punct(t, "#")) return skip_pp_line(toks, i, end);
  if (is_punct(t, ";")) return i + 1;

  if (is_punct(t, "{")) {
    const std::size_t close = match_balanced(toks, i, end);
    Stmt s;
    s.kind = Stmt::Kind::kBlock;
    s.begin = i;
    s.end = close;
    parse_stmts(toks, i + 1, close, s.body, depth + 1);
    out.push_back(std::move(s));
    return close >= end ? end : close + 1;
  }

  if (t.kind == TokKind::kIdent) {
    const std::string& w = t.text;

    if (w == "if") {
      std::size_t j = i + 1;
      if (j < end && is_ident(toks[j], "constexpr")) ++j;
      if (j >= end || !is_punct(toks[j], "(")) return i + 1;
      const std::size_t close = match_balanced(toks, j, end);
      Stmt s;
      s.kind = Stmt::Kind::kIf;
      s.begin = i;
      s.head_begin = j + 1;
      s.head_end = close;
      std::size_t next = parse_stmt(toks, close + 1, end, s.body, depth + 1);
      if (next < end && is_ident(toks[next], "else")) {
        next = parse_stmt(toks, next + 1, end, s.else_body, depth + 1);
      }
      s.end = next;
      out.push_back(std::move(s));
      return next;
    }

    if (w == "for" || w == "while") {
      std::size_t j = i + 1;
      if (j >= end || !is_punct(toks[j], "(")) return i + 1;
      const std::size_t close = match_balanced(toks, j, end);
      Stmt s;
      s.kind = Stmt::Kind::kLoop;
      s.begin = i;
      if (w == "while") {
        s.head_begin = j + 1;
        s.head_end = close;
      } else {
        // for (init; cond; step) — the head is the condition. A range-for
        // (top-level `:`) has no numeric bound; its head stays empty.
        std::size_t semi1 = close, semi2 = close;
        int d = 0;
        for (std::size_t k = j; k < close; ++k) {
          if (toks[k].kind != TokKind::kPunct) continue;
          const std::string& p = toks[k].text;
          if (p == "(" || p == "{" || p == "[") ++d;
          if (p == ")" || p == "}" || p == "]") --d;
          if (p == ";" && d == 1) {
            if (semi1 == close) {
              semi1 = k;
            } else if (semi2 == close) {
              semi2 = k;
            }
          }
        }
        if (semi1 != close && semi2 != close) {
          s.head_begin = semi1 + 1;
          s.head_end = semi2;
        } else {
          s.head_begin = s.head_end = close;
        }
      }
      const std::size_t next =
          parse_stmt(toks, close + 1, end, s.body, depth + 1);
      s.end = next;
      out.push_back(std::move(s));
      return next;
    }

    if (w == "do") {
      Stmt s;
      s.kind = Stmt::Kind::kLoop;
      s.begin = i;
      std::size_t next = parse_stmt(toks, i + 1, end, s.body, depth + 1);
      if (next < end && is_ident(toks[next], "while") && next + 1 < end &&
          is_punct(toks[next + 1], "(")) {
        const std::size_t close = match_balanced(toks, next + 1, end);
        s.head_begin = next + 2;
        s.head_end = close;
        next = close + 1;
        if (next < end && is_punct(toks[next], ";")) ++next;
      }
      s.end = next;
      out.push_back(std::move(s));
      return next;
    }

    if (w == "switch") {
      std::size_t j = i + 1;
      if (j >= end || !is_punct(toks[j], "(")) return i + 1;
      const std::size_t close = match_balanced(toks, j, end);
      Stmt s;
      s.kind = Stmt::Kind::kSwitch;
      s.begin = i;
      s.head_begin = j + 1;
      s.head_end = close;
      const std::size_t next =
          parse_stmt(toks, close + 1, end, s.body, depth + 1);
      s.end = next;
      out.push_back(std::move(s));
      return next;
    }

    if (w == "try") {
      Stmt s;
      s.kind = Stmt::Kind::kTry;
      s.begin = i;
      std::size_t next = parse_stmt(toks, i + 1, end, s.body, depth + 1);
      while (next < end && is_ident(toks[next], "catch") && next + 1 < end &&
             is_punct(toks[next + 1], "(")) {
        const std::size_t close = match_balanced(toks, next + 1, end);
        next = parse_stmt(toks, close + 1, end, s.else_body, depth + 1);
      }
      s.end = next;
      out.push_back(std::move(s));
      return next;
    }

    if (w == "return" || w == "throw") {
      Stmt s;
      s.kind = w == "return" ? Stmt::Kind::kReturn : Stmt::Kind::kThrow;
      s.begin = i;
      s.head_begin = i + 1;
      std::size_t k = i + 1;
      int d = 0;
      while (k < end) {
        if (toks[k].kind == TokKind::kPunct) {
          const std::string& p = toks[k].text;
          if (p == "(" || p == "{" || p == "[") ++d;
          if (p == ")" || p == "}" || p == "]") {
            if (d == 0) break;
            --d;
          }
          if (p == ";" && d == 0) break;
        }
        ++k;
      }
      s.head_end = k;
      s.end = k < end && is_punct(toks[k], ";") ? k + 1 : k;
      const std::size_t next = s.end;
      out.push_back(std::move(s));
      return next;
    }

    if (w == "break" || w == "continue" || w == "goto") {
      std::size_t k = i + 1;
      while (k < end && !is_punct(toks[k], ";")) ++k;
      Stmt s;
      s.kind = Stmt::Kind::kJump;
      s.begin = i;
      s.end = k < end ? k + 1 : end;
      out.push_back(std::move(s));
      return s.end;
    }

    if (w == "case" || w == "default") {
      // `case expr:` / `default:` — skip the label, no statement emitted
      // (the following statements parse on their own).
      std::size_t k = i + 1;
      int d = 0;
      while (k < end) {
        if (toks[k].kind == TokKind::kPunct) {
          const std::string& p = toks[k].text;
          if (p == "(" || p == "{" || p == "[") ++d;
          if (p == ")" || p == "}" || p == "]") --d;
          if (p == ":" && d == 0) return k + 1;
          if (p == ";" && d == 0) return k + 1;  // malformed; recover
        }
        ++k;
      }
      return end;
    }

    if (w == "else") return i + 1;  // stray else; recover
  }

  // Plain statement: consume to the next top-level `;`. A `}` at depth 0
  // ends the statement without being consumed (recovery at block ends).
  Stmt s;
  s.kind = Stmt::Kind::kPlain;
  s.begin = i;
  s.head_begin = i;
  std::size_t k = i;
  int d = 0;
  while (k < end) {
    if (toks[k].kind == TokKind::kPunct) {
      const std::string& p = toks[k].text;
      if (p == "(" || p == "{" || p == "[") ++d;
      if (p == ")" || p == "]") --d;
      if (p == "}") {
        if (d == 0) break;
        --d;
      }
      if (p == ";" && d == 0) break;
    }
    ++k;
  }
  s.head_end = k;
  s.end = k < end && is_punct(toks[k], ";") ? k + 1 : k;
  const std::size_t next = s.end > i ? s.end : i + 1;
  out.push_back(std::move(s));
  return next;
}

inline void parse_stmts(const std::vector<Token>& toks, std::size_t begin,
                        std::size_t end, std::vector<Stmt>& out, int depth) {
  std::size_t i = begin;
  while (i < end) {
    const std::size_t next = parse_stmt(toks, i, end, out, depth);
    i = next > i ? next : i + 1;
  }
}

// ---------------------------------------------------------------------------
// Function extraction: `name (params) [quals] [ctor-init] {` at any scope.
// Function bodies are not scanned for nested definitions (lambdas belong to
// the enclosing statement).

struct Function {
  std::string name;       // unqualified
  std::string display;    // Class::name when the definition is qualified
  int line = 1;
  std::vector<std::string> params;  // declared parameter names, in order
  std::size_t body_begin = 0, body_end = 0;  // token range inside the braces
  bool is_ctor_or_dtor = false;
  std::vector<Stmt> stmts;
};

// Extracts declared parameter names from the token range between the parens.
inline std::vector<std::string> parse_param_names(
    const std::vector<Token>& toks, std::size_t begin, std::size_t end) {
  std::vector<std::string> names;
  std::size_t arg_start = begin;
  int d = 0;
  for (std::size_t i = begin; i <= end; ++i) {
    const bool at_end = i == end;
    bool boundary = at_end;
    if (!at_end && toks[i].kind == TokKind::kPunct) {
      const std::string& p = toks[i].text;
      if (p == "(" || p == "{" || p == "[" || p == "<") ++d;
      if (p == ")" || p == "}" || p == "]" || p == ">") --d;
      if (p == "," && d == 0) boundary = true;
    }
    if (!boundary) continue;
    // Parameter text is [arg_start, i): cut at a top-level `=` (default
    // argument), then the last identifier is the name.
    std::size_t stop = i;
    int dd = 0;
    for (std::size_t k = arg_start; k < i; ++k) {
      if (toks[k].kind != TokKind::kPunct) continue;
      const std::string& p = toks[k].text;
      if (p == "(" || p == "{" || p == "[" || p == "<") ++dd;
      if (p == ")" || p == "}" || p == "]" || p == ">") --dd;
      if (p == "=" && dd == 0 && k + 1 < i && toks[k + 1].text != "=") {
        stop = k;
        break;
      }
    }
    std::string name;
    for (std::size_t k = stop; k > arg_start; --k) {
      if (toks[k - 1].kind == TokKind::kIdent) {
        name = toks[k - 1].text;
        break;
      }
    }
    if (name == "void" || name == "const") name.clear();
    names.push_back(name);  // may be empty (unnamed param); keeps positions
    arg_start = i + 1;
  }
  // A sole empty entry means `()`.
  if (names.size() == 1 && names[0].empty() && begin == end) names.clear();
  return names;
}

inline std::vector<Function> collect_functions(
    const std::vector<Token>& toks) {
  std::vector<Function> fns;
  const std::size_t n = toks.size();
  std::size_t i = 0;
  while (i < n) {
    if (is_punct(toks[i], "#")) {
      i = skip_pp_line(toks, i, n);
      continue;
    }
    if (toks[i].kind != TokKind::kIdent || is_control_keyword(toks[i].text) ||
        i + 1 >= n || !is_punct(toks[i + 1], "(")) {
      ++i;
      continue;
    }
    if (i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->") ||
                  is_ident(toks[i - 1], "operator"))) {
      ++i;
      continue;
    }
    const std::size_t name_at = i;
    const std::size_t open = i + 1;
    const std::size_t close = match_balanced(toks, open, n);
    if (close >= n) {
      ++i;
      continue;
    }
    // Qualifier tail after the parameter list.
    std::size_t j = close + 1;
    bool init_list = false;
    while (j < n) {
      const std::string& w = toks[j].text;
      if (toks[j].kind == TokKind::kIdent &&
          (w == "const" || w == "override" || w == "final" ||
           w == "mutable" || w == "volatile")) {
        ++j;
        continue;
      }
      if (is_ident(toks[j], "noexcept")) {
        ++j;
        if (j < n && is_punct(toks[j], "(")) j = match_balanced(toks, j, n) + 1;
        continue;
      }
      if (is_punct(toks[j], "&")) {
        ++j;
        continue;
      }
      if (is_punct(toks[j], "->")) {
        // Trailing return type: scan to the body/terminator.
        ++j;
        while (j < n && !is_punct(toks[j], "{") && !is_punct(toks[j], ";") &&
               !is_punct(toks[j], "=")) {
          ++j;
        }
        continue;
      }
      break;
    }
    if (j < n && is_punct(toks[j], ":")) {
      // Constructor initializer list: `: member(expr), member{expr}, ... {`.
      // Each initializer is a (possibly qualified/templated) name followed
      // by a balanced `(...)` or `{...}`; initializers chain via `,` and
      // the token after the last one is the body `{`.
      init_list = true;
      ++j;
      while (j < n) {
        while (j < n && (toks[j].kind == TokKind::kIdent ||
                         is_punct(toks[j], "::"))) {
          ++j;
        }
        if (j < n && is_punct(toks[j], "<")) {
          int d = 0;
          while (j < n) {
            if (is_punct(toks[j], "<")) ++d;
            if (is_punct(toks[j], ">") && --d == 0) {
              ++j;
              break;
            }
            ++j;
          }
        }
        if (j >= n || (!is_punct(toks[j], "(") && !is_punct(toks[j], "{"))) {
          break;
        }
        j = match_balanced(toks, j, n) + 1;
        if (j < n && is_punct(toks[j], ",")) {
          ++j;
          continue;
        }
        break;
      }
    }
    if (j >= n || !is_punct(toks[j], "{")) {
      ++i;
      continue;
    }
    const std::size_t body_open = j;
    const std::size_t body_close = match_balanced(toks, body_open, n);
    Function fn;
    fn.name = toks[name_at].text;
    fn.display = fn.name;
    fn.line = toks[name_at].line;
    if (name_at >= 2 && is_punct(toks[name_at - 1], "::") &&
        toks[name_at - 2].kind == TokKind::kIdent) {
      fn.display = toks[name_at - 2].text + "::" + fn.name;
      if (toks[name_at - 2].text == fn.name) fn.is_ctor_or_dtor = true;
    }
    if (name_at >= 1 && is_punct(toks[name_at - 1], "~")) {
      fn.is_ctor_or_dtor = true;
    }
    if (init_list) fn.is_ctor_or_dtor = true;
    // Inline constructors with no init list have no return type: the token
    // before the name is `explicit`, a brace/semicolon, or an access label
    // rather than a type.
    if (name_at >= 1) {
      const Token& before = toks[name_at - 1];
      if (is_ident(before, "explicit") || is_punct(before, "{") ||
          is_punct(before, "}") || is_punct(before, ";") ||
          is_punct(before, ":")) {
        fn.is_ctor_or_dtor = true;
      }
    }
    fn.params = parse_param_names(toks, open + 1, close);
    fn.body_begin = body_open + 1;
    fn.body_end = body_close;
    parse_stmts(toks, fn.body_begin, fn.body_end, fn.stmts, 0);
    fns.push_back(std::move(fn));
    i = body_close >= n ? n : body_close + 1;
  }
  return fns;
}

}  // namespace flow_detail

}  // namespace pds::flow

// (part 2: taint/atomicity engines, layering scan and check_flow() follow)
#include "tools/flow_engine.h"
