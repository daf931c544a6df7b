// pdslint flow engine (DESIGN.md §17) — part 2 of tools/flow_analysis.h:
// the taint lattice and the sink, throw-point and mutation scans. Split from
// the parser for readability; include tools/flow_analysis.h, never this file
// directly.
#pragma once

#include "tools/flow_analysis.h"

namespace pds::flow {

namespace flow_detail {

// ---------------------------------------------------------------------------
// Taint lattice. A value is tainted when it derives from wire bytes (`src`)
// and/or from one of the enclosing function's parameters (`params`, a
// bitmask used to build interprocedural summaries). Comparing a variable
// against anything in an if-condition or PDS_ENSURE argument sanitizes it
// (drops it from the environment); loop conditions do NOT sanitize — a
// tainted loop bound is the sink itself.

struct Taint {
  bool src = false;
  std::uint64_t params = 0;

  [[nodiscard]] bool any() const { return src || params != 0; }
  void join(const Taint& o) {
    src = src || o.src;
    params |= o.params;
  }
};

// Per-function interprocedural summary, keyed by unqualified name (same-name
// functions merge conservatively).
struct Summary {
  Taint returns;                  // taint of the returned value
  std::uint64_t sink_params = 0;  // params that reach a size/index sink
  bool may_throw = false;         // can throw DecodeError
};

using SummaryMap = std::map<std::string, Summary>;

// ByteReader/varint getters: method calls returning wire-derived values.
// All of them throw DecodeError on underrun, so a call is also a potential
// throw point for decode-atomicity.
inline bool is_source_method(const std::string& s) {
  static const std::set<std::string> kSources = {
      "get_u8",  "get_u16",    "get_u32",       "get_u64",   "get_i64",
      "get_f64", "get_varint", "get_varint_i64", "get_string", "get_bytes"};
  return kSources.count(s) != 0;
}

// Calls whose result is bounded regardless of argument taint.
inline bool is_sanitizer_call(const std::string& s) {
  return s == "min" || s == "clamp";
}

// Validation macros: arguments count as bounds-checked afterwards. These
// abort on failure (common/assert.h), so they are never throw points.
inline bool is_ensure_macro(const std::string& s) {
  return s == "PDS_ENSURE" || s == "PDS_ASSERT" || s == "assert";
}

// Container-mutating method names for the atomicity rule.
inline bool is_mutator_method(const std::string& s) {
  static const std::set<std::string> kMut = {
      "push_back", "emplace_back", "pop_back", "insert", "erase",
      "clear",     "resize",       "reserve",  "assign", "emplace",
      "swap",      "set_word"};
  return kMut.count(s) != 0;
}

inline bool is_member_name(const std::string& s) {
  return !s.empty() && s.back() == '_';
}

// Taint environment for one walk: variable taints plus the set of local
// references/iterators known to alias member state.
struct Env {
  std::map<std::string, Taint> vars;
  std::set<std::string> member_refs;

  void join(const Env& o) {
    for (const auto& [k, v] : o.vars) vars[k].join(v);
    member_refs.insert(o.member_refs.begin(), o.member_refs.end());
  }
};

// Mutation/throw event stream for decode-atomicity, in statement order.
struct Event {
  bool is_throw = false;
  std::string name;  // mutated member (empty for throws)
  int line = 1;
  int order = 0;
  std::vector<int> loops;  // enclosing loop ids
};

struct EvalResult {
  Taint taint;
  std::string who;  // representative tainted identifier, for messages
};

// Analysis context for one function in one file.
struct FnCtx {
  const std::vector<Token>* toks = nullptr;
  const Function* fn = nullptr;
  SummaryMap* summaries = nullptr;
  const std::string* file = nullptr;
  const Suppressions* sup = nullptr;
  std::vector<Finding>* out = nullptr;  // null during summary-only passes
  Summary self;
  std::vector<Event> events;
  int order_counter = 0;
  int next_loop_id = 0;
  std::vector<int> loop_stack;
  int try_depth = 0;
};

inline void add_flow_finding(const FnCtx& ctx, const char* rule, int line,
                             std::string message) {
  if (ctx.out == nullptr) return;
  lint::add_finding(*ctx.out, *ctx.sup, *ctx.file, rule, line,
                    std::move(message));
}

// Evaluates the taint of the expression tokens in [b, e). Flat scan:
// identifiers pull their environment taint, `.get_*()` calls contribute
// `src`, calls to summarized functions contribute their return taint, and
// std::min/clamp mask the taint of their arguments.
inline EvalResult eval_expr(const FnCtx& ctx, const Env& env, std::size_t b,
                            std::size_t e) {
  const auto& toks = *ctx.toks;
  EvalResult r;
  std::size_t i = b;
  while (i < e) {
    const Token& t = toks[i];
    if (is_punct(t, ".") || is_punct(t, "->")) {
      // Member access / method call: the base identifier was already
      // evaluated; skip the member name (but credit source getters).
      if (i + 1 < e && toks[i + 1].kind == TokKind::kIdent) {
        if (i + 2 < e && is_punct(toks[i + 2], "(") &&
            is_source_method(toks[i + 1].text)) {
          r.taint.src = true;
          if (r.who.empty()) r.who = toks[i + 1].text + "()";
        }
        i += 2;
        continue;
      }
      ++i;
      continue;
    }
    if (t.kind == TokKind::kIdent) {
      // Explicit template arguments (`std::min<std::size_t>(...)`) sit
      // between the callee name and the call parens; skip them when
      // deciding whether this identifier is a call.
      std::size_t paren = i + 1;
      if (is_sanitizer_call(t.text) && paren < e &&
          is_punct(toks[paren], "<")) {
        int depth = 0;
        while (paren < e) {
          if (is_punct(toks[paren], "<")) ++depth;
          if (is_punct(toks[paren], ">") && --depth == 0) {
            ++paren;
            break;
          }
          ++paren;
        }
      }
      const bool call = paren < e && is_punct(toks[paren], "(");
      if (call && is_sanitizer_call(t.text)) {
        i = match_balanced(toks, paren, e) + 1;  // bounded result
        continue;
      }
      if (call) {
        const auto it = ctx.summaries->find(t.text);
        if (it != ctx.summaries->end() && it->second.returns.src) {
          r.taint.src = true;
          if (r.who.empty()) r.who = t.text + "()";
        }
        // Param passthrough and unknown calls both resolve to "result
        // carries the arguments' taint", which the flat scan of the
        // argument tokens below provides.
        ++i;
        continue;
      }
      const auto v = env.vars.find(t.text);
      if (v != env.vars.end() && v->second.any()) {
        r.taint.join(v->second);
        if (r.who.empty()) r.who = t.text;
      }
      ++i;
      continue;
    }
    ++i;
    continue;
  }
  return r;
}

inline bool range_has_comparison(const std::vector<Token>& toks,
                                 std::size_t b, std::size_t e) {
  for (std::size_t i = b; i < e; ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    const std::string& p = toks[i].text;
    if (p == "<" || p == ">") return true;
    if ((p == "=" || p == "!") && i + 1 < e && is_punct(toks[i + 1], "=")) {
      return true;
    }
  }
  return false;
}

// Drops every identifier in [b, e) from the taint environment — the
// comparison/ENSURE semantics of sanitization.
inline void sanitize_range(const FnCtx& ctx, Env& env, std::size_t b,
                           std::size_t e) {
  const auto& toks = *ctx.toks;
  for (std::size_t i = b; i < e; ++i) {
    if (toks[i].kind == TokKind::kIdent) env.vars.erase(toks[i].text);
  }
}

// Splits the balanced call at `open` (a `(`) into top-level argument
// ranges; returns the index of the closing paren.
inline std::size_t split_args(const std::vector<Token>& toks,
                              std::size_t open, std::size_t end,
                              std::vector<std::pair<std::size_t, std::size_t>>&
                                  args) {
  const std::size_t close = match_balanced(toks, open, end);
  std::size_t arg_start = open + 1;
  int d = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    const std::string& p = toks[i].text;
    if (p == "(" || p == "{" || p == "[") ++d;
    if (p == ")" || p == "}" || p == "]") --d;
    if (p == "," && d == 0) {
      args.emplace_back(arg_start, i);
      arg_start = i + 1;
    }
  }
  if (close > arg_start) args.emplace_back(arg_start, close);
  return close;
}

// ---------------------------------------------------------------------------
// Sink scan: resize/reserve/assign-count, new[] extents, index expressions,
// and calls passing tainted values into summarized sink parameters.

inline void scan_sinks(FnCtx& ctx, Env& env, std::size_t b, std::size_t e) {
  const auto& toks = *ctx.toks;
  std::set<std::size_t> claimed_brackets;  // new[] extents, not subscripts
  for (std::size_t i = b; i < e; ++i) {
    const Token& t = toks[i];
    // `.resize(n)` / `.reserve(n)` / `.assign(n, v)`
    if ((is_punct(t, ".") || is_punct(t, "->")) && i + 2 < e &&
        toks[i + 1].kind == TokKind::kIdent && is_punct(toks[i + 2], "(")) {
      const std::string& m = toks[i + 1].text;
      if (m == "resize" || m == "reserve" || m == "assign") {
        std::vector<std::pair<std::size_t, std::size_t>> args;
        split_args(toks, i + 2, e, args);
        if (!args.empty()) {
          const EvalResult a = eval_expr(ctx, env, args[0].first,
                                         args[0].second);
          if (a.taint.src) {
            add_flow_finding(
                ctx, "wire-taint", toks[i + 1].line,
                "wire-tainted value '" + a.who + "' reaches ." + m +
                    "() in '" + ctx.fn->display +
                    "' without a bounds check — validate it against "
                    "remaining() or a cap first (allocation bomb)");
          }
          ctx.self.sink_params |= a.taint.params;
        }
      }
    }
    // `new T[n]`
    if (is_ident(t, "new")) {
      for (std::size_t k = i + 1; k < e && k < i + 8; ++k) {
        if (toks[k].kind == TokKind::kPunct &&
            (toks[k].text == "(" || toks[k].text == ";" ||
             toks[k].text == ",")) {
          break;
        }
        if (is_punct(toks[k], "[")) {
          const std::size_t close = match_balanced(toks, k, e);
          claimed_brackets.insert(k);
          const EvalResult a = eval_expr(ctx, env, k + 1, close);
          if (a.taint.src) {
            add_flow_finding(
                ctx, "wire-taint", toks[k].line,
                "wire-tainted value '" + a.who + "' sizes a new[] in '" +
                    ctx.fn->display +
                    "' without a bounds check (allocation bomb)");
          }
          ctx.self.sink_params |= a.taint.params;
          break;
        }
      }
    }
    // subscript `expr[i]`
    if (is_punct(t, "[") && i > b && claimed_brackets.count(i) == 0 &&
        (toks[i - 1].kind == TokKind::kIdent || is_punct(toks[i - 1], "]") ||
         is_punct(toks[i - 1], ")"))) {
      const std::size_t close = match_balanced(toks, i, e);
      const EvalResult a = eval_expr(ctx, env, i + 1, close);
      if (a.taint.src) {
        add_flow_finding(
            ctx, "wire-taint", t.line,
            "wire-tainted value '" + a.who + "' used as an index in '" +
                ctx.fn->display + "' without a bounds check (OOB access)");
      }
      ctx.self.sink_params |= a.taint.params;
    }
    // call passing tainted args into summarized sink parameters
    if (t.kind == TokKind::kIdent && i + 1 < e && is_punct(toks[i + 1], "(") &&
        (i == b || (!is_punct(toks[i - 1], ".") &&
                    !is_punct(toks[i - 1], "->")))) {
      const auto it = ctx.summaries->find(t.text);
      if (it != ctx.summaries->end() && it->second.sink_params != 0) {
        std::vector<std::pair<std::size_t, std::size_t>> args;
        split_args(toks, i + 1, e, args);
        for (std::size_t k = 0; k < args.size() && k < 64; ++k) {
          if ((it->second.sink_params & (1ULL << k)) == 0) continue;
          const EvalResult a =
              eval_expr(ctx, env, args[k].first, args[k].second);
          if (a.taint.src) {
            add_flow_finding(
                ctx, "wire-taint", t.line,
                "wire-tainted value '" + a.who + "' passed to '" + t.text +
                    "()' (parameter " + std::to_string(k) +
                    "), which uses it as a size or index without a bounds "
                    "check");
          }
          ctx.self.sink_params |= a.taint.params;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Throw-point and mutation event scans (decode-atomicity).

inline void record_event(FnCtx& ctx, bool is_throw, std::string name,
                         int line) {
  Event ev;
  ev.is_throw = is_throw;
  ev.name = std::move(name);
  ev.line = line;
  ev.order = ctx.order_counter++;
  ev.loops = ctx.loop_stack;
  ctx.events.push_back(std::move(ev));
}

// Source-method calls and calls to may-throw functions inside [b, e) are
// potential DecodeError throw points.
inline void scan_throw_points(FnCtx& ctx, std::size_t b, std::size_t e) {
  const auto& toks = *ctx.toks;
  for (std::size_t i = b; i < e; ++i) {
    const Token& t = toks[i];
    bool throws = false;
    if ((is_punct(t, ".") || is_punct(t, "->")) && i + 2 < e &&
        toks[i + 1].kind == TokKind::kIdent && is_punct(toks[i + 2], "(") &&
        is_source_method(toks[i + 1].text)) {
      throws = true;
    }
    if (t.kind == TokKind::kIdent && i + 1 < e && is_punct(toks[i + 1], "(") &&
        (i == b || (!is_punct(toks[i - 1], ".") &&
                    !is_punct(toks[i - 1], "->")))) {
      const auto it = ctx.summaries->find(t.text);
      if (it != ctx.summaries->end() && it->second.may_throw) throws = true;
    }
    if (throws && ctx.try_depth == 0) {
      ctx.self.may_throw = true;
      record_event(ctx, true, std::string(), t.line);
    }
  }
}

// Walks back a `.`/`->`/`[...]` access chain ending just before `at` and
// returns the base identifier index, or `npos`.
inline std::size_t chain_base(const std::vector<Token>& toks, std::size_t at,
                              std::size_t b) {
  std::size_t i = at;
  while (i > b) {
    const Token& t = toks[i - 1];
    if (t.kind == TokKind::kIdent) {
      if (i - 1 == b || (!is_punct(toks[i - 2], ".") &&
                         !is_punct(toks[i - 2], "->"))) {
        return i - 1;
      }
      i -= 2;  // skip the member name and its accessor
      continue;
    }
    if (is_punct(t, "]")) {
      // skip back over the balanced [...]
      int d = 0;
      std::size_t k = i - 1;
      while (k > b) {
        if (is_punct(toks[k], "]")) ++d;
        if (is_punct(toks[k], "[")) {
          if (--d == 0) break;
        }
        --k;
      }
      i = k;
      continue;
    }
    if (is_punct(t, ")")) return std::string::npos;  // call result; ignore
    return std::string::npos;
  }
  return std::string::npos;
}

inline bool aliases_member(const Env& env, const std::string& name) {
  return is_member_name(name) || name == "this" ||
         env.member_refs.count(name) != 0;
}

// Mutating method calls (`x_.push_back(...)`) and member increments.
inline void scan_mutations(FnCtx& ctx, const Env& env, std::size_t b,
                           std::size_t e) {
  const auto& toks = *ctx.toks;
  for (std::size_t i = b; i < e; ++i) {
    const Token& t = toks[i];
    if ((is_punct(t, ".") || is_punct(t, "->")) && i + 2 < e &&
        toks[i + 1].kind == TokKind::kIdent && is_punct(toks[i + 2], "(") &&
        is_mutator_method(toks[i + 1].text)) {
      const std::size_t base = chain_base(toks, i, b);
      if (base != std::string::npos && aliases_member(env, toks[base].text)) {
        record_event(ctx, false, toks[base].text, toks[i + 1].line);
      }
    }
    // ++x_ / x_++ / --x_ / x_--
    if (t.kind == TokKind::kIdent && aliases_member(env, t.text)) {
      const bool pre =
          i >= b + 2 &&
          ((is_punct(toks[i - 1], "+") && is_punct(toks[i - 2], "+")) ||
           (is_punct(toks[i - 1], "-") && is_punct(toks[i - 2], "-")));
      const bool post =
          i + 2 < e &&
          ((is_punct(toks[i + 1], "+") && is_punct(toks[i + 2], "+")) ||
           (is_punct(toks[i + 1], "-") && is_punct(toks[i + 2], "-")));
      if (pre || post) record_event(ctx, false, t.text, t.line);
    }
  }
}

}  // namespace flow_detail

}  // namespace pds::flow

#include "tools/flow_engine2.h"
