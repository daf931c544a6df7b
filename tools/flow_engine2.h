// pdslint flow engine (DESIGN.md §17) — part 3 of tools/flow_analysis.h:
// the statement walker tying the taint/atomicity scans together,
// check_flow() and the layering scan. Include tools/flow_analysis.h, never
// this file directly.
#pragma once

#include "tools/flow_engine.h"

namespace pds::flow {

namespace flow_detail {

// ---------------------------------------------------------------------------
// Statement walker.

inline void walk_stmts(FnCtx& ctx, Env& env, const std::vector<Stmt>& stmts);

// Handles assignments/declarations in a plain statement: updates the taint
// environment, tracks member-aliasing references, and records member
// mutation events.
inline void handle_assignment(FnCtx& ctx, Env& env, std::size_t b,
                              std::size_t e) {
  const auto& toks = *ctx.toks;
  // Find the first top-level simple `=` (not ==, <=, >=, !=, +=, ...).
  std::size_t eq = e;
  int d = 0;
  for (std::size_t i = b; i < e; ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    const std::string& p = toks[i].text;
    if (p == "(" || p == "{" || p == "[") ++d;
    if (p == ")" || p == "}" || p == "]") --d;
    if (p == "=" && d == 0) {
      const bool next_eq = i + 1 < e && is_punct(toks[i + 1], "=");
      const bool prev_op =
          i > b && toks[i - 1].kind == TokKind::kPunct &&
          std::string("=!<>+-*/%&|^").find(toks[i - 1].text) !=
              std::string::npos;
      if (!next_eq && !prev_op) {
        eq = i;
        break;
      }
      if (next_eq) ++i;  // skip ==
    }
  }
  if (eq == e) return;

  const EvalResult rhs = eval_expr(ctx, env, eq + 1, e);

  // Locate the assignment target in [b, eq).
  bool has_bracket = false;
  std::size_t last_ident = e, first_ident = e;
  for (std::size_t i = b; i < eq; ++i) {
    if (is_punct(toks[i], "[")) has_bracket = true;
    if (toks[i].kind == TokKind::kIdent) {
      if (first_ident == e) first_ident = i;
      last_ident = i;
    }
  }
  if (last_ident == e) return;

  const bool member_access =
      last_ident > b && (is_punct(toks[last_ident - 1], ".") ||
                         is_punct(toks[last_ident - 1], "->"));
  if (!has_bracket && !member_access) {
    // Strong update of a plain variable (declaration or reassignment).
    const std::string& var = toks[last_ident].text;
    if (rhs.taint.any()) {
      env.vars[var] = rhs.taint;
    } else {
      env.vars.erase(var);
    }
    // Reference declarations bound to member state alias it: mutations
    // through the reference are member mutations. Iterators obtained from
    // member containers alias the same way even without `&`.
    bool lhs_has_amp = false;
    for (std::size_t i = b; i < eq; ++i) {
      if (is_punct(toks[i], "&")) lhs_has_amp = true;
    }
    bool rhs_touches_member = false;
    for (std::size_t i = eq + 1; i < e; ++i) {
      if (toks[i].kind == TokKind::kIdent &&
          aliases_member(env, toks[i].text)) {
        rhs_touches_member = true;
        break;
      }
    }
    bool rhs_is_member_iter = false;
    for (std::size_t i = eq + 1; i + 2 < e; ++i) {
      if (toks[i].kind == TokKind::kIdent &&
          (is_punct(toks[i + 1], ".") || is_punct(toks[i + 1], "->")) &&
          toks[i + 2].kind == TokKind::kIdent &&
          (toks[i + 2].text == "find" || toks[i + 2].text == "begin" ||
           toks[i + 2].text == "end" || toks[i + 2].text == "lower_bound")) {
        // Only containers that are themselves member state count — the
        // chain base decides (`sessions_.find(x)` yes, `d.attrs_.begin()`
        // on a local `d` no).
        const std::size_t base = chain_base(toks, i + 1, eq + 1);
        if (base != std::string::npos &&
            aliases_member(env, toks[base].text)) {
          rhs_is_member_iter = true;
          break;
        }
      }
    }
    // Record the mutation BEFORE registering new aliases: binding a
    // reference/iterator to member state is not itself a mutation; only
    // assigning through an alias established earlier is.
    if (aliases_member(env, var)) {
      record_event(ctx, false, var, toks[last_ident].line);
    }
    if ((lhs_has_amp && rhs_touches_member) || rhs_is_member_iter) {
      env.member_refs.insert(var);
    }
    return;
  }

  // Member/array store: weak update of the base identifier.
  const std::size_t base = chain_base(toks, eq, b);
  const std::size_t base_at = base != std::string::npos ? base : first_ident;
  const std::string& base_name = toks[base_at].text;
  if (rhs.taint.any()) env.vars[base_name].join(rhs.taint);
  if (aliases_member(env, base_name)) {
    record_event(ctx, false, base_name, toks[base_at].line);
  }
}

inline void walk_plain(FnCtx& ctx, Env& env, const Stmt& s) {
  const auto& toks = *ctx.toks;
  // PDS_ENSURE(...) validates its arguments (and aborts on failure — it is
  // not a throw point).
  for (std::size_t i = s.head_begin; i < s.head_end; ++i) {
    if (toks[i].kind == TokKind::kIdent && is_ensure_macro(toks[i].text) &&
        i + 1 < s.head_end && is_punct(toks[i + 1], "(")) {
      const std::size_t close = match_balanced(toks, i + 1, s.head_end);
      sanitize_range(ctx, env, i + 2, close);
    }
  }
  scan_throw_points(ctx, s.head_begin, s.head_end);
  scan_sinks(ctx, env, s.head_begin, s.head_end);
  scan_mutations(ctx, env, s.head_begin, s.head_end);
  handle_assignment(ctx, env, s.head_begin, s.head_end);
}

inline void walk_stmt(FnCtx& ctx, Env& env, const Stmt& s) {
  const auto& toks = *ctx.toks;
  switch (s.kind) {
    case Stmt::Kind::kPlain:
      walk_plain(ctx, env, s);
      break;
    case Stmt::Kind::kBlock:
      walk_stmts(ctx, env, s.body);
      break;
    case Stmt::Kind::kIf: {
      scan_throw_points(ctx, s.head_begin, s.head_end);
      scan_sinks(ctx, env, s.head_begin, s.head_end);
      // Comparing a tainted variable in an if-condition sanitizes it — the
      // idiom `if (n > cap) throw ...;` as well as `if (n <= cap) use(n);`.
      if (range_has_comparison(toks, s.head_begin, s.head_end)) {
        sanitize_range(ctx, env, s.head_begin, s.head_end);
      }
      Env then_env = env;
      walk_stmts(ctx, then_env, s.body);
      Env else_env = env;
      walk_stmts(ctx, else_env, s.else_body);
      env = then_env;
      env.join(else_env);
      break;
    }
    case Stmt::Kind::kLoop: {
      scan_throw_points(ctx, s.head_begin, s.head_end);
      scan_sinks(ctx, env, s.head_begin, s.head_end);
      // A loop bound is a sink, not a sanitizer: iteration count driven by
      // an unchecked wire value is the allocation/CPU bomb itself.
      const EvalResult cond =
          eval_expr(ctx, env, s.head_begin, s.head_end);
      if (cond.taint.src) {
        const int line = s.head_begin < toks.size()
                             ? toks[s.head_begin > 0 ? s.head_begin - 1 : 0]
                                   .line
                             : ctx.fn->line;
        add_flow_finding(
            ctx, "wire-taint", line,
            "wire-tainted value '" + cond.who + "' bounds a loop in '" +
                ctx.fn->display +
                "' without validation — an attacker-controlled count drives "
                "iteration and allocation");
        // Avoid cascading findings from the same unchecked bound.
        sanitize_range(ctx, env, s.head_begin, s.head_end);
      }
      ctx.self.sink_params |= cond.taint.params;
      const int loop_id = ctx.next_loop_id++;
      ctx.loop_stack.push_back(loop_id);
      Env body_env = env;
      walk_stmts(ctx, body_env, s.body);
      ctx.loop_stack.pop_back();
      env.join(body_env);
      break;
    }
    case Stmt::Kind::kSwitch: {
      scan_throw_points(ctx, s.head_begin, s.head_end);
      scan_sinks(ctx, env, s.head_begin, s.head_end);
      walk_stmts(ctx, env, s.body);
      break;
    }
    case Stmt::Kind::kTry: {
      ++ctx.try_depth;  // caught exceptions are not atomicity hazards
      walk_stmts(ctx, env, s.body);
      --ctx.try_depth;
      walk_stmts(ctx, env, s.else_body);
      break;
    }
    case Stmt::Kind::kReturn: {
      scan_throw_points(ctx, s.head_begin, s.head_end);
      scan_sinks(ctx, env, s.head_begin, s.head_end);
      const EvalResult r = eval_expr(ctx, env, s.head_begin, s.head_end);
      ctx.self.returns.join(r.taint);
      break;
    }
    case Stmt::Kind::kThrow: {
      bool decode_error = false;
      for (std::size_t i = s.head_begin; i < s.head_end; ++i) {
        if (is_ident(toks[i], "DecodeError")) decode_error = true;
      }
      if (decode_error && ctx.try_depth == 0) {
        ctx.self.may_throw = true;
        record_event(ctx, true, std::string(),
                     s.head_begin < toks.size() ? toks[s.head_begin].line
                                                : ctx.fn->line);
      }
      break;
    }
    case Stmt::Kind::kJump:
      break;
  }
}

inline void walk_stmts(FnCtx& ctx, Env& env, const std::vector<Stmt>& stmts) {
  for (const Stmt& s : stmts) walk_stmt(ctx, env, s);
}

// ---------------------------------------------------------------------------
// Per-function analysis: one walk computes the summary; on the emitting
// pass it also produces wire-taint findings (during the walk) and
// decode-atomicity findings (from the event stream afterwards).

inline Summary analyze_function(const std::vector<Token>& toks,
                                const Function& fn, SummaryMap& summaries,
                                const std::string& file,
                                const Suppressions* sup,
                                std::vector<Finding>* out) {
  FnCtx ctx;
  ctx.toks = &toks;
  ctx.fn = &fn;
  ctx.summaries = &summaries;
  ctx.file = &file;
  ctx.sup = sup;
  ctx.out = out;

  Env env;
  for (std::size_t i = 0; i < fn.params.size() && i < 64; ++i) {
    if (fn.params[i].empty()) continue;
    Taint t;
    t.params = 1ULL << i;
    env.vars[fn.params[i]] = t;
  }
  walk_stmts(ctx, env, fn.stmts);

  // decode-atomicity: a member mutation is hazardous when a potential
  // DecodeError throw point follows it in statement order, or shares an
  // enclosing loop (the next iteration may throw after this one mutated).
  // Constructors are exempt: a throwing constructor discards the object.
  if (out != nullptr && !fn.is_ctor_or_dtor) {
    std::set<std::string> flagged;
    for (const Event& m : ctx.events) {
      if (m.is_throw || flagged.count(m.name) != 0) continue;
      bool hazard = false;
      for (const Event& t : ctx.events) {
        if (!t.is_throw) continue;
        if (t.order > m.order) {
          hazard = true;
          break;
        }
        for (int loop : t.loops) {
          if (std::find(m.loops.begin(), m.loops.end(), loop) !=
              m.loops.end()) {
            hazard = true;
            break;
          }
        }
        if (hazard) break;
      }
      if (hazard) {
        flagged.insert(m.name);
        add_flow_finding(
            ctx, "decode-atomicity", m.line,
            "member '" + m.name + "' is mutated in '" + fn.display +
                "' before a later potential DecodeError throw point — a "
                "malformed input leaves partial state; stage into locals "
                "and commit after the last throw (copy-then-swap)");
      }
    }
  }
  return ctx.self;
}

// ---------------------------------------------------------------------------
// Layering scan over the include directives of one lexed file.

inline void scan_layering(const ScannedFile& file, std::vector<Finding>& out) {
  const int from_rank = file_layer_rank(file.path);
  if (from_rank < 0) return;
  const std::vector<Token>& toks = file.lexed.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_punct(toks[i], "#") || !is_ident(toks[i + 1], "include") ||
        toks[i + 2].kind != TokKind::kString) {
      continue;
    }
    const std::string& quoted = toks[i + 2].text;
    if (quoted.size() < 2) continue;
    const std::string inc = quoted.substr(1, quoted.size() - 2);
    const int to_rank = layer_rank(first_path_component(inc));
    if (to_rank < 0 || to_rank <= from_rank) continue;
    lint::add_finding(out, file.sup, file.path, "layering", toks[i].line,
                      "'" + file.path + "' (layer rank " +
                          std::to_string(from_rank) + ") includes '" + inc +
                          "' (rank " + std::to_string(to_rank) +
                          "): lower layers must not depend on higher ones");
  }
}

inline bool in_flow_scope(const std::string& path) {
  return path.rfind("src/", 0) == 0;
}

}  // namespace flow_detail

// ---------------------------------------------------------------------------
// The flow rules over `files`: layering over every file, wire-taint and
// decode-atomicity over the src/ ones. Builds interprocedural summaries to a
// fixpoint (three joins — enough for the call-depths in this tree), then
// emits findings. Deterministic: files are processed in the given order.

inline void check_flow(const std::vector<ScannedFile>& files,
                       std::vector<Finding>& out) {
  using namespace flow_detail;
  std::vector<std::vector<Function>> fns(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (in_flow_scope(files[i].path)) {
      fns[i] = collect_functions(files[i].lexed.tokens);
    }
  }

  // Summary fixpoint: joins are monotone, so a few rounds suffice for the
  // transitive call chains in this tree.
  SummaryMap summaries;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < files.size(); ++i) {
      for (const Function& fn : fns[i]) {
        const Summary s = analyze_function(files[i].lexed.tokens, fn,
                                           summaries, files[i].path, nullptr,
                                           nullptr);
        Summary& merged = summaries[fn.name];
        merged.returns.join(s.returns);
        merged.sink_params |= s.sink_params;
        merged.may_throw = merged.may_throw || s.may_throw;
      }
    }
  }

  // Emitting pass.
  for (std::size_t i = 0; i < files.size(); ++i) {
    scan_layering(files[i], out);
    for (const Function& fn : fns[i]) {
      analyze_function(files[i].lexed.tokens, fn, summaries, files[i].path,
                       &files[i].sup, &out);
    }
  }
}

}  // namespace pds::flow
