// Causal span-DAG reconstruction over tracer NDJSON (DESIGN.md §14).
//
// The protocol layer stamps every traced query/response with a TraceContext
// and emits `causal` events (root/round/tx/recv/deliver/suppress/overhear
// plus per-frame xmit records) into the tracer. This library stitches those
// per-node events back into one span DAG per trace, walks the parent chain
// from the terminal delivery to extract the critical path, and attributes
// per-item cost (bytes on air, airtime, retransmissions, overhear hits,
// duplicate suppressions). Header-only; consumed by
// `pdscli trace critpath`, the causal bench sections and the causal tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "obs/report.h"
#include "tools/trace_reader.h"

namespace pds::tools {

// Span ids are (node+1)<<40 | seq, which exceeds the 2^53 range doubles
// round-trip exactly for node ids above ~8k — so u64 args are re-parsed from
// the raw text instead of going through ParsedEvent::num().
inline std::uint64_t arg_u64(const ParsedEvent& e, const std::string& key) {
  const std::string* v = e.arg(key);
  return v == nullptr ? 0 : std::strtoull(v->c_str(), nullptr, 10);
}

struct CausalSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root (no parent edge)
  std::int64_t t_us = 0;
  std::uint32_t node = 0;
  std::string ev;      // root | round | tx | recv | deliver | suppress | overhear
  std::string detail;  // root kind / suppress reason, "" otherwise
  int hop = 0;
};

// One successful frame transmission attributed to a tx span. round > 0 marks
// a retransmission of the same packet.
struct XmitRecord {
  std::uint64_t span = 0;
  std::int64_t t_us = 0;
  std::uint32_t node = 0;
  int round = 0;
  std::uint64_t bytes = 0;
  std::int64_t airtime_us = 0;
};

struct CriticalEdge {
  std::uint64_t from = 0;  // parent span
  std::uint64_t to = 0;    // child span
  // air | retx | forward | deliver | inject | round_gap | other
  std::string cls;
  std::int64_t dt_us = 0;
};

struct TraceAnalysis {
  std::uint64_t trace_id = 0;
  std::string kind;  // root span kind ("pdd-metadata", "pdr", ...)
  std::map<std::uint64_t, CausalSpan> spans;
  std::vector<XmitRecord> xmits;

  // Spans whose parent id never appears in this trace — a stitching bug.
  std::vector<std::uint64_t> orphans;

  // Root → terminal deliver, in causal order; empty when no deliver event
  // was recorded (e.g. a flood that found no holder).
  std::vector<CriticalEdge> critical_path;
  std::int64_t cp_len_us = 0;  // terminal deliver t - path start t
  int cp_air_hops = 0;         // edges classified air/retx
  std::string dominant_edge;   // class of the longest edge ("" if no path)

  // Cost attribution over the whole trace.
  std::uint64_t bytes_on_air = 0;
  std::int64_t airtime_us = 0;
  int retx = 0;        // xmit records with round > 0
  int delivers = 0;
  int overhears = 0;   // overhearing-cache hits fed by this trace
  int suppressed = 0;  // duplicate-suppressed forwards
};

struct CausalReport {
  std::vector<TraceAnalysis> traces;  // sorted by trace_id
  std::uint64_t dropped_events = 0;   // from a trace/drops trailer

  std::size_t total_orphans = 0;
  std::size_t traces_with_path = 0;
  double cp_hops_p50 = 0.0;
  double cp_hops_p99 = 0.0;
  double cp_len_us_p50 = 0.0;
  double cp_len_us_p99 = 0.0;
  // class -> number of traces whose dominant (longest) edge has that class.
  std::map<std::string, int> dominant_edges;
};

namespace causal_detail {

// Nearest-rank percentile over a sorted sample vector.
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline std::string classify_edge(const CausalSpan& parent,
                                 const CausalSpan& child,
                                 const std::vector<XmitRecord>& xmits) {
  if (child.ev == "recv") {
    for (const XmitRecord& x : xmits) {
      if (x.span == child.parent && x.round > 0) return "retx";
    }
    return "air";
  }
  if (child.ev == "deliver") return "deliver";
  if (child.ev == "tx") {
    if (parent.ev == "recv") return "forward";
    if (parent.ev == "round") return "inject";
    return "other";
  }
  if (child.ev == "round") return "round_gap";
  return "other";
}

}  // namespace causal_detail

// Groups `causal` events by trace id and reconstructs each trace's span DAG,
// critical path and cost attribution. Non-causal events are ignored except
// a `trace/drops` trailer (written by ring-buffered tracers of older
// builds), which is surfaced so callers can refuse incomplete captures.
inline CausalReport analyze_causal(const std::vector<ParsedEvent>& events) {
  CausalReport report;
  std::map<std::uint64_t, TraceAnalysis> by_trace;

  for (const ParsedEvent& e : events) {
    if (e.sub == "trace" && e.ev == "drops") {
      report.dropped_events += arg_u64(e, "count");
      continue;
    }
    if (e.sub != "causal") continue;
    const std::uint64_t trace_id = arg_u64(e, "trace");
    if (trace_id == 0) continue;
    TraceAnalysis& ta = by_trace[trace_id];
    ta.trace_id = trace_id;

    if (e.ev == "xmit") {
      XmitRecord x;
      x.span = arg_u64(e, "span");
      x.t_us = e.t_us;
      x.node = e.node;
      x.round = static_cast<int>(e.num("round"));
      x.bytes = arg_u64(e, "bytes");
      x.airtime_us = static_cast<std::int64_t>(e.num("us"));
      ta.xmits.push_back(x);
      ta.bytes_on_air += x.bytes;
      ta.airtime_us += x.airtime_us;
      if (x.round > 0) ++ta.retx;
      continue;
    }

    CausalSpan span;
    span.id = arg_u64(e, "span");
    span.parent = arg_u64(e, "parent");
    span.t_us = e.t_us;
    span.node = e.node;
    span.ev = e.ev;
    span.hop = static_cast<int>(e.num("hop"));
    if (const std::string* kind = e.arg("kind")) span.detail = *kind;
    if (const std::string* reason = e.arg("reason")) span.detail = *reason;
    if (span.id == 0) continue;
    if (e.ev == "root" && ta.kind.empty()) ta.kind = span.detail;
    if (e.ev == "deliver") ++ta.delivers;
    if (e.ev == "overhear") ++ta.overhears;
    if (e.ev == "suppress") ++ta.suppressed;
    ta.spans.emplace(span.id, span);
  }

  std::vector<double> cp_hops;
  std::vector<double> cp_lens;
  for (auto& [trace_id, ta] : by_trace) {
    for (const auto& [id, span] : ta.spans) {
      if (span.parent != 0 && !ta.spans.contains(span.parent)) {
        ta.orphans.push_back(id);
      }
    }
    report.total_orphans += ta.orphans.size();

    // Terminal = the last deliver in the trace (ties -> largest span id, so
    // the pick is deterministic under identical timestamps).
    const CausalSpan* terminal = nullptr;
    for (const auto& [id, span] : ta.spans) {
      if (span.ev != "deliver") continue;
      if (terminal == nullptr || span.t_us > terminal->t_us ||
          (span.t_us == terminal->t_us && span.id > terminal->id)) {
        terminal = &span;
      }
    }
    if (terminal != nullptr) {
      // Walk the parent chain; the visited-set guards against a (buggy)
      // cyclic parent edge turning analysis into an infinite loop.
      std::vector<const CausalSpan*> chain{terminal};
      std::map<std::uint64_t, bool> visited{{terminal->id, true}};
      const CausalSpan* cur = terminal;
      while (cur->parent != 0) {
        const auto it = ta.spans.find(cur->parent);
        if (it == ta.spans.end() || visited[it->second.id]) break;
        cur = &it->second;
        visited[cur->id] = true;
        chain.push_back(cur);
      }
      std::reverse(chain.begin(), chain.end());
      for (std::size_t i = 1; i < chain.size(); ++i) {
        CriticalEdge edge;
        edge.from = chain[i - 1]->id;
        edge.to = chain[i]->id;
        edge.cls =
            causal_detail::classify_edge(*chain[i - 1], *chain[i], ta.xmits);
        edge.dt_us = chain[i]->t_us - chain[i - 1]->t_us;
        if (edge.cls == "air" || edge.cls == "retx") ++ta.cp_air_hops;
        ta.critical_path.push_back(edge);
      }
      if (!ta.critical_path.empty()) {
        ta.cp_len_us = terminal->t_us - chain.front()->t_us;
        const CriticalEdge* longest = &ta.critical_path.front();
        for (const CriticalEdge& e2 : ta.critical_path) {
          if (e2.dt_us > longest->dt_us) longest = &e2;
        }
        ta.dominant_edge = longest->cls;
        ++report.traces_with_path;
        ++report.dominant_edges[ta.dominant_edge];
        cp_hops.push_back(static_cast<double>(ta.cp_air_hops));
        cp_lens.push_back(static_cast<double>(ta.cp_len_us));
      }
    }
  }

  std::sort(cp_hops.begin(), cp_hops.end());
  std::sort(cp_lens.begin(), cp_lens.end());
  report.cp_hops_p50 = causal_detail::percentile(cp_hops, 50.0);
  report.cp_hops_p99 = causal_detail::percentile(cp_hops, 99.0);
  report.cp_len_us_p50 = causal_detail::percentile(cp_lens, 50.0);
  report.cp_len_us_p99 = causal_detail::percentile(cp_lens, 99.0);
  report.traces.reserve(by_trace.size());
  for (auto& [trace_id, ta] : by_trace) report.traces.push_back(std::move(ta));
  return report;
}

// Renders the report in the `pds-causal-report/1` schema (validated by
// `pdsreport validate`). `max_traces` caps the per-trace detail array; the
// summary always covers every trace.
inline std::string causal_report_json(const CausalReport& report,
                                      std::size_t max_traces = 64) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("pds-causal-report/1");
  w.key("summary").begin_object();
  w.key("traces").value(static_cast<std::uint64_t>(report.traces.size()));
  w.key("traces_with_path")
      .value(static_cast<std::uint64_t>(report.traces_with_path));
  w.key("orphans").value(static_cast<std::uint64_t>(report.total_orphans));
  w.key("dropped_events").value(report.dropped_events);
  w.key("cp_hops_p50").value(report.cp_hops_p50);
  w.key("cp_hops_p99").value(report.cp_hops_p99);
  w.key("cp_len_us_p50").value(report.cp_len_us_p50);
  w.key("cp_len_us_p99").value(report.cp_len_us_p99);
  w.key("dominant_edges").begin_object();
  for (const auto& [cls, count] : report.dominant_edges) {
    w.key(cls).value(static_cast<std::int64_t>(count));
  }
  w.end_object();
  w.end_object();
  w.key("traces").begin_array();
  std::size_t emitted = 0;
  for (const TraceAnalysis& ta : report.traces) {
    if (emitted++ >= max_traces) break;
    w.begin_object();
    w.key("trace_id").value(ta.trace_id);
    w.key("kind").value(ta.kind);
    w.key("spans").value(static_cast<std::uint64_t>(ta.spans.size()));
    w.key("orphans").value(static_cast<std::uint64_t>(ta.orphans.size()));
    w.key("cp_hops").value(static_cast<std::int64_t>(ta.cp_air_hops));
    w.key("cp_len_us").value(ta.cp_len_us);
    w.key("dominant_edge").value(ta.dominant_edge);
    w.key("bytes_on_air").value(ta.bytes_on_air);
    w.key("airtime_us").value(ta.airtime_us);
    w.key("retx").value(static_cast<std::int64_t>(ta.retx));
    w.key("delivers").value(static_cast<std::int64_t>(ta.delivers));
    w.key("overhears").value(static_cast<std::int64_t>(ta.overhears));
    w.key("suppressed").value(static_cast<std::int64_t>(ta.suppressed));
    w.key("critical_path").begin_array();
    for (const CriticalEdge& edge : ta.critical_path) {
      w.begin_object();
      w.key("from").value(edge.from);
      w.key("to").value(edge.to);
      w.key("class").value(edge.cls);
      w.key("dt_us").value(edge.dt_us);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace pds::tools
