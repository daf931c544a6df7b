// Telemetry name catalog (DESIGN.md §9, §14, §15): every trace event, every
// flight-recorder series column and every profiler scope the instrumented
// code may emit, in one place.
//
// Trace events: `pdscli trace check` validates NDJSON traces against
// kEventCatalog (phases, required args), and pdslint's `trace-schema` rule
// requires every literal PDS_TRACE_* (sub, ev) to be registered. Keep it in
// sync with the PDS_TRACE_* sites in src/sim, src/net and src/core.
//
// Series and scopes: pdslint's `stats-schema` rule requires every literal
// PDS_TS_COLUMN name and PDS_PROF_SCOPE name to be registered, and
// timeseries_test checks that the scenario collector registers exactly
// kSeriesCatalog. Keep it in sync with the collector in
// src/workload/scenario.cc and the PDS_PROF_SCOPE sites in src/sim and
// src/core.
#pragma once

#include <array>

namespace pds::tools {

// -- Trace events -------------------------------------------------------------

struct EventSchema {
  const char* sub;     // subsystem ("pdd", "lq", ...)
  const char* ev;      // event name
  const char* phases;  // allowed phase characters, e.g. "i" or "BE"
  // Required arg keys for phase B/i (begin_keys) and E (end_keys); extra
  // keys beyond the required set are allowed (e.g. flood/suppress "copies").
  std::array<const char*, 4> begin_keys;
  std::array<const char*, 4> end_keys;
};

// Shorthand: nullptr-padded key lists.
inline constexpr std::array<const char*, 4> keys(const char* a = nullptr,
                                                 const char* b = nullptr,
                                                 const char* c = nullptr,
                                                 const char* d = nullptr) {
  return {a, b, c, d};
}

inline constexpr std::array<EventSchema, 51> kEventCatalog = {{
    // -- PDD discovery round lifecycle (§IV-B) -------------------------------
    {"pdd", "round", "BE", keys("round", "arrivals"),
     keys("round", "new", "total", "responses")},
    {"pdd", "round_backoff", "i", keys("round", "delay_us"), keys()},
    {"pdd", "session_done", "i", keys("rounds", "total"), keys()},
    {"pdd", "serve", "i", keys("query", "entries"), keys()},
    {"pdd", "deliver_local", "i", keys("query", "entries"), keys()},
    {"pdd", "mixedcast", "i", keys("receivers", "union"), keys()},
    // -- Lingering query table (§IV-C) ---------------------------------------
    {"lq", "query_install", "i", keys("query", "upstream", "ttl"), keys()},
    {"lq", "query_duplicate", "i", keys("query"), keys()},
    {"lq", "query_forward", "i", keys("query", "ttl"), keys()},
    {"lq", "rewrite", "i", keys("query", "keys_added"), keys()},
    {"lq", "expired", "i", keys("count"), keys()},
    // -- Counter-based flooding (§IV-A) --------------------------------------
    {"flood", "forward", "i", keys("query", "copies"), keys()},
    {"flood", "suppress", "i", keys("query", "reason"), keys()},
    // -- PDR retrieval: CDI phase + chunk assignment (§V) --------------------
    {"pdr", "cdi_round", "i", keys("round"), keys()},
    {"pdr", "cdi_done", "i", keys("rounds", "missing"), keys()},
    {"pdr", "plan", "i", keys("missing", "neighbors", "unroutable"), keys()},
    {"pdr", "assign", "i", keys("neighbor", "chunks"), keys()},
    {"pdr", "chunk_arrival", "i", keys("chunk", "have", "total"), keys()},
    {"pdr", "session_done", "i", keys("complete", "chunks", "total"), keys()},
    // -- MDR baseline (§VI-B.3) ----------------------------------------------
    {"mdr", "round", "i", keys("round", "missing"), keys()},
    // -- Per-hop transport (§V.2/V.4) ----------------------------------------
    {"transport", "fragments", "i", keys("count", "bytes"), keys()},
    {"transport", "retransmit", "i", keys("round", "awaiting"), keys()},
    {"transport", "give_up", "i", keys("round", "awaiting"), keys()},
    {"transport", "drop_overflow", "i", keys("bytes"), keys()},
    // -- Radio medium --------------------------------------------------------
    {"radio", "tx", "i", keys("bytes", "control"), keys()},
    {"radio", "defer", "i", keys("wait_us"), keys()},
    {"radio", "collision", "i", keys("bytes"), keys()},
    {"radio", "os_drop", "i", keys("bytes"), keys()},
    // -- Fault injection & graceful degradation (DESIGN.md §11) --------------
    {"fault", "crash", "i", keys("wipe"), keys()},
    {"fault", "restart", "i", keys(), keys()},
    {"fault", "link_degrade", "i", keys("peer", "loss_pct"), keys()},
    {"fault", "link_restore", "i", keys("peer"), keys()},
    {"fault", "partition", "i", keys("pairs"), keys()},
    {"fault", "heal", "i", keys("pairs"), keys()},
    {"fault", "burst_on", "i", keys("loss_bad_pct"), keys()},
    {"fault", "burst_off", "i", keys(), keys()},
    {"fault", "storm", "i", keys("frames", "bytes"), keys()},
    {"fault", "peer_unreachable", "i", keys("peer"), keys()},
    {"fault", "pdd_purge", "i", keys("upstream", "queries"), keys()},
    {"fault", "pdr_purge", "i", keys("upstream", "queries", "cdi"), keys()},
    {"fault", "redispatch", "i", keys("peer", "missing"), keys()},
    // -- Causal cross-node spans (DESIGN.md §14) -----------------------------
    // Span ids are (node+1)<<40 | per-node sequence; "parent" links the event
    // to the span that caused it, letting tools/trace_causal stitch per-node
    // rings into one DAG. "trace" is the owning consumer session's first
    // query id.
    {"causal", "root", "i", keys("trace", "span", "kind"), keys()},
    {"causal", "round", "i", keys("trace", "span", "parent", "round"), keys()},
    {"causal", "tx", "i", keys("trace", "span", "parent", "hop"), keys()},
    {"causal", "recv", "i", keys("trace", "span", "parent", "hop"), keys()},
    {"causal", "deliver", "i", keys("trace", "span", "parent"), keys()},
    {"causal", "suppress", "i", keys("trace", "span", "parent", "reason"),
     keys()},
    {"causal", "overhear", "i", keys("trace", "span", "parent"), keys()},
    // One per on-air frame carrying a traced message; "span" names the tx
    // span whose payload went out, so >1 xmit per span = retransmissions.
    // Extra keys: "us" (airtime), "node" is the transmitting hop.
    {"causal", "xmit", "i", keys("trace", "span", "round", "bytes"), keys()},
    // -- Truncated captures ---------------------------------------------------
    // Trailer that ring-buffered tracers of older builds appended when they
    // evicted events. Today's tracer keeps every event and never writes it,
    // but a capture read from disk may carry one; analyzers treat its
    // presence as truncation.
    {"trace", "drops", "i", keys("count"), keys()},
    // -- Microbenchmark-only events ------------------------------------------
    // bench/micro_primitives measures the PDS_TRACE_* macro overhead with a
    // synthetic event; registered so the trace-schema lint covers it.
    {"bench", "tick", "i", keys("i"), keys()},
}};

// -- Flight-recorder series and profiler scopes ------------------------------

struct SeriesSchema {
  const char* name;  // column name, "subsystem.metric"
  const char* kind;  // "sim" (deterministic) or "wall" (thread/host facts)
  const char* unit;  // human unit for pdscli stats rendering
};

inline constexpr std::array<SeriesSchema, 22> kSeriesCatalog = {{
    // -- Scheduler / event queue (sim/event_queue.h) -------------------------
    {"sched.queue_len", "sim", "events"},
    {"sched.ring_live", "sim", "events"},
    {"sched.overflow_depth", "sim", "events"},
    {"sched.slot_pool", "sim", "slots"},
    {"sim.events", "sim", "events"},
    // -- Radio medium (sim/radio.h) ------------------------------------------
    {"radio.active_tx", "sim", "nodes"},
    {"radio.tx_cells", "sim", "cells"},
    {"radio.max_cell_tx", "sim", "nodes"},
    {"radio.air_us", "sim", "us"},
    {"radio.bytes", "sim", "bytes"},
    {"radio.os_backlog_bytes", "sim", "bytes"},
    // -- Transport (net/transport.h), summed over nodes ----------------------
    {"transport.inflight", "sim", "packets"},
    {"transport.send_queue", "sim", "packets"},
    {"transport.pending", "sim", "packets"},
    {"transport.reassembly", "sim", "messages"},
    {"transport.bucket_backlog_us_max", "sim", "us"},
    // -- Per-node protocol state, summed / maxed over nodes ------------------
    {"store.metadata", "sim", "entries"},
    {"store.items", "sim", "items"},
    {"store.chunk_bytes", "sim", "bytes"},
    {"lqt.entries", "sim", "queries"},
    {"lqt.bloom_fill_max", "sim", "ratio"},
    // -- Host probes ---------------------------------------------------------
    {"rss.peak_mb", "wall", "MB"},
}};

// Allowed PDS_PROF_SCOPE subsystem names (hierarchy is runtime nesting; the
// catalog registers names, not paths).
inline constexpr std::array<const char*, 7> kProfileScopeCatalog = {
    "sim",  "radio", "scheduler", "pdd", "pdr", "transport",
    "classify-shards",
};

}  // namespace pds::tools
