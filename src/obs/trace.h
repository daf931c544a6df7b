// Sim-time structured event tracer (DESIGN.md §9).
//
// Protocol seams emit typed events keyed by (sim_time, node, subsystem,
// event) into an in-memory log; a trace can be rendered as NDJSON (one JSON
// object per line — grep/jq-friendly, byte-deterministic for a given seed) or
// as Chrome `trace_event` JSON for chrome://tracing / Perfetto.
//
// A tracer is either attached to a run or absent; there is no third state.
// Cost model:
//  * detached — the simulator's tracer pointer is null, so each PDS_TRACE_*
//    site is one pointer load, one test and one branch; argument expressions
//    are never evaluated (they live inside the branch).
//    bench/micro_primitives --trace-overhead-gate verifies this costs <1% of
//    a PDD run;
//  * attached — every event is kept: a bounded copy into a `std::deque`
//    (no allocation per event beyond deque chunking, no I/O); rendering
//    happens after the run. Memory grows with the event count until
//    `clear()`.
//
// Emission never draws randomness and never schedules events, so a traced
// run is bit-identical (outcomes AND trace bytes) to an untraced one — the
// property tests/trace_determinism_test.cc locks in.
//
// All subsystem/event/arg-key strings must be string literals (the event
// stores the pointers). The event catalog lives in tools/telemetry_schema.h;
// pdslint's `trace-schema` rule checks emission sites against it and
// `pdscli trace check` checks captured traces.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <ostream>
#include <string>

#include "common/sim_time.h"
#include "common/types.h"

namespace pds::obs {

// One typed key/value payload field. Only static strings are storable — the
// payload must stay POD-ish so appending an event never allocates for it.
struct Arg {
  enum class Kind : std::uint8_t { kNone, kInt, kUint, kDouble, kStr };

  const char* key = nullptr;
  Kind kind = Kind::kNone;
  union {
    std::int64_t i;
    std::uint64_t u;
    double d;
    const char* s;
  };

  constexpr Arg() : i(0) {}
  constexpr Arg(const char* k, std::int64_t v)
      : key(k), kind(Kind::kInt), i(v) {}
  constexpr Arg(const char* k, int v)
      : Arg(k, static_cast<std::int64_t>(v)) {}
  constexpr Arg(const char* k, std::uint64_t v)
      : key(k), kind(Kind::kUint), u(v) {}
  constexpr Arg(const char* k, std::uint32_t v)
      : Arg(k, static_cast<std::uint64_t>(v)) {}
  constexpr Arg(const char* k, double v)
      : key(k), kind(Kind::kDouble), d(v) {}
  constexpr Arg(const char* k, const char* v)
      : key(k), kind(Kind::kStr), s(v) {}
  Arg(const char* k, NodeId v) : Arg(k, static_cast<std::uint64_t>(v.value())) {}
};

// Span begin / span end / instant, mirroring Chrome trace_event phases.
enum class Phase : char { kBegin = 'B', kEnd = 'E', kInstant = 'i' };

struct TraceEvent {
  static constexpr std::size_t kMaxArgs = 6;

  std::int64_t t_us = 0;
  std::uint32_t node = NodeId::invalid().value();
  Phase phase = Phase::kInstant;
  const char* subsystem = "";
  const char* name = "";
  std::array<Arg, kMaxArgs> args;
  std::uint8_t arg_count = 0;
};

class Tracer {
 public:
  Tracer() = default;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void emit(Phase phase, SimTime t, NodeId node, const char* subsystem,
            const char* name, std::initializer_list<Arg> args);

  void instant(SimTime t, NodeId node, const char* subsystem, const char* name,
               std::initializer_list<Arg> args = {}) {
    emit(Phase::kInstant, t, node, subsystem, name, args);
  }
  void begin(SimTime t, NodeId node, const char* subsystem, const char* name,
             std::initializer_list<Arg> args = {}) {
    emit(Phase::kBegin, t, node, subsystem, name, args);
  }
  void end(SimTime t, NodeId node, const char* subsystem, const char* name,
           std::initializer_list<Arg> args = {}) {
    emit(Phase::kEnd, t, node, subsystem, name, args);
  }

  [[nodiscard]] const std::deque<TraceEvent>& events() const {
    return events_;
  }
  void clear() { events_.clear(); }

  // One JSON object per line, field order fixed — byte-deterministic.
  void write_ndjson(std::ostream& os) const;
  [[nodiscard]] std::string ndjson() const;
  // Chrome trace_event JSON array ({"traceEvents": [...]}); node maps to tid.
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::deque<TraceEvent> events_;
};

}  // namespace pds::obs

// Emission macros: `tracer` is a possibly-null pds::obs::Tracer*. Payload
// argument expressions are only evaluated when a tracer is attached.
#define PDS_TRACE_EMIT(tracer, phase, t, node, subsystem, name, ...)   \
  do {                                                                 \
    ::pds::obs::Tracer* pds_trace_tr = (tracer);                       \
    if (pds_trace_tr != nullptr) {                                     \
      pds_trace_tr->emit((phase), (t), (node), (subsystem), (name),    \
                         {__VA_ARGS__});                               \
    }                                                                  \
  } while (false)

#define PDS_TRACE_INSTANT(tracer, t, node, subsystem, name, ...)          \
  PDS_TRACE_EMIT(tracer, ::pds::obs::Phase::kInstant, t, node, subsystem, \
                 name, __VA_ARGS__)
#define PDS_TRACE_BEGIN(tracer, t, node, subsystem, name, ...)          \
  PDS_TRACE_EMIT(tracer, ::pds::obs::Phase::kBegin, t, node, subsystem, \
                 name, __VA_ARGS__)
#define PDS_TRACE_END(tracer, t, node, subsystem, name, ...)          \
  PDS_TRACE_EMIT(tracer, ::pds::obs::Phase::kEnd, t, node, subsystem, \
                 name, __VA_ARGS__)
