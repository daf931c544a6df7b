#include "obs/trace.h"

#include <sstream>

#include "obs/report.h"

namespace pds::obs {
namespace {

// Values go through the shared JSON helpers in obs/report.h: doubles in
// shortest round-trip form, so NDJSON is byte-deterministic across runs and
// build hosts, and strings escaped, so output is always valid JSON even
// though every subsystem/event/key is a literal we control.
void append_arg_value(std::string& out, const Arg& arg) {
  switch (arg.kind) {
    case Arg::Kind::kInt:
      out += std::to_string(arg.i);
      break;
    case Arg::Kind::kUint:
      out += std::to_string(arg.u);
      break;
    case Arg::Kind::kDouble:
      append_json_double(out, arg.d);
      break;
    case Arg::Kind::kStr:
      append_json_string(out, arg.s);
      break;
    case Arg::Kind::kNone:
      out += "null";
      break;
  }
}

void append_args_object(std::string& out, const TraceEvent& event) {
  out += '{';
  for (std::uint8_t i = 0; i < event.arg_count; ++i) {
    if (i > 0) out += ',';
    append_json_string(out, event.args[i].key);
    out += ':';
    append_arg_value(out, event.args[i]);
  }
  out += '}';
}

void append_ndjson_line(std::string& out, const TraceEvent& event) {
  out += "{\"t\":";
  out += std::to_string(event.t_us);
  out += ",\"node\":";
  out += std::to_string(event.node);
  out += ",\"ph\":\"";
  out += static_cast<char>(event.phase);
  out += "\",\"sub\":";
  append_json_string(out, event.subsystem);
  out += ",\"ev\":";
  append_json_string(out, event.name);
  out += ",\"args\":";
  append_args_object(out, event);
  out += "}\n";
}

}  // namespace

void Tracer::emit(Phase phase, SimTime t, NodeId node, const char* subsystem,
                  const char* name, std::initializer_list<Arg> args) {
  TraceEvent& event = events_.emplace_back();
  event.t_us = t.as_micros();
  event.node = node.value();
  event.phase = phase;
  event.subsystem = subsystem;
  event.name = name;
  for (const Arg& arg : args) {
    if (event.arg_count == TraceEvent::kMaxArgs) break;
    event.args[event.arg_count++] = arg;
  }
}

void Tracer::write_ndjson(std::ostream& os) const {
  std::string line;
  for (const TraceEvent& event : events_) {
    line.clear();
    append_ndjson_line(line, event);
    os << line;
  }
}

std::string Tracer::ndjson() const {
  std::ostringstream os;
  write_ndjson(os);
  return os.str();
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  std::string line;
  bool first = true;
  for (const TraceEvent& event : events_) {
    line.assign(first ? "\n{\"name\":" : ",\n{\"name\":");
    first = false;
    append_json_string(line, event.name);
    line += ",\"cat\":";
    append_json_string(line, event.subsystem);
    line += ",\"ph\":\"";
    line += static_cast<char>(event.phase);
    line += "\",\"ts\":";
    line += std::to_string(event.t_us);
    line += ",\"pid\":0,\"tid\":";
    line += std::to_string(event.node);
    // Chrome renders instants with a scope field; 't' = thread-scoped.
    if (event.phase == Phase::kInstant) line += ",\"s\":\"t\"";
    line += ",\"args\":";
    append_args_object(line, event);
    line += '}';
    os << line;
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace pds::obs
