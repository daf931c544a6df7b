// Reader and validator for the NDJSON traces obs::Tracer emits: one flat
// JSON object per line with t, node, ph, sub, ev and an args object whose
// values are numbers, strings, booleans or null. Each line goes through the
// one JSON parser (report_reader.h::parse_json); check_trace validates the
// parsed events against the telemetry catalog. Used by every `pdscli trace`
// subcommand, the bench causal captures and the tests.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "tools/report_reader.h"
#include "tools/telemetry_schema.h"

namespace pds::tools {

struct ParsedEvent {
  std::int64_t t_us = 0;
  std::uint32_t node = 0;
  char ph = 'i';
  std::string sub;
  std::string ev;
  // Raw value text: the number token as written, strings unescaped ("3",
  // "1.5", "probability"), so u64 span ids re-parse exactly.
  std::vector<std::pair<std::string, std::string>> args;

  [[nodiscard]] const std::string* arg(const std::string& key) const {
    for (const auto& [k, v] : args) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] double num(const std::string& key, double dflt = 0.0) const {
    const std::string* v = arg(key);
    return v == nullptr ? dflt : std::atof(v->c_str());
  }
};

namespace trace_detail {

// An integer-valued number token that fits T exactly.
template <typename T>
bool integer_value(const JsonValue& v, T& out) {
  if (!v.is_number()) return false;
  const char* end = v.text.data() + v.text.size();
  const auto [ptr, ec] = std::from_chars(v.text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace trace_detail

// Parses one tracer NDJSON line; nullopt on malformed input.
inline std::optional<ParsedEvent> parse_trace_line(const std::string& line) {
  std::optional<JsonValue> root = parse_json(line);
  if (!root.has_value() || !root->is_object()) return std::nullopt;
  ParsedEvent event;
  for (auto& [key, value] : root->members) {
    if (key == "t") {
      if (!trace_detail::integer_value(value, event.t_us)) return std::nullopt;
    } else if (key == "node") {
      if (!trace_detail::integer_value(value, event.node)) return std::nullopt;
    } else if (key == "ph") {
      if (!value.is_string() || value.text.size() != 1) return std::nullopt;
      event.ph = value.text[0];
    } else if (key == "sub" || key == "ev") {
      if (!value.is_string()) return std::nullopt;
      (key == "sub" ? event.sub : event.ev) = std::move(value.text);
    } else if (key == "args") {
      if (!value.is_object()) return std::nullopt;
      for (auto& [arg_key, arg_value] : value.members) {
        if (arg_value.is_object() || arg_value.is_array()) return std::nullopt;
        event.args.emplace_back(std::move(arg_key), arg_value.display());
      }
    }  // Unknown top-level keys are ignored (forward compatibility).
  }
  if (event.sub.empty() || event.ev.empty()) return std::nullopt;
  return event;
}

// Reads a whole NDJSON stream, skipping blank lines. Stops at the first
// malformed line and reports its number (1-based) in `bad_line`, returning
// the events read before it; `bad_line` is 0 for a clean stream.
inline std::vector<ParsedEvent> read_trace(std::istream& is,
                                           std::size_t& bad_line) {
  std::vector<ParsedEvent> out;
  bad_line = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto event = parse_trace_line(line);
    if (!event.has_value()) {
      bad_line = line_no;
      break;
    }
    out.push_back(std::move(*event));
  }
  return out;
}

// One schema violation; `line` is the event's 1-based position in the
// capture, which is its NDJSON line number.
struct TraceViolation {
  std::size_t line = 0;
  std::string what;
};

struct TraceCheck {
  std::vector<TraceViolation> violations;
  // Spans still open at the end of the capture. A horizon can legitimately
  // cut a run mid-span, so these warn rather than fail.
  std::vector<std::string> warnings;
};

// Validates parsed events against kEventCatalog: a tracer drop trailer,
// negative or decreasing timestamps, phases other than B/E/i or not allowed
// for the event, unknown (sub, ev) pairs, missing required args, and span
// ends without a begin on the same (node, sub, ev).
inline TraceCheck check_trace(const std::vector<ParsedEvent>& events) {
  TraceCheck out;
  const auto report = [&out](std::size_t line, std::string what) {
    out.violations.push_back({line, std::move(what)});
  };
  std::int64_t prev_t = -1;
  // Open span count per (node, sub, ev).
  std::map<std::tuple<std::uint32_t, std::string, std::string>, long> open;
  for (std::size_t idx = 0; idx < events.size(); ++idx) {
    const ParsedEvent& event = events[idx];
    const std::size_t line = idx + 1;
    const std::string name = event.sub + "/" + event.ev;
    if (event.sub == "trace" && event.ev == "drops") {
      // Ring-overflow trailer: the tracer discarded events, so any analysis
      // of this capture is silently incomplete — that is always a failure.
      // The trailer carries t=0 / an invalid node, so it skips the ordering
      // checks below.
      const std::string* count = event.arg("count");
      report(line, "tracer dropped " + (count ? *count : std::string("?")) +
                       " event(s) (ring buffer overflow)");
      continue;
    }
    if (event.t_us < 0) report(line, "negative timestamp");
    if (event.t_us < prev_t) {
      report(line, "timestamp decreased (events must be emitted in "
                   "simulation order)");
    }
    prev_t = event.t_us;
    if (event.ph != 'B' && event.ph != 'E' && event.ph != 'i') {
      report(line, "bad phase '" + std::string(1, event.ph) + "'");
      continue;
    }
    const EventSchema* schema = nullptr;
    for (const EventSchema& s : kEventCatalog) {
      if (event.sub == s.sub && event.ev == s.ev) {
        schema = &s;
        break;
      }
    }
    if (schema == nullptr) {
      report(line, "unknown event " + name);
      continue;
    }
    if (std::strchr(schema->phases, event.ph) == nullptr) {
      report(line, "phase '" + std::string(1, event.ph) +
                       "' not allowed for " + name);
    }
    const auto& required =
        event.ph == 'E' ? schema->end_keys : schema->begin_keys;
    for (const char* key : required) {
      if (key != nullptr && event.arg(key) == nullptr) {
        report(line, name + " missing required arg \"" + key + "\"");
      }
    }
    if (event.ph == 'B') {
      ++open[{event.node, event.sub, event.ev}];
    } else if (event.ph == 'E') {
      long& count = open[{event.node, event.sub, event.ev}];
      if (count == 0) {
        report(line, "span end without matching begin for " + name);
      } else {
        --count;
      }
    }
  }
  for (const auto& [key, count] : open) {
    if (count == 0) continue;
    out.warnings.push_back(std::to_string(count) + " unclosed " +
                           std::get<1>(key) + "/" + std::get<2>(key) +
                           " span(s) at node " +
                           std::to_string(std::get<0>(key)));
  }
  return out;
}

}  // namespace pds::tools
