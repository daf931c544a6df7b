// Minimal recursive-descent JSON reader: the one parser behind every tool
// that reads JSON — the documents obs::Report emits (BENCH_<experiment>.json,
// schema pds-bench-report/1) and each NDJSON line of a trace
// (trace_reader.h) or flight-recorder series (stats_analysis.h). It parses a
// full value tree; object member order is preserved, since pdsreport
// re-renders tables in emission order. Numbers follow the RFC 8259
// grammar and keep their raw token; \u escapes (surrogate pairs included)
// decode to UTF-8, and raw UTF-8 passes through.
#pragma once

#include <charconv>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pds::tools {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  // string contents, or the raw number token
  std::vector<JsonValue> items;                            // array
  std::vector<std::pair<std::string, JsonValue>> members;  // object

  [[nodiscard]] bool is_object() const { return type == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type == Type::kArray; }
  [[nodiscard]] bool is_string() const { return type == Type::kString; }
  [[nodiscard]] bool is_number() const { return type == Type::kNumber; }

  // Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  // Renders the value the way a table cell would show it: strings verbatim,
  // numbers as their raw token, booleans as true/false.
  [[nodiscard]] std::string display() const {
    switch (type) {
      case Type::kString:
        return text;
      case Type::kNumber:
        return text;
      case Type::kBool:
        return boolean ? "true" : "false";
      default:
        return "null";
    }
  }
};

namespace report_detail {

inline constexpr int kMaxDepth = 32;

inline void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                          s[i] == '\r')) {
    ++i;
  }
}

inline bool fail(std::string* error, const std::string& message) {
  if (error != nullptr && error->empty()) *error = message;
  return false;
}

// Reads the four hex digits of a \u escape starting at s[i].
inline bool parse_hex4(const std::string& s, std::size_t& i, unsigned& out) {
  if (i + 4 > s.size()) return false;
  const char* first = s.data() + i;
  const auto [ptr, ec] = std::from_chars(first, first + 4, out, 16);
  i += 4;
  return ec == std::errc{} && ptr == first + 4;
}

inline void append_utf8(std::string& out, unsigned cp) {
  static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  // The lead byte, then `tail` continuation bytes of 6 bits each.
  const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out.push_back(static_cast<char>(kLead[tail] | (cp >> (6 * tail))));
  for (int k = tail - 1; k >= 0; --k) {
    out.push_back(static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3F)));
  }
}

inline bool parse_string(const std::string& s, std::size_t& i,
                         std::string& out, std::string* error) {
  static constexpr std::string_view kEscapes = "\"\\/bfnrt";
  static constexpr std::string_view kUnescaped = "\"\\/\b\f\n\r\t";
  if (i >= s.size() || s[i] != '"') return fail(error, "expected string");
  ++i;
  while (i < s.size() && s[i] != '"') {
    const char c = s[i++];
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (i >= s.size()) return fail(error, "truncated escape");
    const char esc = s[i++];
    if (esc != 'u') {
      const std::size_t at = kEscapes.find(esc);
      if (at == std::string_view::npos) return fail(error, "invalid escape");
      out.push_back(kUnescaped[at]);
      continue;
    }
    unsigned cp = 0;
    if (!parse_hex4(s, i, cp)) {
      return fail(error, "\\u escape needs four hex digits");
    }
    // A code point above U+FFFF arrives as a high + low surrogate pair.
    if (cp >= 0xDC00 && cp <= 0xDFFF) return fail(error, "lone surrogate");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      unsigned low = 0;
      if (s.compare(i, 2, "\\u") != 0) return fail(error, "lone surrogate");
      i += 2;
      if (!parse_hex4(s, i, low) || low < 0xDC00 || low > 0xDFFF) {
        return fail(error, "lone surrogate");
      }
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    append_utf8(out, cp);
  }
  if (i >= s.size()) return fail(error, "unterminated string");
  ++i;  // closing quote
  return true;
}

bool parse_value(const std::string& s, std::size_t& i, JsonValue& out,
                 int depth, std::string* error);

inline bool parse_object(const std::string& s, std::size_t& i, JsonValue& out,
                         int depth, std::string* error) {
  out.type = JsonValue::Type::kObject;
  ++i;  // '{'
  skip_ws(s, i);
  if (i < s.size() && s[i] == '}') {
    ++i;
    return true;
  }
  while (true) {
    skip_ws(s, i);
    std::string key;
    if (!parse_string(s, i, key, error)) return false;
    skip_ws(s, i);
    if (i >= s.size() || s[i] != ':') return fail(error, "expected ':'");
    ++i;
    JsonValue value;
    if (!parse_value(s, i, value, depth + 1, error)) return false;
    out.members.emplace_back(std::move(key), std::move(value));
    skip_ws(s, i);
    if (i >= s.size()) return fail(error, "unterminated object");
    if (s[i] == ',') {
      ++i;
      continue;
    }
    if (s[i] == '}') {
      ++i;
      return true;
    }
    return fail(error, "expected ',' or '}'");
  }
}

inline bool parse_array(const std::string& s, std::size_t& i, JsonValue& out,
                        int depth, std::string* error) {
  out.type = JsonValue::Type::kArray;
  ++i;  // '['
  skip_ws(s, i);
  if (i < s.size() && s[i] == ']') {
    ++i;
    return true;
  }
  while (true) {
    JsonValue value;
    if (!parse_value(s, i, value, depth + 1, error)) return false;
    out.items.push_back(std::move(value));
    skip_ws(s, i);
    if (i >= s.size()) return fail(error, "unterminated array");
    if (s[i] == ',') {
      ++i;
      continue;
    }
    if (s[i] == ']') {
      ++i;
      return true;
    }
    return fail(error, "expected ',' or ']'");
  }
}

inline bool parse_value(const std::string& s, std::size_t& i, JsonValue& out,
                        int depth, std::string* error) {
  if (depth > kMaxDepth) return fail(error, "nesting too deep");
  skip_ws(s, i);
  if (i >= s.size()) return fail(error, "unexpected end of input");
  const char c = s[i];
  if (c == '{') return parse_object(s, i, out, depth, error);
  if (c == '[') return parse_array(s, i, out, depth, error);
  if (c == '"') {
    out.type = JsonValue::Type::kString;
    return parse_string(s, i, out.text, error);
  }
  if (s.compare(i, 4, "true") == 0) {
    out.type = JsonValue::Type::kBool;
    out.boolean = true;
    i += 4;
    return true;
  }
  if (s.compare(i, 5, "false") == 0) {
    out.type = JsonValue::Type::kBool;
    out.boolean = false;
    i += 5;
    return true;
  }
  if (s.compare(i, 4, "null") == 0) {
    out.type = JsonValue::Type::kNull;
    i += 4;
    return true;
  }
  // Number token, RFC 8259: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  const std::size_t start = i;
  const auto digits = [&s, &i] {
    const std::size_t from = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > from;
  };
  if (c == '-') ++i;
  if (i < s.size() && s[i] == '0') {
    ++i;
  } else if (!digits()) {
    return fail(error, i == start ? "unexpected character" : "bad number");
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (!digits()) return fail(error, "bad number");
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return fail(error, "bad number");
  }
  out.type = JsonValue::Type::kNumber;
  out.text = s.substr(start, i - start);
  out.number = std::atof(out.text.c_str());
  return true;
}

}  // namespace report_detail

// Parses a full JSON document; nullopt (with `error` set, if given) on
// malformed input or trailing garbage.
inline std::optional<JsonValue> parse_json(const std::string& text,
                                           std::string* error = nullptr) {
  JsonValue root;
  std::size_t i = 0;
  if (!report_detail::parse_value(text, i, root, 0, error)) {
    return std::nullopt;
  }
  report_detail::skip_ws(text, i);
  if (i != text.size()) {
    report_detail::fail(error, "trailing characters after document");
    return std::nullopt;
  }
  return root;
}

}  // namespace pds::tools
