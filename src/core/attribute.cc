#include "core/attribute.h"

#include "common/assert.h"

namespace pds::core {

namespace {

[[nodiscard]] bool is_numeric(const AttrValue& v) {
  return !std::holds_alternative<std::string>(v);
}

[[nodiscard]] double as_double(const AttrValue& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  return std::get<double>(v);
}

}  // namespace

std::partial_ordering compare_values(const AttrValue& a, const AttrValue& b) {
  if (is_numeric(a) && is_numeric(b)) {
    // Compare exactly when both are integers to avoid double rounding.
    if (std::holds_alternative<std::int64_t>(a) &&
        std::holds_alternative<std::int64_t>(b)) {
      return std::get<std::int64_t>(a) <=> std::get<std::int64_t>(b);
    }
    return std::partial_ordering(as_double(a) <=> as_double(b));
  }
  if (std::holds_alternative<std::string>(a) &&
      std::holds_alternative<std::string>(b)) {
    return std::partial_ordering(std::get<std::string>(a) <=>
                                 std::get<std::string>(b));
  }
  return std::partial_ordering::unordered;
}

void encode_value(ByteWriter& w, const AttrValue& v) { write_value(w, v); }

AttrValue decode_value(ByteReader& r) {
  switch (static_cast<ValueTag>(r.get_u8())) {
    case ValueTag::kInt:
      return AttrValue(r.get_i64());
    case ValueTag::kDouble:
      return AttrValue(r.get_f64());
    case ValueTag::kString:
      return AttrValue(r.get_string());
  }
  throw DecodeError("unknown attribute value tag");
}

void encode_attribute(ByteWriter& w, const Attribute& a) {
  write_attribute(w, a);
}

Attribute decode_attribute(ByteReader& r) {
  Attribute a;
  a.name = r.get_string();
  a.value = decode_value(r);
  return a;
}

}  // namespace pds::core
