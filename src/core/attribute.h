// Attributes: the typed name/value pairs data descriptors are made of
// (paper §II-B). Values are one of the primitive types the paper lists —
// integers (also used for Unix times), floats (e.g., GPS coordinates) and
// strings (names, types, namespaces).
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <variant>

#include "common/bytes.h"

namespace pds::core {

using AttrValue = std::variant<std::int64_t, double, std::string>;

struct Attribute {
  std::string name;
  AttrValue value;

  friend bool operator==(const Attribute&, const Attribute&) = default;
};

// Total order over values of the same alternative; numeric alternatives
// (int64/double) compare with each other numerically so a query written with
// an integer literal matches a float attribute. Strings are ordered
// lexicographically and never compare equal/less against numbers.
//
// Returns std::partial_ordering::unordered for string-vs-number.
[[nodiscard]] std::partial_ordering compare_values(const AttrValue& a,
                                                   const AttrValue& b);

// Wire type tag of a value: its alternative index in AttrValue.
enum class ValueTag : std::uint8_t { kInt = 0, kDouble = 1, kString = 2 };

// Canonical encoding (type tag + value, little endian); identical values
// encode identically, which descriptor hashing depends on. Written once for
// any sink with ByteWriter's put_* interface: ByteWriter builds the bytes,
// ByteCounter sizes them, and descriptor identity streams them through a
// hash (core/descriptor.cc).
template <typename Sink>
void write_value(Sink& w, const AttrValue& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    w.put_u8(static_cast<std::uint8_t>(ValueTag::kInt));
    w.put_i64(*i);
  } else if (const auto* d = std::get_if<double>(&v)) {
    w.put_u8(static_cast<std::uint8_t>(ValueTag::kDouble));
    w.put_f64(*d);
  } else {
    w.put_u8(static_cast<std::uint8_t>(ValueTag::kString));
    w.put_string(std::get<std::string>(v));
  }
}

template <typename Sink>
void write_attribute(Sink& w, const Attribute& a) {
  w.put_string(a.name);
  write_value(w, a.value);
}

void encode_value(ByteWriter& w, const AttrValue& v);
[[nodiscard]] AttrValue decode_value(ByteReader& r);

void encode_attribute(ByteWriter& w, const Attribute& a);
[[nodiscard]] Attribute decode_attribute(ByteReader& r);

}  // namespace pds::core
