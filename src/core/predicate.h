// Query predicates and filters (paper §II-C).
//
// A query carries a collection of predicates, each constraining one attribute
// with a relation to a value or value range; a filter is their conjunction.
// An empty filter matches everything (the "give me all metadata" query of
// basic PDD).
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/attribute.h"
#include "core/descriptor.h"

namespace pds::core {

enum class Relation : std::uint8_t {
  kEq = 0,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kInRange,  // value <= attr <= value_hi
};

struct Predicate {
  std::string attr;
  Relation rel = Relation::kEq;
  AttrValue value;
  AttrValue value_hi;  // only meaningful for kInRange

  // A descriptor missing the attribute, or with an incomparable value type,
  // does not match.
  [[nodiscard]] bool matches(const DataDescriptor& d) const;

  friend bool operator==(const Predicate&, const Predicate&) = default;
};

class Filter {
 public:
  Filter() = default;

  Filter& where(std::string attr, Relation rel, AttrValue value);
  Filter& where_range(std::string attr, AttrValue lo, AttrValue hi);

  [[nodiscard]] bool matches(const DataDescriptor& d) const;
  [[nodiscard]] bool match_all() const { return preds_.empty(); }
  [[nodiscard]] const std::vector<Predicate>& predicates() const {
    return preds_;
  }

  // The filter's one layout, run into a ByteWriter or, for encoded_size,
  // a ByteCounter.
  template <typename Sink>
  void encode(Sink& w) const;
  [[nodiscard]] static Filter decode(ByteReader& r);
  [[nodiscard]] std::size_t encoded_size() const;

  friend bool operator==(const Filter&, const Filter&) = default;

 private:
  std::vector<Predicate> preds_;
};

}  // namespace pds::core
