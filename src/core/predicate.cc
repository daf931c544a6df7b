#include "core/predicate.h"

#include "common/assert.h"

namespace pds::core {

bool Predicate::matches(const DataDescriptor& d) const {
  const AttrValue* v = d.find(attr);
  if (v == nullptr) return false;
  const std::partial_ordering cmp = compare_values(*v, value);
  if (cmp == std::partial_ordering::unordered) return false;
  switch (rel) {
    case Relation::kEq:
      return cmp == std::partial_ordering::equivalent;
    case Relation::kNe:
      return cmp != std::partial_ordering::equivalent;
    case Relation::kLt:
      return cmp == std::partial_ordering::less;
    case Relation::kLe:
      return cmp != std::partial_ordering::greater;
    case Relation::kGt:
      return cmp == std::partial_ordering::greater;
    case Relation::kGe:
      return cmp != std::partial_ordering::less;
    case Relation::kInRange: {
      if (cmp == std::partial_ordering::less) return false;
      const std::partial_ordering hi = compare_values(*v, value_hi);
      return hi == std::partial_ordering::less ||
             hi == std::partial_ordering::equivalent;
    }
  }
  return false;
}

Filter& Filter::where(std::string attr, Relation rel, AttrValue value) {
  PDS_ENSURE(rel != Relation::kInRange);
  preds_.push_back(Predicate{.attr = std::move(attr),
                             .rel = rel,
                             .value = std::move(value),
                             .value_hi = {}});
  return *this;
}

Filter& Filter::where_range(std::string attr, AttrValue lo, AttrValue hi) {
  preds_.push_back(Predicate{.attr = std::move(attr),
                             .rel = Relation::kInRange,
                             .value = std::move(lo),
                             .value_hi = std::move(hi)});
  return *this;
}

bool Filter::matches(const DataDescriptor& d) const {
  for (const Predicate& p : preds_) {
    if (!p.matches(d)) return false;
  }
  return true;
}

template <typename Sink>
void Filter::encode(Sink& w) const {
  w.put_u16(static_cast<std::uint16_t>(preds_.size()));
  for (const Predicate& p : preds_) {
    w.put_string(p.attr);
    w.put_u8(static_cast<std::uint8_t>(p.rel));
    write_value(w, p.value);
    if (p.rel == Relation::kInRange) write_value(w, p.value_hi);
  }
}

template void Filter::encode(ByteWriter&) const;
template void Filter::encode(ByteCounter&) const;

Filter Filter::decode(ByteReader& r) {
  Filter f;
  const std::uint16_t n = r.get_u16();
  // A serialized predicate is at least 6 bytes (u16 attr length + u8
  // relation + value tag + u16 string length); reject counts the buffer
  // cannot hold before they bound the loop (pdslint wire-taint).
  if (std::size_t{n} * 6 > r.remaining()) {
    throw DecodeError("predicate count exceeds buffer");
  }
  f.preds_.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    Predicate p;
    p.attr = r.get_string();
    p.rel = static_cast<Relation>(r.get_u8());
    if (static_cast<std::uint8_t>(p.rel) >
        static_cast<std::uint8_t>(Relation::kInRange)) {
      throw DecodeError("unknown predicate relation");
    }
    p.value = decode_value(r);
    if (p.rel == Relation::kInRange) p.value_hi = decode_value(r);
    f.preds_.push_back(std::move(p));
  }
  return f;
}

std::size_t Filter::encoded_size() const {
  ByteCounter c;
  encode(c);
  return c.size();
}

}  // namespace pds::core
