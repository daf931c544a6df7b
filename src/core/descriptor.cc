#include "core/descriptor.h"

#include <algorithm>
#include <bit>
#include <memory>

#include "common/assert.h"
#include "common/hash.h"

namespace pds::core {

namespace {

const std::vector<Attribute> kNoAttributes;

// A sink that keeps no bytes: it streams what ByteWriter would write
// through FNV-1a and counts it, so identity hashes and sizes the canonical
// layout without building it.
class Fnv1aWriter {
 public:
  void put_u8(std::uint8_t v) {
    hash_ = (hash_ ^ v) * kFnvPrime;
    ++size_;
  }
  void put_u16(std::uint16_t v) { put_le(v); }
  void put_i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void put_f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }
  void put_string(std::string_view s) {
    put_u16(string_length(s));
    for (char c : s) put_u8(static_cast<std::uint8_t>(c));
  }

  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::uint64_t hash_ = kFnvOffset;
  std::size_t size_ = 0;
};

template <typename Attrs>
auto find_slot(Attrs& attrs, std::string_view name) {
  return std::lower_bound(
      attrs.begin(), attrs.end(), name,
      [](const Attribute& a, std::string_view n) { return a.name < n; });
}

// The canonical layout, written once for every sink: a u16 attribute count,
// then each attribute in name order. Without `chunk` it is the entry's
// encoding; with the entry's chunk_id attribute as `chunk`, that attribute
// is left out, which gives the item's encoding (all chunks share it).
template <typename Sink>
void write_canonical(Sink& w, const std::vector<Attribute>& attrs,
                     const Attribute* chunk = nullptr) {
  const std::size_t n = attrs.size() - (chunk != nullptr ? 1 : 0);
  w.put_u16(static_cast<std::uint16_t>(n));
  for (const Attribute& a : attrs) {
    if (&a != chunk) write_attribute(w, a);
  }
}

}  // namespace

const std::vector<Attribute>& DataDescriptor::attributes() const {
  return rep_ != nullptr ? rep_->attrs : kNoAttributes;
}

DataDescriptor::Rep& DataDescriptor::mutable_rep() {
  if (rep_ == nullptr) {
    rep_ = new Rep;
  } else if (rep_->refs.load(std::memory_order_acquire) != 1) {
    // Shared: detach onto a private copy, with room for one more attribute
    // (chunk_descriptor() appends one).
    auto copy = std::make_unique<Rep>();
    copy->attrs.reserve(rep_->attrs.size() + 1);
    copy->attrs.assign(rep_->attrs.begin(), rep_->attrs.end());
    release();
    rep_ = copy.release();
  } else {
    rep_->memo_ready.store(false, std::memory_order_relaxed);
  }
  return *rep_;
}

DataDescriptor& DataDescriptor::set(std::string_view name, AttrValue value) {
  std::vector<Attribute>& attrs = mutable_rep().attrs;
  auto it = find_slot(attrs, name);
  if (it != attrs.end() && it->name == name) {
    it->value = std::move(value);
  } else {
    attrs.insert(it, Attribute{std::string(name), std::move(value)});
  }
  return *this;
}

const AttrValue* DataDescriptor::find(std::string_view name) const {
  const std::vector<Attribute>& attrs = attributes();
  auto it = find_slot(attrs, name);
  if (it != attrs.end() && it->name == name) return &it->value;
  return nullptr;
}

DataDescriptor::Identity DataDescriptor::identity() const {
  if (rep_ != nullptr && rep_->memo_ready.load(std::memory_order_acquire)) {
    return {rep_->entry_key.load(std::memory_order_relaxed),
            rep_->item_id.load(std::memory_order_relaxed),
            rep_->encoded_size.load(std::memory_order_relaxed)};
  }
  const std::vector<Attribute>& attrs = attributes();
  Fnv1aWriter entry;
  write_canonical(entry, attrs);
  Identity id{entry.hash(), entry.hash(), entry.size()};
  if (auto it = find_slot(attrs, kAttrChunkId);
      it != attrs.end() && it->name == kAttrChunkId) {
    Fnv1aWriter item;
    write_canonical(item, attrs, &*it);
    id.item_id = item.hash();
  }
  if (rep_ != nullptr) {
    rep_->entry_key.store(id.entry_key, std::memory_order_relaxed);
    rep_->item_id.store(id.item_id, std::memory_order_relaxed);
    rep_->encoded_size.store(id.encoded_size, std::memory_order_relaxed);
    rep_->memo_ready.store(true, std::memory_order_release);
  }
  return id;
}

namespace {

std::string_view string_attr(const DataDescriptor& d, std::string_view name) {
  const AttrValue* v = d.find(name);
  if (v == nullptr) return {};
  if (const auto* s = std::get_if<std::string>(v)) return *s;
  return {};
}

std::optional<std::int64_t> int_attr(const DataDescriptor& d,
                                     std::string_view name) {
  const AttrValue* v = d.find(name);
  if (v == nullptr) return std::nullopt;
  if (const auto* i = std::get_if<std::int64_t>(v)) return *i;
  return std::nullopt;
}

}  // namespace

std::string_view DataDescriptor::namespace_name() const {
  return string_attr(*this, kAttrNamespace);
}

std::string_view DataDescriptor::data_type() const {
  return string_attr(*this, kAttrDataType);
}

std::optional<std::int64_t> DataDescriptor::total_chunks() const {
  return int_attr(*this, kAttrTotalChunks);
}

std::optional<ChunkIndex> DataDescriptor::chunk_id() const {
  const auto v = int_attr(*this, kAttrChunkId);
  if (!v.has_value()) return std::nullopt;
  return static_cast<ChunkIndex>(*v);
}

DataDescriptor DataDescriptor::chunk_descriptor(ChunkIndex index) const {
  DataDescriptor d = *this;
  d.set(kAttrChunkId, static_cast<std::int64_t>(index));
  return d;
}

DataDescriptor DataDescriptor::item_descriptor() const {
  if (find(kAttrChunkId) == nullptr) return *this;
  DataDescriptor d;
  std::vector<Attribute>& attrs = d.mutable_rep().attrs;
  attrs.reserve(attributes().size() - 1);
  for (const Attribute& a : attributes()) {
    if (a.name != kAttrChunkId) attrs.push_back(a);
  }
  return d;
}

ItemId DataDescriptor::item_id() const { return ItemId(identity().item_id); }

void DataDescriptor::encode(ByteWriter& w) const {
  write_canonical(w, attributes());
}

DataDescriptor DataDescriptor::decode(ByteReader& r) {
  const std::uint16_t n = r.get_u16();
  // A serialized attribute is at least 5 bytes (u16 name length + value
  // tag + u16 string length), so a count the remaining buffer cannot hold
  // is malformed; reject it before it drives the loop and the vector
  // growth below (pdslint wire-taint).
  if (std::size_t{n} * 5 > r.remaining()) {
    throw DecodeError("descriptor attribute count exceeds buffer");
  }
  std::vector<Attribute> attrs;
  attrs.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    attrs.push_back(decode_attribute(r));
  }
  // The wire is produced by encode() and is therefore strictly sorted
  // (set() keeps names unique); a malformed message must not break that
  // invariant. Strictness matters: a duplicate name would pass a plain
  // is_sorted check here yet be rejected by the compressed-entry encoding,
  // so the same descriptor would round-trip on one wire form and not the
  // other.
  const bool canonical =
      std::adjacent_find(attrs.begin(), attrs.end(),
                         [](const Attribute& a, const Attribute& b) {
                           return !(a.name < b.name);
                         }) == attrs.end();
  if (!canonical) throw DecodeError("descriptor attributes not canonical");
  DataDescriptor d;
  if (!attrs.empty()) d.mutable_rep().attrs = std::move(attrs);
  return d;
}

std::vector<std::byte> DataDescriptor::canonical_bytes() const {
  ByteWriter w;
  encode(w);
  return w.take();
}

std::size_t DataDescriptor::encoded_size() const {
  return identity().encoded_size;
}

}  // namespace pds::core
