// Data descriptors — the self-contained metadata identifying a data item or
// chunk (paper §II-B).
//
// A descriptor is a set of attributes, kept sorted by name so that logically
// equal descriptors have identical canonical encodings. Identity is
// hash-based:
//
//  * item_id()   — hash of the canonical encoding *excluding* chunk_id:
//                  all chunks of one large item share it;
//  * entry_key() — hash *including* chunk_id: the key used in Bloom filters
//                  and redundancy detection, unique per metadata entry.
//
// Representation (DESIGN.md §18): a DataDescriptor is a handle to one
// shared, reference-counted attribute set. Every node caches every entry it
// relays or overhears, so one distinct descriptor lives as hundreds of
// copies (store records, response payloads, session lists); copying a
// handle is a reference-count bump and never allocates. set() is
// copy-on-write: it edits in place while the handle is the only one, and
// otherwise detaches onto a private copy first, so no other copy ever sees
// a change. The identity hashes and encoded size are computed once per
// shared representation and memoized there.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "core/attribute.h"

namespace pds::core {

// Well-known attribute names.
inline constexpr std::string_view kAttrNamespace = "ns";
inline constexpr std::string_view kAttrDataType = "type";
inline constexpr std::string_view kAttrName = "name";
inline constexpr std::string_view kAttrTime = "time";
inline constexpr std::string_view kAttrTotalChunks = "total_chunks";
inline constexpr std::string_view kAttrChunkId = "chunk_id";

// Reserved namespace / data types for protocol-internal exchanges (§III-A:
// metadata queries use namespace "system", data type "metadata"; §IV-A: CDI
// uses data type "cdi").
inline constexpr std::string_view kSystemNamespace = "system";
inline constexpr std::string_view kMetadataType = "metadata";
inline constexpr std::string_view kCdiType = "cdi";

class DataDescriptor {
 public:
  DataDescriptor() = default;
  DataDescriptor(const DataDescriptor& other) noexcept : rep_(other.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  DataDescriptor(DataDescriptor&& other) noexcept
      : rep_(std::exchange(other.rep_, nullptr)) {}
  DataDescriptor& operator=(const DataDescriptor& other) noexcept {
    DataDescriptor(other).swap(*this);
    return *this;
  }
  DataDescriptor& operator=(DataDescriptor&& other) noexcept {
    DataDescriptor(std::move(other)).swap(*this);
    return *this;
  }
  ~DataDescriptor() { release(); }

  // Sets (or replaces) an attribute.
  DataDescriptor& set(std::string_view name, AttrValue value);

  [[nodiscard]] const AttrValue* find(std::string_view name) const;
  [[nodiscard]] const std::vector<Attribute>& attributes() const;

  // Convenience accessors for well-known attributes.
  [[nodiscard]] std::string_view namespace_name() const;
  [[nodiscard]] std::string_view data_type() const;
  [[nodiscard]] std::optional<std::int64_t> total_chunks() const;
  [[nodiscard]] std::optional<ChunkIndex> chunk_id() const;
  [[nodiscard]] bool is_chunk() const { return chunk_id().has_value(); }

  // The descriptor of chunk `index` of this item: this descriptor with a
  // chunk_id attribute appended (paper §II-B).
  [[nodiscard]] DataDescriptor chunk_descriptor(ChunkIndex index) const;
  // This descriptor with the chunk_id attribute removed.
  [[nodiscard]] DataDescriptor item_descriptor() const;

  [[nodiscard]] ItemId item_id() const;
  [[nodiscard]] std::uint64_t entry_key() const;

  void encode(ByteWriter& w) const;
  // Counts the canonical encoding: its memoized size.
  void encode(ByteCounter& c) const { c.add(encoded_size()); }
  [[nodiscard]] static DataDescriptor decode(ByteReader& r);
  [[nodiscard]] std::vector<std::byte> canonical_bytes() const;

  // Size of the canonical encoding; the wire codec may override this with
  // the paper's parameterized 30-byte entry size.
  [[nodiscard]] std::size_t encoded_size() const;

  friend bool operator==(const DataDescriptor& a, const DataDescriptor& b) {
    return a.attributes() == b.attributes();
  }

 private:
  // The shared representation. `attrs` is immutable while more than one
  // handle refers to it. The identity memo is filled by the first reader and
  // published through `memo_ready`; readers racing to fill it store
  // identical values into atomics, so concurrent first use is race-free.
  struct Rep {
    std::atomic<std::uint32_t> refs{1};
    std::atomic<bool> memo_ready{false};
    std::atomic<std::uint64_t> entry_key{0};
    std::atomic<std::uint64_t> item_id{0};
    std::atomic<std::size_t> encoded_size{0};
    // Sorted by attribute name; unique names.
    std::vector<Attribute> attrs;
  };

  struct Identity {
    std::uint64_t entry_key = 0;
    std::uint64_t item_id = 0;
    std::size_t encoded_size = 0;
  };

  void swap(DataDescriptor& other) noexcept { std::swap(rep_, other.rep_); }
  void release() noexcept;
  // The representation set() may edit: created on first use, detached from
  // other handles (copy-on-write), its identity memo cleared.
  Rep& mutable_rep();
  [[nodiscard]] Identity identity() const;

  // Null for the empty descriptor, which therefore never allocates.
  Rep* rep_ = nullptr;
};

// Inline so the memoized case costs two loads, not a call: every cached or
// relayed entry asks for its key several times per hop.
inline std::uint64_t DataDescriptor::entry_key() const {
  if (rep_ != nullptr && rep_->memo_ready.load(std::memory_order_acquire)) {
    return rep_->entry_key.load(std::memory_order_relaxed);
  }
  return identity().entry_key;
}

inline void DataDescriptor::release() noexcept {
  if (rep_ != nullptr &&
      rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete rep_;
  }
  rep_ = nullptr;
}

}  // namespace pds::core
