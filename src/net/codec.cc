#include "net/codec.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/assert.h"
#include "common/bytes.h"

namespace pds::net {

namespace {

// Decode-side caps for the reconciliation extensions: large enough for any
// protocol-generated frame, small enough that hostile headers cannot force
// huge allocations.
constexpr std::uint64_t kMaxDictNames = 4096;
constexpr std::uint64_t kMaxEntryAttrs = 1024;
constexpr std::uint64_t kMaxCompressedEntries = 65535;
constexpr std::uint64_t kMaxBitmapSpan = 1u << 22;
constexpr std::uint64_t kMaxBitmapGroups = 65535;
constexpr std::uint64_t kMaxStringBytes = 65535;

// Whether this message carries the trace-context wire extension under `cfg`
// — only query/response frames (acks and repairs are hop-local control and
// never cross more than one link).
bool carries_trace(const WireConfig& cfg, const Message& m) {
  return cfg.carry_trace_context && (m.is_query() || m.is_response()) &&
         m.trace.valid();
}

bool strictly_increasing(const std::vector<ChunkIndex>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] <= v[i - 1]) return false;
  }
  return true;
}

bool cdi_strictly_increasing(const std::vector<CdiEntry>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i].chunk <= v[i - 1].chunk) return false;
  }
  return true;
}

// The bitmap wire form caps its span; a wider id range (possible for
// decoded foreign messages, never for protocol-produced ones) must fall
// back to the list encoding or encode() would emit frames its own decoder
// rejects — and allocate span/8 bytes doing it.
bool bitmap_span_fits(std::uint64_t lo, std::uint64_t hi) {
  return hi - lo + 1 <= kMaxBitmapSpan;
}

bool cdi_spans_fit(const std::vector<CdiEntry>& v) {
  std::map<std::uint32_t, std::pair<ChunkIndex, ChunkIndex>> range;
  for (const CdiEntry& e : v) {
    auto [it, fresh] = range.try_emplace(e.hop_count, e.chunk, e.chunk);
    if (!fresh) {
      it->second.first = std::min(it->second.first, e.chunk);
      it->second.second = std::max(it->second.second, e.chunk);
    }
  }
  for (const auto& [hop, lo_hi] : range) {
    if (!bitmap_span_fits(lo_hi.first, lo_hi.second)) return false;
  }
  return true;
}

// Which reconciliation-extension bits this (config, message) pair emits.
// The bitmap forms require canonically ordered inputs — anything else (which
// protocol code never produces) falls back to the classic list encodings so
// no content is ever silently reordered.
std::uint8_t ext_bits(const WireConfig& cfg, const Message& m) {
  std::uint8_t bits = 0;
  if (m.is_query()) {
    if (m.exclude_delta.has_value()) bits |= kExtDeltaBloom;
    if (cfg.chunk_bitmap && !m.requested_chunks.empty() &&
        strictly_increasing(m.requested_chunks) &&
        bitmap_span_fits(m.requested_chunks.front(),
                         m.requested_chunks.back())) {
      bits |= kExtChunkBitmap;
    }
  } else if (m.is_response()) {
    if (cfg.compress_entries && (!m.metadata.empty() || !m.items.empty())) {
      bits |= kExtCompressedEntries;
    }
    if (cfg.chunk_bitmap && !m.cdi.empty() &&
        cdi_strictly_increasing(m.cdi) && cdi_spans_fit(m.cdi)) {
      bits |= kExtChunkBitmap;
    }
  }
  return bits;
}

// -- The two sizing rules ----------------------------------------------------
//
// Every frame has one writer, write_frame below, run into a ByteWriter for
// its bytes (encode) or into a ByteCounter for its charge (wire_size). The
// charge differs from the bytes by the two rules of the paper's overhead
// model (§VI-A), and only here:
//
//  1. Each metadata entry is charged the flat cfg.metadata_entry_bytes when
//     that is set (30 by default). The entry section is then sized in the
//     classic layout even where compress_entries emits the compressed one;
//     the extension byte still counts. At 0, an entry is charged its real
//     encoding.
//  2. A payload (a chunk or an item) is charged its size_bytes where the
//     bytes carry its 8-byte content hash: payload content is synthetic in
//     simulation.

bool flat_entries(const ByteWriter&, const WireConfig&) { return false; }
bool flat_entries(const ByteCounter&, const WireConfig& cfg) {
  return cfg.metadata_entry_bytes > 0;
}

void put_entries(ByteWriter& w, const WireConfig&,
                 std::span<const core::DataDescriptor> entries) {
  for (const core::DataDescriptor& d : entries) d.encode(w);
}
void put_entries(ByteCounter& c, const WireConfig& cfg,
                 std::span<const core::DataDescriptor> entries) {
  if (flat_entries(c, cfg)) {
    c.add(entries.size() * cfg.metadata_entry_bytes);
  } else {
    for (const core::DataDescriptor& d : entries) d.encode(c);
  }
}

void put_payload(ByteWriter& w, std::uint32_t /*size_bytes*/,
                 std::uint64_t content_hash) {
  w.put_u64(content_hash);
}
void put_payload(ByteCounter& c, std::uint32_t size_bytes,
                 std::uint64_t /*content_hash*/) {
  c.add(size_bytes);
}

// -- Chunk bitmaps (kExtChunkBitmap) ----------------------------------------
//
// A run of strictly increasing chunk ids as base + span + bit array. The
// encoding is canonical: base is the first id, the span's last bit is set,
// and no bit lies past the span.

template <typename Sink>
void write_chunk_bitmap(Sink& w, std::span<const ChunkIndex> chunks) {
  const ChunkIndex base = chunks.front();
  const std::uint32_t span = chunks.back() - base + 1;
  w.put_varint(base);
  w.put_varint(span);
  // The ids ascend, so the bitmap's (span + 7) / 8 bytes come out in
  // order: a byte is written once the ids have moved past it.
  std::uint32_t at = 0;
  std::uint8_t byte = 0;
  for (ChunkIndex c : chunks) {
    const std::uint32_t bit = c - base;
    for (; at < bit / 8; ++at) {
      w.put_u8(byte);
      byte = 0;
    }
    byte |= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  w.put_u8(byte);
}

std::vector<ChunkIndex> decode_chunk_bitmap(ByteReader& r) {
  const std::uint64_t base = r.get_varint();
  const std::uint64_t span = r.get_varint();
  if (span == 0 || span > kMaxBitmapSpan) {
    throw DecodeError("chunk bitmap span out of range");
  }
  if (base > 0xffffffffULL - (span - 1)) {
    throw DecodeError("chunk bitmap base out of range");
  }
  std::vector<ChunkIndex> out;
  const std::size_t n_bytes = (span + 7) / 8;
  for (std::size_t i = 0; i < n_bytes; ++i) {
    const std::uint8_t b = r.get_u8();
    for (std::uint32_t bit = 0; bit < 8; ++bit) {
      if (((b >> bit) & 1) == 0) continue;
      const std::uint64_t pos = i * 8 + bit;
      if (pos >= span) {
        throw DecodeError("chunk bitmap has bits past its span");
      }
      out.push_back(static_cast<ChunkIndex>(base + pos));
    }
  }
  if (out.empty() || out.front() != base || out.back() != base + span - 1) {
    throw DecodeError("chunk bitmap not canonical");
  }
  return out;
}

// CDI entries as hop-count groups of chunk bitmaps, hop strictly increasing.

template <typename Sink>
void write_cdi_bitmap(Sink& w, const std::vector<CdiEntry>& cdi) {
  std::map<std::uint32_t, std::vector<ChunkIndex>> groups;
  for (const CdiEntry& e : cdi) groups[e.hop_count].push_back(e.chunk);
  w.put_varint(groups.size());
  for (const auto& [hop, chunks] : groups) {
    w.put_varint(hop);
    write_chunk_bitmap(w, chunks);
  }
}

std::vector<CdiEntry> decode_cdi_bitmap(ByteReader& r) {
  const std::uint64_t n_groups = r.get_varint();
  if (n_groups == 0 || n_groups > kMaxBitmapGroups) {
    throw DecodeError("CDI bitmap group count out of range");
  }
  std::vector<CdiEntry> out;
  std::uint64_t prev_hop = 0;
  for (std::uint64_t g = 0; g < n_groups; ++g) {
    const std::uint64_t hop = r.get_varint();
    if (hop > 0xffffffffULL || (g > 0 && hop <= prev_hop)) {
      throw DecodeError("CDI bitmap groups not canonical");
    }
    prev_hop = hop;
    for (ChunkIndex c : decode_chunk_bitmap(r)) {
      out.push_back({c, static_cast<std::uint32_t>(hop)});
    }
    if (out.size() > kMaxCompressedEntries) {
      throw DecodeError("CDI bitmap entry count out of range");
    }
  }
  std::sort(out.begin(), out.end(), [](const CdiEntry& a, const CdiEntry& b) {
    return a.chunk < b.chunk;
  });
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i].chunk == out[i - 1].chunk) {
      throw DecodeError("duplicate chunk in CDI bitmap");
    }
  }
  return out;
}

// -- Compressed entries (kExtCompressedEntries) ------------------------------
//
// A per-message dictionary of attribute names, then per entry: attribute
// count, and per attribute a dictionary index, a type tag and the value —
// ints as zigzag varints, doubles raw, strings as (shared-prefix length
// against the previous value of the same attribute, suffix). Attribute
// order inside an entry stays the canonical sorted-by-name order, so the
// decoded descriptor is byte-for-byte the classic one.

class EntryCompressor {
 public:
  explicit EntryCompressor(const Message& m) {
    for (const core::DataDescriptor& d : m.metadata) add_names(d);
    for (const ItemPayload& item : m.items) add_names(item.descriptor);
    prev_.resize(names_.size());
  }

  template <typename Sink>
  void encode_dict(Sink& w) const {
    w.put_varint(names_.size());
    for (const std::string_view n : names_) w.put_string(n);
  }

  template <typename Sink>
  void encode_entry(Sink& w, const core::DataDescriptor& d) {
    const auto& attrs = d.attributes();
    w.put_varint(attrs.size());
    std::size_t guess = 0;
    for (const core::Attribute& a : attrs) {
      const std::size_t idx = index_of(a.name, guess);
      guess = idx + 1;
      w.put_varint(idx);
      w.put_u8(static_cast<std::uint8_t>(a.value.index()));
      if (const auto* i = std::get_if<std::int64_t>(&a.value)) {
        w.put_varint_i64(*i);
      } else if (const auto* f = std::get_if<double>(&a.value)) {
        w.put_f64(*f);
      } else {
        const std::string_view s = std::get<std::string>(a.value);
        std::string_view& prev = prev_[idx];
        const std::size_t limit = std::min(prev.size(), s.size());
        std::size_t common = 0;
        while (common < limit && prev[common] == s[common]) ++common;
        w.put_varint(common);
        w.put_string(s.substr(common));
        prev = s;
      }
    }
  }

 private:
  using Named = std::pair<std::string_view, std::size_t>;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // The by-name entry for `name`, or where it would be inserted.
  std::vector<Named>::iterator find(std::string_view name) {
    return std::lower_bound(
        by_name_.begin(), by_name_.end(), name,
        [](const Named& e, std::string_view n) { return e.first < n; });
  }

  // Dictionary index of `name`, or kNone. Entries mostly carry the same
  // names in the same order, so `guess` (the index after the previous
  // attribute's) is tried before the search.
  std::size_t index_of(std::string_view name, std::size_t guess) {
    if (guess < names_.size() && names_[guess] == name) return guess;
    const auto it = find(name);
    return it != by_name_.end() && it->first == name ? it->second : kNone;
  }

  void add_names(const core::DataDescriptor& d) {
    std::size_t guess = 0;
    for (const core::Attribute& a : d.attributes()) {
      std::size_t idx = index_of(a.name, guess);
      if (idx == kNone) {
        idx = names_.size();
        by_name_.insert(find(a.name), Named{a.name, idx});
        names_.push_back(a.name);
      }
      guess = idx + 1;
    }
  }

  // Views into the message's descriptors, which outlive the writer call, so
  // building the dictionary and the prefix chains copies no string.
  std::vector<std::string_view> names_;  // first-appearance order
  std::vector<Named> by_name_;           // sorted by name, with its index
  std::vector<std::string_view> prev_;   // previous string value per name
};

class EntryDecompressor {
 public:
  void decode_dict(ByteReader& r) {
    const std::uint64_t n = r.get_varint();
    if (n > kMaxDictNames) {
      throw DecodeError("attribute dictionary too large");
    }
    // Stage into a local and commit after the last throw point so a
    // malformed dictionary never leaves the decompressor holding a
    // partial name table (pdslint decode-atomicity).
    std::set<std::string> seen;
    std::vector<std::string> names;
    names.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string name = r.get_string();
      if (!seen.insert(name).second) {
        throw DecodeError("duplicate attribute dictionary name");
      }
      names.push_back(std::move(name));
    }
    names_ = std::move(names);
    prev_.assign(names_.size(), {});
  }

  core::DataDescriptor decode_entry(ByteReader& r) {
    const std::uint64_t n_attrs = r.get_varint();
    if (n_attrs > kMaxEntryAttrs) {
      throw DecodeError("too many attributes in compressed entry");
    }
    core::DataDescriptor d;
    const std::string* last = nullptr;
    for (std::uint64_t i = 0; i < n_attrs; ++i) {
      const std::uint64_t idx = r.get_varint();
      if (idx >= names_.size()) {
        throw DecodeError("attribute name index out of range");
      }
      const std::string& name = names_[idx];
      if (last != nullptr && !(*last < name)) {
        throw DecodeError("descriptor attributes not canonical");
      }
      last = &name;
      const std::uint8_t tag = r.get_u8();
      core::AttrValue value;
      switch (tag) {
        case 0:
          value = r.get_varint_i64();
          break;
        case 1:
          value = r.get_f64();
          break;
        case 2: {
          const std::uint64_t common = r.get_varint();
          std::string& prev = prev_[idx];
          if (common > prev.size()) {
            throw DecodeError("string prefix length out of range");
          }
          std::string s = prev.substr(0, common) + r.get_string();
          if (s.size() > kMaxStringBytes) {
            throw DecodeError("string value too long");
          }
          // The prefix chain must advance per attribute; if a later field
          // of this message throws, the whole decompressor (and with it
          // this partial chain state) is discarded by Codec::decode, so
          // the mid-loop member write is safe here.
          prev = s;  // pdslint:allow(decode-atomicity)
          value = std::move(s);
          break;
        }
        default:
          throw DecodeError("unknown attribute value tag");
      }
      d.set(name, std::move(value));
    }
    return d;
  }

 private:
  std::vector<std::string> names_;
  std::vector<std::string> prev_;
};

// A response's CDI list and chunk payload, which sit between its metadata
// and its items.
template <typename Sink>
void write_cdi_and_chunk(Sink& w, const Message& m, std::uint8_t ext) {
  if ((ext & kExtChunkBitmap) != 0) {
    write_cdi_bitmap(w, m.cdi);
  } else {
    w.put_u16(static_cast<std::uint16_t>(m.cdi.size()));
    for (const CdiEntry& e : m.cdi) {
      w.put_u32(e.chunk);
      w.put_u32(e.hop_count);
    }
  }
  w.put_u8(m.chunk.has_value() ? 1 : 0);
  if (m.chunk.has_value()) {
    w.put_u32(m.chunk->index);
    w.put_u32(m.chunk->size_bytes);
    put_payload(w, m.chunk->size_bytes, m.chunk->content_hash);
  }
}

// The frame's one layout. Acks and repairs are hop-local control frames:
// no extension byte, no trace context. Under sizing rule 1 a compressed
// response's entries are counted in the classic layout. wire_size runs on
// every send, so the compressor is built only in its own branch.
template <typename Sink>
void write_frame(Sink& w, const WireConfig& cfg, const Message& m) {
  const bool with_trace = carries_trace(cfg, m);
  const std::uint8_t ext =
      (m.is_ack() || m.is_repair()) ? 0 : ext_bits(cfg, m);
  w.put_u8(static_cast<std::uint8_t>(m.type) |
           (with_trace ? kTraceContextFlag : 0) |
           (ext != 0 ? kWireExtFlag : 0));
  if (m.is_ack()) {
    w.put_u16(static_cast<std::uint16_t>(m.ack_tokens.size()));
    w.put_u64s(m.ack_tokens);
    w.put_u32(m.acker.value());
    return;
  }
  if (m.is_repair()) {
    w.put_u64(m.ack_tokens.empty() ? 0 : m.ack_tokens.front());
    w.put_u32(m.acker.value());
    w.put_u16(static_cast<std::uint16_t>(m.requested_chunks.size()));
    for (ChunkIndex c : m.requested_chunks) w.put_u32(c);
    return;
  }
  if (ext != 0) w.put_u8(ext);
  w.put_u8(static_cast<std::uint8_t>(m.kind));
  w.put_u32(m.sender.value());
  w.put_u64(m.is_query() ? m.query_id.value() : m.response_id.value());
  w.put_i64(m.expire_at.as_micros());
  w.put_u8(m.ttl);
  w.put_u8(static_cast<std::uint8_t>(m.receivers.size()));
  for (NodeId r : m.receivers) w.put_u32(r.value());
  w.put_u8(m.target.has_value() ? 1 : 0);
  if (m.target.has_value()) m.target->encode(w);
  if (m.is_query()) {
    m.filter.encode(w);
    if ((ext & kExtDeltaBloom) != 0) {
      m.exclude_delta->encode(w);
    } else {
      m.exclude.encode(w);
    }
    if ((ext & kExtChunkBitmap) != 0) {
      write_chunk_bitmap(w, m.requested_chunks);
    } else {
      w.put_u16(static_cast<std::uint16_t>(m.requested_chunks.size()));
      for (ChunkIndex c : m.requested_chunks) w.put_u32(c);
    }
  } else if ((ext & kExtCompressedEntries) != 0 && !flat_entries(w, cfg)) {
    EntryCompressor enc(m);
    enc.encode_dict(w);
    w.put_varint(m.metadata.size());
    for (const core::DataDescriptor& d : m.metadata) enc.encode_entry(w, d);
    write_cdi_and_chunk(w, m, ext);
    w.put_varint(m.items.size());
    for (const ItemPayload& item : m.items) {
      enc.encode_entry(w, item.descriptor);
      w.put_varint(item.size_bytes);
      put_payload(w, item.size_bytes, item.content_hash);
    }
  } else {
    w.put_u16(static_cast<std::uint16_t>(m.metadata.size()));
    put_entries(w, cfg, m.metadata);
    write_cdi_and_chunk(w, m, ext);
    w.put_u16(static_cast<std::uint16_t>(m.items.size()));
    for (const ItemPayload& item : m.items) {
      put_entries(w, cfg, {&item.descriptor, 1});
      w.put_u32(item.size_bytes);
      put_payload(w, item.size_bytes, item.content_hash);
    }
  }
  if (with_trace) {
    w.put_u64(m.trace.trace_id);
    w.put_u64(m.trace.parent_span);
    w.put_u32(m.trace.origin);
    w.put_u8(m.trace.hop);
  }
}

}  // namespace

std::size_t Codec::wire_size(const Message& m) const {
  ByteCounter c;
  write_frame(c, cfg_, m);
  return c.size();
}

std::vector<std::byte> Codec::encode(const Message& m) const {
  ByteWriter w;
  write_frame(w, cfg_, m);
  return w.take();
}

Message Codec::decode(std::span<const std::byte> bytes) const {
  ByteReader r(bytes);
  Message m;
  const std::uint8_t type_byte = r.get_u8();
  const bool has_trace = (type_byte & kTraceContextFlag) != 0;
  const bool has_ext = (type_byte & kWireExtFlag) != 0;
  m.type = static_cast<MessageType>(
      type_byte & ~(kTraceContextFlag | kWireExtFlag));
  if (static_cast<std::uint8_t>(m.type) > 3) {
    throw DecodeError("unknown message type");
  }
  if (has_trace && !(m.is_query() || m.is_response())) {
    throw DecodeError("trace context on control frame");
  }
  if (has_ext && !(m.is_query() || m.is_response())) {
    throw DecodeError("wire extension on control frame");
  }
  if (m.is_ack()) {
    const std::uint16_t n_tokens = r.get_u16();
    // Every wire count below is validated against the bytes actually left
    // in the buffer (scaled by the element's minimum encoded size) before
    // it bounds a loop, so a hostile length prefix cannot drive iteration
    // or allocation past the frame (pdslint wire-taint).
    if (std::size_t{n_tokens} * 8 > r.remaining()) {
      throw DecodeError("ack token count exceeds buffer");
    }
    m.ack_tokens.reserve(n_tokens);
    for (std::uint16_t i = 0; i < n_tokens; ++i) {
      m.ack_tokens.push_back(r.get_u64());
    }
    m.acker = NodeId(r.get_u32());
    return m;
  }
  if (m.is_repair()) {
    m.ack_tokens.push_back(r.get_u64());
    m.acker = NodeId(r.get_u32());
    const std::uint16_t n_missing = r.get_u16();
    if (std::size_t{n_missing} * 4 > r.remaining()) {
      throw DecodeError("repair chunk count exceeds buffer");
    }
    m.requested_chunks.reserve(n_missing);
    for (std::uint16_t i = 0; i < n_missing; ++i) {
      m.requested_chunks.push_back(r.get_u32());
    }
    return m;
  }
  std::uint8_t ext = 0;
  if (has_ext) {
    ext = r.get_u8();
    if (ext == 0) throw DecodeError("empty wire extension byte");
    if ((ext &
         ~(kExtDeltaBloom | kExtCompressedEntries | kExtChunkBitmap)) != 0) {
      throw DecodeError("unknown wire extension");
    }
  }
  m.kind = static_cast<ContentKind>(r.get_u8());
  if (static_cast<std::uint8_t>(m.kind) > 3) {
    throw DecodeError("unknown content kind");
  }
  m.sender = NodeId(r.get_u32());
  const std::uint64_t id = r.get_u64();
  if (m.is_query()) {
    m.query_id = QueryId(id);
  } else {
    m.response_id = ResponseId(id);
  }
  m.expire_at = SimTime::micros(r.get_i64());
  m.ttl = r.get_u8();
  const std::uint8_t n_recv = r.get_u8();
  if (std::size_t{n_recv} * 4 > r.remaining()) {
    throw DecodeError("receiver count exceeds buffer");
  }
  m.receivers.reserve(n_recv);
  for (std::uint8_t i = 0; i < n_recv; ++i) {
    m.receivers.emplace_back(r.get_u32());
  }
  if (r.get_u8() != 0) m.target = core::DataDescriptor::decode(r);
  if (m.is_query()) {
    if ((ext & kExtCompressedEntries) != 0) {
      throw DecodeError("compressed entries on query frame");
    }
    m.filter = core::Filter::decode(r);
    if ((ext & kExtDeltaBloom) != 0) {
      m.exclude_delta = BloomDeltaFrame::decode(r);
    } else {
      m.exclude = util::BloomFilter::decode(r);
    }
    if ((ext & kExtChunkBitmap) != 0) {
      m.requested_chunks = decode_chunk_bitmap(r);
    } else {
      const std::uint16_t n_chunks = r.get_u16();
      if (std::size_t{n_chunks} * 4 > r.remaining()) {
        throw DecodeError("requested chunk count exceeds buffer");
      }
      m.requested_chunks.reserve(n_chunks);
      for (std::uint16_t i = 0; i < n_chunks; ++i) {
        m.requested_chunks.push_back(r.get_u32());
      }
    }
  } else {
    if ((ext & kExtDeltaBloom) != 0) {
      throw DecodeError("Bloom sync frame on response");
    }
    EntryDecompressor dec;
    if ((ext & kExtCompressedEntries) != 0) {
      dec.decode_dict(r);
      const std::uint64_t n_meta = r.get_varint();
      if (n_meta > kMaxCompressedEntries) {
        throw DecodeError("compressed entry count out of range");
      }
      for (std::uint64_t i = 0; i < n_meta; ++i) {
        m.metadata.push_back(dec.decode_entry(r));
      }
    } else {
      const std::uint16_t n_meta = r.get_u16();
      // A descriptor is at least its u16 attribute count on the wire.
      if (std::size_t{n_meta} * 2 > r.remaining()) {
        throw DecodeError("metadata count exceeds buffer");
      }
      m.metadata.reserve(n_meta);
      for (std::uint16_t i = 0; i < n_meta; ++i) {
        m.metadata.push_back(core::DataDescriptor::decode(r));
      }
    }
    if ((ext & kExtChunkBitmap) != 0) {
      m.cdi = decode_cdi_bitmap(r);
    } else {
      const std::uint16_t n_cdi = r.get_u16();
      if (std::size_t{n_cdi} * 8 > r.remaining()) {
        throw DecodeError("CDI entry count exceeds buffer");
      }
      m.cdi.reserve(n_cdi);
      for (std::uint16_t i = 0; i < n_cdi; ++i) {
        CdiEntry e;
        e.chunk = r.get_u32();
        e.hop_count = r.get_u32();
        m.cdi.push_back(e);
      }
    }
    if (r.get_u8() != 0) {
      ChunkPayload c;
      c.index = r.get_u32();
      c.size_bytes = r.get_u32();
      c.content_hash = r.get_u64();
      m.chunk = c;
    }
    if ((ext & kExtCompressedEntries) != 0) {
      const std::uint64_t n_items = r.get_varint();
      if (n_items > kMaxCompressedEntries) {
        throw DecodeError("compressed entry count out of range");
      }
      for (std::uint64_t i = 0; i < n_items; ++i) {
        ItemPayload item;
        item.descriptor = dec.decode_entry(r);
        const std::uint64_t size = r.get_varint();
        if (size > 0xffffffffULL) {
          throw DecodeError("item payload size out of range");
        }
        item.size_bytes = static_cast<std::uint32_t>(size);
        item.content_hash = r.get_u64();
        m.items.push_back(std::move(item));
      }
    } else {
      const std::uint16_t n_items = r.get_u16();
      // Item = descriptor (>= 2 bytes) + u32 size + u64 hash.
      if (std::size_t{n_items} * 14 > r.remaining()) {
        throw DecodeError("item count exceeds buffer");
      }
      m.items.reserve(n_items);
      for (std::uint16_t i = 0; i < n_items; ++i) {
        ItemPayload item;
        item.descriptor = core::DataDescriptor::decode(r);
        item.size_bytes = r.get_u32();
        item.content_hash = r.get_u64();
        m.items.push_back(std::move(item));
      }
    }
  }
  if (has_trace) {
    m.trace.trace_id = r.get_u64();
    m.trace.parent_span = r.get_u64();
    m.trace.origin = r.get_u32();
    m.trace.hop = r.get_u8();
  }
  return m;
}

}  // namespace pds::net
