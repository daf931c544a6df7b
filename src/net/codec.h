// Wire codec: byte encoding and on-air sizing of PDS messages.
//
// The simulator charges every transmission its wire size, which makes the
// paper's "message overhead" metric (total bytes of all messages) concrete.
// Each frame has one layout, written once as a writer over its sink:
// `encode` runs it into a ByteWriter and `wire_size` into a ByteCounter.
// The size differs from the bytes only by two sizing rules, stated once in
// codec.cc:
//
//  1. Following the paper's parameterization (§VI-A), metadata entries are
//     charged a flat 30 bytes each by default, in the classic layout even
//     under `compress_entries`; set `metadata_entry_bytes = 0` to charge the
//     real encoding. Measuring what entry compression buys therefore
//     requires `metadata_entry_bytes = 0` (bench/tab_wire does exactly
//     that).
//  2. Payload *content* is synthetic in simulation: a chunk or item is
//     encoded as its size + content hash, and charged its full size.
//
// `encode`/`decode` provide a lossless round trip of the control structure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/message.h"

namespace pds::net {

struct WireConfig {
  // Fixed per-entry charge for metadata entries; 0 = actual encoded size.
  std::size_t metadata_entry_bytes = 30;
  // Versioned wire extension (DESIGN.md §14): when set, query/response
  // frames whose Message::trace is valid carry the causal trace context
  // in-band — the type byte's high bit marks the extension and
  // kTraceContextBytes are appended after the regular layout. Off by
  // default, so disabled tracing costs zero wire bytes and the encoding is
  // byte-identical to the pre-extension codec.
  bool carry_trace_context = false;

  // Reconciliation wire extensions (DESIGN.md §16). Each flag gates what
  // this codec *emits*; every codec *decodes* all extensions regardless, so
  // upgraded and legacy-configured nodes interoperate (a legacy node simply
  // never produces the new frames). All three default off, keeping the
  // encoding byte-identical to the pre-extension codec.
  //
  // Multi-round discovery queries ship their exclude filter as a
  // Bloom-sync frame (net/bloom_delta.h): full sparse snapshots
  // re-anchor receivers, deltas carry only the 64-bit blocks that changed
  // since the previous round. Emission additionally requires the message
  // to carry a frame (Message::exclude_delta), which only delta-aware
  // discovery sessions produce.
  bool delta_bloom = false;
  // Response metadata/item descriptors use the dictionary + varint +
  // shared-prefix entry encoding instead of one self-contained canonical
  // encoding per entry.
  bool compress_entries = false;
  // CDI responses advertise chunk holdings as per-hop-count bitmaps, and
  // chunk queries name requested chunks as a bitmap, instead of per-chunk
  // u32 lists.
  bool chunk_bitmap = false;
};

// trace_id(8) + parent_span(8) + origin(4) + hop(1).
inline constexpr std::size_t kTraceContextBytes = 8 + 8 + 4 + 1;
// High bit of the leading type byte: trace-context extension present.
inline constexpr std::uint8_t kTraceContextFlag = 0x80;
// Second-highest bit of the type byte: a reconciliation-extension bitmap
// byte follows the type byte (DESIGN.md §16). Never set on control frames.
inline constexpr std::uint8_t kWireExtFlag = 0x40;

// Bits of the reconciliation-extension byte. A frame with kWireExtFlag set
// and no bits (or an unknown bit) is malformed.
inline constexpr std::uint8_t kExtDeltaBloom = 0x01;     // queries only
inline constexpr std::uint8_t kExtCompressedEntries = 0x02;  // responses only
inline constexpr std::uint8_t kExtChunkBitmap = 0x04;    // cdi / chunk lists

class Codec {
 public:
  explicit Codec(WireConfig cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] std::size_t wire_size(const Message& m) const;

  [[nodiscard]] std::vector<std::byte> encode(const Message& m) const;
  [[nodiscard]] Message decode(std::span<const std::byte> bytes) const;

  [[nodiscard]] const WireConfig& config() const { return cfg_; }

 private:
  WireConfig cfg_;
};

}  // namespace pds::net
