// PDS message model (paper §III-A, §IV-A, §V.1).
//
// All PDS exchanges use three message types over one broadcast face:
//
//  * Query    — carries a globally unique query id, the transmitting node's
//               id at the current hop, an optional intended-receiver list
//               (empty = all neighbors relay), an expiration beyond which the
//               lingering query is removed, attribute filters, and for
//               multi-round redundancy detection a Bloom filter of entries
//               the consumer already holds. CDI and chunk queries additionally
//               name the target item and (for chunk queries) the requested
//               chunk ids.
//  * Response — carries a globally unique response id, intended receivers
//               (the upstream nodes whose lingering queries matched), and a
//               payload of metadata entries, CDI ChunkId–HopCount pairs, one
//               data chunk, or whole small data items.
//  * Ack      — per-hop acknowledgment: the acked message's id and the
//               acker's own id (§V.1).
//
// Messages are value types; forwarding nodes copy and rewrite them (receiver
// lists, Bloom filters, sender id) before relaying — exactly the paper's
// en-route message rewriting.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
// Messages carry content-layer values by value (query filters and targets,
// metadata entries), so these two net -> core includes are deliberate.
#include "core/descriptor.h"  // pdslint:allow(layering)
#include "core/predicate.h"   // pdslint:allow(layering)
#include "net/bloom_delta.h"
#include "sim/radio.h"
#include "util/bloom_filter.h"

namespace pds::net {

enum class MessageType : std::uint8_t {
  kQuery = 0,
  kResponse = 1,
  kAck = 2,
  // Selective-repair request: a receiver whose reassembly of a fragmented
  // message stalled asks the transmitting hop to re-send the missing
  // fragments (ack_tokens[0] = message token, requested_chunks = missing
  // fragment indices). Repairing a 1.5 KB hole this way costs three orders
  // of magnitude less than re-requesting the whole 256 KB chunk.
  kRepair = 3,
};

// Which content stream a message belongs to; dispatches to the right engine.
enum class ContentKind : std::uint8_t {
  kMetadata = 0,  // PDD: metadata discovery
  kItem = 1,      // PDD-style retrieval of many small data items
  kCdi = 2,       // PDR phase 1: chunk distribution information
  kChunk = 3,     // PDR phase 2 / MDR: data chunks
};

// One ChunkId–HopCount pair of a CDI response (§IV-A).
struct CdiEntry {
  ChunkIndex chunk = 0;
  std::uint32_t hop_count = 0;

  friend bool operator==(const CdiEntry&, const CdiEntry&) = default;
};

// A data chunk in flight. Simulated payloads carry a content hash instead of
// size_bytes of real data; the codec charges the full size on the wire.
struct ChunkPayload {
  ChunkIndex index = 0;
  std::uint32_t size_bytes = 0;
  std::uint64_t content_hash = 0;

  friend bool operator==(const ChunkPayload&, const ChunkPayload&) = default;
};

// A complete small data item (descriptor + payload) for the many-small-items
// scenario (§IV intro).
struct ItemPayload {
  core::DataDescriptor descriptor;
  std::uint32_t size_bytes = 0;
  std::uint64_t content_hash = 0;

  friend bool operator==(const ItemPayload&, const ItemPayload&) = default;
};

// Causal trace context riding every message (DESIGN.md §14). `trace_id`
// names the consumer session the message serves (the session's first query
// id, already globally unique); `parent_span` is the span id of the tx event
// that put this copy on the path, so receivers can link their recv spans
// into one cross-node DAG; `origin` is the consuming node; `hop` counts
// forwards from the origin. A zero trace_id means "no context" — the
// default, and what single messages built outside a session carry.
//
// The context is simulation metadata: it is stamped unconditionally (so a
// traced run stays bit-identical to an untraced one) and costs nothing on
// the wire unless WireConfig::carry_trace_context opts the codec into the
// versioned extension (net/codec.h).
struct TraceContext {
  std::uint64_t trace_id = 0;     // 0 = no context
  std::uint64_t parent_span = 0;  // span id of the sending tx event
  std::uint32_t origin = 0xffffffffu;  // NodeId::invalid().value()
  std::uint8_t hop = 0;           // forwards from the origin

  [[nodiscard]] bool valid() const { return trace_id != 0; }

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

// Every field of a message except its entry payload. Relays that forward a
// subset of a response's entries copy the header whole and then only the
// entries they keep (PddEngine's pruned relays), so any field that is not
// payload belongs here.
struct MessageHeader : sim::FramePayload {
  MessageType type = MessageType::kQuery;
  ContentKind kind = ContentKind::kMetadata;

  QueryId query_id;        // queries; echoed in responses for bookkeeping
  ResponseId response_id;  // responses
  NodeId sender;           // transmitting node at the current hop
  std::vector<NodeId> receivers;  // empty = all neighbors should relay
  SimTime expire_at = SimTime::max();  // lingering-query expiration
  // Remaining hop budget for queries; 0 means unlimited. The paper notes
  // propagation "can be limited easily with a hop counter if needed"
  // (§III-A.1); recursive chunk queries rely on it to cut routing loops from
  // stale CDI entries.
  std::uint8_t ttl = 0;

  core::Filter filter;                           // metadata/item queries
  std::optional<core::DataDescriptor> target;    // CDI/chunk: requested item
  util::BloomFilter exclude;                     // redundancy detection
  // Delta-sync form of the exclude filter (DESIGN.md §16): when a
  // delta-aware discovery session attaches a frame, `exclude` stays empty
  // and receivers reconstruct their view of it through the node's
  // BloomSyncCache. Relays that rewrote the filter en route drop back to
  // the classic `exclude` encoding.
  std::optional<BloomDeltaFrame> exclude_delta;
  std::vector<ChunkIndex> requested_chunks;      // chunk queries

  // Acks: ids of the acknowledged packets. Receivers batch acks for a few
  // milliseconds and send one control frame (delayed-ack aggregation); under
  // saturation hundreds of per-packet ack frames would otherwise starve in
  // the contended medium and trigger spurious data retransmissions.
  std::vector<std::uint64_t> ack_tokens;
  NodeId acker;  // acks: who acknowledges

  // Causal trace context (see TraceContext above). Never consulted by
  // protocol logic — only by trace emission and, when enabled, the codec.
  TraceContext trace;
};

struct Message : MessageHeader {
  // The payload, and nothing else (see the static_assert below).
  std::vector<core::DataDescriptor> metadata;    // metadata responses
  std::vector<CdiEntry> cdi;                     // CDI responses
  std::optional<ChunkPayload> chunk;             // chunk responses
  std::vector<ItemPayload> items;                // item responses

  [[nodiscard]] bool is_query() const { return type == MessageType::kQuery; }
  [[nodiscard]] bool is_response() const {
    return type == MessageType::kResponse;
  }
  [[nodiscard]] bool is_ack() const { return type == MessageType::kAck; }
  [[nodiscard]] bool is_repair() const {
    return type == MessageType::kRepair;
  }

  // Token identifying this message for per-hop ack/retransmission.
  [[nodiscard]] std::uint64_t ack_key() const {
    return is_query() ? query_id.value() : response_id.value();
  }

  [[nodiscard]] bool addressed_to(NodeId id) const;
};

// A field added to Message instead of MessageHeader would be dropped by
// copies that rebuild the payload; this fails the build instead.
static_assert(sizeof(Message) ==
              sizeof(MessageHeader) + sizeof(Message::metadata) +
                  sizeof(Message::cdi) + sizeof(Message::chunk) +
                  sizeof(Message::items));

using MessagePtr = std::shared_ptr<const Message>;

}  // namespace pds::net
