// Wire codec tests: lossless round trips for every message shape and the
// sizing rules the overhead metric depends on.
#include <gtest/gtest.h>

#include "net/codec.h"
#include "net/message.h"

namespace pds::net {
namespace {

core::DataDescriptor item_descriptor() {
  core::DataDescriptor d;
  d.set(core::kAttrNamespace, std::string("media"));
  d.set(core::kAttrDataType, std::string("video"));
  d.set(core::kAttrName, std::string("clip"));
  d.set(core::kAttrTotalChunks, std::int64_t{80});
  return d;
}

Message base_query() {
  Message m;
  m.type = MessageType::kQuery;
  m.kind = ContentKind::kMetadata;
  m.query_id = QueryId(0xabcdef);
  m.sender = NodeId(7);
  m.expire_at = SimTime::seconds(12.5);
  m.ttl = 6;
  return m;
}

void expect_equal(const Message& a, const Message& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.query_id, b.query_id);
  EXPECT_EQ(a.response_id, b.response_id);
  EXPECT_EQ(a.sender, b.sender);
  EXPECT_EQ(a.receivers, b.receivers);
  EXPECT_EQ(a.expire_at, b.expire_at);
  EXPECT_EQ(a.ttl, b.ttl);
  EXPECT_EQ(a.filter, b.filter);
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.requested_chunks, b.requested_chunks);
  EXPECT_EQ(a.metadata, b.metadata);
  EXPECT_EQ(a.cdi, b.cdi);
  EXPECT_EQ(a.chunk, b.chunk);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.ack_tokens, b.ack_tokens);
  EXPECT_EQ(a.acker, b.acker);
}

TEST(Codec, MetadataQueryRoundTrip) {
  Codec codec;
  Message m = base_query();
  m.receivers = {NodeId(1), NodeId(2)};
  m.filter.where("type", core::Relation::kEq, std::string("nox"));
  m.exclude = util::BloomFilter::with_capacity(100, 0.01, 3);
  m.exclude.insert(42);

  const Message out = codec.decode(codec.encode(m));
  expect_equal(out, m);
  EXPECT_TRUE(out.exclude.maybe_contains(42));
  EXPECT_EQ(out.exclude.seed(), m.exclude.seed());
}

TEST(Codec, MetadataResponseRoundTrip) {
  Codec codec;
  Message m;
  m.type = MessageType::kResponse;
  m.kind = ContentKind::kMetadata;
  m.response_id = ResponseId(99);
  m.sender = NodeId(3);
  m.receivers = {NodeId(4)};
  for (int i = 0; i < 5; ++i) {
    core::DataDescriptor d;
    d.set("seq", std::int64_t{i});
    m.metadata.push_back(std::move(d));
  }
  expect_equal(codec.decode(codec.encode(m)), m);
}

TEST(Codec, CdiMessagesRoundTrip) {
  Codec codec;
  Message q = base_query();
  q.kind = ContentKind::kCdi;
  q.target = item_descriptor();
  expect_equal(codec.decode(codec.encode(q)), q);

  Message r;
  r.type = MessageType::kResponse;
  r.kind = ContentKind::kCdi;
  r.response_id = ResponseId(5);
  r.sender = NodeId(2);
  r.receivers = {NodeId(9)};
  r.target = item_descriptor();
  r.cdi = {{.chunk = 0, .hop_count = 1}, {.chunk = 7, .hop_count = 0}};
  expect_equal(codec.decode(codec.encode(r)), r);
}

TEST(Codec, ChunkMessagesRoundTrip) {
  Codec codec;
  Message q = base_query();
  q.kind = ContentKind::kChunk;
  q.target = item_descriptor();
  q.requested_chunks = {1, 5, 9};
  q.receivers = {NodeId(11)};
  expect_equal(codec.decode(codec.encode(q)), q);

  Message r;
  r.type = MessageType::kResponse;
  r.kind = ContentKind::kChunk;
  r.response_id = ResponseId(6);
  r.sender = NodeId(12);
  r.receivers = {NodeId(13)};
  r.target = item_descriptor();
  r.chunk = ChunkPayload{.index = 5, .size_bytes = 262144, .content_hash = 77};
  expect_equal(codec.decode(codec.encode(r)), r);
}

TEST(Codec, ItemResponseRoundTrip) {
  Codec codec;
  Message r;
  r.type = MessageType::kResponse;
  r.kind = ContentKind::kItem;
  r.response_id = ResponseId(8);
  r.sender = NodeId(1);
  r.receivers = {NodeId(2)};
  ItemPayload item;
  item.descriptor.set("seq", std::int64_t{1});
  item.size_bytes = 120;
  item.content_hash = 333;
  r.items.push_back(item);
  expect_equal(codec.decode(codec.encode(r)), r);
}

TEST(Codec, AckRoundTrip) {
  Codec codec;
  Message ack;
  ack.type = MessageType::kAck;
  ack.ack_tokens = {111, 222, 333};
  ack.acker = NodeId(5);
  const Message out = codec.decode(codec.encode(ack));
  EXPECT_EQ(out.ack_tokens, ack.ack_tokens);
  EXPECT_EQ(out.acker, ack.acker);
}

TEST(Codec, RepairRoundTrip) {
  Codec codec;
  Message rep;
  rep.type = MessageType::kRepair;
  rep.ack_tokens = {777};
  rep.acker = NodeId(6);
  rep.requested_chunks = {3, 14, 15};
  const Message out = codec.decode(codec.encode(rep));
  EXPECT_EQ(out.ack_tokens, rep.ack_tokens);
  EXPECT_EQ(out.acker, rep.acker);
  EXPECT_EQ(out.requested_chunks, rep.requested_chunks);
}

TEST(Codec, DecodeRejectsGarbage) {
  Codec codec;
  std::vector<std::byte> junk{std::byte{0xff}, std::byte{0x00}};
  EXPECT_THROW((void)codec.decode(junk), DecodeError);
}

// -- Wire sizing ----------------------------------------------------------------

TEST(Codec, MetadataEntriesChargedThirtyBytesByDefault) {
  // Paper §VI-A: each metadata entry is 30 bytes.
  Codec codec;
  Message r;
  r.type = MessageType::kResponse;
  r.kind = ContentKind::kMetadata;
  r.sender = NodeId(1);
  r.receivers = {NodeId(2)};
  const std::size_t empty = codec.wire_size(r);
  for (int i = 0; i < 10; ++i) {
    core::DataDescriptor d;
    d.set("seq", std::int64_t{i});
    r.metadata.push_back(std::move(d));
  }
  EXPECT_EQ(codec.wire_size(r), empty + 10 * 30);
}

TEST(Codec, FlatChargeSizesCompressedEntriesInTheClassicLayout) {
  // The flat per-entry charge wins over compress_entries: the entry
  // section is sized in the classic layout (u16 counts, 30 B per entry,
  // 4 + size_bytes per item), and the extension byte still counts.
  Message r;
  r.type = MessageType::kResponse;
  r.kind = ContentKind::kMetadata;
  r.sender = NodeId(1);
  r.receivers = {NodeId(2)};
  const std::size_t classic_empty = Codec().wire_size(r);
  for (int i = 0; i < 3; ++i) {
    core::DataDescriptor d;
    d.set("seq", std::int64_t{i});
    r.metadata.push_back(std::move(d));
  }
  ItemPayload item;
  item.descriptor = item_descriptor();
  item.size_bytes = 1000;
  item.content_hash = 7;
  r.items.push_back(item);
  const Codec codec{WireConfig{.compress_entries = true}};
  ASSERT_NE(std::to_integer<int>(codec.encode(r)[0]) & kWireExtFlag, 0);
  EXPECT_EQ(codec.wire_size(r), 1 + classic_empty + 3 * 30 + (30 + 4 + 1000));
}

TEST(Codec, ActualEncodingChargedWhenOverrideDisabled) {
  Codec codec{WireConfig{.metadata_entry_bytes = 0}};
  Message r;
  r.type = MessageType::kResponse;
  r.kind = ContentKind::kMetadata;
  r.sender = NodeId(1);
  r.receivers = {NodeId(2)};
  core::DataDescriptor d;
  d.set("some_longer_attribute_name", std::string("with a string value"));
  const std::size_t entry = d.encoded_size();
  const std::size_t empty = codec.wire_size(r);
  r.metadata.push_back(std::move(d));
  EXPECT_EQ(codec.wire_size(r), empty + entry);
}

TEST(Codec, ChunkPayloadChargedFullSize) {
  Codec codec;
  Message r;
  r.type = MessageType::kResponse;
  r.kind = ContentKind::kChunk;
  r.sender = NodeId(1);
  r.receivers = {NodeId(2)};
  r.target = item_descriptor();
  const std::size_t without = codec.wire_size(r);
  r.chunk = ChunkPayload{.index = 0, .size_bytes = 262144, .content_hash = 1};
  EXPECT_EQ(codec.wire_size(r), without + 262144 + 8);
}

TEST(Codec, AckSizeScalesWithTokens) {
  Codec codec;
  Message ack;
  ack.type = MessageType::kAck;
  ack.acker = NodeId(1);
  ack.ack_tokens = {1};
  const std::size_t one = codec.wire_size(ack);
  ack.ack_tokens.assign(10, 7);
  EXPECT_EQ(codec.wire_size(ack), one + 9 * 8);
  EXPECT_LT(one, 30u);  // acks stay tiny
}

TEST(Codec, BloomFilterAddsItsWireSize) {
  Codec codec;
  Message q = base_query();
  const std::size_t bare = codec.wire_size(q);
  q.exclude = util::BloomFilter::with_capacity(5000, 0.01, 1);
  EXPECT_EQ(codec.wire_size(q), bare - 1 + q.exclude.wire_size());
}

TEST(Codec, QuerySizeIsSmall) {
  // A first-round discovery query must fit well inside one 1.5 KB packet.
  Codec codec;
  EXPECT_LT(codec.wire_size(base_query()), 100u);
}

// -- Trace-context wire extension (DESIGN.md §14) -------------------------------

TEST(Codec, TraceContextRoundTripWhenCarried) {
  WireConfig cfg;
  cfg.carry_trace_context = true;
  Codec codec(cfg);
  Message m = base_query();
  m.trace = TraceContext{0x1122334455667788ull, (9000ull + 1) << 40 | 17, 8999u,
                         3};
  const Message out = codec.decode(codec.encode(m));
  expect_equal(out, m);
  EXPECT_EQ(out.trace, m.trace);
  EXPECT_EQ(codec.wire_size(m), Codec().wire_size(m) + kTraceContextBytes);
}

TEST(Codec, TraceContextCostsNothingWhenDisabled) {
  // The default codec must produce byte-identical frames whether or not the
  // in-memory message carries a trace: disabled tracing is wire-invisible.
  Codec codec;
  Message traced = base_query();
  traced.trace = TraceContext{42, 7, 1, 2};
  Message untraced = base_query();
  EXPECT_EQ(codec.encode(traced), codec.encode(untraced));
  EXPECT_EQ(codec.wire_size(traced), codec.wire_size(untraced));
  // The round trip drops the context (it never hit the wire).
  EXPECT_FALSE(codec.decode(codec.encode(traced)).trace.valid());
}

TEST(Codec, InvalidTraceContextNotCarriedEvenWhenEnabled) {
  // An enabled codec only spends the extension bytes on messages that have
  // a context; a zero trace_id encodes exactly like the plain codec.
  WireConfig cfg;
  cfg.carry_trace_context = true;
  Codec codec(cfg);
  const Message m = base_query();
  EXPECT_EQ(codec.encode(m), Codec().encode(m));
  EXPECT_EQ(codec.wire_size(m), Codec().wire_size(m));
}

TEST(Codec, PlainFramesDecodeUnderTraceEnabledCodec) {
  WireConfig cfg;
  cfg.carry_trace_context = true;
  Codec codec(cfg);
  const Message m = base_query();
  const Message out = codec.decode(Codec().encode(m));
  expect_equal(out, m);
  EXPECT_FALSE(out.trace.valid());
}

TEST(Codec, TraceFlagOnControlFrameIsRejected) {
  Codec codec;
  Message ack;
  ack.type = MessageType::kAck;
  ack.acker = NodeId(6);
  ack.ack_tokens = {12345};
  std::vector<std::byte> bytes = codec.encode(ack);
  bytes[0] |= std::byte{kTraceContextFlag};
  EXPECT_THROW((void)codec.decode(bytes), DecodeError);
}

TEST(Codec, TruncatedTraceTrailerIsRejected) {
  WireConfig cfg;
  cfg.carry_trace_context = true;
  Codec codec(cfg);
  Message m = base_query();
  m.trace = TraceContext{42, 7, 1, 2};
  std::vector<std::byte> bytes = codec.encode(m);
  bytes.resize(bytes.size() - kTraceContextBytes / 2);
  EXPECT_THROW((void)codec.decode(bytes), DecodeError);
}

}  // namespace
}  // namespace pds::net
