// Golden wire vectors (DESIGN.md §16): checked-in hex encodings of every
// frame type, classic and v2. Any byte-level drift in the codec — field
// order, varint canonicalization, extension flag layout — fails these tests
// before it can silently break interop between nodes built from different
// revisions. When a change *intends* to alter the wire format, the fixtures
// must be regenerated (run with --gtest_also_run_disabled_tests to print
// actuals) and the change called out as a wire-compat break.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/bloom_delta.h"
#include "net/codec.h"

namespace pds::net {
namespace {

std::string hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  s.reserve(bytes.size() * 2);
  for (const std::byte b : bytes) {
    const int v = std::to_integer<int>(b);
    s.push_back(kDigits[v >> 4]);
    s.push_back(kDigits[v & 0xf]);
  }
  return s;
}

// Asserts the encoding matches the checked-in fixture byte for byte, and
// that the fixture decodes back to a message that re-encodes identically
// (so the golden bytes are also a decoder regression vector).
void expect_golden(const char* name, const Codec& codec, const Message& m,
                   std::string_view expected) {
  const std::vector<std::byte> wire = codec.encode(m);
  const std::string actual = hex(wire);
  EXPECT_EQ(actual, expected)
      << "golden fixture '" << name << "' drifted; actual bytes:\n"
      << actual;
  const Message back = codec.decode(wire);
  EXPECT_EQ(hex(codec.encode(back)), actual) << name;
  EXPECT_EQ(codec.wire_size(m), codec.wire_size(back)) << name;
}

// Deterministic building blocks shared by fixtures.

util::BloomFilter golden_bloom() {
  util::BloomFilter f = util::BloomFilter::with_capacity(128, 0.01, 42);
  for (std::uint64_t k = 1; k <= 5; ++k) f.insert(k);
  return f;
}

core::DataDescriptor golden_descriptor(int salt) {
  core::DataDescriptor d;
  d.set("kind", std::string("video"));
  d.set("segment", static_cast<std::int64_t>(100 + salt));
  d.set("quality", 0.75);
  return d;
}

Message golden_ack() {
  Message m;
  m.type = MessageType::kAck;
  m.ack_tokens = {0x1111, 0x2222};
  m.acker = NodeId(7);
  return m;
}

Message golden_repair() {
  Message m;
  m.type = MessageType::kRepair;
  m.ack_tokens = {0xabcd};
  m.acker = NodeId(9);
  m.requested_chunks = {3, 4, 7};
  return m;
}

Message golden_metadata_query() {
  Message m;
  m.type = MessageType::kQuery;
  m.kind = ContentKind::kMetadata;
  m.query_id = QueryId(0x1234);
  m.sender = NodeId(5);
  m.receivers = {NodeId(1), NodeId(2)};
  m.expire_at = SimTime::micros(5'000'000);
  m.ttl = 4;
  m.filter.where("region", core::Relation::kEq, std::string("plaza"));
  m.filter.where("age_s", core::Relation::kLe, static_cast<std::int64_t>(60));
  m.exclude = golden_bloom();
  return m;
}

Message golden_chunk_query() {
  Message m;
  m.type = MessageType::kQuery;
  m.kind = ContentKind::kChunk;
  m.query_id = QueryId(0x5678);
  m.sender = NodeId(3);
  m.expire_at = SimTime::micros(2'000'000);
  m.ttl = 8;
  m.target = golden_descriptor(0);
  m.requested_chunks = {2, 3, 5, 9};
  return m;
}

// Bloom-sync frames as a discovery session would emit them: a full snapshot
// (seq 0) then a delta (seq 1) after more inserts.
struct GoldenDeltaFrames {
  BloomDeltaFrame full;
  BloomDeltaFrame delta;
};

GoldenDeltaFrames golden_delta_frames() {
  DeltaBloomSender sender;
  util::BloomFilter f = util::BloomFilter::with_capacity(64, 0.01, 7);
  for (std::uint64_t k = 1; k <= 3; ++k) f.insert(k);
  GoldenDeltaFrames frames;
  frames.full = sender.next_frame(0x1234, 1, f);
  f.insert(4);
  f.insert(5);
  frames.delta = sender.next_frame(0x1234, 1, f);
  return frames;
}

Message golden_v2_query(const BloomDeltaFrame& frame) {
  Message m;
  m.type = MessageType::kQuery;
  m.kind = ContentKind::kChunk;
  m.query_id = QueryId(0x1234);
  m.sender = NodeId(5);
  m.expire_at = SimTime::micros(5'000'000);
  m.ttl = 4;
  m.target = golden_descriptor(0);
  m.exclude_delta = frame;
  m.requested_chunks = {2, 3, 5, 9};  // strictly increasing: bitmap engages
  return m;
}

Message golden_metadata_response() {
  Message m;
  m.type = MessageType::kResponse;
  m.kind = ContentKind::kMetadata;
  m.response_id = ResponseId(0x9999);
  m.sender = NodeId(11);
  m.receivers = {NodeId(5)};
  m.metadata = {golden_descriptor(0), golden_descriptor(1),
                golden_descriptor(2)};
  return m;
}

Message golden_cdi_response() {
  Message m;
  m.type = MessageType::kResponse;
  m.kind = ContentKind::kCdi;
  m.response_id = ResponseId(0x7777);
  m.sender = NodeId(13);
  m.receivers = {NodeId(3)};
  m.target = golden_descriptor(0);
  m.cdi = {{.chunk = 0, .hop_count = 1},
           {.chunk = 1, .hop_count = 1},
           {.chunk = 3, .hop_count = 2},
           {.chunk = 6, .hop_count = 2}};
  return m;
}

Message golden_chunk_response() {
  Message m;
  m.type = MessageType::kResponse;
  m.kind = ContentKind::kChunk;
  m.response_id = ResponseId(0x4242);
  m.sender = NodeId(2);
  m.receivers = {NodeId(3)};
  m.target = golden_descriptor(0);
  m.chunk = ChunkPayload{
      .index = 5, .size_bytes = 256 * 1024, .content_hash = 0xdeadbeef};
  return m;
}

Message golden_item_response() {
  Message m;
  m.type = MessageType::kResponse;
  m.kind = ContentKind::kItem;
  m.response_id = ResponseId(0x3131);
  m.sender = NodeId(17);
  m.receivers = {NodeId(4)};
  ItemPayload item;
  item.descriptor = golden_descriptor(3);
  item.size_bytes = 900;
  item.content_hash = 0xfeedface;
  m.items = {item};
  return m;
}

TEST(WireGolden, Ack) {
  expect_golden("ack", Codec{}, golden_ack(),
                "0202001111000000000000222200000000000007000000");
}

TEST(WireGolden, Repair) {
  expect_golden("repair", Codec{}, golden_repair(),
                "03cdab000000000000090000000300030000000400000007000000");
}

TEST(WireGolden, ClassicMetadataQuery) {
  expect_golden(
      "classic-metadata-query", Codec{}, golden_metadata_query(),
      "0000050000003412000000000000404b4c000000000004020100000002000000"
      "0002000600726567696f6e00020500706c617a6105006167655f7303003c0000"
      "00000000000100050000072a0000000000000000000400008200000102000000"
      "0000000000004000000000000040000000000080002000000000004080220800"
      "0000002000000000000010100000000000000018000000000000000400000000"
      "0000002200000000008000000000000000000000000000000000010010040100"
      "0000000000000004000000000000000008000000000000000000000002800000"
      "400000200100100000000000000000000000000000");
}

TEST(WireGolden, ClassicChunkQuery) {
  expect_golden(
      "classic-chunk-query", Codec{}, golden_chunk_query(),
      "000303000000785600000000000080841e0000000000080001030004006b696e"
      "64020500766964656f07007175616c69747901000000000000e83f0700736567"
      "6d656e7400640000000000000000000004000200000003000000050000000900"
      "0000");
}

TEST(WireGolden, V2QueryFullDeltaFrame) {
  WireConfig cfg;
  cfg.delta_bloom = true;
  cfg.chunk_bitmap = true;
  const GoldenDeltaFrames frames = golden_delta_frames();
  expect_golden(
      "v2-query-full-delta", Codec(cfg), golden_v2_query(frames.full),
      "400503050000003412000000000000404b4c0000000000040001030004006b69"
      "6e64020500766964656f07007175616c69747901000000000000e83f07007365"
      "676d656e74006400000000000000000034120000000000000100018005070700"
      "0000000000006357d5d89536613f0a0000000000004000000100800000000000"
      "0001000000000000000201000000040004200001000000020000004001000201"
      "1000000000010000080100000000010004400000000000010120000008000000"
      "01100010800000000002088b");
}

TEST(WireGolden, V2QueryDeltaFrame) {
  WireConfig cfg;
  cfg.delta_bloom = true;
  cfg.chunk_bitmap = true;
  const GoldenDeltaFrames frames = golden_delta_frames();
  expect_golden("v2-query-delta", Codec(cfg),
                golden_v2_query(frames.delta),
                "400503050000003412000000000000404b4c0000000000040001030004006b69"
      "6e64020500766964656f07007175616c69747901000000000000e83f07007365"
      "676d656e74006400000000000000000034120000000000000101006357d5d895"
      "36613f66380e188d63108d090000080000004000000200000000000200020100"
      "0000040004221001000010020000004001800201100000000001000008050000"
      "000001000440000020002001012000000900800101104010800000000002088b");
}

TEST(WireGolden, ClassicMetadataResponse) {
  expect_golden(
      "classic-metadata-response", Codec{}, golden_metadata_response(),
      "01000b0000009999000000000000ffffffffffffff7f00010500000000030003"
      "0004006b696e64020500766964656f07007175616c69747901000000000000e8"
      "3f07007365676d656e74006400000000000000030004006b696e640205007669"
      "64656f07007175616c69747901000000000000e83f07007365676d656e740065"
      "00000000000000030004006b696e64020500766964656f07007175616c697479"
      "01000000000000e83f07007365676d656e740066000000000000000000000000");
}

TEST(WireGolden, ClassicCdiResponse) {
  expect_golden("classic-cdi-response", Codec{}, golden_cdi_response(),
                "01020d0000007777000000000000ffffffffffffff7f00010300000001030004"
      "006b696e64020500766964656f07007175616c69747901000000000000e83f07"
      "007365676d656e74006400000000000000000004000000000001000000010000"
      "000100000003000000020000000600000002000000000000");
}

TEST(WireGolden, ChunkResponse) {
  expect_golden("chunk-response", Codec{}, golden_chunk_response(),
                "0103020000004242000000000000ffffffffffffff7f00010300000001030004"
      "006b696e64020500766964656f07007175616c69747901000000000000e83f07"
      "007365676d656e7400640000000000000000000000010500000000000400efbe"
      "adde000000000000");
}

TEST(WireGolden, ItemResponse) {
  expect_golden("item-response", Codec{}, golden_item_response(),
                "0101110000003131000000000000ffffffffffffff7f00010400000000000000"
      "00000100030004006b696e64020500766964656f07007175616c697479010000"
      "00000000e83f07007365676d656e7400670000000000000084030000cefaedfe"
      "00000000");
}

TEST(WireGolden, V2CompressedResponse) {
  WireConfig cfg;
  cfg.compress_entries = true;
  cfg.chunk_bitmap = true;
  cfg.metadata_entry_bytes = 0;
  expect_golden("v2-compressed-metadata-response", Codec(cfg),
                golden_metadata_response(), "4102000b0000009999000000000000ffffffffffffff7f000105000000000304"
      "006b696e6407007175616c69747907007365676d656e74030300020005007669"
      "64656f0101000000000000e83f0200c8010300020500000101000000000000e8"
      "3f0200ca010300020500000101000000000000e83f0200cc0100000000");
  expect_golden("v2-cdi-bitmap-response", Codec(cfg), golden_cdi_response(),
                "4104020d0000007777000000000000ffffffffffffff7f000103000000010300"
      "04006b696e64020500766964656f07007175616c69747901000000000000e83f"
      "07007365676d656e740064000000000000000000020100020302030409000000");
}

TEST(WireGolden, TraceContextQuery) {
  WireConfig cfg;
  cfg.carry_trace_context = true;
  Message m = golden_metadata_query();
  m.trace =
      TraceContext{.trace_id = 0x1234, .parent_span = 0x9abc, .origin = 5,
                   .hop = 2};
  expect_golden("trace-context-query", Codec(cfg), m,
      "8000050000003412000000000000404b4c000000000004020100000002000000"
      "0002000600726567696f6e00020500706c617a6105006167655f7303003c0000"
      "00000000000100050000072a0000000000000000000400008200000102000000"
      "0000000000004000000000000040000000000080002000000000004080220800"
      "0000002000000000000010100000000000000018000000000000000400000000"
      "0000002200000000008000000000000000000000000000000000010010040100"
      "0000000000000004000000000000000008000000000000000000000002800000"
      "4000002001001000000000000000000000000000003412000000000000bc9a00"
      "00000000000500000002");
}

TEST(WireGolden, TraceContextPlusV2Extensions) {
  WireConfig cfg;
  cfg.carry_trace_context = true;
  cfg.delta_bloom = true;
  cfg.chunk_bitmap = true;
  const GoldenDeltaFrames frames = golden_delta_frames();
  Message m = golden_v2_query(frames.full);
  m.trace =
      TraceContext{.trace_id = 0x1234, .parent_span = 0x9abc, .origin = 5,
                   .hop = 2};
  expect_golden("trace-plus-v2-query", Codec(cfg), m, "c00503050000003412000000000000404b4c0000000000040001030004006b69"
      "6e64020500766964656f07007175616c69747901000000000000e83f07007365"
      "676d656e74006400000000000000000034120000000000000100018005070700"
      "0000000000006357d5d89536613f0a0000000000004000000100800000000000"
      "0001000000000000000201000000040004200001000000020000004001000201"
      "1000000000010000080100000000010004400000000000010120000008000000"
      "01100010800000000002088b3412000000000000bc9a00000000000005000000"
      "02");
}

// The golden Bloom-sync frames themselves, at the frame codec level.
TEST(WireGolden, BloomDeltaFrames) {
  const GoldenDeltaFrames frames = golden_delta_frames();
  ByteWriter wf;
  frames.full.encode(wf);
  EXPECT_EQ(hex(wf.bytes()), "341200000000000001000180050707000000000000006357d5d89536613f0a00"
            "0000000000400000010080000000000000010000000000000002010000000400"
            "0420000100000002000000400100020110000000000100000801000000000100"
            "04400000000000010120000008000000011000108000000000");
  ByteWriter wd;
  frames.delta.encode(wd);
  EXPECT_EQ(hex(wd.bytes()), "34120000000000000101006357d5d89536613f66380e188d63108d0900000800"
            "0000400000020000000000020002010000000400042210010000100200000040"
            "0180020110000000000100000805000000000100044000002000200101200000"
            "09008001011040108000000000");
}

}  // namespace
}  // namespace pds::net
