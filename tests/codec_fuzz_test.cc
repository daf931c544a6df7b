// Property tests for the wire codec: randomly generated messages of every
// shape must round-trip losslessly (encode → decode → encode gives identical
// bytes), their length must equal wire_size up to the two sizing rules of
// net/codec.cc, and the decoder must reject truncations of valid messages
// without crashing.
//
// The v2 extension suites (DESIGN.md §16) add structure-aware coverage:
// random wire configs mixing delta-Bloom, compressed-entry and chunk-bitmap
// emission, plus mutation fuzzing (truncation, bit-flips, epoch/seq skew)
// asserting every malformed input raises DecodeError — never UB.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/bytes.h"
#include "common/rng.h"
#include "net/bloom_delta.h"
#include "net/codec.h"
#include "tests/codec_fuzz_harness.h"

namespace pds::net {
namespace {

core::DataDescriptor random_descriptor(Rng& rng) {
  core::DataDescriptor d;
  const int attrs = static_cast<int>(rng.uniform_int(1, 6));
  for (int i = 0; i < attrs; ++i) {
    const std::string name =
        std::string("a") + std::to_string(rng.uniform_int(0, 9));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        d.set(name, rng.uniform_int(-1000000, 1000000));
        break;
      case 1:
        d.set(name, rng.uniform(-1e6, 1e6));
        break;
      default:
        d.set(name, std::string("v") + std::to_string(rng.next_u64() % 1000));
    }
  }
  return d;
}

Message random_message(Rng& rng) {
  Message m;
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      m.type = MessageType::kAck;
      const int n = static_cast<int>(rng.uniform_int(1, 20));
      for (int i = 0; i < n; ++i) m.ack_tokens.push_back(rng.next_u64());
      m.acker = NodeId(static_cast<std::uint32_t>(rng.uniform_int(0, 100)));
      return m;
    }
    case 1: {
      m.type = MessageType::kRepair;
      m.ack_tokens = {rng.next_u64()};
      m.acker = NodeId(static_cast<std::uint32_t>(rng.uniform_int(0, 100)));
      const int n = static_cast<int>(rng.uniform_int(1, 30));
      for (int i = 0; i < n; ++i) {
        m.requested_chunks.push_back(
            static_cast<ChunkIndex>(rng.uniform_int(0, 500)));
      }
      return m;
    }
    case 2:
      m.type = MessageType::kQuery;
      break;
    default:
      m.type = MessageType::kResponse;
      break;
  }
  m.kind = static_cast<ContentKind>(rng.uniform_int(0, 3));
  if (m.is_query()) {
    m.query_id = QueryId(rng.next_u64());
  } else {
    m.response_id = ResponseId(rng.next_u64());
  }
  m.sender = NodeId(static_cast<std::uint32_t>(rng.uniform_int(0, 200)));
  const int receivers = static_cast<int>(rng.uniform_int(0, 5));
  for (int i = 0; i < receivers; ++i) {
    m.receivers.push_back(
        NodeId(static_cast<std::uint32_t>(rng.uniform_int(0, 200))));
  }
  m.expire_at = SimTime::micros(rng.uniform_int(0, 1'000'000'000));
  m.ttl = static_cast<std::uint8_t>(rng.uniform_int(0, 16));
  if (rng.bernoulli(0.5)) m.target = random_descriptor(rng);

  if (m.is_query()) {
    const int preds = static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < preds; ++i) {
      m.filter.where(std::string("p") + std::to_string(i),
                     static_cast<core::Relation>(rng.uniform_int(0, 5)),
                     rng.uniform_int(-100, 100));
    }
    if (rng.bernoulli(0.5)) {
      m.exclude = util::BloomFilter::with_capacity(
          static_cast<std::size_t>(rng.uniform_int(1, 500)), 0.01,
          rng.next_u64());
      for (int i = 0; i < 20; ++i) m.exclude.insert(rng.next_u64());
    }
    const int chunks = static_cast<int>(rng.uniform_int(0, 10));
    for (int i = 0; i < chunks; ++i) {
      m.requested_chunks.push_back(
          static_cast<ChunkIndex>(rng.uniform_int(0, 100)));
    }
  } else {
    const int entries = static_cast<int>(rng.uniform_int(0, 8));
    for (int i = 0; i < entries; ++i) {
      m.metadata.push_back(random_descriptor(rng));
    }
    const int cdi = static_cast<int>(rng.uniform_int(0, 8));
    for (int i = 0; i < cdi; ++i) {
      m.cdi.push_back(CdiEntry{
          .chunk = static_cast<ChunkIndex>(rng.uniform_int(0, 100)),
          .hop_count = static_cast<std::uint32_t>(rng.uniform_int(0, 10))});
    }
    if (rng.bernoulli(0.3)) {
      m.chunk = ChunkPayload{
          .index = static_cast<ChunkIndex>(rng.uniform_int(0, 100)),
          .size_bytes = static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 20)),
          .content_hash = rng.next_u64()};
    }
    const int items = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < items; ++i) {
      ItemPayload item;
      item.descriptor = random_descriptor(rng);
      item.size_bytes =
          static_cast<std::uint32_t>(rng.uniform_int(0, 10'000));
      item.content_hash = rng.next_u64();
      m.items.push_back(std::move(item));
    }
  }
  return m;
}

// Random BloomDeltaFrame as DiscoverySession would emit it: a sender tracking
// a growing filter, sometimes across epoch bumps.
BloomDeltaFrame random_delta_frame(Rng& rng) {
  DeltaBloomSender sender;
  util::BloomFilter filter = util::BloomFilter::with_capacity(
      static_cast<std::size_t>(rng.uniform_int(64, 2048)), 0.01,
      rng.next_u64());
  BloomDeltaFrame frame;
  const int steps = static_cast<int>(rng.uniform_int(1, 5));
  for (int s = 0; s < steps; ++s) {
    const int inserts = static_cast<int>(rng.uniform_int(1, 64));
    for (int i = 0; i < inserts; ++i) filter.insert(rng.next_u64());
    frame = sender.next_frame(rng.next_u64() % 4, 1, filter);
  }
  return frame;
}

// Extends `random_message` with the v2-extension payload shapes: delta-Bloom
// frames on queries, strictly increasing chunk lists (so the bitmap path
// engages) and chunk-sorted CDI views.
Message random_message_v2(Rng& rng) {
  Message m = random_message(rng);
  if (m.is_query() && rng.bernoulli(0.5)) {
    m.exclude = util::BloomFilter();
    m.exclude_delta = random_delta_frame(rng);
  }
  if (rng.bernoulli(0.5) && !m.requested_chunks.empty()) {
    std::sort(m.requested_chunks.begin(), m.requested_chunks.end());
    m.requested_chunks.erase(
        std::unique(m.requested_chunks.begin(), m.requested_chunks.end()),
        m.requested_chunks.end());
  }
  if (m.is_response() && rng.bernoulli(0.5) && !m.cdi.empty()) {
    std::sort(m.cdi.begin(), m.cdi.end(),
              [](const CdiEntry& a, const CdiEntry& b) {
                return a.chunk < b.chunk;
              });
    m.cdi.erase(std::unique(m.cdi.begin(), m.cdi.end(),
                            [](const CdiEntry& a, const CdiEntry& b) {
                              return a.chunk == b.chunk;
                            }),
                m.cdi.end());
  }
  return m;
}

WireConfig random_wire_config(Rng& rng) {
  WireConfig cfg;
  cfg.delta_bloom = rng.bernoulli(0.5);
  cfg.compress_entries = rng.bernoulli(0.5);
  cfg.chunk_bitmap = rng.bernoulli(0.5);
  cfg.carry_trace_context = rng.bernoulli(0.25);
  cfg.metadata_entry_bytes = rng.bernoulli(0.5) ? 0 : 30;
  return cfg;
}

// The bytes are the charge: with the flat entry charge off and every
// payload sized as the 8-byte content hash its bytes carry, wire_size is
// the length of encode. Only the two sizing rules of net/codec.cc may set
// them apart.
void expect_bytes_equal_charge(WireConfig cfg, Message m, int trial) {
  cfg.metadata_entry_bytes = 0;
  if (m.chunk.has_value()) m.chunk->size_bytes = 8;
  for (ItemPayload& item : m.items) item.size_bytes = 8;
  const Codec codec(cfg);
  EXPECT_EQ(codec.encode(m).size(), codec.wire_size(m)) << "trial " << trial;
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, EncodeDecodeEncodeIsStable) {
  Rng rng(GetParam());
  const Codec codec;
  for (int trial = 0; trial < 200; ++trial) {
    const Message m = random_message(rng);
    const std::vector<std::byte> wire = codec.encode(m);
    const Message decoded = codec.decode(wire);
    const std::vector<std::byte> wire2 = codec.encode(decoded);
    ASSERT_EQ(wire, wire2) << "trial " << trial;
    // wire_size is consistent for the decoded twin (same content ⇒ same
    // charge).
    EXPECT_EQ(codec.wire_size(m), codec.wire_size(decoded));
    expect_bytes_equal_charge(codec.config(), m, trial);
  }
}

TEST_P(CodecFuzz, TruncationsNeverCrash) {
  Rng rng(GetParam() ^ 0xfeed);
  const Codec codec;
  for (int trial = 0; trial < 50; ++trial) {
    const Message m = random_message(rng);
    const std::vector<std::byte> wire = codec.encode(m);
    for (std::size_t cut = 0; cut < wire.size();
         cut += 1 + wire.size() / 37) {
      const std::span<const std::byte> prefix(wire.data(), cut);
      try {
        (void)codec.decode(prefix);
        // Some prefixes happen to parse (e.g., an ack prefix of a larger
        // ack); that is fine — only crashes/UB would be bugs.
      } catch (const DecodeError&) {
        // expected for most cuts
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- v2 extension fuzzing (DESIGN.md §16) --------------------------------

class CodecFuzzV2 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzzV2, EncodeDecodeEncodeIsStable) {
  Rng rng(GetParam() ^ 0x5ec0de);
  for (int trial = 0; trial < 200; ++trial) {
    const Codec codec(random_wire_config(rng));
    const Message m = random_message_v2(rng);
    const std::vector<std::byte> wire = codec.encode(m);
    const Message decoded = codec.decode(wire);
    const std::vector<std::byte> wire2 = codec.encode(decoded);
    ASSERT_EQ(wire, wire2) << "trial " << trial;
    EXPECT_EQ(codec.wire_size(m), codec.wire_size(decoded)) << "trial "
                                                            << trial;
    expect_bytes_equal_charge(codec.config(), m, trial);
  }
}

// A classic-configured codec must decode every v2 frame (decode accepts all
// extensions regardless of config), and a v2 codec must decode classic
// frames — the negotiation-free interop contract.
TEST_P(CodecFuzzV2, CrossConfigDecodeSucceeds) {
  Rng rng(GetParam() ^ 0xc305);
  const Codec classic;
  for (int trial = 0; trial < 100; ++trial) {
    WireConfig v2;
    v2.delta_bloom = true;
    v2.compress_entries = true;
    v2.chunk_bitmap = true;
    const Codec emitter(v2);
    const Message m = random_message_v2(rng);
    const std::vector<std::byte> wire = emitter.encode(m);
    const Message decoded = classic.decode(wire);
    // Re-encoding through the same v2 config reproduces the bytes, proving
    // the classic codec recovered the full structure.
    EXPECT_EQ(emitter.encode(decoded), wire) << "trial " << trial;
  }
}

TEST_P(CodecFuzzV2, TruncationsNeverCrash) {
  Rng rng(GetParam() ^ 0xf2ed);
  for (int trial = 0; trial < 50; ++trial) {
    const Codec codec(random_wire_config(rng));
    const Message m = random_message_v2(rng);
    const std::vector<std::byte> wire = codec.encode(m);
    for (std::size_t cut = 0; cut < wire.size();
         cut += 1 + wire.size() / 53) {
      const std::span<const std::byte> prefix(wire.data(), cut);
      try {
        (void)codec.decode(prefix);
      } catch (const DecodeError&) {
        // expected for most cuts
      }
    }
  }
}

// Structure-aware mutation: random single-byte corruption of valid v2 wires
// must either decode to *some* message or raise DecodeError — never crash,
// hang, or trip UB (ASan/UBSan builds make this assertion sharp).
TEST_P(CodecFuzzV2, MutationsRaiseDecodeErrorNeverUB) {
  Rng rng(GetParam() ^ 0xb17f11b);
  for (int trial = 0; trial < 100; ++trial) {
    const Codec codec(random_wire_config(rng));
    const Message m = random_message_v2(rng);
    std::vector<std::byte> wire = codec.encode(m);
    if (wire.empty()) continue;
    for (int flip = 0; flip < 16; ++flip) {
      std::vector<std::byte> mutated = wire;
      const std::size_t pos = rng.next_u64() % mutated.size();
      if (rng.bernoulli(0.5)) {
        // Single bit flip.
        mutated[pos] ^= static_cast<std::byte>(1u << (rng.next_u64() % 8));
      } else {
        // Whole-byte overwrite.
        mutated[pos] = static_cast<std::byte>(rng.next_u64() & 0xff);
      }
      try {
        (void)codec.decode(mutated);
      } catch (const DecodeError&) {
        // the only acceptable failure mode
      }
    }
  }
}

// The shared libFuzzer harness (tests/codec_fuzz_harness.h) enforces a
// stronger contract than decode-must-not-crash: any accepted input must
// re-encode to a byte-identical fixed point. Drive it with the same
// structure-aware mutants, so this property suite and the coverage-guided
// fuzzer (-DPDS_FUZZ=ON) check exactly the same predicate.
TEST_P(CodecFuzzV2, HarnessFixedPointHoldsUnderMutation) {
  Rng rng(GetParam() ^ 0x5eedf);
  for (int trial = 0; trial < 50; ++trial) {
    const Codec codec(random_wire_config(rng));
    const Message m = random_message_v2(rng);
    const std::vector<std::byte> wire = codec.encode(m);
    if (wire.empty()) continue;
    const auto* data = reinterpret_cast<const std::uint8_t*>(wire.data());
    EXPECT_TRUE(fuzz_one_input(data, wire.size()))
        << "pristine wire rejected at trial " << trial;
    for (int flip = 0; flip < 8; ++flip) {
      std::vector<std::byte> mutated = wire;
      const std::size_t pos = rng.next_u64() % mutated.size();
      mutated[pos] ^= static_cast<std::byte>(1u << (rng.next_u64() % 8));
      (void)fuzz_one_input(
          reinterpret_cast<const std::uint8_t*>(mutated.data()),
          mutated.size());
    }
  }
}

// Frame-level fuzz of the Bloom-sync codec itself: truncations and byte
// mutations of a valid frame encoding must never escape DecodeError.
TEST_P(CodecFuzzV2, BloomDeltaFrameMutationsNeverUB) {
  Rng rng(GetParam() ^ 0xde17a);
  for (int trial = 0; trial < 100; ++trial) {
    const BloomDeltaFrame frame = random_delta_frame(rng);
    ByteWriter w;
    frame.encode(w);
    const std::vector<std::byte> wire = std::move(w).take();
    ASSERT_EQ(wire.size(), frame.wire_size()) << "trial " << trial;
    {
      ByteReader r(wire);
      const BloomDeltaFrame back = BloomDeltaFrame::decode(r);
      ASSERT_EQ(back, frame) << "trial " << trial;
    }
    for (std::size_t cut = 0; cut < wire.size();
         cut += 1 + wire.size() / 29) {
      ByteReader r(std::span<const std::byte>(wire.data(), cut));
      try {
        (void)BloomDeltaFrame::decode(r);
      } catch (const DecodeError&) {
      }
    }
    for (int flip = 0; flip < 16; ++flip) {
      std::vector<std::byte> mutated = wire;
      const std::size_t pos = rng.next_u64() % mutated.size();
      mutated[pos] ^= static_cast<std::byte>(1u << (rng.next_u64() % 8));
      ByteReader r(mutated);
      try {
        (void)BloomDeltaFrame::decode(r);
      } catch (const DecodeError&) {
      }
    }
  }
}

// Semantic skew: frames with corrupted epoch/seq/checksum fields applied to
// a BloomSyncCache must never throw, and every filter the cache hands back
// is recall-safe — either empty (the explicit fallback) or a filter the
// sender genuinely shipped at some point (possibly stale, via the
// duplicate/out-of-order guard). It must never synthesize a filter claiming
// bits the sender did not set.
TEST_P(CodecFuzzV2, EpochAndSeqSkewFallsBackSafely) {
  Rng rng(GetParam() ^ 0x5e40);
  BloomSyncCache cache;
  DeltaBloomSender sender;
  util::BloomFilter filter =
      util::BloomFilter::with_capacity(1024, 0.01, rng.next_u64());
  std::vector<std::uint64_t> shipped_checks;
  for (int step = 0; step < 60; ++step) {
    const int inserts = static_cast<int>(rng.uniform_int(1, 32));
    for (int i = 0; i < inserts; ++i) filter.insert(rng.next_u64());
    BloomDeltaFrame frame = sender.next_frame(7, 1, filter);
    shipped_checks.push_back(bloom_check(filter));
    switch (rng.uniform_int(0, 4)) {
      case 0:
        frame.epoch += static_cast<std::uint32_t>(rng.uniform_int(1, 9));
        break;
      case 1:
        frame.seq += static_cast<std::uint32_t>(rng.uniform_int(1, 9));
        break;
      case 2:
        frame.base_check ^= rng.next_u64();
        break;
      case 3:
        frame.self_check ^= rng.next_u64();
        break;
      default:
        break;  // pristine frame
    }
    const util::BloomFilter got = cache.apply(frame);
    if (!got.empty_filter()) {
      const std::uint64_t check = bloom_check(got);
      ASSERT_TRUE(std::find(shipped_checks.begin(), shipped_checks.end(),
                            check) != shipped_checks.end())
          << "step " << step
          << ": cache returned a filter the sender never shipped";
    }
  }
  // A trailing fallback erases the session entry, so 0 or 1 are both fine.
  EXPECT_LE(cache.session_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzV2,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace pds::net
