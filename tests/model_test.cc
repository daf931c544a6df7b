// Unit tests for the content-centric data model: attributes, descriptors,
// predicates/filters.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <latch>
#include <limits>
#include <thread>
#include <unordered_set>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/attribute.h"
#include "core/descriptor.h"
#include "core/predicate.h"

namespace pds::core {
namespace {

// -- Attribute values ---------------------------------------------------------

TEST(AttributeValue, NumericCrossTypeComparison) {
  EXPECT_EQ(compare_values(AttrValue(std::int64_t{3}), AttrValue(3.0)),
            std::partial_ordering::equivalent);
  EXPECT_EQ(compare_values(AttrValue(std::int64_t{2}), AttrValue(2.5)),
            std::partial_ordering::less);
  EXPECT_EQ(compare_values(AttrValue(3.5), AttrValue(std::int64_t{3})),
            std::partial_ordering::greater);
}

TEST(AttributeValue, ExactIntegerComparisonAvoidsRounding) {
  const auto big = std::int64_t{1} << 60;
  EXPECT_EQ(compare_values(AttrValue(big), AttrValue(big + 1)),
            std::partial_ordering::less);
}

TEST(AttributeValue, StringComparison) {
  EXPECT_EQ(compare_values(AttrValue(std::string("abc")),
                           AttrValue(std::string("abd"))),
            std::partial_ordering::less);
  EXPECT_EQ(compare_values(AttrValue(std::string("x")),
                           AttrValue(std::string("x"))),
            std::partial_ordering::equivalent);
}

TEST(AttributeValue, StringVsNumberUnordered) {
  EXPECT_EQ(compare_values(AttrValue(std::string("5")),
                           AttrValue(std::int64_t{5})),
            std::partial_ordering::unordered);
}

TEST(AttributeValue, EncodeDecodeRoundTrip) {
  for (const AttrValue& v :
       {AttrValue(std::int64_t{-7}), AttrValue(2.718),
        AttrValue(std::string("namespace/type"))}) {
    ByteWriter w;
    encode_value(w, v);
    ByteReader r(w.bytes());
    EXPECT_EQ(decode_value(r), v);
  }
}

// -- DataDescriptor -----------------------------------------------------------

DataDescriptor sample_descriptor() {
  DataDescriptor d;
  d.set(kAttrNamespace, std::string("env"));
  d.set(kAttrDataType, std::string("nox"));
  d.set(kAttrTime, std::int64_t{1'600'000'000});
  d.set("x", 12.5);
  d.set("y", 3.25);
  return d;
}

TEST(DataDescriptor, AttributesSortedAndUnique) {
  DataDescriptor d;
  d.set("zebra", std::int64_t{1});
  d.set("alpha", std::int64_t{2});
  d.set("zebra", std::int64_t{3});  // replaces
  ASSERT_EQ(d.attributes().size(), 2u);
  EXPECT_EQ(d.attributes()[0].name, "alpha");
  EXPECT_EQ(d.attributes()[1].name, "zebra");
  EXPECT_EQ(*d.find("zebra"), AttrValue(std::int64_t{3}));
  EXPECT_EQ(d.find("missing"), nullptr);
}

TEST(DataDescriptor, InsertionOrderIrrelevantForIdentity) {
  DataDescriptor a;
  a.set("p", std::int64_t{1});
  a.set("q", std::int64_t{2});
  DataDescriptor b;
  b.set("q", std::int64_t{2});
  b.set("p", std::int64_t{1});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.entry_key(), b.entry_key());
  EXPECT_EQ(a.canonical_bytes(), b.canonical_bytes());
}

TEST(DataDescriptor, WellKnownAccessors) {
  const DataDescriptor d = sample_descriptor();
  EXPECT_EQ(d.namespace_name(), "env");
  EXPECT_EQ(d.data_type(), "nox");
  EXPECT_FALSE(d.total_chunks().has_value());
  EXPECT_FALSE(d.is_chunk());
}

TEST(DataDescriptor, ChunkDescriptorRoundTrip) {
  DataDescriptor item = sample_descriptor();
  item.set(kAttrTotalChunks, std::int64_t{10});
  const DataDescriptor chunk3 = item.chunk_descriptor(3);
  EXPECT_TRUE(chunk3.is_chunk());
  EXPECT_EQ(chunk3.chunk_id(), 3u);
  EXPECT_EQ(chunk3.item_descriptor(), item);
  EXPECT_EQ(chunk3.item_id(), item.item_id());
  EXPECT_NE(chunk3.entry_key(), item.entry_key());
  EXPECT_NE(chunk3.entry_key(), item.chunk_descriptor(4).entry_key());
}

TEST(DataDescriptor, ItemIdExcludesChunkId) {
  DataDescriptor item = sample_descriptor();
  const ItemId id = item.item_id();
  for (ChunkIndex c = 0; c < 5; ++c) {
    EXPECT_EQ(item.chunk_descriptor(c).item_id(), id);
  }
}

TEST(DataDescriptor, EncodeDecodeRoundTrip) {
  const DataDescriptor d = sample_descriptor();
  ByteWriter w;
  d.encode(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(DataDescriptor::decode(r), d);
}

TEST(DataDescriptor, DecodeRejectsNonCanonicalOrder) {
  // Hand-craft an encoding with attributes out of order.
  ByteWriter w;
  w.put_u16(2);
  encode_attribute(w, Attribute{"b", std::int64_t{1}});
  encode_attribute(w, Attribute{"a", std::int64_t{2}});
  ByteReader r(w.bytes());
  EXPECT_THROW((void)DataDescriptor::decode(r), DecodeError);
}

TEST(DataDescriptor, KeyCacheInvalidatedBySet) {
  DataDescriptor d = sample_descriptor();
  const std::uint64_t k1 = d.entry_key();
  d.set("x", 99.0);
  EXPECT_NE(d.entry_key(), k1);
}

TEST(DataDescriptor, DistinctDescriptorsDistinctKeys) {
  std::unordered_set<std::uint64_t> keys;
  for (int i = 0; i < 1000; ++i) {
    DataDescriptor d = sample_descriptor();
    d.set("seq", std::int64_t{i});
    keys.insert(d.entry_key());
  }
  EXPECT_EQ(keys.size(), 1000u);
}

// -- Shared representation (DESIGN.md §18) ------------------------------------

TEST(DataDescriptor, SetOnCopyLeavesOriginalUntouched) {
  const DataDescriptor original = sample_descriptor();
  const std::vector<Attribute> attrs = original.attributes();
  const std::uint64_t key = original.entry_key();
  DataDescriptor copy = original;
  copy.set("x", 99.0);
  copy.set("extra", std::string("added"));
  EXPECT_EQ(original.attributes(), attrs);
  EXPECT_EQ(original.entry_key(), key);
  EXPECT_NE(copy.entry_key(), key);
  EXPECT_NE(copy, original);
  // Editing the original after the copy leaves the copy alone too.
  DataDescriptor source = sample_descriptor();
  const DataDescriptor snapshot = source;
  (void)source.entry_key();  // memoized before the edit
  source.set("y", -1.0);
  EXPECT_EQ(snapshot, sample_descriptor());
  EXPECT_EQ(snapshot.entry_key(), sample_descriptor().entry_key());
  EXPECT_NE(source.entry_key(), snapshot.entry_key());
  EXPECT_EQ(source.entry_key(), fnv1a64(source.canonical_bytes()));
}

TEST(DataDescriptor, SeparatelyBuiltDescriptorsCompareEqual) {
  const DataDescriptor a = sample_descriptor();
  const DataDescriptor b = sample_descriptor();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.entry_key(), b.entry_key());
  EXPECT_EQ(a.item_id(), b.item_id());
  // A chunk's item descriptor equals the item it was cut from, and an item
  // descriptor of a non-chunk is the descriptor itself.
  EXPECT_EQ(a.chunk_descriptor(2).item_descriptor(), b);
  EXPECT_EQ(a.item_descriptor(), b);
  EXPECT_EQ(DataDescriptor(), DataDescriptor());
  EXPECT_EQ(DataDescriptor().item_descriptor(), DataDescriptor());
  EXPECT_NE(DataDescriptor(), a);
  // Moved-from handles are empty descriptors.
  DataDescriptor moved = a;
  const DataDescriptor target = std::move(moved);
  EXPECT_EQ(target, b);
}

// A reference for identity that shares no code with the descriptor's own:
// the canonical bytes built attribute by attribute through ByteWriter.
std::vector<std::byte> reference_bytes(const DataDescriptor& d,
                                       bool skip_chunk_id) {
  std::vector<const Attribute*> kept;
  for (const Attribute& a : d.attributes()) {
    if (!(skip_chunk_id && a.name == kAttrChunkId)) kept.push_back(&a);
  }
  ByteWriter w;
  w.put_u16(static_cast<std::uint16_t>(kept.size()));
  for (const Attribute* a : kept) encode_attribute(w, *a);
  return w.take();
}

std::string random_string(Rng& rng) {
  // Short (inside the small-string buffer), past it, and past 255 bytes
  // (the length prefix's high byte is non-zero).
  const std::int64_t lengths[][2] = {{0, 15}, {16, 64}, {250, 400}};
  const auto& range = lengths[rng.uniform_int(0, 2)];
  std::string s(static_cast<std::size_t>(rng.uniform_int(range[0], range[1])),
                '\0');
  for (char& c : s) c = static_cast<char>(rng.uniform_int(0, 255));
  return s;
}

AttrValue random_value(Rng& rng) {
  switch (rng.uniform_int(0, 7)) {
    case 0:
      return rng.uniform_int(std::numeric_limits<std::int64_t>::min(), -1);
    case 1:
      return static_cast<std::int64_t>(rng.next_u64());
    case 2:
      return rng.bernoulli(0.5) ? 0.0 : -0.0;
    case 3: {
      // NaN with a random payload (and sign).
      const std::uint64_t payload = rng.next_u64() & 0x000fffffffffffffULL;
      const std::uint64_t sign = rng.bernoulli(0.5) ? 1ULL << 63 : 0;
      return std::bit_cast<double>(sign | 0x7ff8000000000000ULL | payload);
    }
    case 4:
      return rng.uniform(-1e9, 1e9);
    default:
      return random_string(rng);
  }
}

DataDescriptor random_descriptor(Rng& rng) {
  static const char* const kNames[] = {"ns",   "type", "name", "time", "x",
                                       "y",    "seq",  "tag",  "a",    "zz"};
  DataDescriptor d;
  const std::int64_t n = rng.uniform_int(0, 7);
  for (std::int64_t i = 0; i < n; ++i) {
    d.set(kNames[rng.uniform_int(0, 9)], random_value(rng));
  }
  if (rng.bernoulli(0.4)) {
    d = d.chunk_descriptor(
        static_cast<ChunkIndex>(rng.uniform_int(0, 0xffffffffLL)));
  }
  return d;
}

TEST(DataDescriptor, IdentityIsTheHashAndSizeOfTheCanonicalBytes) {
  Rng rng(17);
  for (int i = 0; i < 12000; ++i) {
    const DataDescriptor d = random_descriptor(rng);
    const std::vector<std::byte> entry = reference_bytes(d, false);
    const std::vector<std::byte> item = reference_bytes(d, true);
    ASSERT_EQ(d.canonical_bytes(), entry);
    ASSERT_EQ(d.entry_key(), fnv1a64(entry));
    ASSERT_EQ(d.item_id().value(), fnv1a64(item));
    ASSERT_EQ(d.encoded_size(), entry.size());
    // Memoized answers and a copy's answers are the same.
    const DataDescriptor copy = d;
    ASSERT_EQ(copy.entry_key(), fnv1a64(entry));
    ASSERT_EQ(copy.item_id().value(), fnv1a64(item));
    ASSERT_EQ(copy.encoded_size(), entry.size());
    ASSERT_EQ(d.item_descriptor().entry_key(), fnv1a64(item));
  }
}

// Identity values taken from the implementation before descriptors were
// shared: keys and sizes are wire- and Bloom-visible, so they must not move.
TEST(DataDescriptor, IdentityPinnedToReferenceValues) {
  DataDescriptor item;
  item.set(kAttrNamespace, std::string("video"));
  item.set(kAttrDataType, std::string("mp4"));
  item.set(kAttrName, std::string("clip-0042"));
  item.set(kAttrTotalChunks, std::int64_t{80});
  std::string long_value;
  for (int i = 0; i < 300; ++i) {
    long_value.push_back(static_cast<char>('a' + i % 26));
  }
  DataDescriptor edge;
  edge.set("long", long_value);
  edge.set("neg", std::int64_t{-1234567890123});
  edge.set("nzero", -0.0);
  edge.set("nan", std::bit_cast<double>(std::uint64_t{0x7ff80000deadbeefULL}));
  edge.set(kAttrChunkId, std::int64_t{0});
  struct Pin {
    DataDescriptor d;
    std::uint64_t entry_key;
    std::uint64_t item_id;
    std::size_t encoded_size;
  };
  const Pin pins[] = {
      {sample_descriptor(), 0x37cfa0d3adf1dfc7ULL, 0x37cfa0d3adf1dfc7ULL, 63},
      {item.chunk_descriptor(7), 0xd76ddae4719dd83fULL, 0xcc4a0f9c9573e2b6ULL,
       86},
      {edge, 0x447a757ba3d32f85ULL, 0x17381bd11fb91da5ULL, 374},
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(p.d.entry_key(), p.entry_key);
    EXPECT_EQ(p.d.item_id().value(), p.item_id);
    EXPECT_EQ(p.d.encoded_size(), p.encoded_size);
  }
}

// Run under TSan: many threads copy, destroy and hash copies of one
// descriptor whose identity memo is still empty, and detach copies with
// set(), all at once.
TEST(DataDescriptor, ConcurrentCopiesShareOneRepresentationSafely) {
  const DataDescriptor shared = sample_descriptor().chunk_descriptor(5);
  const std::vector<std::byte> bytes = shared.canonical_bytes();
  const std::uint64_t want_key = fnv1a64(bytes);
  const std::uint64_t want_item =
      fnv1a64(sample_descriptor().canonical_bytes());
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < 2000; ++i) {
        DataDescriptor copy = shared;
        std::vector<DataDescriptor> more(3, copy);
        if (more[static_cast<std::size_t>(i) % 3].entry_key() != want_key ||
            copy.item_id().value() != want_item ||
            copy.encoded_size() != bytes.size()) {
          ++mismatches;
        }
        more.clear();
        copy.set("seq", std::int64_t{t * 10000 + i});
        if (copy.entry_key() == want_key || shared.entry_key() != want_key) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(shared.canonical_bytes(), bytes);
}

// -- Predicates / Filters -------------------------------------------------------

TEST(Predicate, Relations) {
  const DataDescriptor d = sample_descriptor();
  auto pred = [](std::string attr, Relation rel, AttrValue v) {
    return Predicate{.attr = std::move(attr), .rel = rel, .value = std::move(v),
                     .value_hi = {}};
  };
  EXPECT_TRUE(pred("x", Relation::kEq, 12.5).matches(d));
  EXPECT_FALSE(pred("x", Relation::kEq, 12.6).matches(d));
  EXPECT_TRUE(pred("x", Relation::kNe, 12.6).matches(d));
  EXPECT_TRUE(pred("x", Relation::kLt, 13.0).matches(d));
  EXPECT_FALSE(pred("x", Relation::kLt, 12.5).matches(d));
  EXPECT_TRUE(pred("x", Relation::kLe, 12.5).matches(d));
  EXPECT_TRUE(pred("x", Relation::kGt, 12.0).matches(d));
  EXPECT_TRUE(pred("x", Relation::kGe, 12.5).matches(d));
  EXPECT_FALSE(pred("x", Relation::kGe, 12.6).matches(d));
}

TEST(Predicate, RangeInclusive) {
  const DataDescriptor d = sample_descriptor();
  Predicate p{.attr = "x",
              .rel = Relation::kInRange,
              .value = 12.5,
              .value_hi = 20.0};
  EXPECT_TRUE(p.matches(d));
  p.value = 12.6;
  EXPECT_FALSE(p.matches(d));
  p.value = 0.0;
  p.value_hi = 12.5;
  EXPECT_TRUE(p.matches(d));
}

TEST(Predicate, MissingAttributeNeverMatches) {
  const DataDescriptor d = sample_descriptor();
  Predicate p{.attr = "nope", .rel = Relation::kNe, .value = 0.0,
              .value_hi = {}};
  EXPECT_FALSE(p.matches(d));
}

TEST(Predicate, IncomparableTypesNeverMatch) {
  const DataDescriptor d = sample_descriptor();  // x is a double
  Predicate p{.attr = "x", .rel = Relation::kEq,
              .value = std::string("12.5"), .value_hi = {}};
  EXPECT_FALSE(p.matches(d));
}

TEST(Filter, EmptyMatchesAll) {
  EXPECT_TRUE(Filter{}.matches(sample_descriptor()));
  EXPECT_TRUE(Filter{}.match_all());
}

TEST(Filter, ConjunctionSemantics) {
  Filter f;
  f.where(std::string(kAttrDataType), Relation::kEq, std::string("nox"))
      .where_range("x", 0.0, 100.0);
  EXPECT_TRUE(f.matches(sample_descriptor()));

  DataDescriptor other = sample_descriptor();
  other.set(kAttrDataType, std::string("co2"));
  EXPECT_FALSE(f.matches(other));

  DataDescriptor far = sample_descriptor();
  far.set("x", 500.0);
  EXPECT_FALSE(f.matches(far));
}

TEST(Filter, SpatioTemporalQueryShape) {
  // The paper's canonical query: a data type within a spatial box and time
  // window.
  Filter f;
  f.where(std::string(kAttrNamespace), Relation::kEq, std::string("env"))
      .where(std::string(kAttrDataType), Relation::kEq, std::string("nox"))
      .where_range(std::string(kAttrTime), std::int64_t{1'599'999'000},
                   std::int64_t{1'600'001'000})
      .where_range("x", 10.0, 20.0)
      .where_range("y", 0.0, 10.0);
  EXPECT_TRUE(f.matches(sample_descriptor()));
}

TEST(Filter, EncodeDecodeRoundTrip) {
  Filter f;
  f.where("a", Relation::kGt, std::int64_t{5})
      .where_range("b", 1.0, 2.0)
      .where("c", Relation::kEq, std::string("str"));
  ByteWriter w;
  f.encode(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(Filter::decode(r), f);
}

TEST(Filter, DecodeRejectsUnknownRelation) {
  ByteWriter w;
  w.put_u16(1);
  w.put_string("a");
  w.put_u8(200);  // bogus relation
  encode_value(w, AttrValue(std::int64_t{1}));
  ByteReader r(w.bytes());
  EXPECT_THROW((void)Filter::decode(r), DecodeError);
}

}  // namespace
}  // namespace pds::core
