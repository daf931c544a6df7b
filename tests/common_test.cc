// Unit tests for src/common: strong ids, sim time, byte serialization,
// hashing, deterministic RNG and the scheduler's closure wrapper.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <limits>
#include <memory>
#include <type_traits>
#include <unordered_set>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/inline_function.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace pds {
namespace {

// -- StrongId ---------------------------------------------------------------

TEST(StrongId, DefaultIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, NodeId::invalid());
}

TEST(StrongId, ValueRoundTrip) {
  NodeId id(42);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(StrongId, Ordering) {
  EXPECT_LT(NodeId(1), NodeId(2));
  EXPECT_EQ(NodeId(7), NodeId(7));
  EXPECT_NE(NodeId(7), NodeId(8));
}

TEST(StrongId, DistinctTagTypesDoNotMix) {
  // Compile-time property: NodeId and QueryId are different types. This test
  // documents the intent; mixing them is a compile error.
  static_assert(!std::is_same_v<NodeId, QueryId>);
}

TEST(StrongId, Hashable) {
  std::unordered_set<QueryId> set;
  set.insert(QueryId(1));
  set.insert(QueryId(2));
  set.insert(QueryId(1));
  EXPECT_EQ(set.size(), 2u);
}

// -- SimTime -----------------------------------------------------------------

TEST(SimTime, Conversions) {
  EXPECT_EQ(SimTime::millis(1).as_micros(), 1000);
  EXPECT_EQ(SimTime::seconds(1.5).as_micros(), 1'500'000);
  EXPECT_EQ(SimTime::minutes(2.0).as_micros(), 120'000'000);
  EXPECT_DOUBLE_EQ(SimTime::seconds(2.5).as_seconds(), 2.5);
  EXPECT_DOUBLE_EQ(SimTime::millis(250).as_millis(), 250.0);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::seconds(1.0);
  const SimTime b = SimTime::millis(500);
  EXPECT_EQ((a + b).as_micros(), 1'500'000);
  EXPECT_EQ((a - b).as_micros(), 500'000);
  EXPECT_EQ((a * 2.0).as_micros(), 2'000'000);
  EXPECT_DOUBLE_EQ(a / b, 2.0);
}

TEST(SimTime, Comparisons) {
  EXPECT_LT(SimTime::zero(), SimTime::micros(1));
  EXPECT_LE(SimTime::seconds(1.0), SimTime::millis(1000));
  EXPECT_GT(SimTime::max(), SimTime::minutes(1e6));
}

TEST(SimTime, TransmissionTime) {
  // 1500 bytes at 12 Mb/s = 1 ms (plus the 1 µs round-up).
  const SimTime t = transmission_time(1500, 12e6);
  EXPECT_NEAR(t.as_seconds(), 0.001, 0.00001);
  // Monotone in size.
  EXPECT_LT(transmission_time(100, 1e6), transmission_time(200, 1e6));
}

// -- ByteWriter / ByteReader -------------------------------------------------

TEST(Bytes, ScalarRoundTrip) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u16(0xbeef);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_i64(-42);
  w.put_f64(3.14159);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0xbeef);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.put_string("hello");
  w.put_string("");
  w.put_string(std::string(1000, 'x'));

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), std::string(1000, 'x'));
}

// The sizing sink counts exactly what the writer writes, and refuses the
// same over-long string.
TEST(Bytes, CounterCountsWhatWriterWrites) {
  const auto write = [](auto& sink) {
    sink.put_u8(1);
    sink.put_u16(2);
    sink.put_u32(3);
    sink.put_u64(4);
    sink.put_i64(-5);
    sink.put_f64(6.5);
    const std::uint64_t varints[] = {0, 127, 128, std::uint64_t{1} << 35,
                                     ~std::uint64_t{0}};
    for (std::uint64_t v : varints) sink.put_varint(v);
    const std::int64_t zigzags[] = {0, -1, 63, -65,
                                    std::numeric_limits<std::int64_t>::min()};
    for (std::int64_t v : zigzags) sink.put_varint_i64(v);
    sink.put_string("");
    sink.put_string("hello");
    const std::uint64_t words[] = {1, 2, 3};
    sink.put_u64s(words);
  };
  ByteWriter w;
  ByteCounter c;
  write(w);
  write(c);
  EXPECT_EQ(c.size(), w.size());
  const std::string too_long(70000, 'x');
  EXPECT_THROW(w.put_string(too_long), DecodeError);
  EXPECT_THROW(c.put_string(too_long), DecodeError);
  EXPECT_EQ(c.size(), w.size());
}

TEST(Bytes, UnderrunThrows) {
  ByteWriter w;
  w.put_u16(7);
  ByteReader r(w.bytes());
  (void)r.get_u8();
  (void)r.get_u8();
  EXPECT_THROW((void)r.get_u8(), DecodeError);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.put_u16(100);  // claims 100 bytes follow; none do
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.get_string(), DecodeError);
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.put_u32(0x01020304);
  const auto bytes = w.bytes();
  EXPECT_EQ(static_cast<int>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<int>(bytes[3]), 0x01);
}

// -- Hashing -----------------------------------------------------------------

TEST(Hash, Fnv1aKnownProperties) {
  EXPECT_EQ(fnv1a64(""), kFnvOffset);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_EQ(fnv1a64("pds"), fnv1a64("pds"));
}

TEST(Hash, SeedChangesResult) {
  EXPECT_NE(fnv1a64("x", 1), fnv1a64("x", 2));
}

TEST(Hash, Mix64SpreadsBits) {
  // Consecutive inputs should land far apart.
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Hash, CombineNotCommutative) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

// -- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    const double y = rng.uniform(5.0, 10.0);
    EXPECT_GE(y, 5.0);
    EXPECT_LT(y, 10.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng rng(6);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(9);
  Rng forked = a.fork();
  // The fork must not replay the parent's stream.
  Rng b(9);
  (void)b.next_u64();  // parent consumed one draw to fork
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (forked.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, PickAndShuffle) {
  Rng rng(10);
  std::vector<int> v{1, 2, 3, 4, 5};
  for (int i = 0; i < 100; ++i) {
    const int p = rng.pick(v);
    EXPECT_GE(p, 1);
    EXPECT_LE(p, 5);
  }
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

// -- InlineFunction ----------------------------------------------------------

using Action = sim::EventQueue::Action;

// A closure of exactly `Bytes` bytes.
template <std::size_t Bytes>
auto closure_of_size() {
  return [pad = std::array<std::byte, Bytes>{}] { (void)pad; };
}

struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
};

TEST(InlineFunction, StoresOnlyClosuresThatFitAndMoveWithoutThrowing) {
  using Fits = decltype(closure_of_size<Action::capacity()>());
  using TooBig = decltype(closure_of_size<Action::capacity() + 1>());
  auto throwing = [t = ThrowingMove{}] { (void)t; };
  using Throwing = decltype(throwing);

  static_assert(Action::capacity() == 104);
  static_assert(sizeof(Fits) == 104 && sizeof(TooBig) == 105);
  static_assert(std::is_convertible_v<Fits, Action>);
  static_assert(!std::is_constructible_v<Action, TooBig>);
  static_assert(sizeof(Throwing) <= Action::capacity());
  static_assert(!std::is_nothrow_move_constructible_v<Throwing>);
  static_assert(!std::is_constructible_v<Action, Throwing>);

  int calls = 0;
  Action a = [&calls, pad = std::array<std::byte, 96>{}] {
    (void)pad;
    ++calls;
  };
  a();
  EXPECT_EQ(calls, 1);
}

// A shared_ptr whose deleter counts how often it frees its object.
std::shared_ptr<int> counted(int value, int& releases) {
  return std::shared_ptr<int>(new int(value), [&releases](int* p) {
    ++releases;
    delete p;
  });
}

TEST(InlineFunction, CapturedSharedPtrSurvivesMovesAndIsReleasedOnce) {
  int releases = 0;
  int seen = 0;
  {
    Action a = [p = counted(7, releases), &seen] { seen = *p; };
    Action b = std::move(a);
    Action c;
    c = std::move(b);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(c);
    c();
    EXPECT_EQ(seen, 7);
    EXPECT_EQ(releases, 0);
    c.reset();
    EXPECT_FALSE(c);
    EXPECT_EQ(releases, 1);
  }
  EXPECT_EQ(releases, 1);  // the emptied wrappers free nothing more

  releases = 0;
  {
    Action a = [p = counted(8, releases)] { (void)p; };
    Action b = std::move(a);
    EXPECT_EQ(releases, 0);
  }
  EXPECT_EQ(releases, 1);
}

}  // namespace
}  // namespace pds
