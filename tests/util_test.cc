// Unit and property tests for src/util: Bloom filter, flat key set, leaky
// bucket, dedup cache, GAP assignment, statistics and table printing; and
// the ring queue (src/common) the dedup cache is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <latch>
#include <set>
#include <thread>
#include <unordered_set>

#include "common/hash.h"
#include "common/ring_queue.h"
#include "common/rng.h"
#include "util/bloom_filter.h"
#include "util/dedup_cache.h"
#include "util/flat_key_set.h"
#include "util/gap_assign.h"
#include "util/leaky_bucket.h"
#include "util/stats.h"
#include "util/table.h"

namespace pds::util {
namespace {

// -- BloomFilter --------------------------------------------------------------

std::vector<std::byte> encoded(const BloomFilter& f) {
  ByteWriter w;
  f.encode(w);
  return w.take();
}

// Reads one filter that must take up all of `bytes`.
BloomFilter decoded(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  BloomFilter f = BloomFilter::decode(r);
  EXPECT_TRUE(r.done());
  return f;
}

TEST(BloomFilter, EmptyFilterContainsNothing) {
  BloomFilter f;
  EXPECT_TRUE(f.empty_filter());
  EXPECT_FALSE(f.maybe_contains(42));
}

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter f = BloomFilter::with_capacity(1000, 0.01, /*seed=*/7);
  Rng rng(1);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back(rng.next_u64());
  for (std::uint64_t k : keys) f.insert(k);
  for (std::uint64_t k : keys) {
    EXPECT_TRUE(f.maybe_contains(k)) << "false negative for " << k;
  }
}

TEST(BloomFilter, FalsePositiveRateNearTarget) {
  const double target = 0.01;
  BloomFilter f = BloomFilter::with_capacity(5000, target, 11);
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) f.insert(rng.next_u64());
  int fp = 0;
  const int probes = 50000;
  for (int i = 0; i < probes; ++i) {
    if (f.maybe_contains(rng.next_u64())) ++fp;
  }
  const double rate = static_cast<double>(fp) / probes;
  EXPECT_LT(rate, target * 3.0);
}

TEST(BloomFilter, DifferentSeedsGiveDifferentFalsePositives) {
  // Paper §V.3: per-round hash families make persistent false positives
  // vanish across rounds. An element that is a false positive under one
  // seed should usually not be under another.
  Rng rng(3);
  std::vector<std::uint64_t> members;
  for (int i = 0; i < 2000; ++i) members.push_back(rng.next_u64());

  BloomFilter f1 = BloomFilter::with_capacity(2000, 0.05, 100);
  BloomFilter f2 = BloomFilter::with_capacity(2000, 0.05, 200);
  for (std::uint64_t k : members) {
    f1.insert(k);
    f2.insert(k);
  }
  int both = 0;
  int either = 0;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t probe = rng.next_u64();
    const bool a = f1.maybe_contains(probe);
    const bool b = f2.maybe_contains(probe);
    if (a || b) ++either;
    if (a && b) ++both;
  }
  // Persisting across two independent families should be roughly the
  // square of the single-family rate, i.e., far rarer.
  EXPECT_LT(both * 10, either);
}

TEST(BloomFilter, EncodeDecodeRoundTrip) {
  BloomFilter f = BloomFilter::with_capacity(100, 0.01, 5);
  for (std::uint64_t k = 0; k < 100; ++k) f.insert(k * 977);

  const std::vector<std::byte> bytes = encoded(f);
  EXPECT_EQ(bytes.size(), f.wire_size());
  const BloomFilter g = decoded(bytes);
  EXPECT_EQ(g.bit_count(), f.bit_count());
  EXPECT_EQ(g.hash_count(), f.hash_count());
  EXPECT_EQ(g.seed(), f.seed());
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_TRUE(g.maybe_contains(k * 977));
  }
}

TEST(BloomFilter, EmptyEncodeDecode) {
  BloomFilter f;
  const std::vector<std::byte> bytes = encoded(f);
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_EQ(f.wire_size(), 1u);
  EXPECT_TRUE(decoded(bytes).empty_filter());
}

TEST(BloomFilter, WireSizeScalesWithCapacity) {
  const BloomFilter small = BloomFilter::with_capacity(100, 0.01, 1);
  const BloomFilter big = BloomFilter::with_capacity(10000, 0.01, 1);
  EXPECT_LT(small.wire_size(), big.wire_size());
  // ~9.6 bits/element at 1% fpp.
  EXPECT_NEAR(static_cast<double>(big.wire_size()), 10000 * 9.6 / 8, 2000);
}

TEST(BloomFilter, FillRatioGrowsWithInsertions) {
  BloomFilter f = BloomFilter::with_capacity(1000, 0.01, 9);
  EXPECT_DOUBLE_EQ(f.fill_ratio(), 0.0);
  for (std::uint64_t k = 0; k < 500; ++k) f.insert(k);
  const double half = f.fill_ratio();
  for (std::uint64_t k = 500; k < 1000; ++k) f.insert(k);
  EXPECT_GT(f.fill_ratio(), half);
  // At design capacity the fill ratio should be near 50%.
  EXPECT_NEAR(f.fill_ratio(), 0.5, 0.05);
}

// fill_ratio() reads a set-bit count kept by insert, set_word and decode;
// after each it must equal a popcount of the words.
TEST(BloomFilter, FillRatioCountsBitsThroughEveryWrite) {
  const auto popcount_ratio = [](const BloomFilter& f) {
    std::size_t set = 0;
    for (std::uint64_t word : f.words()) {
      set += static_cast<std::size_t>(std::popcount(word));
    }
    return static_cast<double>(set) / static_cast<double>(f.bit_count());
  };
  BloomFilter f = BloomFilter::with_capacity(300, 0.01, 4);
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    f.insert(rng.next_u64() % 150);  // repeats set no new bits
    ASSERT_EQ(f.fill_ratio(), popcount_ratio(f));
  }
  for (std::size_t w = 0; w < f.words().size(); w += 3) {
    f.set_word(w, rng.next_u64());
    ASSERT_EQ(f.fill_ratio(), popcount_ratio(f));
  }
  f.set_word(1, 0);
  EXPECT_EQ(f.fill_ratio(), popcount_ratio(f));
  EXPECT_EQ(decoded(encoded(f)).fill_ratio(), f.fill_ratio());
  BloomFilter copy = f;
  copy.insert(1234567);
  EXPECT_EQ(copy.fill_ratio(), popcount_ratio(copy));
}

// Copies share one block of words until one of them writes (DESIGN.md §20).
TEST(BloomFilter, CopyThenInsertLeavesTheOriginalUnchanged) {
  BloomFilter original = BloomFilter::with_capacity(200, 0.01, 3);
  for (std::uint64_t k = 1; k <= 50; ++k) original.insert(k * 31);
  const std::vector<std::uint64_t> words(original.words().begin(),
                                         original.words().end());
  const double fill = original.fill_ratio();
  BloomFilter copy = original;
  EXPECT_EQ(copy.words().data(), original.words().data());
  for (std::uint64_t k = 1000; k < 1100; ++k) copy.insert(k);
  EXPECT_NE(copy.words().data(), original.words().data());
  EXPECT_TRUE(std::equal(words.begin(), words.end(),
                         original.words().begin(), original.words().end()));
  EXPECT_EQ(original.fill_ratio(), fill);
  EXPECT_EQ(original.inserted_count(), 50u);
  EXPECT_EQ(copy.inserted_count(), 150u);
  EXPECT_GT(copy.fill_ratio(), fill);
  for (std::uint64_t k = 1000; k < 1100; ++k) {
    EXPECT_TRUE(copy.maybe_contains(k));
  }
}

TEST(BloomFilter, CopyThenSetWordLeavesTheOriginalUnchanged) {
  BloomFilter original = BloomFilter::with_capacity(200, 0.01, 6);
  for (std::uint64_t k = 1; k <= 20; ++k) original.insert(k);
  const std::vector<std::uint64_t> words(original.words().begin(),
                                         original.words().end());
  const double fill = original.fill_ratio();
  BloomFilter copy;
  copy = original;  // assignment shares too
  const std::uint64_t* shared = original.words().data();
  EXPECT_EQ(copy.words().data(), shared);
  copy.set_word(2, ~std::uint64_t{0});
  EXPECT_NE(copy.words().data(), shared);
  EXPECT_EQ(original.words().data(), shared);
  EXPECT_EQ(copy.words()[2], ~std::uint64_t{0});
  EXPECT_TRUE(std::equal(words.begin(), words.end(),
                         original.words().begin(), original.words().end()));
  EXPECT_EQ(original.fill_ratio(), fill);
  EXPECT_EQ(original.inserted_count(), 20u);
  EXPECT_EQ(copy.inserted_count(), 20u);
  // The sole holder of a block writes in place.
  original.set_word(0, 1);
  EXPECT_EQ(original.words().data(), shared);
}

TEST(BloomFilter, ADecodedFilterSharesNothing) {
  BloomFilter f = BloomFilter::with_capacity(100, 0.01, 2);
  for (std::uint64_t k = 0; k < 40; ++k) f.insert(k);
  const std::vector<std::byte> bytes = encoded(f);
  BloomFilter a = decoded(bytes);
  const BloomFilter b = decoded(bytes);
  EXPECT_NE(a.words().data(), f.words().data());
  EXPECT_NE(a.words().data(), b.words().data());
  const std::uint64_t* own = a.words().data();
  a.insert(999);  // unique: no detach
  EXPECT_EQ(a.words().data(), own);
  EXPECT_TRUE(std::equal(b.words().begin(), b.words().end(),
                         f.words().begin(), f.words().end()));
}

// Run under ThreadSanitizer in CI: copies of one filter are made, probed,
// written (which detaches) and destroyed on several threads at once.
TEST(BloomFilter, ConcurrentCopiesShareOneBlockSafely) {
  BloomFilter f = BloomFilter::with_capacity(500, 0.01, 11);
  for (std::uint64_t k = 0; k < 300; ++k) f.insert(k * 7919);
  const BloomFilter shared = f;
  const std::vector<std::uint64_t> words(shared.words().begin(),
                                         shared.words().end());
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < 2000; ++i) {
        BloomFilter copy = shared;
        std::vector<BloomFilter> more(3, copy);
        const auto k = static_cast<std::uint64_t>(i % 300) * 7919;
        if (!more[static_cast<std::size_t>(i) % 3].maybe_contains(k) ||
            copy.words().data() != shared.words().data()) {
          ++mismatches;
        }
        more.clear();
        copy.insert(static_cast<std::uint64_t>(t) * 100000 + 1'000'000 +
                    static_cast<std::uint64_t>(i));
        if (copy.words().data() == shared.words().data()) ++mismatches;
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(std::equal(words.begin(), words.end(), shared.words().begin(),
                         shared.words().end()));
  EXPECT_EQ(shared.inserted_count(), 300u);
}

// -- FlatKeySet ---------------------------------------------------------------

TEST(FlatKeySet, MatchesReferenceSetThroughGrowth) {
  FlatKeySet set;
  std::set<std::uint64_t> ref;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(0));
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    // Small keys repeat (duplicate inserts); key 0 is the empty-slot marker.
    const std::uint64_t key =
        i % 3 == 0 ? static_cast<std::uint64_t>(rng.uniform_int(0, 300))
                   : rng.next_u64();
    EXPECT_EQ(set.insert(key), ref.insert(key).second);
    ASSERT_EQ(set.size(), ref.size());
  }
  EXPECT_EQ(set.contains(0), ref.contains(0));
  for (const std::uint64_t key : ref) EXPECT_TRUE(set.contains(key));
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t probe = rng.next_u64();
    EXPECT_EQ(set.contains(probe), ref.contains(probe));
  }
  std::set<std::uint64_t> visited;
  set.for_each([&](std::uint64_t key) {
    EXPECT_TRUE(visited.insert(key).second) << "visited twice: " << key;
  });
  EXPECT_EQ(visited, ref);
}

// Erase against a reference set, on keys whose home slots all fall in the
// last two and first two slots of every table up to 64 slots: the keys
// collide, their probe runs wrap around the table end, and every erase
// has to shift later keys back across that end.
TEST(FlatKeySet, EraseMatchesReferenceSetOnCollidingWrappingKeys) {
  std::vector<std::uint64_t> pool{0};  // 0 is the flag-tracked key
  for (std::uint64_t k = 1; pool.size() < 64; ++k) {
    const std::uint64_t home = mix64(k) & 63;
    if (home >= 62 || home <= 1) pool.push_back(k);
  }
  FlatKeySet set;
  std::unordered_set<std::uint64_t> ref;
  Rng rng(12);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    // Erase more often while the set is large, so it keeps filling and
    // draining without outgrowing 64 slots (at most 48 keys).
    if (ref.size() >= 40 || rng.uniform_int(0, 1) == 0) {
      ASSERT_EQ(set.erase(key), ref.erase(key) == 1) << "step " << step;
    } else {
      ASSERT_EQ(set.insert(key), ref.insert(key).second) << "step " << step;
    }
    ASSERT_EQ(set.size(), ref.size());
    for (const std::uint64_t k : pool) {
      ASSERT_EQ(set.contains(k), ref.contains(k))
          << "key " << k << " at step " << step;
    }
  }
  std::size_t visited = 0;
  set.for_each([&](std::uint64_t key) {
    EXPECT_TRUE(ref.contains(key));
    ++visited;
  });
  EXPECT_EQ(visited, ref.size());
  for (const std::uint64_t k : pool) set.erase(k);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.erase(pool[1]));
}

// -- RingQueue ----------------------------------------------------------------

// Counts live instances and marks destroyed ones, so a leak or a second
// destruction of one element shows.
class Counted {
 public:
  explicit Counted(int v) : value_(v) { ++live; }
  Counted(const Counted& other) : value_(other.get()) { ++live; }
  Counted(Counted&& other) noexcept : value_(other.get()) { ++live; }
  Counted& operator=(const Counted&) = delete;
  ~Counted() {
    EXPECT_EQ(state_, kAlive) << "destroyed twice";
    state_ = kDead;
    --live;
  }
  [[nodiscard]] int get() const {
    EXPECT_EQ(state_, kAlive) << "read after destruction";
    return value_;
  }

  static inline int live = 0;

 private:
  static constexpr std::uint32_t kAlive = 0xA11FE;
  static constexpr std::uint32_t kDead = 0xDEAD;
  int value_;
  std::uint32_t state_ = kAlive;
};

void expect_same(const RingQueue<Counted>& q, const std::deque<int>& ref) {
  ASSERT_EQ(q.size(), ref.size());
  ASSERT_EQ(q.empty(), ref.empty());
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(q[i].get(), ref[i]);
  if (!ref.empty()) {
    ASSERT_EQ(q.front().get(), ref.front());
  }
  // Storage: none when unallocated, else a power of two of at least
  // kMinSlots that is more than a quarter full (shrink returns the rest).
  const std::size_t cap = q.capacity();
  if (cap != 0) {
    ASSERT_TRUE(std::has_single_bit(cap) &&
                cap >= RingQueue<Counted>::kMinSlots);
    ASSERT_TRUE(cap == RingQueue<Counted>::kMinSlots || q.size() * 4 > cap)
        << "size " << q.size() << " capacity " << cap;
  }
}

TEST(RingQueue, MatchesADequeThroughGrowthAndShrink) {
  Counted::live = 0;
  {
    RingQueue<Counted> q;
    std::deque<int> ref;
    EXPECT_EQ(q.capacity(), 0u);  // nothing until the first push
    Rng rng(21);
    int next = 0;
    for (int step = 0; step < 20000; ++step) {
      // Bursts: a few hundred steps leaning to pushes, then to pops.
      const bool filling = (step / 300) % 2 == 0;
      const auto op = rng.uniform_int(0, 99);
      if (op < (filling ? 45 : 15)) {
        q.push_back(Counted(next));
        ref.push_back(next++);
      } else if (op < (filling ? 70 : 25)) {
        q.push_front(Counted(next));
        ref.push_front(next++);
      } else if (op < 97) {
        if (!ref.empty()) {
          q.pop_front();
          ref.pop_front();
        }
      } else if (op < 98) {
        q.clear();
        ref.clear();
        ASSERT_EQ(q.capacity(), 0u);
      } else if (op < 99) {
        RingQueue<Counted> copy(q);
        expect_same(copy, ref);
        RingQueue<Counted> assigned;
        assigned.push_back(Counted(-1));
        assigned = copy;
        expect_same(assigned, ref);
        ASSERT_EQ(Counted::live, static_cast<int>(3 * ref.size()));
      } else {
        RingQueue<Counted> moved(std::move(q));
        ASSERT_EQ(q.size(), 0u);  // NOLINT(bugprone-use-after-move)
        ASSERT_EQ(q.capacity(), 0u);
        expect_same(moved, ref);
        q = std::move(moved);
      }
      expect_same(q, ref);
      ASSERT_EQ(Counted::live, static_cast<int>(ref.size()));
    }
  }
  EXPECT_EQ(Counted::live, 0);
}

TEST(RingQueue, HandsStorageBackAsItDrains) {
  RingQueue<std::uint64_t> q;
  for (std::uint64_t i = 0; i < 1000; ++i) q.push_back(i);
  EXPECT_EQ(q.capacity(), 1024u);
  while (q.size() > 3) q.pop_front();
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_EQ(q.front(), 997u);
  q.pop_front();  // a quarter full: halves
  EXPECT_EQ(q.capacity(), RingQueue<std::uint64_t>::kMinSlots);
  EXPECT_EQ(q.front(), 998u);
  static_assert(std::is_nothrow_move_constructible_v<RingQueue<Counted>>);
}

// -- LeakyBucket ----------------------------------------------------------------

TEST(LeakyBucket, BurstWithinCapacityReleasesImmediately) {
  LeakyBucket b(10000, 8e6);  // 10 KB capacity, 1 MB/s
  const SimTime t0 = SimTime::zero();
  EXPECT_EQ(b.offer(t0, 5000), t0);
  EXPECT_EQ(b.offer(t0, 5000), t0);  // exactly drains the bucket
}

TEST(LeakyBucket, ExcessIsPacedAtLeakRate) {
  LeakyBucket b(1000, 8e6);  // 1 KB capacity, 1 MB/s
  const SimTime t0 = SimTime::zero();
  EXPECT_EQ(b.offer(t0, 1000), t0);  // consumes the full burst
  // The next kilobyte must wait 1 ms for tokens.
  const SimTime r = b.offer(t0, 1000);
  EXPECT_NEAR(r.as_seconds(), 0.001, 1e-5);
}

TEST(LeakyBucket, FifoOrderPreserved) {
  LeakyBucket b(1000, 8e6);
  const SimTime t0 = SimTime::zero();
  SimTime prev = b.offer(t0, 800);
  for (int i = 0; i < 20; ++i) {
    const SimTime next = b.offer(t0, 800);
    EXPECT_GE(next, prev);
    prev = next;
  }
}

TEST(LeakyBucket, TokensRefillDuringIdle) {
  LeakyBucket b(1000, 8e6);
  (void)b.offer(SimTime::zero(), 1000);
  // After 10 ms idle the bucket is full again (capacity 1 KB refills in
  // 1 ms); a burst releases immediately.
  const SimTime later = SimTime::millis(10);
  EXPECT_EQ(b.offer(later, 1000), later);
}

TEST(LeakyBucket, SustainedRateMatchesLeakRate) {
  LeakyBucket b(300'000, 4.5e6);  // prototype parameters
  SimTime last = SimTime::zero();
  const std::size_t message = 1500;
  const int n = 3000;
  for (int i = 0; i < n; ++i) last = b.offer(SimTime::zero(), message);
  // 4.5 MB total at 4.5 Mb/s minus the initial 300 KB burst.
  const double expected = (n * message - 300'000) * 8.0 / 4.5e6;
  EXPECT_NEAR(last.as_seconds(), expected, 0.05);
}

TEST(LeakyBucket, MessageLargerThanCapacityStillPaces) {
  LeakyBucket b(1000, 8e6);
  const SimTime r = b.offer(SimTime::zero(), 9000);  // 9 KB through 1 KB bucket
  EXPECT_NEAR(r.as_seconds(), 0.008, 1e-4);          // (9000-1000)*8/8e6
}

// -- DedupCache ---------------------------------------------------------------

TEST(DedupCache, DetectsDuplicates) {
  DedupCache cache(10);
  EXPECT_TRUE(cache.insert(1));
  EXPECT_FALSE(cache.insert(1));
  EXPECT_TRUE(cache.insert(2));
  EXPECT_TRUE(cache.contains(1));
}

TEST(DedupCache, EvictsOldestBeyondCapacity) {
  DedupCache cache(3);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(cache.insert(i));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(4));
  // An evicted id is accepted again (no longer a known duplicate).
  EXPECT_TRUE(cache.insert(0));
}

// DedupCache against a deque-plus-set reference: same answers, same size,
// same members, through eviction and clear().
TEST(DedupCache, MatchesAFifoReferenceWindow) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{7},
                                     std::size_t{4096}}) {
    DedupCache cache(capacity);
    std::deque<std::uint64_t> order;
    std::set<std::uint64_t> seen;
    Rng rng(capacity);
    // Ids from a range a little larger than the window, so some repeat
    // while held and some come back after eviction; 0 included.
    const auto range = static_cast<std::int64_t>(capacity + capacity / 2 + 2);
    for (int step = 0; step < 30000; ++step) {
      if (step % 9000 == 8999) {
        cache.clear();
        order.clear();
        seen.clear();
      }
      const auto id = static_cast<std::uint64_t>(rng.uniform_int(0, range));
      const bool fresh = !seen.contains(id);
      if (fresh) {
        seen.insert(id);
        order.push_back(id);
        if (order.size() > capacity) {
          seen.erase(order.front());
          order.pop_front();
        }
      }
      ASSERT_EQ(cache.insert(id), fresh) << "capacity " << capacity;
      ASSERT_EQ(cache.size(), order.size());
      const auto probe = static_cast<std::uint64_t>(rng.uniform_int(0, range));
      ASSERT_EQ(cache.contains(probe), seen.contains(probe));
    }
    for (std::int64_t id = 0; id <= range; ++id) {
      EXPECT_EQ(cache.contains(static_cast<std::uint64_t>(id)),
                seen.contains(static_cast<std::uint64_t>(id)));
    }
  }
}

// -- GAP assignment ------------------------------------------------------------

GapInstance make_instance(std::size_t neighbors,
                          std::vector<std::vector<std::size_t>> eligible) {
  GapInstance inst;
  inst.neighbor_count = neighbors;
  for (auto& e : eligible) {
    inst.hop.emplace_back(e.size(), 1);
    inst.eligible.push_back(std::move(e));
  }
  return inst;
}

TEST(GapAssign, SingleEligibleNeighborIsForced) {
  const GapInstance inst = make_instance(2, {{0}, {0}, {1}});
  const GapAssignment a = solve_min_max_heuristic(inst);
  EXPECT_EQ(a.assignment, (std::vector<std::size_t>{0, 0, 1}));
  EXPECT_EQ(a.max_load, 2u);
}

TEST(GapAssign, HeuristicBalancesLoad) {
  // 4 chunks all eligible on both neighbors: perfect split is 2/2; naive
  // sends all 4 to neighbor 0.
  const GapInstance inst = make_instance(2, {{0, 1}, {0, 1}, {0, 1}, {0, 1}});
  EXPECT_EQ(solve_naive(inst).max_load, 4u);
  EXPECT_EQ(solve_min_max_heuristic(inst).max_load, 2u);
}

TEST(GapAssign, ExactMatchesBruteForceOnSmallInstances) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const auto neighbors =
        static_cast<std::size_t>(rng.uniform_int(1, 4));
    const auto chunks = static_cast<std::size_t>(rng.uniform_int(1, 7));
    GapInstance inst;
    inst.neighbor_count = neighbors;
    for (std::size_t c = 0; c < chunks; ++c) {
      std::vector<std::size_t> e;
      for (std::size_t n = 0; n < neighbors; ++n) {
        if (rng.bernoulli(0.5)) e.push_back(n);
      }
      if (e.empty()) {
        e.push_back(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(neighbors) - 1)));
      }
      inst.hop.emplace_back(e.size(), static_cast<int>(rng.uniform_int(1, 4)));
      inst.eligible.push_back(std::move(e));
    }
    const GapAssignment exact = solve_exact(inst);
    const GapAssignment heur = solve_min_max_heuristic(inst);
    // The heuristic respects eligibility…
    for (std::size_t c = 0; c < chunks; ++c) {
      EXPECT_NE(std::find(inst.eligible[c].begin(), inst.eligible[c].end(),
                          heur.assignment[c]),
                inst.eligible[c].end());
    }
    // …and is never better than the optimum, nor worse than 2× + 1 (it is
    // usually optimal; the bound guards against regressions).
    EXPECT_GE(heur.max_load, exact.max_load);
    EXPECT_LE(heur.max_load, exact.max_load * 2 + 1);
  }
}

TEST(GapAssign, HeuristicIsOptimalOnFullyFlexibleInstances) {
  // When every chunk can go anywhere, min-max load is ceil(C/N); the
  // move-based heuristic should always find it.
  for (std::size_t n : {2u, 3u, 5u}) {
    for (std::size_t c : {1u, 4u, 9u, 10u}) {
      GapInstance inst;
      inst.neighbor_count = n;
      for (std::size_t i = 0; i < c; ++i) {
        std::vector<std::size_t> all(n);
        for (std::size_t k = 0; k < n; ++k) all[k] = k;
        inst.hop.emplace_back(n, 1);
        inst.eligible.push_back(std::move(all));
      }
      const GapAssignment a = solve_min_max_heuristic(inst);
      EXPECT_EQ(a.max_load, (c + n - 1) / n) << "n=" << n << " c=" << c;
    }
  }
}

TEST(GapAssign, EmptyInstance) {
  GapInstance inst;
  inst.neighbor_count = 3;
  const GapAssignment a = solve_min_max_heuristic(inst);
  EXPECT_TRUE(a.assignment.empty());
  EXPECT_EQ(a.max_load, 0u);
}

// -- Stats -----------------------------------------------------------------

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571, 0.01);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.median(), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(0), 1.0, 0.01);
  EXPECT_NEAR(s.percentile(100), 100.0, 0.01);
  EXPECT_NEAR(s.percentile(95), 95.05, 0.1);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

// -- Table -----------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.50"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Every line has the same length (alignment).
  std::size_t prev = std::string::npos;
  std::size_t start = 0;
  while (start < out.size()) {
    const std::size_t end = out.find('\n', start);
    const std::size_t len = end - start;
    if (prev != std::string::npos) {
      EXPECT_EQ(len, prev);
    }
    prev = len;
    start = end + 1;
  }
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::num(1234.5, 1), "1234.5");
}

}  // namespace
}  // namespace pds::util
