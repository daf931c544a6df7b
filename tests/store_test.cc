// Tests for per-node protocol state: DataStore (metadata/chunk/item
// semantics and expiration, and the layout invariants of DESIGN.md §19),
// LingeringQueryTable, CdiTable.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/cdi_table.h"
#include "core/data_store.h"
#include "core/lingering_query_table.h"

#if defined(__SANITIZE_ADDRESS__)
#define PDS_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PDS_TEST_ASAN 1
#endif
#endif

namespace pds::core {
namespace {

DataDescriptor entry(int seq) {
  DataDescriptor d;
  d.set(kAttrNamespace, std::string("env"));
  d.set(kAttrDataType, std::string("nox"));
  d.set("seq", std::int64_t{seq});
  return d;
}

DataDescriptor chunked_item(int chunks = 4) {
  DataDescriptor d;
  d.set(kAttrName, std::string("clip"));
  d.set(kAttrTotalChunks, std::int64_t{chunks});
  return d;
}

// -- DataStore: metadata -----------------------------------------------------

TEST(DataStore, InsertAndMatch) {
  DataStore store;
  const SimTime now = SimTime::zero();
  EXPECT_TRUE(store.insert_metadata(entry(1), true, now, SimTime::zero()));
  EXPECT_FALSE(store.insert_metadata(entry(1), true, now, SimTime::zero()));
  EXPECT_TRUE(store.insert_metadata(entry(2), true, now, SimTime::zero()));

  EXPECT_EQ(store.match_metadata(Filter{}, now).size(), 2u);
  Filter f;
  f.where("seq", Relation::kEq, std::int64_t{1});
  const auto matched = store.match_metadata(f, now);
  ASSERT_EQ(matched.size(), 1u);
  EXPECT_EQ(matched[0], entry(1));
}

TEST(DataStore, CachedOnlyEntriesExpire) {
  // Paper §II-C: an entry cached without payload gets an expiration and is
  // removed once it passes without the payload arriving.
  DataStore store;
  store.insert_metadata(entry(1), /*has_payload=*/false, SimTime::zero(),
                        SimTime::seconds(10.0));
  EXPECT_TRUE(store.has_metadata(entry(1).entry_key(), SimTime::seconds(5)));
  EXPECT_FALSE(store.has_metadata(entry(1).entry_key(), SimTime::seconds(11)));
  EXPECT_TRUE(store.match_metadata(Filter{}, SimTime::seconds(11)).empty());
}

TEST(DataStore, PayloadBackedEntriesNeverExpire) {
  DataStore store;
  store.insert_metadata(entry(1), /*has_payload=*/true, SimTime::zero(),
                        SimTime::zero());
  EXPECT_TRUE(
      store.has_metadata(entry(1).entry_key(), SimTime::minutes(1e6)));
}

TEST(DataStore, PayloadArrivalUpgradesCachedEntry) {
  DataStore store;
  store.insert_metadata(entry(1), false, SimTime::zero(),
                        SimTime::seconds(5.0));
  store.insert_metadata(entry(1), true, SimTime::seconds(1.0),
                        SimTime::zero());
  EXPECT_TRUE(store.has_metadata(entry(1).entry_key(), SimTime::minutes(60)));
}

TEST(DataStore, ReinsertionRefreshesExpiry) {
  DataStore store;
  store.insert_metadata(entry(1), false, SimTime::zero(),
                        SimTime::seconds(5.0));
  store.insert_metadata(entry(1), false, SimTime::seconds(4.0),
                        SimTime::seconds(5.0));
  EXPECT_TRUE(store.has_metadata(entry(1).entry_key(), SimTime::seconds(8)));
  EXPECT_FALSE(store.has_metadata(entry(1).entry_key(), SimTime::seconds(10)));
}

TEST(DataStore, SweepRemovesExpired) {
  DataStore store;
  for (int i = 0; i < 10; ++i) {
    store.insert_metadata(entry(i), false, SimTime::zero(),
                          SimTime::seconds(1.0));
  }
  store.insert_metadata(entry(100), true, SimTime::zero(), SimTime::zero());
  store.sweep(SimTime::seconds(2.0));
  EXPECT_EQ(store.metadata_count(SimTime::seconds(2.0)), 1u);
}

// -- DataStore: layout invariants (DESIGN.md §19) ----------------------------

// Drives a DataStore through a seeded random sequence of metadata inserts
// (new and refreshed keys, cached-only and payload-backed), chunk inserts
// whose LRU cache evictions demote records to cached-only, sweeps, clear()
// and clock advances, next to two references:
//  * `order`: a std::unordered_map with std::allocator given the same
//    inserts and erases, whose iteration order the store's must equal;
//  * `model`: each key's expiry state, kept by rules that always walk.
class StoreSequence {
 public:
  struct Rec {
    bool has_payload = false;
    SimTime expire_at = SimTime::max();
    [[nodiscard]] bool expired(SimTime now) const {
      return !has_payload && expire_at <= now;
    }
  };

  explicit StoreSequence(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 600; ++i) entries_.push_back(entry(i));
    for (int i = 0; i < 3; ++i) {
      DataDescriptor item = chunked_item(8);
      item.set("seq", std::int64_t{i});
      items_.push_back(item);
    }
    store.set_chunk_cache_limit(3 * kChunkBytes, ChunkEvictionPolicy::kLru,
                                kEvictionTtl);
  }

  void step() {
    // Every 300 steps, switch between mostly cached-only inserts and
    // payload-backed ones only; in the latter phases the horizon is set by
    // evictions alone.
    if (++steps_ % 300 == 0) payload_share_ = payload_share_ < 1.0 ? 1.0 : 0.2;
    const std::int64_t op = rng_.uniform_int(0, 999);
    if (op < 550) {
      insert_metadata();
    } else if (op < 700) {
      insert_chunk();
    } else if (op < 800) {
      store.sweep(now);
      std::vector<std::uint64_t> gone;
      for (const auto& [key, rec] : model) {
        if (rec.expired(now)) gone.push_back(key);
      }
      for (std::uint64_t key : gone) {
        model.erase(key);
        order.erase(key);
      }
    } else if (op < 998) {
      now += SimTime::millis(rng_.uniform_int(0, 500));
    } else {
      store.clear();
      order.clear();
      model.clear();
      cached_chunks_.clear();
    }
  }

  // Keys for_each_metadata visits, in visiting order.
  [[nodiscard]] std::vector<std::uint64_t> visited() const {
    std::vector<std::uint64_t> keys;
    store.for_each_metadata(
        Filter{}, now, [&](std::uint64_t key, const DataStore::MetaRecord&) {
          keys.push_back(key);
        });
    return keys;
  }

  // Unexpired keys in the reference map's iteration order.
  [[nodiscard]] std::vector<std::uint64_t> expected_order() const {
    std::vector<std::uint64_t> keys;
    for (const auto& [key, unused] : order) {
      if (!model.at(key).expired(now)) keys.push_back(key);
    }
    return keys;
  }

  [[nodiscard]] std::size_t expected_count() const {
    std::size_t n = 0;
    for (const auto& [key, rec] : model) n += rec.expired(now) ? 0 : 1;
    return n;
  }

  [[nodiscard]] const std::vector<DataDescriptor>& entries() const {
    return entries_;
  }

  DataStore store;
  std::unordered_map<std::uint64_t, int> order;
  std::map<std::uint64_t, Rec> model;
  SimTime now = SimTime::zero();

 private:
  static constexpr std::uint32_t kChunkBytes = 100;
  static constexpr SimTime kEvictionTtl = SimTime::seconds(5.0);

  void insert_metadata() {
    const DataDescriptor& d = rng_.pick(entries_);
    const bool has_payload = rng_.bernoulli(payload_share_);
    const SimTime ttl = SimTime::millis(rng_.uniform_int(500, 15000));
    const std::uint64_t key = d.entry_key();
    bool expected = true;
    if (auto it = model.find(key); it == model.end()) {
      model[key] = {has_payload, has_payload ? SimTime::max() : now + ttl};
    } else {
      Rec& rec = it->second;
      expected = rec.expired(now);
      if (has_payload) {
        rec = {true, SimTime::max()};
      } else if (!rec.has_payload) {
        rec.expire_at = std::max(rec.expire_at, now + ttl);
      }
    }
    order.emplace(key, 0);
    EXPECT_EQ(store.insert_metadata(d, has_payload, now, ttl), expected);
  }

  // The cache holds three chunks; a fourth evicts the least recently
  // inserted, whose record then expires kEvictionTtl later.
  void insert_chunk() {
    const std::size_t item = static_cast<std::size_t>(rng_.uniform_int(0, 2));
    const auto index = static_cast<ChunkIndex>(rng_.uniform_int(0, 7));
    const std::pair<std::size_t, ChunkIndex> id{item, index};
    store.insert_chunk(items_[item], index,
                       net::ChunkPayload{.index = index,
                                         .size_bytes = kChunkBytes,
                                         .content_hash = 1},
                       now);
    if (auto it = std::find(cached_chunks_.begin(), cached_chunks_.end(), id);
        it != cached_chunks_.end()) {
      cached_chunks_.erase(it);  // a re-insert only refreshes recency
      cached_chunks_.push_back(id);
      return;
    }
    cached_chunks_.push_back(id);
    const std::uint64_t key = items_[item].chunk_descriptor(index).entry_key();
    model[key] = {true, SimTime::max()};
    order.emplace(key, 0);
    if (cached_chunks_.size() > 3) {
      const auto [victim_item, victim_index] = cached_chunks_.front();
      cached_chunks_.pop_front();
      model[items_[victim_item].chunk_descriptor(victim_index).entry_key()] = {
          false, now + kEvictionTtl};
    }
  }

  Rng rng_;
  int steps_ = 0;
  double payload_share_ = 0.2;
  std::vector<DataDescriptor> entries_;
  std::vector<DataDescriptor> items_;
  std::deque<std::pair<std::size_t, ChunkIndex>> cached_chunks_;  // LRU first
};

// Outcomes stay bit-identical only because the store's records iterate in
// exactly the order a std::allocator map would give them: node addresses
// never decide libstdc++'s order, only the bucket count and the insert and
// erase sequence do.
TEST(DataStoreLayout, IterationOrderMatchesAStdAllocatorMap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    StoreSequence run(seed);
    for (int step = 0; step < 2000; ++step) {
      run.step();
      ASSERT_EQ(run.visited(), run.expected_order())
          << "seed " << seed << " step " << step;
    }
  }
}

// The expiry horizon lets sweep() and metadata_count() skip their walks; it
// must never skip a record that has expired.
TEST(DataStoreLayout, ExpiryHorizonMatchesAWalkingReference) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    StoreSequence run(seed);
    for (int step = 0; step < 2000; ++step) {
      run.step();
      ASSERT_EQ(run.store.metadata_count(run.now), run.expected_count())
          << "seed " << seed << " step " << step;
      std::vector<std::uint64_t> visited = run.visited();
      std::sort(visited.begin(), visited.end());
      std::vector<std::uint64_t> live;
      for (const auto& [key, rec] : run.model) {
        EXPECT_EQ(run.store.has_metadata(key, run.now), !rec.expired(run.now))
            << "seed " << seed << " step " << step;
        if (!rec.expired(run.now)) live.push_back(key);
      }
      ASSERT_EQ(visited, live) << "seed " << seed << " step " << step;
      const std::uint64_t absent = run.entries().front().entry_key();
      if (!run.model.contains(absent)) {
        EXPECT_FALSE(run.store.has_metadata(absent, run.now));
      }
    }
  }
}

// A record's slot is poisoned once sweep() erases it, so a dangling read is
// an ASan report rather than a silent read of recycled memory.
TEST(DataStoreLayoutDeathTest, ReadingASweptRecordIsReported) {
#ifndef PDS_TEST_ASAN
  GTEST_SKIP() << "needs AddressSanitizer";
#else
  EXPECT_DEATH(
      {
        DataStore store;
        store.insert_metadata(entry(1), false, SimTime::zero(),
                              SimTime::seconds(1.0));
        store.insert_metadata(entry(2), true, SimTime::zero(),
                              SimTime::zero());
        const bool* has_payload = nullptr;
        const std::uint64_t doomed = entry(1).entry_key();
        store.for_each_metadata(
            Filter{}, SimTime::zero(),
            [&](std::uint64_t key, const DataStore::MetaRecord& rec) {
              if (key == doomed) has_payload = &rec.has_payload;
            });
        store.sweep(SimTime::seconds(2.0));
        const volatile bool read = *has_payload;
        (void)read;
      },
      "use-after-poison");
#endif
}

// -- DataStore: chunks ---------------------------------------------------------

TEST(DataStore, ChunkStorageAndLookup) {
  DataStore store;
  const DataDescriptor item = chunked_item();
  const ItemId id = item.item_id();
  store.insert_chunk(item, 2,
                     net::ChunkPayload{.index = 2, .size_bytes = 100,
                                       .content_hash = 5},
                     SimTime::zero());
  EXPECT_TRUE(store.has_chunk(id, 2));
  EXPECT_FALSE(store.has_chunk(id, 1));
  ASSERT_TRUE(store.chunk(id, 2).has_value());
  EXPECT_EQ(store.chunk(id, 2)->content_hash, 5u);
  EXPECT_EQ(store.chunks_of(id), (std::vector<ChunkIndex>{2}));
}

TEST(DataStore, ChunkInsertCreatesPayloadBackedChunkMetadata) {
  // Paper §II-C: a metadata entry exists as long as any chunk of the item
  // does.
  DataStore store;
  const DataDescriptor item = chunked_item();
  store.insert_chunk(item, 0,
                     net::ChunkPayload{.index = 0, .size_bytes = 1,
                                       .content_hash = 0},
                     SimTime::zero());
  const std::uint64_t chunk_key = item.chunk_descriptor(0).entry_key();
  EXPECT_TRUE(store.has_metadata(chunk_key, SimTime::minutes(1e6)));
}

TEST(DataStore, ChunksOfDifferentItemsAreIsolated) {
  DataStore store;
  const DataDescriptor a = chunked_item(4);
  DataDescriptor b = chunked_item(4);
  b.set(kAttrName, std::string("other"));
  store.insert_chunk(a, 0,
                     net::ChunkPayload{.index = 0, .size_bytes = 1,
                                       .content_hash = 1},
                     SimTime::zero());
  EXPECT_TRUE(store.has_chunk(a.item_id(), 0));
  EXPECT_FALSE(store.has_chunk(b.item_id(), 0));
  EXPECT_TRUE(store.chunks_of(b.item_id()).empty());
}

// -- DataStore: items -----------------------------------------------------------

TEST(DataStore, ItemsMatchedByFilter) {
  DataStore store;
  for (int i = 0; i < 5; ++i) {
    net::ItemPayload item;
    item.descriptor = entry(i);
    item.size_bytes = 100;
    item.content_hash = static_cast<std::uint64_t>(i);
    store.insert_item(item, SimTime::zero());
  }
  Filter f;
  f.where_range("seq", std::int64_t{1}, std::int64_t{3});
  EXPECT_EQ(store.match_items(f, SimTime::zero()).size(), 3u);
  EXPECT_TRUE(store.has_item(entry(0).entry_key()));
  EXPECT_EQ(store.item_count(), 5u);
}

// -- LingeringQueryTable --------------------------------------------------------

net::MessagePtr make_query(std::uint64_t id, NodeId sender,
                           net::ContentKind kind = net::ContentKind::kMetadata,
                           SimTime expire = SimTime::seconds(100)) {
  auto q = std::make_shared<net::Message>();
  q->type = net::MessageType::kQuery;
  q->kind = kind;
  q->query_id = QueryId(id);
  q->sender = sender;
  q->expire_at = expire;
  return q;
}

TEST(LingeringQueryTable, InsertCapturesUpstreamAndDetectsDuplicates) {
  LingeringQueryTable lqt;
  const auto q = make_query(1, NodeId(7));
  EXPECT_FALSE(lqt.contains(QueryId(1)));
  LingeringQuery& lq = lqt.insert(q, SimTime::zero());
  EXPECT_EQ(lq.upstream, NodeId(7));
  EXPECT_TRUE(lqt.contains(QueryId(1)));
  ASSERT_NE(lqt.find(QueryId(1)), nullptr);
  EXPECT_EQ(lqt.find(QueryId(2)), nullptr);
}

TEST(LingeringQueryTable, LiveQueriesFilteredByKindAndExpiry) {
  LingeringQueryTable lqt;
  lqt.insert(make_query(1, NodeId(1), net::ContentKind::kMetadata),
             SimTime::zero());
  lqt.insert(make_query(2, NodeId(2), net::ContentKind::kChunk),
             SimTime::zero());
  lqt.insert(make_query(3, NodeId(3), net::ContentKind::kMetadata,
                        SimTime::seconds(1.0)),
             SimTime::zero());

  EXPECT_EQ(lqt.live_queries(net::ContentKind::kMetadata, SimTime::zero())
                .size(),
            2u);
  // Query 3 expires.
  EXPECT_EQ(lqt.live_queries(net::ContentKind::kMetadata, SimTime::seconds(2))
                .size(),
            1u);
  EXPECT_EQ(lqt.live_queries(net::ContentKind::kChunk, SimTime::zero()).size(),
            1u);
}

TEST(LingeringQueryTable, ConsumedQueriesAreNotLive) {
  LingeringQueryTable lqt;
  LingeringQuery& lq = lqt.insert(make_query(1, NodeId(1)), SimTime::zero());
  lq.consumed = true;
  EXPECT_TRUE(
      lqt.live_queries(net::ContentKind::kMetadata, SimTime::zero()).empty());
}

TEST(LingeringQueryTable, LingeringUnlikeOneShotInterests) {
  // The defining property (§III-A.1): a lingering query stays usable across
  // many responses until expiry.
  LingeringQueryTable lqt;
  lqt.insert(make_query(1, NodeId(1)), SimTime::zero());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(
        lqt.live_queries(net::ContentKind::kMetadata, SimTime::seconds(i))
            .size(),
        1u);
  }
}

TEST(LingeringQueryTable, SweepDropsExpired) {
  LingeringQueryTable lqt;
  lqt.insert(make_query(1, NodeId(1), net::ContentKind::kMetadata,
                        SimTime::seconds(1)),
             SimTime::zero());
  lqt.insert(make_query(2, NodeId(2)), SimTime::zero());
  lqt.sweep(SimTime::seconds(5));
  EXPECT_EQ(lqt.size(), 1u);
  EXPECT_FALSE(lqt.contains(QueryId(1)));
}

// -- CdiTable -----------------------------------------------------------------

TEST(CdiTable, KeepsLeastHopAndAllTiedNeighbors) {
  CdiTable cdi;
  const ItemId item(1);
  const SimTime now = SimTime::zero();
  const SimTime ttl = SimTime::seconds(30);

  EXPECT_TRUE(cdi.update(item, 0, 3, NodeId(1), now, ttl));
  EXPECT_TRUE(cdi.update(item, 0, 2, NodeId(2), now, ttl));  // closer: replaces
  EXPECT_TRUE(cdi.update(item, 0, 2, NodeId(3), now, ttl));  // tie: extends
  EXPECT_FALSE(cdi.update(item, 0, 5, NodeId(4), now, ttl));  // farther: no-op
  EXPECT_FALSE(cdi.update(item, 0, 2, NodeId(2), now, ttl));  // duplicate

  const CdiRecord* rec = cdi.lookup(item, 0, now);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->hop_count, 2u);
  EXPECT_EQ(rec->neighbors.size(), 2u);
}

TEST(CdiTable, EntriesExpire) {
  CdiTable cdi;
  const ItemId item(1);
  cdi.update(item, 0, 1, NodeId(1), SimTime::zero(), SimTime::seconds(10));
  EXPECT_NE(cdi.lookup(item, 0, SimTime::seconds(5)), nullptr);
  EXPECT_EQ(cdi.lookup(item, 0, SimTime::seconds(11)), nullptr);
  // A fresh update after expiry replaces even with a larger hop count.
  EXPECT_TRUE(cdi.update(item, 0, 7, NodeId(9), SimTime::seconds(12),
                         SimTime::seconds(10)));
  EXPECT_EQ(cdi.lookup(item, 0, SimTime::seconds(13))->hop_count, 7u);
}

TEST(CdiTable, LookupItemReturnsAllChunks) {
  CdiTable cdi;
  const ItemId item(1);
  const ItemId other(2);
  for (ChunkIndex c = 0; c < 5; ++c) {
    cdi.update(item, c, c + 1, NodeId(c), SimTime::zero(),
               SimTime::seconds(30));
  }
  cdi.update(other, 0, 1, NodeId(9), SimTime::zero(), SimTime::seconds(30));
  const auto all = cdi.lookup_item(item, SimTime::zero());
  EXPECT_EQ(all.size(), 5u);
  for (const auto& [chunk, rec] : all) {
    EXPECT_EQ(rec.hop_count, chunk + 1);
  }
}

TEST(CdiTable, SweepDropsExpired) {
  CdiTable cdi;
  cdi.update(ItemId(1), 0, 1, NodeId(1), SimTime::zero(),
             SimTime::seconds(1));
  cdi.update(ItemId(1), 1, 1, NodeId(1), SimTime::zero(),
             SimTime::seconds(100));
  cdi.sweep(SimTime::seconds(10));
  EXPECT_EQ(cdi.size(), 1u);
}

}  // namespace
}  // namespace pds::core
