// Allocation guards for the shared descriptor representation (DESIGN.md
// §18), the store layout (§19) and the per-node footprint (§20). This
// binary replaces the global allocation functions with counting ones, as
// bench/ledger/heap_meter.cc does, and asserts that the operations the PDD
// hot path repeats per cached copy allocate nothing: copying a descriptor,
// copying a metadata response's entries, computing identity, re-inserting
// an entry the store already holds and walking past entries a query does
// not want; that new records are allocated per slab, not one by one; that
// an idle node is a few heap blocks; and that a hop shares a query's
// exclude filter instead of copying its words.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/data_store.h"
#include "core/descriptor.h"
#include "core/lingering_query_table.h"
#include "core/pdd.h"
#include "net/message.h"
#include "workload/scenario.h"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_deallocations{0};
std::atomic<std::size_t> g_largest{0};  // largest allocation since reset

}  // namespace

// Kept out of line: GCC would otherwise inline malloc() and free() into
// `new` and `delete` expressions and flag a mismatch that is not there.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest.compare_exchange_weak(largest, size,
                                          std::memory_order_relaxed)) {
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr) g_deallocations.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

[[gnu::noinline]] void operator delete(void* p,
                                       std::size_t /*size*/) noexcept {
  ::operator delete(p);
}

namespace pds::core {
namespace {

// Allocations made by `fn`.
template <typename Fn>
std::size_t allocations_of(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// Blocks `fn` allocated and did not free.
template <typename Fn>
std::ptrdiff_t live_blocks_of(Fn&& fn) {
  const std::size_t allocs = g_allocations.load(std::memory_order_relaxed);
  const std::size_t frees = g_deallocations.load(std::memory_order_relaxed);
  fn();
  return static_cast<std::ptrdiff_t>(
             g_allocations.load(std::memory_order_relaxed) - allocs) -
         static_cast<std::ptrdiff_t>(
             g_deallocations.load(std::memory_order_relaxed) - frees);
}

// The largest single allocation `fn` made (0 if none).
template <typename Fn>
std::size_t largest_allocation_of(Fn&& fn) {
  g_largest.store(0, std::memory_order_relaxed);
  fn();
  return g_largest.load(std::memory_order_relaxed);
}

// Six attributes, two of them strings too long for the small-string buffer,
// so a deep copy would allocate several times.
DataDescriptor six_attribute_descriptor(std::int64_t seq) {
  DataDescriptor d;
  d.set(kAttrNamespace, std::string("environment-sensing-namespace"));
  d.set(kAttrDataType, std::string("nitrogen-oxides-reading"));
  d.set(kAttrName, std::string("sensor-") + std::to_string(seq));
  d.set(kAttrTime, std::int64_t{1'600'000'000} + seq);
  d.set("x", 12.5);
  d.set("y", 3.25);
  return d;
}

TEST(DescriptorAlloc, CopyingADescriptorDoesNotAllocate) {
  const DataDescriptor d = six_attribute_descriptor(1);
  ASSERT_EQ(d.attributes().size(), 6u);
  DataDescriptor assigned;
  const std::size_t n = allocations_of([&] {
    DataDescriptor copy = d;
    assigned = copy;
    DataDescriptor moved = std::move(copy);
    assigned = std::move(moved);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(assigned, d);
}

TEST(DescriptorAlloc, CopyingAMetadataResponseAllocatesOnlyItsEntryArray) {
  net::Message m;
  m.type = net::MessageType::kResponse;
  m.kind = net::ContentKind::kMetadata;
  for (int i = 0; i < 40; ++i) {
    m.metadata.push_back(six_attribute_descriptor(i));
  }
  std::size_t n = 0;
  {
    std::vector<net::Message> copies;
    copies.reserve(1);
    n = allocations_of([&] { copies.push_back(m); });
    ASSERT_EQ(copies.front().metadata, m.metadata);
  }
  // One allocation: the copy's vector of 40 handles. None per descriptor.
  EXPECT_EQ(n, 1u);
}

TEST(DescriptorAlloc, IdentityOfAFreshDescriptorDoesNotAllocate) {
  const DataDescriptor item = six_attribute_descriptor(2);
  const DataDescriptor chunk = item.chunk_descriptor(9);
  std::uint64_t sink = 0;
  const std::size_t n = allocations_of([&] {
    sink ^= item.entry_key();
    sink ^= chunk.item_id().value();
    sink ^= chunk.encoded_size();
    sink ^= DataDescriptor().entry_key();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_NE(sink, 0u);
}

TEST(DescriptorAlloc, ReinsertingAHeldEntryDoesNotAllocate) {
  DataStore store;
  const DataDescriptor d = six_attribute_descriptor(3);
  const SimTime ttl = SimTime::seconds(30.0);
  ASSERT_TRUE(store.insert_metadata(d, false, SimTime::zero(), ttl));
  // The same handle, a copy, and an equal descriptor built separately (whose
  // identity is not yet computed).
  const DataDescriptor copy = d;
  const DataDescriptor rebuilt = six_attribute_descriptor(3);
  int inserted = 0;
  const std::size_t n = allocations_of([&] {
    inserted += store.insert_metadata(d, false, SimTime::seconds(1.0), ttl);
    inserted += store.insert_metadata(copy, false, SimTime::seconds(2.0), ttl);
    inserted += store.insert_metadata(rebuilt, true, SimTime::seconds(3), ttl);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(inserted, 0);
  EXPECT_TRUE(store.has_metadata(d.entry_key(), SimTime::minutes(60.0)));
}

TEST(StoreAlloc, InsertingNewEntriesAllocatesPerSlabNotPerRecord) {
  std::vector<DataDescriptor> entries;
  for (int i = 0; i < 1000; ++i) {
    entries.push_back(six_attribute_descriptor(i));
    (void)entries.back().entry_key();  // identity memo filled outside
  }
  DataStore store;
  const std::size_t n = allocations_of([&] {
    for (const DataDescriptor& d : entries) {
      store.insert_metadata(d, false, SimTime::zero(), SimTime::seconds(30.0));
    }
  });
  EXPECT_EQ(store.metadata_count(SimTime::zero()), 1000u);
  // The slabs plus the hash table's bucket arrays: about thirty. One heap
  // node per record would be over a thousand.
  EXPECT_LE(n, 40u);
}

// Allocations made by one node installing (and serving) a lingering query
// whose exclude filter holds every one of the node's `stored` entries, so
// the serve walk visits them all and sends nothing.
std::size_t allocations_to_serve_nothing_new(int stored) {
  PdsConfig pds;
  wl::Scenario sc(1, sim::clean_radio_profile());
  PdsNode& node = sc.add_node(NodeId(0), {0.0, 0.0}, pds);
  auto query = std::make_shared<net::Message>();
  query->type = net::MessageType::kQuery;
  query->kind = net::ContentKind::kMetadata;
  query->query_id = QueryId(77);
  query->sender = NodeId(1);
  query->ttl = 1;  // install and serve here, forward nowhere
  query->expire_at = SimTime::seconds(60.0);
  query->exclude = util::BloomFilter::with_capacity(
      static_cast<std::size_t>(stored), 0.01, 5);
  for (int i = 0; i < stored; ++i) {
    const DataDescriptor d = six_attribute_descriptor(i);
    node.publish_metadata(d);
    query->exclude.insert(d.entry_key());
  }
  PddEngine engine(node.context());
  const std::size_t n = allocations_of([&] { engine.handle_query(query); });
  const LingeringQuery* lq = node.lqt().find(QueryId(77));
  EXPECT_TRUE(lq != nullptr && lq->served_keys.size() == 0);
  return n;
}

// The serve walk checks served keys, the exclude filter and the cooldown on
// each record in place and copies only what it serves, so a query that
// wants nothing costs the same allocations at any store size.
TEST(StoreAlloc, ServingAQueryThatWantsNothingAllocatesTheSameAtAnySize) {
  EXPECT_EQ(allocations_to_serve_nothing_new(1000),
            allocations_to_serve_nothing_new(4000));
}

// -- Per-node footprint (DESIGN.md §20) ---------------------------------------

// Building a grid gives each node its store, tables, queues and transport.
// Queues and dedup windows allocate on first use, so an idle node is a few
// blocks: the node itself, its engines' shared state and the radio's and
// scenario's per-node slots. std::deque-backed queues made it 18.9
// allocations and 13.5 live blocks per node.
TEST(FootprintAlloc, AnIdleNodeIsAFewHeapBlocks) {
  constexpr std::size_t kNodes = 100;
  wl::GridSetup setup;  // 10 x 10
  std::unique_ptr<wl::Grid> grid;
  std::ptrdiff_t live = 0;
  const std::size_t n = allocations_of([&] {
    live = live_blocks_of(
        [&] { grid = std::make_unique<wl::Grid>(wl::make_grid(setup, 1)); });
  });
  ASSERT_EQ(grid->ids.size(), kNodes);
  EXPECT_LE(n, 5 * kNodes);
  EXPECT_LE(live, static_cast<std::ptrdiff_t>(4 * kNodes));
}

// A hop installs a received query in its LQT and forwards a copy of it.
// Both share the query's exclude words until en-route rewriting writes to
// them; copying them would allocate the 600-byte word array twice.
TEST(FootprintAlloc, InstallingAndForwardingAQueryShareItsExcludeWords) {
  auto query = std::make_shared<net::Message>();
  query->type = net::MessageType::kQuery;
  query->kind = net::ContentKind::kMetadata;
  query->query_id = QueryId(5);
  query->sender = NodeId(1);
  query->expire_at = SimTime::seconds(60.0);
  query->exclude = util::BloomFilter(4793, 7, 3);
  for (std::uint64_t k = 1; k <= 500; ++k) query->exclude.insert(k * 131);
  const std::size_t word_bytes = query->exclude.words().size() * 8;
  ASSERT_EQ(word_bytes, 600u);
  LingeringQueryTable lqt;
  std::shared_ptr<net::Message> fwd;
  const std::size_t largest = largest_allocation_of([&] {
    lqt.insert(query, SimTime::zero());
    fwd = std::make_shared<net::Message>(*query);
  });
  EXPECT_LT(largest, word_bytes);
  const LingeringQuery* lq = lqt.find(QueryId(5));
  ASSERT_NE(lq, nullptr);
  EXPECT_EQ(lq->exclude.words().data(), query->exclude.words().data());
  EXPECT_EQ(fwd->exclude.words().data(), query->exclude.words().data());
}

}  // namespace
}  // namespace pds::core
