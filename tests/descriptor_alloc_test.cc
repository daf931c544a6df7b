// Allocation guard for the shared descriptor representation (DESIGN.md
// §18). This binary replaces the global allocation functions with counting
// ones, as bench/ledger/heap_meter.cc does, and asserts that the operations
// the PDD hot path repeats per cached copy allocate nothing: copying a
// descriptor, copying a metadata response's entries, computing identity and
// re-inserting an entry the store already holds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/data_store.h"
#include "core/descriptor.h"
#include "net/message.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Kept out of line: GCC would otherwise inline malloc() and free() into
// `new` and `delete` expressions and flag a mismatch that is not there.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

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

}  // namespace
}  // namespace pds::core
