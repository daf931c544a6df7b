// Per-node Data Store (paper §II-C).
//
// Holds three kinds of state:
//  * metadata entries — descriptors indicating potential data availability.
//    An entry cached without its payload carries an expiration and is removed
//    once it expires without the payload arriving, keeping metadata and data
//    roughly synchronized network-wide;
//  * data chunks — pieces of large items (payload represented by size +
//    content hash in simulation);
//  * small data items — complete descriptor+payload units.
//
// Inserting a chunk or item refreshes the corresponding metadata entry to
// payload-backed (no expiration), per the rule that a metadata entry exists
// as long as any part of the data item does.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "core/descriptor.h"
#include "core/predicate.h"
#include "net/message.h"

namespace pds::core {

// Eviction policy for the bounded opportunistic chunk cache (§VII: caching
// strategies based on popularity and resource availability).
enum class ChunkEvictionPolicy {
  kLru,  // evict the least recently inserted/accessed cached chunk
  // Evict the least frequently accessed (popularity-based). Note that a
  // just-inserted chunk has one access, so LFU denies admission to
  // newcomers while the cache is full of chunks that have actually been
  // served — the cache keeps what is popular, per §VII.
  kLfu,
};

class DataStore {
 public:
  // -- Metadata --------------------------------------------------------------
  // Inserts (or refreshes) a metadata entry. `has_payload` entries never
  // expire; cached-only entries expire at now + ttl. Returns true when the
  // entry was not present before.
  bool insert_metadata(const DataDescriptor& d, bool has_payload, SimTime now,
                       SimTime ttl);
  [[nodiscard]] bool has_metadata(std::uint64_t entry_key, SimTime now) const;
  // Loads the hash bucket of each entry and prefetches its first record.
  // Inserting a response's entries one by one makes each lookup wait for
  // its own cache misses; touched together first, the misses overlap and
  // the inserts then hit in cache. Changes no state.
  void prefetch_metadata(std::span<const DataDescriptor> entries) const {
    for (const DataDescriptor& d : entries) {
      const auto it = metadata_.begin(metadata_.bucket(d.entry_key()));
      if (it != metadata_.end(0)) __builtin_prefetch(&*it);
    }
  }

  // One cached metadata entry. Besides the descriptor it keeps the caching
  // provenance serve-time suppression (`entry_serve_cooldown`, DESIGN.md
  // §16) needs: whether this node holds the payload (publisher/retriever
  // copy) and, for cached-only copies, when the copy last arrived off the
  // air.
  struct MetaRecord {
    DataDescriptor descriptor;
    bool has_payload = false;
    SimTime expire_at = SimTime::max();
    // Last time a cached-only copy of this entry arrived off the air
    // (relayed or overheard response). Meaningless once payload-backed.
    SimTime cached_at = SimTime::zero();

    [[nodiscard]] bool expired(SimTime now) const {
      return !has_payload && expire_at <= now;
    }
  };

  // Calls fn(entry_key, record) for every unexpired entry the filter
  // matches, in place and in the map's iteration order, copying nothing;
  // `fn` must not modify the store.
  template <typename Fn>
  void for_each_metadata(const Filter& f, SimTime now, Fn&& fn) const {
    const bool match_all = f.match_all();
    for (const auto& [key, rec] : metadata_) {
      if (rec.expired(now)) continue;
      if (!match_all && !f.matches(rec.descriptor)) continue;
      fn(key, rec);
    }
  }

  // All unexpired entries matching the filter.
  [[nodiscard]] std::vector<DataDescriptor> match_metadata(const Filter& f,
                                                           SimTime now) const;
  // Unexpired entries; O(1) until the first cached-only entry may have
  // expired.
  [[nodiscard]] std::size_t metadata_count(SimTime now) const;

  // -- Chunks ------------------------------------------------------------
  // Limits the bytes of *cached* (unpinned) chunks; locally published
  // chunks are pinned and never evicted. Evicted chunks demote their
  // metadata entry to cached-only with `metadata_ttl` so it can expire
  // (paper §II-C: a metadata entry exists as long as the data does).
  // 0 = unlimited (the default; the paper caches everything it overhears).
  void set_chunk_cache_limit(std::size_t bytes, ChunkEvictionPolicy policy,
                             SimTime metadata_ttl);

  // `item_descriptor` must be the chunk's parent item descriptor. Also
  // records the chunk's metadata entry as payload-backed. `pinned` chunks
  // (locally published) are exempt from cache eviction.
  void insert_chunk(const DataDescriptor& item_descriptor, ChunkIndex index,
                    net::ChunkPayload payload, SimTime now,
                    bool pinned = false);
  [[nodiscard]] bool has_chunk(ItemId item, ChunkIndex index) const;
  // Counts as an access for eviction purposes (LRU recency / LFU
  // popularity).
  [[nodiscard]] std::optional<net::ChunkPayload> chunk(ItemId item,
                                                       ChunkIndex index);
  [[nodiscard]] std::vector<ChunkIndex> chunks_of(ItemId item) const;
  [[nodiscard]] std::size_t chunk_count() const;
  [[nodiscard]] std::size_t cached_chunk_bytes() const {
    return cached_chunk_bytes_;
  }

  // -- Small items -----------------------------------------------------------
  void insert_item(const net::ItemPayload& item, SimTime now);
  [[nodiscard]] bool has_item(std::uint64_t entry_key) const;
  [[nodiscard]] std::vector<net::ItemPayload> match_items(const Filter& f,
                                                          SimTime now) const;
  [[nodiscard]] std::size_t item_count() const;

  // Drops expired cached-only metadata entries.
  void sweep(SimTime now);

  // Crash-with-wipe fault semantics: the process's entire store is gone.
  // Cache limits and eviction policy survive (they are configuration).
  void clear();

 private:
  struct ChunkRecord {
    net::ChunkPayload payload;
    DataDescriptor item_descriptor;
    bool pinned = false;
    std::uint64_t last_access = 0;  // logical clock (recency)
    std::uint64_t accesses = 0;     // popularity
  };

  void evict_cached_chunks_if_needed(SimTime now);

  // The records live in the store's own slab pool (DESIGN.md §19); libstdc++
  // iteration order depends only on the bucket count and the insert/erase
  // sequence, never on node addresses, so this changes no outcome.
  // `meta_nodes_` must outlive `metadata_`, hence declared first.
  using MetaMap = std::unordered_map<
      std::uint64_t, MetaRecord, std::hash<std::uint64_t>,
      std::equal_to<std::uint64_t>,
      SlabAllocator<std::pair<const std::uint64_t, MetaRecord>>>;
  SlabPool meta_nodes_;
  MetaMap metadata_ = MetaMap(MetaMap::allocator_type(meta_nodes_));
  // No cached-only record expires before this time: a lower bound on their
  // earliest expire_at, exact after each full sweep, max when there are
  // none. While `now` is below it nothing can have expired, so sweep() and
  // metadata_count() skip their walks.
  SimTime expiry_horizon_ = SimTime::max();
  std::map<std::pair<ItemId, ChunkIndex>, ChunkRecord> chunks_;
  std::unordered_map<std::uint64_t, net::ItemPayload> items_;

  std::size_t chunk_cache_limit_ = 0;  // 0 = unlimited
  ChunkEvictionPolicy chunk_policy_ = ChunkEvictionPolicy::kLru;
  SimTime eviction_metadata_ttl_ = SimTime::minutes(10.0);
  std::size_t cached_chunk_bytes_ = 0;  // unpinned bytes held
  std::uint64_t access_clock_ = 0;
};

}  // namespace pds::core
