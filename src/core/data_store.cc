#include "core/data_store.h"

#include <algorithm>

#include "common/assert.h"

namespace pds::core {

bool DataStore::insert_metadata(const DataDescriptor& d, bool has_payload,
                                SimTime now, SimTime ttl) {
  auto [it, inserted] = metadata_.try_emplace(d.entry_key());
  MetaRecord& rec = it->second;
  if (inserted) {
    rec.descriptor = d;
    rec.has_payload = has_payload;
    if (!has_payload) {
      rec.expire_at = now + ttl;
      rec.cached_at = now;
      expiry_horizon_ = std::min(expiry_horizon_, rec.expire_at);
    }
    return true;
  }
  // A refresh only moves expire_at later or drops it, so the horizon holds.
  const bool was_expired = rec.expired(now);
  if (has_payload) {
    rec.has_payload = true;
    rec.expire_at = SimTime::max();
  } else if (!rec.has_payload) {
    rec.expire_at = std::max(rec.expire_at, now + ttl);
    rec.cached_at = now;
  }
  return was_expired;
}

bool DataStore::has_metadata(std::uint64_t entry_key, SimTime now) const {
  auto it = metadata_.find(entry_key);
  return it != metadata_.end() && !it->second.expired(now);
}

std::vector<DataDescriptor> DataStore::match_metadata(const Filter& f,
                                                      SimTime now) const {
  std::vector<DataDescriptor> out;
  for_each_metadata(f, now, [&](std::uint64_t, const MetaRecord& rec) {
    out.push_back(rec.descriptor);
  });
  return out;
}

std::size_t DataStore::metadata_count(SimTime now) const {
  if (now < expiry_horizon_) return metadata_.size();
  std::size_t n = 0;
  for (const auto& [key, rec] : metadata_) {
    if (!rec.expired(now)) ++n;
  }
  return n;
}

void DataStore::set_chunk_cache_limit(std::size_t bytes,
                                      ChunkEvictionPolicy policy,
                                      SimTime metadata_ttl) {
  chunk_cache_limit_ = bytes;
  chunk_policy_ = policy;
  eviction_metadata_ttl_ = metadata_ttl;
}

void DataStore::insert_chunk(const DataDescriptor& item_descriptor,
                             ChunkIndex index, net::ChunkPayload payload,
                             SimTime now, bool pinned) {
  PDS_ENSURE(payload.index == index);
  const ItemId item = item_descriptor.item_id();
  auto it = chunks_.find({item, index});
  if (it != chunks_.end()) {
    // Re-insertion refreshes recency and may pin a previously cached copy.
    ChunkRecord& rec = it->second;
    if (pinned && !rec.pinned) {
      PDS_ENSURE(cached_chunk_bytes_ >= rec.payload.size_bytes);
      cached_chunk_bytes_ -= rec.payload.size_bytes;
      rec.pinned = true;
    }
    rec.last_access = ++access_clock_;
    return;
  }
  ChunkRecord rec;
  rec.payload = payload;
  rec.item_descriptor = item_descriptor;
  rec.pinned = pinned;
  rec.last_access = ++access_clock_;
  rec.accesses = 1;  // insertion counts, or LFU would evict every newcomer
  if (!pinned) cached_chunk_bytes_ += payload.size_bytes;
  chunks_.emplace(std::make_pair(item, index), std::move(rec));
  insert_metadata(item_descriptor.chunk_descriptor(index),
                  /*has_payload=*/true, now, SimTime::zero());
  evict_cached_chunks_if_needed(now);
}

void DataStore::evict_cached_chunks_if_needed(SimTime now) {
  if (chunk_cache_limit_ == 0) return;
  while (cached_chunk_bytes_ > chunk_cache_limit_) {
    auto victim = chunks_.end();
    for (auto it = chunks_.begin(); it != chunks_.end(); ++it) {
      if (it->second.pinned) continue;
      if (victim == chunks_.end()) {
        victim = it;
        continue;
      }
      const ChunkRecord& a = it->second;
      const ChunkRecord& b = victim->second;
      const bool worse = chunk_policy_ == ChunkEvictionPolicy::kLru
                             ? a.last_access < b.last_access
                             : (a.accesses < b.accesses ||
                                (a.accesses == b.accesses &&
                                 a.last_access < b.last_access));
      if (worse) victim = it;
    }
    if (victim == chunks_.end()) return;  // nothing evictable
    // The chunk is gone; its metadata entry may only linger with an
    // expiration now (paper §II-C).
    const std::uint64_t key = victim->second.item_descriptor
                                  .chunk_descriptor(victim->first.second)
                                  .entry_key();
    if (auto meta = metadata_.find(key); meta != metadata_.end()) {
      meta->second.has_payload = false;
      meta->second.expire_at = now + eviction_metadata_ttl_;
      expiry_horizon_ = std::min(expiry_horizon_, meta->second.expire_at);
    }
    PDS_ENSURE(cached_chunk_bytes_ >= victim->second.payload.size_bytes);
    cached_chunk_bytes_ -= victim->second.payload.size_bytes;
    chunks_.erase(victim);
  }
}

bool DataStore::has_chunk(ItemId item, ChunkIndex index) const {
  return chunks_.contains({item, index});
}

std::optional<net::ChunkPayload> DataStore::chunk(ItemId item,
                                                  ChunkIndex index) {
  auto it = chunks_.find({item, index});
  if (it == chunks_.end()) return std::nullopt;
  it->second.last_access = ++access_clock_;
  ++it->second.accesses;
  return it->second.payload;
}

std::vector<ChunkIndex> DataStore::chunks_of(ItemId item) const {
  std::vector<ChunkIndex> out;
  for (auto it = chunks_.lower_bound({item, 0});
       it != chunks_.end() && it->first.first == item; ++it) {
    out.push_back(it->first.second);
  }
  return out;
}

std::size_t DataStore::chunk_count() const { return chunks_.size(); }

void DataStore::insert_item(const net::ItemPayload& item, SimTime now) {
  items_[item.descriptor.entry_key()] = item;
  insert_metadata(item.descriptor, /*has_payload=*/true, now,
                  SimTime::zero());
}

bool DataStore::has_item(std::uint64_t entry_key) const {
  return items_.contains(entry_key);
}

std::vector<net::ItemPayload> DataStore::match_items(const Filter& f,
                                                     SimTime now) const {
  (void)now;
  std::vector<net::ItemPayload> out;
  for (const auto& [key, item] : items_) {
    if (f.matches(item.descriptor)) out.push_back(item);
  }
  return out;
}

std::size_t DataStore::item_count() const { return items_.size(); }

void DataStore::sweep(SimTime now) {
  if (now < expiry_horizon_) return;
  expiry_horizon_ = SimTime::max();
  for (auto it = metadata_.begin(); it != metadata_.end();) {
    const MetaRecord& rec = it->second;
    if (rec.expired(now)) {
      it = metadata_.erase(it);
      continue;
    }
    if (!rec.has_payload) {
      expiry_horizon_ = std::min(expiry_horizon_, rec.expire_at);
    }
    ++it;
  }
}

void DataStore::clear() {
  metadata_.clear();
  meta_nodes_.release();
  expiry_horizon_ = SimTime::max();
  chunks_.clear();
  items_.clear();
  cached_chunk_bytes_ = 0;
}

}  // namespace pds::core
