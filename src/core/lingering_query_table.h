// Lingering Query Table (paper §III-A.1).
//
// A lingering query stays in the table until its expiration and can direct a
// continuous stream of returning responses back toward the consumer — unlike
// NDN/CCN Interests, which are consumed by a single Data message. Each entry
// remembers:
//  * the query itself (filter, target item, requested chunks),
//  * the upstream neighbor that transmitted it (the reverse-path next hop),
//  * a mutable copy of the query's Bloom filter, updated by en-route message
//    rewriting as entries are served or relayed through this node,
//  * for CDI/chunk streams, per-chunk bookkeeping that suppresses relaying
//    the same information to the same upstream twice.
//
// An entry whose upstream is this node itself represents a locally
// originated query; responses that reach it are delivered to the consumer
// session instead of being relayed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "net/message.h"
#include "util/bloom_filter.h"
#include "util/flat_key_set.h"

namespace pds::core {

struct LingeringQuery {
  net::MessagePtr query;
  NodeId upstream;
  SimTime expire_at;
  // Mutable Bloom filter for redundancy detection (metadata/item streams).
  util::BloomFilter exclude;
  // Entry keys already relayed/served toward this query's upstream; backs up
  // the Bloom filter when rewriting is disabled and suppresses duplicates.
  // Membership only, so a flat set (DESIGN.md §18).
  util::FlatKeySet served_keys;
  // CDI streams: best hop count already relayed per chunk (relay only
  // improvements), sorted by chunk. Used by key only, like served_chunks,
  // so both are flat and a metadata query carries no empty hash tables.
  std::vector<std::pair<ChunkIndex, std::uint32_t>> relayed_cdi_hops;
  // Chunk streams: chunk ids already relayed/served for this query.
  util::FlatKeySet served_chunks;
  // When true this query was consumed (one-shot mode for the lingering-query
  // ablation).
  bool consumed = false;
  // Duplicate copies of this flooded query overheard from other relays;
  // feeds counter-based flood suppression (core/flood.h).
  int duplicate_copies_heard = 0;
  // Causal tracing (DESIGN.md §14): trace context as carried by the query
  // when installed (copied from query->trace by insert()) and the span id of
  // the recv event this node emitted for it. Deferred work triggered by this
  // entry — flood forwards after the assessment delay, jittered serves —
  // parents its tx spans on `recv_span` so the DAG keeps the true cause.
  net::TraceContext trace;
  std::uint64_t recv_span = 0;

  [[nodiscard]] bool expired(SimTime now) const { return expire_at <= now; }
};

class LingeringQueryTable {
 public:
  [[nodiscard]] bool contains(QueryId id) const { return table_.contains(id); }

  // Inserts a newly received query; captures upstream = query->sender and
  // copies its Bloom filter. Returns the new entry.
  LingeringQuery& insert(const net::MessagePtr& query, SimTime now);

  [[nodiscard]] LingeringQuery* find(QueryId id);

  // All live (unexpired, unconsumed) queries of the given content kind.
  [[nodiscard]] std::vector<LingeringQuery*> live_queries(
      net::ContentKind kind, SimTime now);

  // Erases expired entries; returns how many were dropped (lq.expired trace).
  std::size_t sweep(SimTime now);

  // Peer-failure cleanup (DESIGN.md §11): erases every `kind` entry whose
  // upstream is the departed `upstream` — the query, its Bloom filter and
  // per-chunk bookkeeping all go; responses relayed toward a dead upstream
  // are wasted airtime. Entries whose upstream is this node (locally
  // originated queries) are never passed here. Returns how many entries
  // were dropped.
  std::size_t purge_upstream(NodeId upstream, net::ContentKind kind);

  // Crash-with-wipe fault semantics.
  void clear() { table_.clear(); }

  [[nodiscard]] std::size_t size() const { return table_.size(); }

  // Flight-recorder snapshot (DESIGN.md §15): how many entries carry a
  // non-empty Bloom filter and the fullest filter among them. Max over an
  // unordered map is iteration-order independent, so the sample is
  // deterministic.
  struct BloomStats {
    std::size_t filters = 0;
    double max_fill = 0.0;
  };
  [[nodiscard]] BloomStats bloom_stats() const;

 private:
  std::unordered_map<QueryId, LingeringQuery> table_;
};

}  // namespace pds::core
