// Shared per-node context handed to protocol engines and consumer sessions.
//
// PdsNode owns all the state (stores, tables, transport) and wires this
// context together; engines and sessions hold a reference and never own
// anything, which keeps the dependency graph acyclic: engines depend only on
// this header, the node depends on the engines.
#pragma once

#include <functional>

#include "common/rng.h"
#include "common/types.h"
#include "core/cdi_table.h"
#include "core/config.h"
#include "core/data_store.h"
#include "core/lingering_query_table.h"
#include "net/bloom_delta.h"
#include "net/message.h"
#include "net/transport.h"
#include "sim/simulator.h"
#include "util/dedup_cache.h"

namespace pds::core {

// Invoked when a response reaches a locally originated query; the message's
// payload has already been pruned to what this query still needs.
using LocalResponseHandler = std::function<void(const net::Message&)>;

struct NodeContext {
  NodeId self;
  sim::Simulator& sim;
  net::Transport& transport;
  const PdsConfig& config;
  DataStore& store;
  LingeringQueryTable& lqt;
  util::DedupCache& recent_responses;
  CdiTable& cdi;
  // Bloom-sync reconstruction cache (DESIGN.md §16): per-session state for
  // rebuilding consumers' exclude filters from delta frames. Consulted by
  // PddEngine whenever a query carries Message::exclude_delta — regardless
  // of this node's own wire config, so legacy-configured nodes still
  // understand delta-aware consumers.
  net::BloomSyncCache& bloom_sync;
  Rng& rng;

  // Registers a locally originated query: inserts it into the LQT (with this
  // node as upstream) and remembers the handler for responses that arrive
  // for it. Provided by PdsNode.
  std::function<void(const net::MessagePtr&, LocalResponseHandler)>
      register_local_query;

  // Routes a response that reached a locally originated query to its
  // session. Provided by PdsNode.
  std::function<void(QueryId, const net::Message&)> deliver_local;

  // Per-node causal span sequence (DESIGN.md §14). Span ids pack the node id
  // and a local counter, so they are unique across the whole simulation
  // without coordination and identical across reruns: the counter advances
  // only at deterministic protocol events, never from wall-clock or RNG
  // state, and it ticks whether or not a tracer is attached.
  std::uint64_t causal_seq = 0;

  [[nodiscard]] std::uint64_t new_span() {
    return (static_cast<std::uint64_t>(self.value()) + 1) << 40 | ++causal_seq;
  }

  [[nodiscard]] QueryId new_query_id() { return QueryId(rng.next_u64()); }
  [[nodiscard]] ResponseId new_response_id() {
    return ResponseId(rng.next_u64());
  }
  [[nodiscard]] SimTime now() const { return sim.now(); }
};

}  // namespace pds::core
