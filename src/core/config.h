// All PDS protocol knobs in one place.
//
// Defaults are the paper's best-performing parameters: leaky bucket 300 KB /
// 4.5 Mb/s, RetrTimeout 0.2 s, MaxRetrTime 4 (§V.4); discovery window T = 1 s
// with T_r = T_d = 0 (§VI-B.2); 256 KB chunks and 30-byte metadata entries
// (§VI-A). The feature toggles at the bottom exist for the ablations listed
// in DESIGN.md §5.
#pragma once

#include <cstddef>

#include "common/sim_time.h"
#include "core/data_store.h"
#include "net/codec.h"
#include "net/transport.h"

namespace pds::core {

struct PdsConfig {
  net::TransportConfig transport;
  net::WireConfig wire;

  // -- Lingering queries and caches ---------------------------------------
  // How long a lingering query stays in the LQT, directing the continuous
  // stream of returning responses (§III-A.1). Must comfortably exceed one
  // discovery round.
  SimTime query_lifetime = SimTime::seconds(15.0);
  // Expiration added to metadata entries cached without payload (§II-C).
  SimTime metadata_ttl = SimTime::minutes(10.0);
  // Expiration of CDI entries for chunks not held locally (§IV-A).
  SimTime cdi_ttl = SimTime::seconds(30.0);
  // Recent-response dedup window (ids remembered per node).
  std::size_t recent_response_capacity = 4096;
  // Serve-time suppression for off-the-air metadata copies (DESIGN.md §16):
  // when a node installs a query, it skips entries whose only copy was
  // cached from a relayed/overheard response this recently — that copy is
  // still in flight toward the consumer, and re-serving it from every cache
  // along the path multiplies response traffic (single-frame compressed
  // responses make overhear-caching much more effective, which is exactly
  // when the echo shows up). Publisher copies are never suppressed, so a
  // lost in-flight copy is recovered by the next round. Purely local
  // policy — no wire impact, nodes may enable it unilaterally. Zero keeps
  // the paper's serve-everything rule.
  SimTime entry_serve_cooldown = SimTime::zero();

  // -- Multi-round discovery (§III-B.2, §VI-B.2) ---------------------------
  // Recent time window T for the diminishing-responses rule.
  SimTime window = SimTime::seconds(1.0);
  // Round ends when responses-in-window / responses-this-round <= T_r.
  double threshold_tr = 0.0;
  // New round starts when new-entries-this-round / all-entries > T_d.
  double threshold_td = 0.0;
  int max_rounds = 12;
  // Re-issue the first query while nothing at all has been received (a fully
  // lost flooded query would otherwise terminate discovery with recall 0,
  // which a real consumer would never accept).
  int empty_round_retries = 3;
  // Bloom filter sizing for redundancy detection (§V.3). Delta-Bloom mode
  // (wire.delta_bloom; DESIGN.md §16) sizes each epoch's filter exactly for
  // the arrivals at hand — any growth starts a fresh epoch anyway, so
  // headroom would only inflate the full snapshot floods.
  double bloom_fpp = 0.01;

  // -- Adaptive round spacing (DESIGN.md §16) -------------------------------
  // When enabled, every re-flood waits at least a base spacing so in-flight
  // responses land and the next filter excludes them, instead of a
  // back-to-back re-flood that re-collects stragglers; a round that
  // contributed little novelty backs off exponentially (constants in
  // core/discovery.cc). Off by default: round timing is byte-identical to
  // the paper's schedule.
  bool adaptive_round_spacing = false;

  // -- Payload shaping ------------------------------------------------------
  // Metadata entries per response message; ~45 × 30 B entries keeps response
  // frames near the prototype's 1.5 KB packets.
  std::size_t max_entries_per_response = 45;
  // Byte budget for small-item response payloads.
  std::size_t max_item_payload_bytes = 1400;

  // -- Retrieval (§IV) ------------------------------------------------------
  std::size_t chunk_size_bytes = 256 * 1024;
  // Diminishing window for the CDI collection phase; CDI responses are tiny
  // and return fast, so this is shorter than the discovery window.
  SimTime cdi_window = SimTime::millis(600);
  int max_cdi_rounds = 4;
  // A PDR consumer re-plans retrieval of still-missing chunks when no new
  // chunk has arrived for this long. Chunks stream store-and-forward per
  // hop, so this comfortably exceeds a few chunk transfer times.
  SimTime retrieval_stall_timeout = SimTime::seconds(6.0);
  int max_retrieval_rounds = 20;
  // Hop budget on recursive chunk queries; stale CDI entries can otherwise
  // bounce a query between neighbors indefinitely (each division mints a
  // fresh query id, so LQT duplicate detection cannot catch the loop).
  std::uint8_t chunk_query_ttl = 10;
  // Bounded opportunistic chunk cache (§VII future work): bytes of
  // overheard/relayed chunks a node keeps. Locally published chunks are
  // never evicted. 0 = unlimited, the paper's default behaviour.
  std::size_t chunk_cache_bytes = 0;
  ChunkEvictionPolicy chunk_eviction_policy = ChunkEvictionPolicy::kLru;

  // Duplicate suppression window for chunk traffic: a node that sent — or
  // overheard anyone send — a copy of a chunk toward some receiver treats
  // further requests to send that chunk to that receiver as satisfied while
  // the window lasts (the first copy is still in flight). Copies launched
  // from branches out of overhearing range still duplicate — the
  // linear-in-redundancy cost the paper reports for MDR.
  SimTime chunk_serve_cooldown = SimTime::seconds(3.0);
  // MDR floods reach every holder of every requested chunk at once; holders
  // delay each flooded chunk serve by a random jitter (scaled by the square
  // root of the batch size) so the earliest copy can suppress the rest, and
  // skip a serve entirely while any copy of the chunk was seen in flight
  // within the suppression window. Copies on branches out of overhearing
  // range still duplicate — MDR's linear-in-redundancy cost.
  SimTime mdr_serve_jitter = SimTime::seconds(1.0);
  SimTime mdr_suppression_window = SimTime::seconds(4.0);

  // -- Subscriptions (§IV future work) --------------------------------------
  // A subscription re-floods its (same-id) lingering query this often so
  // losses heal and late joiners learn it.
  SimTime subscription_refresh = SimTime::seconds(5.0);

  // -- Flood control (§VII; broadcast-storm countermeasures) ----------------
  // Probability that a node re-broadcasts a flooded query (1.0 = classic
  // flooding; the paper's default).
  double flood_forward_probability = 1.0;
  // Counter-based suppression: defer re-broadcast by a random delay up to
  // this bound and cancel it if `flood_copy_threshold` duplicate copies of
  // the query are overheard meanwhile. Zero disables the scheme.
  SimTime flood_assessment_delay = SimTime::zero();
  int flood_copy_threshold = 3;

  // -- Feature toggles (ablations; DESIGN.md §5) ---------------------------
  bool enable_mixedcast = true;
  bool enable_bloom_rewriting = true;
  bool enable_overhearing_cache = true;
  // When false, a lingering query is consumed by the first response it
  // relays (NDN-style one-shot Interests).
  bool enable_lingering_queries = true;
  // When false, phase-2 chunk assignment uses naive nearest-neighbor
  // assignment instead of the min–max GAP heuristic.
  bool enable_gap_balancing = true;
  // Treat transport retransmission-budget exhaustion as a peer-failure
  // signal: invalidate CDI routes through the silent peer, purge lingering
  // queries it originated, and re-dispatch in-flight retrievals
  // (DESIGN.md §11). When false, recovery falls back to TTL expiry and the
  // stall timer alone.
  bool enable_peer_failure_detection = true;
};

}  // namespace pds::core
