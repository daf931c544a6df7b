#include "core/pdr.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <unordered_map>

#include "common/assert.h"
#include "core/causal.h"
#include "core/flood.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace pds::core {

namespace {

std::shared_ptr<net::Message> make_response(NodeContext& ctx,
                                            net::ContentKind kind,
                                            const DataDescriptor& target,
                                            NodeId receiver) {
  auto resp = std::make_shared<net::Message>();
  resp->type = net::MessageType::kResponse;
  resp->kind = kind;
  resp->response_id = ctx.new_response_id();
  resp->sender = ctx.self;
  resp->receivers = {receiver};
  resp->target = target;
  return resp;
}

}  // namespace

std::vector<net::CdiEntry> PdrEngine::local_cdi_view(
    ItemId item, const DataDescriptor& item_descriptor) const {
  (void)item_descriptor;
  const SimTime now = ctx_.now();
  // Ordered map: the CDI view goes straight onto the wire, so it is built in
  // chunk order instead of hash order.
  std::map<ChunkIndex, std::uint32_t> best;
  for (ChunkIndex c : ctx_.store.chunks_of(item)) best[c] = 0;
  for (const auto& [chunk, rec] : ctx_.cdi.lookup_item(item, now)) {
    auto it = best.find(chunk);
    if (it == best.end() || rec.hop_count < it->second) {
      best[chunk] = rec.hop_count;
    }
  }
  std::vector<net::CdiEntry> view;
  view.reserve(best.size());
  for (const auto& [chunk, hop] : best) {
    view.push_back(net::CdiEntry{.chunk = chunk, .hop_count = hop});
  }
  return view;
}

void PdrEngine::answer_cdi(LingeringQuery& lq,
                           const std::vector<net::CdiEntry>& view,
                           const net::TraceContext& cause,
                           std::uint64_t cause_span, int hop_delta) {
  auto& relayed = lq.relayed_cdi_hops;  // sorted by chunk
  const auto slot_of = [&relayed](ChunkIndex chunk) {
    return std::lower_bound(
        relayed.begin(), relayed.end(), chunk,
        [](const auto& entry, ChunkIndex c) { return entry.first < c; });
  };
  std::vector<net::CdiEntry> fresh;
  for (const net::CdiEntry& e : view) {
    auto it = slot_of(e.chunk);
    if (it != relayed.end() && it->first == e.chunk &&
        it->second <= e.hop_count) {
      continue;  // already told this upstream something at least as good
    }
    fresh.push_back(e);
  }
  if (fresh.empty()) return;
  for (const net::CdiEntry& e : fresh) {
    auto it = slot_of(e.chunk);
    if (it != relayed.end() && it->first == e.chunk) {
      it->second = e.hop_count;
    } else {
      relayed.insert(it, {e.chunk, e.hop_count});
    }
  }

  auto resp = make_response(ctx_, net::ContentKind::kCdi, *lq.query->target,
                            lq.upstream);
  resp->cdi = std::move(fresh);
  if (lq.upstream == ctx_.self) {
    causal_deliver(ctx_, cause,
                   cause_span != 0 ? cause_span : cause.parent_span);
    ctx_.deliver_local(lq.query->query_id, *resp);
    return;
  }
  causal_tx(ctx_, *resp, cause, cause_span, hop_delta);
  ctx_.transport.send(std::move(resp));
}

void PdrEngine::handle_cdi_query(const net::MessagePtr& query) {
  PDS_PROF_SCOPE(ctx_.sim.profiler(), "pdr");
  PDS_ENSURE(query->is_query() && query->kind == net::ContentKind::kCdi);
  PDS_ENSURE(query->target.has_value());
  const SimTime now = ctx_.now();
  if (query->expire_at <= now) return;
  if (ctx_.lqt.contains(query->query_id)) {
    note_duplicate_flood_copy(ctx_, query->query_id);
    return;
  }
  LingeringQuery& lq = ctx_.lqt.insert(query, now);
  lq.recv_span = causal_recv(ctx_, query->trace);

  const ItemId item = query->target->item_id();
  answer_cdi(lq, local_cdi_view(item, *query->target), lq.trace,
             lq.recv_span);

  if (!query->addressed_to(ctx_.self)) return;
  if (query->ttl == 1) return;  // hop budget exhausted
  auto fwd = std::make_shared<net::Message>(*query);
  fwd->sender = ctx_.self;
  fwd->receivers.clear();
  if (fwd->ttl > 0) --fwd->ttl;
  causal_tx(ctx_, *fwd, query->trace, lq.recv_span, /*hop_delta=*/1);
  maybe_forward_flood(ctx_, query->query_id, std::move(fwd));
}

void PdrEngine::handle_cdi_response(const net::MessagePtr& response) {
  PDS_PROF_SCOPE(ctx_.sim.profiler(), "pdr");
  PDS_ENSURE(response->is_response() &&
             response->kind == net::ContentKind::kCdi);
  PDS_ENSURE(response->target.has_value());
  const SimTime now = ctx_.now();
  if (!ctx_.recent_responses.insert(response->response_id.value())) return;

  const bool addressed = !response->receivers.empty() &&
                         response->addressed_to(ctx_.self);
  const ItemId item = response->target->item_id();

  const std::uint64_t recv_span =
      addressed ? causal_recv(ctx_, response->trace) : 0;
  if (!addressed && ctx_.config.enable_overhearing_cache) {
    causal_overhear(ctx_, response->trace);
  }

  // Learn distance-vector state: each pair is HopCount from the transmitting
  // neighbor, so it is HopCount+1 from here via that neighbor (§IV-A).
  if (addressed || ctx_.config.enable_overhearing_cache) {
    for (const net::CdiEntry& e : response->cdi) {
      ctx_.cdi.update(item, e.chunk, e.hop_count + 1, response->sender, now,
                      ctx_.config.cdi_ttl);
    }
  }

  if (!addressed) return;

  // Relay improvements toward upstreams of matching lingering CDI queries,
  // with pairs rebuilt relative to this node. Relays carry fresh response ids
  // because their content (hop counts) differs per path; duplicate
  // suppression is done by the per-query relayed_cdi_hops bookkeeping
  // instead of the recent-responses check.
  const std::vector<net::CdiEntry> view = local_cdi_view(item, *response->target);
  for (LingeringQuery* lq : ctx_.lqt.live_queries(net::ContentKind::kCdi, now)) {
    if (lq->upstream == response->sender) continue;
    if (lq->query->target->item_id() != item) continue;
    answer_cdi(*lq, view, response->trace, recv_span, /*hop_delta=*/1);
  }
}

bool PdrEngine::claim_chunk_delivery(ItemId item, ChunkIndex chunk,
                                     NodeId receiver) {
  const SimTime now = ctx_.now();
  const auto key = std::make_tuple(item, chunk, receiver);
  if (const auto it = delivered_.find(key);
      it != delivered_.end() &&
      now - it->second < ctx_.config.chunk_serve_cooldown) {
    return false;
  }
  delivered_[key] = now;
  return true;
}

void PdrEngine::note_chunk_delivery(ItemId item, ChunkIndex chunk,
                                    NodeId receiver) {
  delivered_[std::make_tuple(item, chunk, receiver)] = ctx_.now();
}

std::vector<ChunkIndex> PdrEngine::serve_chunks(
    LingeringQuery& lq, const DataDescriptor& item_descriptor,
    const std::vector<ChunkIndex>& wanted) {
  const ItemId item = item_descriptor.item_id();
  std::vector<ChunkIndex> satisfied;
  for (ChunkIndex c : wanted) {
    if (lq.served_chunks.contains(c)) {
      satisfied.push_back(c);
      continue;
    }
    const std::optional<net::ChunkPayload> payload = ctx_.store.chunk(item, c);
    if (!payload.has_value()) continue;
    // Suppression: a copy of this chunk went toward this upstream moments
    // ago — our own earlier serve, or another holder's overheard one. Treat
    // as satisfied without transmitting again.
    if (lq.upstream != ctx_.self &&
        !claim_chunk_delivery(item, c, lq.upstream)) {
      satisfied.push_back(c);
      continue;
    }
    lq.served_chunks.insert(c);
    satisfied.push_back(c);

    auto resp = make_response(ctx_, net::ContentKind::kChunk, item_descriptor,
                              lq.upstream);
    resp->chunk = *payload;
    if (lq.upstream == ctx_.self) {
      causal_deliver(ctx_, lq.trace,
                     lq.recv_span != 0 ? lq.recv_span : lq.trace.parent_span);
      ctx_.deliver_local(lq.query->query_id, *resp);
    } else {
      causal_tx(ctx_, *resp, lq.trace, lq.recv_span);
      ctx_.transport.send(std::move(resp));
    }
  }
  return satisfied;
}

ChunkPlan plan_chunk_requests(const NodeContext& ctx, ItemId item,
                              const std::vector<ChunkIndex>& chunks,
                              NodeId exclude) {
  const SimTime now = ctx.now();
  ChunkPlan plan;

  std::vector<NodeId> neighbors;
  std::unordered_map<NodeId, std::size_t> neighbor_index;
  util::GapInstance inst;
  std::vector<ChunkIndex> routable;

  for (ChunkIndex c : chunks) {
    const CdiRecord* rec = ctx.cdi.lookup(item, c, now);
    if (rec == nullptr || rec->neighbors.empty()) {
      plan.unroutable.push_back(c);
      continue;
    }
    std::vector<std::size_t> eligible;
    std::vector<int> hops;
    for (NodeId n : rec->neighbors) {
      if (n == exclude) continue;  // split horizon
      auto [it, inserted] = neighbor_index.emplace(n, neighbors.size());
      if (inserted) neighbors.push_back(n);
      eligible.push_back(it->second);
      hops.push_back(static_cast<int>(rec->hop_count));
    }
    if (eligible.empty()) {
      plan.unroutable.push_back(c);
      continue;
    }
    inst.eligible.push_back(std::move(eligible));
    inst.hop.push_back(std::move(hops));
    routable.push_back(c);
  }
  if (routable.empty()) return plan;
  inst.neighbor_count = neighbors.size();

  const util::GapAssignment assignment =
      ctx.config.enable_gap_balancing ? util::solve_min_max_heuristic(inst)
                                      : util::solve_naive(inst);

  // Buckets preserve the caller's chunk order; every call site passes an
  // ascending missing-chunk list, so per-neighbor request lists stay
  // ascending — which is what lets the wire codec's chunk-bitmap extension
  // (WireConfig::chunk_bitmap) engage instead of falling back to the
  // classic per-chunk list.
  std::vector<std::vector<ChunkIndex>> buckets(neighbors.size());
  for (std::size_t i = 0; i < routable.size(); ++i) {
    buckets[assignment.assignment[i]].push_back(routable[i]);
  }
  for (std::size_t n = 0; n < neighbors.size(); ++n) {
    if (!buckets[n].empty()) {
      plan.by_neighbor.emplace_back(neighbors[n], std::move(buckets[n]));
    }
  }
  return plan;
}

void PdrEngine::handle_chunk_query(const net::MessagePtr& query) {
  PDS_PROF_SCOPE(ctx_.sim.profiler(), "pdr");
  PDS_ENSURE(query->is_query() && query->kind == net::ContentKind::kChunk);
  PDS_ENSURE(query->target.has_value());
  const SimTime now = ctx_.now();
  if (query->expire_at <= now) return;
  if (ctx_.lqt.contains(query->query_id)) return;

  // Overhearers of a *directed* chunk query do not linger it: a chunk must
  // flow back through exactly the node it was requested from, or copies
  // would be relayed toward the requester along several paths at chunk-size
  // cost each.
  const bool addressed = query->addressed_to(ctx_.self);
  if (!addressed) return;

  LingeringQuery& lq = ctx_.lqt.insert(query, now);
  lq.recv_span = causal_recv(ctx_, query->trace);
  const DataDescriptor& item_descriptor = *query->target;
  const ItemId item = item_descriptor.item_id();

  if (query->receivers.empty()) {
    // MDR flood. Forward immediately with the requested list rewritten to
    // exclude the chunks held here (en-route redundancy detection), but
    // defer the serving itself by a random jitter: holders on overlapping
    // branches desynchronize, and whoever hears a copy in flight suppresses
    // its own (chunks this node intends to serve may still be suppressed;
    // the consumer's next round recovers such gaps).
    std::vector<ChunkIndex> held;
    std::vector<ChunkIndex> remaining;
    for (ChunkIndex c : query->requested_chunks) {
      (ctx_.store.has_chunk(item, c) ? held : remaining).push_back(c);
    }
    if (!held.empty()) {
      const QueryId id = query->query_id;
      const double spread = std::sqrt(static_cast<double>(held.size()));
      for (ChunkIndex c : held) {
        const SimTime jitter =
            ctx_.config.mdr_serve_jitter * (spread * ctx_.rng.uniform());
        ctx_.sim.schedule(jitter, [this, id, item_descriptor, c, item] {
          LingeringQuery* pending = ctx_.lqt.find(id);
          if (pending == nullptr || pending->expired(ctx_.now())) return;
          const auto seen = seen_in_flight_.find({item, c});
          if (seen != seen_in_flight_.end() &&
              ctx_.now() - seen->second < ctx_.config.mdr_suppression_window) {
            return;  // someone else's copy is in flight; don't duplicate
          }
          serve_chunks(*pending, item_descriptor, {c});
        });
      }
    }
    if (remaining.empty() || query->ttl == 1) return;
    auto fwd = std::make_shared<net::Message>(*query);
    fwd->sender = ctx_.self;
    if (fwd->ttl > 0) --fwd->ttl;
    fwd->requested_chunks = std::move(remaining);
    causal_tx(ctx_, *fwd, query->trace, lq.recv_span, /*hop_delta=*/1);
    ctx_.transport.send(std::move(fwd));
    return;
  }

  const std::vector<ChunkIndex> satisfied =
      serve_chunks(lq, item_descriptor, query->requested_chunks);

  std::vector<ChunkIndex> remaining;
  for (ChunkIndex c : query->requested_chunks) {
    if (std::find(satisfied.begin(), satisfied.end(), c) == satisfied.end()) {
      remaining.push_back(c);
    }
  }
  if (remaining.empty()) return;

  // PDR recursive division: split the remaining chunks among the neighbors
  // that hold (or lead to) their nearest copies. The hop budget stops
  // loops through stale CDI state, and split horizon keeps a division from
  // pointing straight back at the node that sent the query.
  if (query->ttl == 1) return;  // budget exhausted
  const ChunkPlan plan =
      plan_chunk_requests(ctx_, item, remaining, query->sender);
  for (const auto& [neighbor, chunk_list] : plan.by_neighbor) {
    auto sub = std::make_shared<net::Message>();
    sub->type = net::MessageType::kQuery;
    sub->kind = net::ContentKind::kChunk;
    sub->query_id = ctx_.new_query_id();
    sub->sender = ctx_.self;
    sub->receivers = {neighbor};
    sub->expire_at = query->expire_at;
    sub->ttl = query->ttl > 0 ? static_cast<std::uint8_t>(query->ttl - 1)
                              : ctx_.config.chunk_query_ttl;
    sub->target = item_descriptor;
    sub->requested_chunks = chunk_list;
    causal_tx(ctx_, *sub, query->trace, lq.recv_span, /*hop_delta=*/1);
    ctx_.transport.send(std::move(sub));
  }
  // plan.unroutable chunks are dropped here; the consumer's stall timer
  // re-plans them (possibly after refreshing CDI).
}

void PdrEngine::handle_chunk_response(const net::MessagePtr& response) {
  PDS_PROF_SCOPE(ctx_.sim.profiler(), "pdr");
  PDS_ENSURE(response->is_response() &&
             response->kind == net::ContentKind::kChunk);
  PDS_ENSURE(response->target.has_value());
  const SimTime now = ctx_.now();
  if (!ctx_.recent_responses.insert(response->response_id.value())) return;
  if (!response->chunk.has_value()) return;

  const bool addressed = !response->receivers.empty() &&
                         response->addressed_to(ctx_.self);
  const DataDescriptor& item_descriptor = *response->target;
  const ItemId item = item_descriptor.item_id();
  const ChunkIndex chunk = response->chunk->index;

  const std::uint64_t recv_span =
      addressed ? causal_recv(ctx_, response->trace) : 0;
  if (!addressed && ctx_.config.enable_overhearing_cache) {
    causal_overhear(ctx_, response->trace);
  }

  // Any reception — intended or overheard — proves a copy of this chunk was
  // just delivered to these receivers; serving or relaying another copy to
  // them within the cooldown would be redundant, and flooded serves of the
  // chunk anywhere nearby are suppressed while it is in flight.
  for (NodeId r : response->receivers) note_chunk_delivery(item, chunk, r);
  seen_in_flight_[{item, chunk}] = now;

  // Opportunistic caching of the chunk itself (§II-A: nodes cache others'
  // data, both relayed and overheard).
  if (addressed || ctx_.config.enable_overhearing_cache) {
    ctx_.store.insert_chunk(item_descriptor, chunk, *response->chunk, now);
  }

  if (!addressed) return;

  std::vector<NodeId> relay_receivers;
  for (LingeringQuery* lq :
       ctx_.lqt.live_queries(net::ContentKind::kChunk, now)) {
    if (lq->upstream == response->sender) continue;
    if (lq->query->target->item_id() != item) continue;
    const auto& wanted = lq->query->requested_chunks;
    if (std::find(wanted.begin(), wanted.end(), chunk) == wanted.end()) {
      continue;
    }
    if (lq->served_chunks.contains(chunk)) continue;
    lq->served_chunks.insert(chunk);
    if (lq->upstream == ctx_.self) {
      causal_deliver(ctx_, response->trace, recv_span);
      ctx_.deliver_local(lq->query->query_id, *response);
      continue;
    }
    // A consumer's successive request rounds leave several lingering
    // queries with different upstream neighbors at this relay; forwarding
    // the chunk along each would fork one passing copy into several. The
    // shared delivery map keeps each direction to one copy per window.
    if (!claim_chunk_delivery(item, chunk, lq->upstream)) continue;
    relay_receivers.push_back(lq->upstream);
  }

  if (!relay_receivers.empty()) {
    std::sort(relay_receivers.begin(), relay_receivers.end());
    relay_receivers.erase(
        std::unique(relay_receivers.begin(), relay_receivers.end()),
        relay_receivers.end());
    // Same response id: identical chunk copies arriving at a junction via
    // different paths are redundant and the RR check drops them.
    auto relay = std::make_shared<net::Message>(*response);
    relay->sender = ctx_.self;
    relay->receivers = std::move(relay_receivers);
    causal_tx(ctx_, *relay, response->trace, recv_span, /*hop_delta=*/1);
    ctx_.transport.send(std::move(relay));
  }
}

void PdrEngine::on_peer_unreachable(NodeId peer) {
  const std::size_t cdi_records = ctx_.cdi.invalidate_neighbor(peer);
  const std::size_t purged =
      ctx_.lqt.purge_upstream(peer, net::ContentKind::kCdi) +
      ctx_.lqt.purge_upstream(peer, net::ContentKind::kChunk);
  if (cdi_records == 0 && purged == 0) return;
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "fault",
                    "pdr_purge", {"upstream", peer}, {"queries", purged},
                    {"cdi", cdi_records});
}

}  // namespace pds::core
