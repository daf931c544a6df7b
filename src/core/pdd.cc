#include "core/pdd.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/assert.h"
#include "core/causal.h"
#include "core/flood.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace pds::core {

namespace {

bool is_pdd_kind(net::ContentKind kind) {
  return kind == net::ContentKind::kMetadata ||
         kind == net::ContentKind::kItem;
}

// Does this lingering query still need the entry with the given descriptor
// and key? (filter match, not yet served through this node, not already held
// by the consumer per the query's Bloom filter)
bool wants(const LingeringQuery& lq, const DataDescriptor& d,
           std::uint64_t key) {
  if (lq.served_keys.contains(key)) return false;
  if (lq.exclude.maybe_contains(key)) return false;
  const Filter& filter = lq.query->filter;
  return filter.match_all() || filter.matches(d);
}

void mark_served(LingeringQuery& lq, std::uint64_t key, bool bloom_rewriting) {
  lq.served_keys.insert(key);
  if (bloom_rewriting && !lq.exclude.empty_filter()) lq.exclude.insert(key);
}

// Builds a copy of `r` whose payload is restricted to the given indices
// (sorted). Used both for pruned relays and local delivery. Only the kept
// entries are copied: the header is copied whole, and net::Message adds
// nothing to its header but the payload fields handled here (message.h
// asserts that).
net::Message prune_payload(const net::Message& r,
                           const std::vector<std::size_t>& keep) {
  net::Message out;
  static_cast<net::MessageHeader&>(out) = r;
  out.cdi = r.cdi;
  out.chunk = r.chunk;
  if (r.kind == net::ContentKind::kMetadata) {
    out.metadata.reserve(keep.size());
    for (std::size_t i : keep) out.metadata.push_back(r.metadata[i]);
  } else {
    out.items.reserve(keep.size());
    for (std::size_t i : keep) out.items.push_back(r.items[i]);
  }
  return out;
}

}  // namespace

std::vector<std::uint64_t> PddEngine::payload_keys(const net::Message& r) {
  std::vector<std::uint64_t> keys;
  if (r.kind == net::ContentKind::kMetadata) {
    keys.reserve(r.metadata.size());
    for (const DataDescriptor& d : r.metadata) keys.push_back(d.entry_key());
  } else {
    keys.reserve(r.items.size());
    for (const net::ItemPayload& item : r.items) {
      keys.push_back(item.descriptor.entry_key());
    }
  }
  return keys;
}

void PddEngine::handle_query(const net::MessagePtr& query) {
  PDS_PROF_SCOPE(ctx_.sim.profiler(), "pdd");
  PDS_ENSURE(query->is_query() && is_pdd_kind(query->kind));
  const SimTime now = ctx_.now();
  if (query->expire_at <= now) return;

  // {LQT Lookup} — discard redundant copies of an already-lingering query
  // (counting them for counter-based flood suppression).
  if (ctx_.lqt.contains(query->query_id)) {
    note_duplicate_flood_copy(ctx_, query->query_id);
    PDS_TRACE_INSTANT(ctx_.sim.tracer(), now, ctx_.self, "lq",
                      "query_duplicate", {"query", query->query_id.value()});
    return;
  }
  LingeringQuery& lq = ctx_.lqt.insert(query, now);
  lq.recv_span = causal_recv(ctx_, query->trace);
  if (query->exclude_delta.has_value()) {
    // Delta-synced exclude filter (DESIGN.md §16): reconstruct the
    // consumer's filter from the sync frame. On any base/checksum mismatch
    // this yields the empty filter — recall-safe, because the exclude
    // filter only suppresses duplicate replies.
    lq.exclude = ctx_.bloom_sync.apply(*query->exclude_delta);
  }
  // Inserted-key count before serving: if serving adds nothing, a received
  // sync frame can be relayed verbatim instead of as a full filter.
  const std::size_t installed_inserts = lq.exclude.inserted_count();
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), now, ctx_.self, "lq", "query_install",
                    {"query", query->query_id.value()},
                    {"upstream", query->sender}, {"ttl", query->ttl});

  // {DS Lookup} — answer with matching local entries.
  serve_from_store(lq);

  // {Receiver Check}.
  if (!query->addressed_to(ctx_.self)) return;

  // {Forwarding} — rewrite sender and receiver list; with en-route query
  // rewriting the forwarded Bloom filter includes the entries just served so
  // downstream nodes do not return them again. An optional hop budget
  // (§III-A.1: "a hop counter if needed") limits flood scope.
  if (query->ttl == 1) return;
  auto fwd = std::make_shared<net::Message>(*query);
  fwd->sender = ctx_.self;
  fwd->receivers.clear();
  if (fwd->ttl > 0) --fwd->ttl;
  if (ctx_.config.enable_bloom_rewriting) {
    if (query->exclude_delta.has_value() &&
        lq.exclude.inserted_count() == installed_inserts) {
      // Nothing served here: pass the consumer's sync frame through
      // verbatim (the copy above kept it), so downstream caches stay
      // anchored to the consumer's state even across multi-hop relays.
    } else {
      // The filter was rewritten en route (keys served at this hop) — or a
      // classic query: ship the updated filter in the classic full form.
      fwd->exclude_delta.reset();
      fwd->exclude = lq.exclude;
    }
  }
  causal_tx(ctx_, *fwd, query->trace, lq.recv_span, /*hop_delta=*/1);
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), now, ctx_.self, "lq", "query_forward",
                    {"query", query->query_id.value()}, {"ttl", fwd->ttl});
  maybe_forward_flood(ctx_, query->query_id, std::move(fwd));
}

void PddEngine::serve_from_store(LingeringQuery& lq) {
  const SimTime now = ctx_.now();
  const net::Message& q = *lq.query;
  const PdsConfig& cfg = ctx_.config;

  if (q.kind == net::ContentKind::kMetadata) {
    // The checks run on the record in place; only entries actually served
    // are copied out.
    std::vector<DataDescriptor> fresh;
    ctx_.store.for_each_metadata(
        q.filter, now,
        [&](std::uint64_t key, const DataStore::MetaRecord& rec) {
          if (lq.served_keys.contains(key) ||
              lq.exclude.maybe_contains(key)) {
            return;
          }
          // Serve cooldown (DESIGN.md §16): a cached-only copy that just
          // came off the air is still in flight toward its consumer through
          // the node it was heard from; re-serving it from every cache along
          // the path multiplies response traffic. Publisher copies are never
          // suppressed, so a lost in-flight copy is recovered by the next
          // round's filter gap.
          if (!rec.has_payload &&
              now < rec.cached_at + cfg.entry_serve_cooldown) {
            return;
          }
          fresh.push_back(rec.descriptor);
        });
    for (std::size_t begin = 0; begin < fresh.size();
         begin += cfg.max_entries_per_response) {
      const std::size_t end =
          std::min(begin + cfg.max_entries_per_response, fresh.size());
      auto resp = std::make_shared<net::Message>();
      resp->type = net::MessageType::kResponse;
      resp->kind = q.kind;
      resp->response_id = ctx_.new_response_id();
      resp->sender = ctx_.self;
      resp->receivers = {lq.upstream};
      resp->metadata.assign(fresh.begin() + static_cast<std::ptrdiff_t>(begin),
                            fresh.begin() + static_cast<std::ptrdiff_t>(end));
      for (const DataDescriptor& d : resp->metadata) {
        mark_served(lq, d.entry_key(), cfg.enable_bloom_rewriting);
      }
      causal_tx(ctx_, *resp, lq.trace, lq.recv_span);
      ctx_.transport.send(std::move(resp));
    }
    trace_serve(lq, fresh.size());
    return;
  }

  // Small items: batch by payload bytes rather than entry count.
  std::vector<net::ItemPayload> fresh;
  for (net::ItemPayload& item : ctx_.store.match_items(q.filter, now)) {
    const std::uint64_t key = item.descriptor.entry_key();
    if (lq.served_keys.contains(key) || lq.exclude.maybe_contains(key)) {
      continue;
    }
    fresh.push_back(std::move(item));
  }
  std::size_t begin = 0;
  while (begin < fresh.size()) {
    auto resp = std::make_shared<net::Message>();
    resp->type = net::MessageType::kResponse;
    resp->kind = q.kind;
    resp->response_id = ctx_.new_response_id();
    resp->sender = ctx_.self;
    resp->receivers = {lq.upstream};
    std::size_t bytes = 0;
    while (begin < fresh.size() &&
           (resp->items.empty() ||
            bytes + fresh[begin].size_bytes <= cfg.max_item_payload_bytes)) {
      bytes += fresh[begin].size_bytes;
      resp->items.push_back(std::move(fresh[begin]));
      ++begin;
    }
    for (const net::ItemPayload& item : resp->items) {
      mark_served(lq, item.descriptor.entry_key(),
                  cfg.enable_bloom_rewriting);
    }
    causal_tx(ctx_, *resp, lq.trace, lq.recv_span);
    ctx_.transport.send(std::move(resp));
  }
  trace_serve(lq, fresh.size());
}

void PddEngine::trace_serve(const LingeringQuery& lq, std::size_t entries) {
  if (entries == 0) return;
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "pdd", "serve",
                    {"query", lq.query->query_id.value()},
                    {"entries", entries});
  // En-route rewriting: the keys just served were folded into the query's
  // Bloom filter, so downstream copies stop returning them (§III-B.1).
  if (ctx_.config.enable_bloom_rewriting && !lq.exclude.empty_filter()) {
    PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "lq",
                      "rewrite", {"query", lq.query->query_id.value()},
                      {"keys_added", entries});
  }
}

namespace {

// Shared by both serve_new_publication overloads: collect the matching
// lingering queries' upstreams (mixedcast — one transmission, many
// overlapping subscriptions) and mark the entry served everywhere.
struct PushPlan {
  std::vector<NodeId> relay_receivers;
  std::vector<QueryId> local_queries;
  // Causal attribution for the one pushed response: of all matched traced
  // queries, the one with the smallest (trace_id, parent span) — a total
  // order, so the choice is deterministic under unordered LQT iteration.
  net::TraceContext trace;
  std::uint64_t parent = 0;
};

PushPlan plan_push(NodeContext& ctx, net::ContentKind kind,
                   const DataDescriptor& descriptor, std::uint64_t key) {
  PushPlan plan;
  for (LingeringQuery* lq : ctx.lqt.live_queries(kind, ctx.now())) {
    if (!wants(*lq, descriptor, key)) continue;
    mark_served(*lq, key, ctx.config.enable_bloom_rewriting);
    if (lq->upstream == ctx.self) {
      plan.local_queries.push_back(lq->query->query_id);
    } else {
      plan.relay_receivers.push_back(lq->upstream);
    }
    const std::uint64_t cand_parent =
        lq->recv_span != 0 ? lq->recv_span : lq->trace.parent_span;
    if (lq->trace.valid() &&
        (!plan.trace.valid() ||
         std::pair(lq->trace.trace_id, cand_parent) <
             std::pair(plan.trace.trace_id, plan.parent))) {
      plan.trace = lq->trace;
      plan.parent = cand_parent;
    }
  }
  std::sort(plan.relay_receivers.begin(), plan.relay_receivers.end());
  plan.relay_receivers.erase(
      std::unique(plan.relay_receivers.begin(), plan.relay_receivers.end()),
      plan.relay_receivers.end());
  return plan;
}

}  // namespace

void PddEngine::serve_new_publication(const DataDescriptor& entry) {
  const PushPlan plan = plan_push(ctx_, net::ContentKind::kMetadata, entry,
                                  entry.entry_key());
  if (plan.relay_receivers.empty() && plan.local_queries.empty()) return;
  auto resp = std::make_shared<net::Message>();
  resp->type = net::MessageType::kResponse;
  resp->kind = net::ContentKind::kMetadata;
  resp->response_id = ctx_.new_response_id();
  resp->sender = ctx_.self;
  resp->metadata = {entry};
  if (!plan.local_queries.empty()) {
    causal_deliver(ctx_, plan.trace, plan.parent);
  }
  for (QueryId q : plan.local_queries) ctx_.deliver_local(q, *resp);
  if (!plan.relay_receivers.empty()) {
    resp->receivers = plan.relay_receivers;
    causal_tx(ctx_, *resp, plan.trace, plan.parent);
    ctx_.transport.send(std::move(resp));
  }
}

void PddEngine::serve_new_publication(const net::ItemPayload& item) {
  const PushPlan plan = plan_push(ctx_, net::ContentKind::kItem,
                                  item.descriptor,
                                  item.descriptor.entry_key());
  if (plan.relay_receivers.empty() && plan.local_queries.empty()) return;
  auto resp = std::make_shared<net::Message>();
  resp->type = net::MessageType::kResponse;
  resp->kind = net::ContentKind::kItem;
  resp->response_id = ctx_.new_response_id();
  resp->sender = ctx_.self;
  resp->items = {item};
  if (!plan.local_queries.empty()) {
    causal_deliver(ctx_, plan.trace, plan.parent);
  }
  for (QueryId q : plan.local_queries) ctx_.deliver_local(q, *resp);
  if (!plan.relay_receivers.empty()) {
    resp->receivers = plan.relay_receivers;
    causal_tx(ctx_, *resp, plan.trace, plan.parent);
    ctx_.transport.send(std::move(resp));
  }
}

void PddEngine::handle_response(const net::MessagePtr& response) {
  PDS_PROF_SCOPE(ctx_.sim.profiler(), "pdd");
  PDS_ENSURE(response->is_response() && is_pdd_kind(response->kind));
  const SimTime now = ctx_.now();
  const PdsConfig& cfg = ctx_.config;

  // {RR Lookup} — discard redundant copies (retransmissions, multi-path).
  if (!ctx_.recent_responses.insert(response->response_id.value())) return;

  const bool addressed = response->addressed_to(ctx_.self) &&
                         !response->receivers.empty();

  const std::uint64_t recv_span =
      addressed ? causal_recv(ctx_, response->trace) : 0;
  if (!addressed && cfg.enable_overhearing_cache) {
    causal_overhear(ctx_, response->trace);
  }

  // {DS Lookup} — opportunistic caching, including overheard responses.
  if (addressed || cfg.enable_overhearing_cache) {
    ctx_.store.prefetch_metadata(response->metadata);
    for (const DataDescriptor& d : response->metadata) {
      ctx_.store.insert_metadata(d, /*has_payload=*/false, now,
                                 cfg.metadata_ttl);
    }
    for (const net::ItemPayload& item : response->items) {
      ctx_.store.insert_item(item, now);
    }
  }

  // {Receiver Check} — only intended receivers relay.
  if (!addressed) return;

  // {LQT Lookup} + {Forwarding} with mixedcast and en-route rewriting.
  const std::vector<std::uint64_t> keys = payload_keys(*response);
  const auto& descriptors_of = [&](std::size_t i) -> const DataDescriptor& {
    return response->kind == net::ContentKind::kMetadata
               ? response->metadata[i]
               : response->items[i].descriptor;
  };

  std::vector<NodeId> relay_receivers;
  // Payload positions some relayed query still needs.
  std::vector<bool> in_relay;

  for (LingeringQuery* lq : ctx_.lqt.live_queries(response->kind, now)) {
    if (lq->upstream == response->sender) continue;  // never bounce back
    std::vector<std::size_t> needed;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (wants(*lq, descriptors_of(i), keys[i])) needed.push_back(i);
    }
    if (needed.empty()) continue;

    for (std::size_t i : needed) {
      mark_served(*lq, keys[i], cfg.enable_bloom_rewriting);
    }
    if (!cfg.enable_lingering_queries) lq->consumed = true;

    if (lq->upstream == ctx_.self) {
      // Locally originated query: deliver to the consumer session.
      PDS_TRACE_INSTANT(ctx_.sim.tracer(), now, ctx_.self, "pdd",
                        "deliver_local", {"query", lq->query->query_id.value()},
                        {"entries", needed.size()});
      causal_deliver(ctx_, response->trace, recv_span);
      ctx_.deliver_local(lq->query->query_id,
                         prune_payload(*response, needed));
      continue;
    }
    if (cfg.enable_mixedcast) {
      relay_receivers.push_back(lq->upstream);
      in_relay.resize(keys.size());
      for (std::size_t i : needed) in_relay[i] = true;
    } else {
      // Ablation: one response per matching query, fresh id each (no joint
      // payload, no shared redundancy detection across paths).
      auto single = std::make_shared<net::Message>(
          prune_payload(*response, needed));
      single->response_id = ctx_.new_response_id();
      single->sender = ctx_.self;
      single->receivers = {lq->upstream};
      causal_tx(ctx_, *single, response->trace, recv_span, /*hop_delta=*/1);
      ctx_.transport.send(std::move(single));
    }
  }

  if (!relay_receivers.empty()) {
    std::sort(relay_receivers.begin(), relay_receivers.end());
    relay_receivers.erase(
        std::unique(relay_receivers.begin(), relay_receivers.end()),
        relay_receivers.end());
    std::vector<std::size_t> relay_union;
    for (std::size_t i = 0; i < in_relay.size(); ++i) {
      if (in_relay[i]) relay_union.push_back(i);
    }
    PDS_TRACE_INSTANT(ctx_.sim.tracer(), now, ctx_.self, "pdd", "mixedcast",
                      {"receivers", relay_receivers.size()},
                      {"union", relay_union.size()});
    auto relay =
        std::make_shared<net::Message>(prune_payload(*response, relay_union));
    relay->sender = ctx_.self;
    relay->receivers = std::move(relay_receivers);
    causal_tx(ctx_, *relay, response->trace, recv_span, /*hop_delta=*/1);
    ctx_.transport.send(std::move(relay));
  }
}

void PddEngine::on_peer_unreachable(NodeId peer) {
  const std::size_t purged =
      ctx_.lqt.purge_upstream(peer, net::ContentKind::kMetadata) +
      ctx_.lqt.purge_upstream(peer, net::ContentKind::kItem);
  if (purged == 0) return;
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "fault",
                    "pdd_purge", {"upstream", peer}, {"queries", purged});
}

}  // namespace pds::core
