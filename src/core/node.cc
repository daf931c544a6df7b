#include "core/node.h"

#include "common/assert.h"
#include "obs/trace.h"

namespace pds::core {

PdsNode::PdsNode(sim::Simulator& sim, sim::RadioMedium& medium, NodeId id,
                 const PdsConfig& config, sim::Vec2 position, bool enabled)
    : sim_(sim),
      id_(id),
      config_(config),
      rng_(sim.rng().fork()),
      recent_responses_(config.recent_response_capacity),
      face_(medium, id, position, enabled),
      transport_(sim, face_, id, config.transport, net::Codec(config.wire)),
      ctx_{.self = id,
           .sim = sim,
           .transport = transport_,
           .config = config_,
           .store = store_,
           .lqt = lqt_,
           .recent_responses = recent_responses_,
           .cdi = cdi_,
           .bloom_sync = bloom_sync_,
           .rng = rng_,
           .register_local_query = {},
           .deliver_local = {}},
      pdd_(ctx_),
      pdr_(ctx_) {
  ctx_.register_local_query = [this](const net::MessagePtr& query,
                                     LocalResponseHandler handler) {
    PDS_ENSURE(query->sender == id_);
    // upstream == self: local delivery
    LingeringQuery& lq = lqt_.insert(query, sim_.now());
    if (query->exclude_delta.has_value()) {
      // Reconstruct the session's exclude filter locally too, so the
      // consumer's own LQT entry suppresses relayed duplicates exactly like
      // a classic full-filter query would.
      lq.exclude = bloom_sync_.apply(*query->exclude_delta);
    }
    local_handlers_[query->query_id] = std::move(handler);
  };
  ctx_.deliver_local = [this](QueryId query, const net::Message& response) {
    auto it = local_handlers_.find(query);
    if (it != local_handlers_.end()) it->second(response);
  };
  if (config_.chunk_cache_bytes > 0) {
    store_.set_chunk_cache_limit(config_.chunk_cache_bytes,
                                 config_.chunk_eviction_policy,
                                 config_.metadata_ttl);
  }
  transport_.set_handler(
      [this](const net::MessagePtr& msg) { on_message(msg); });
  if (config_.enable_peer_failure_detection) {
    transport_.set_unreachable_callback(
        [this](NodeId peer) { on_peer_unreachable(peer); });
  }
}

void PdsNode::crash(bool wipe_state) {
  if (crashed_) return;
  crashed_ = true;
  transport_.reset();
  if (wipe_state) {
    store_.clear();
    cdi_.clear();
    lqt_.clear();
    recent_responses_.clear();
    bloom_sync_.clear();
    local_handlers_.clear();
  }
}

void PdsNode::restart() { crashed_ = false; }

void PdsNode::publish_metadata(const DataDescriptor& descriptor) {
  store_.insert_metadata(descriptor, /*has_payload=*/true, sim_.now(),
                         SimTime::zero());
  pdd_.serve_new_publication(descriptor);
}

void PdsNode::publish_item(const net::ItemPayload& item) {
  store_.insert_item(item, sim_.now());
  pdd_.serve_new_publication(item);
}

void PdsNode::publish_chunk(const DataDescriptor& item_descriptor,
                            const net::ChunkPayload& chunk) {
  PDS_ENSURE(!item_descriptor.is_chunk());
  store_.insert_chunk(item_descriptor, chunk.index, chunk, sim_.now(),
                      /*pinned=*/true);
  // The item-level metadata entry is discoverable as long as any chunk is
  // held (paper §II-C).
  store_.insert_metadata(item_descriptor, /*has_payload=*/true, sim_.now(),
                         SimTime::zero());
}

DiscoverySession& PdsNode::discover(Filter filter,
                                    DiscoverySession::Callback done) {
  discovery_sessions_.push_back(std::make_unique<DiscoverySession>(
      ctx_, net::ContentKind::kMetadata, std::move(filter), std::move(done)));
  discovery_sessions_.back()->start();
  return *discovery_sessions_.back();
}

DiscoverySession& PdsNode::collect_items(Filter filter,
                                         DiscoverySession::Callback done) {
  discovery_sessions_.push_back(std::make_unique<DiscoverySession>(
      ctx_, net::ContentKind::kItem, std::move(filter), std::move(done)));
  discovery_sessions_.back()->start();
  return *discovery_sessions_.back();
}

PdrSession& PdsNode::retrieve(const DataDescriptor& item_descriptor,
                              PdrSession::Callback done) {
  pdr_sessions_.push_back(
      std::make_unique<PdrSession>(ctx_, item_descriptor, std::move(done)));
  pdr_sessions_.back()->start();
  return *pdr_sessions_.back();
}

MdrSession& PdsNode::retrieve_mdr(const DataDescriptor& item_descriptor,
                                  MdrSession::Callback done) {
  mdr_sessions_.push_back(
      std::make_unique<MdrSession>(ctx_, item_descriptor, std::move(done)));
  mdr_sessions_.back()->start();
  return *mdr_sessions_.back();
}

SubscriptionSession& PdsNode::subscribe(
    Filter filter, SimTime duration,
    SubscriptionSession::EntryCallback on_entry) {
  subscriptions_.push_back(std::make_unique<SubscriptionSession>(
      ctx_, net::ContentKind::kMetadata, std::move(filter), duration,
      std::move(on_entry)));
  subscriptions_.back()->start();
  return *subscriptions_.back();
}

SubscriptionSession& PdsNode::subscribe_items(
    Filter filter, SimTime duration,
    SubscriptionSession::EntryCallback on_entry) {
  subscriptions_.push_back(std::make_unique<SubscriptionSession>(
      ctx_, net::ContentKind::kItem, std::move(filter), duration,
      std::move(on_entry)));
  subscriptions_.back()->start();
  return *subscriptions_.back();
}

void PdsNode::on_message(const net::MessagePtr& msg) {
  PDS_ENSURE(!msg->is_ack());
  // Crash semantics: the medium is normally detached too, but a message can
  // race the crash event through the transport's delivery queue.
  if (crashed_) return;
  ++messages_handled_;
  maybe_sweep();
  switch (msg->kind) {
    case net::ContentKind::kMetadata:
    case net::ContentKind::kItem:
      if (msg->is_query()) {
        pdd_.handle_query(msg);
      } else {
        pdd_.handle_response(msg);
      }
      break;
    case net::ContentKind::kCdi:
      if (msg->is_query()) {
        pdr_.handle_cdi_query(msg);
      } else {
        pdr_.handle_cdi_response(msg);
      }
      break;
    case net::ContentKind::kChunk:
      if (msg->is_query()) {
        pdr_.handle_chunk_query(msg);
      } else {
        pdr_.handle_chunk_response(msg);
      }
      break;
  }
}

void PdsNode::on_peer_unreachable(NodeId peer) {
  if (crashed_) return;
  PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), id_, "fault",
                    "peer_unreachable", {"peer", peer});
  pdd_.on_peer_unreachable(peer);
  pdr_.on_peer_unreachable(peer);
  for (auto& session : pdr_sessions_) {
    if (!session->finished()) session->on_peer_unreachable(peer);
  }
}

void PdsNode::maybe_sweep() {
  // Amortized housekeeping: expired lingering queries, cached-only metadata
  // and CDI entries are dropped every few hundred handled messages, so a
  // node's tables track the paper's expiration rules without a dedicated
  // recurring event (which would keep the event queue from draining).
  if (messages_handled_ % 512 != 0) return;
  const SimTime now = sim_.now();
  if (const std::size_t expired = lqt_.sweep(now); expired > 0) {
    PDS_TRACE_INSTANT(sim_.tracer(), now, id_, "lq", "expired",
                      {"count", expired});
  }
  store_.sweep(now);
  cdi_.sweep(now);
  // Local response handlers live exactly as long as their lingering query;
  // long-running nodes (subscriptions refresh every few seconds) would
  // otherwise accumulate dead handlers.
  // Pure filter: which handlers survive depends only on lqt_ membership,
  // never on visit order, and nothing is emitted. pdslint:allow(unordered-iter)
  for (auto it = local_handlers_.begin(); it != local_handlers_.end();) {
    it = lqt_.contains(it->first) ? std::next(it) : local_handlers_.erase(it);
  }
}

}  // namespace pds::core
