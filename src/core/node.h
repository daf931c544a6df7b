// PdsNode — the public facade of the library: one peer device.
//
// A node owns all per-device protocol state (Data Store, Lingering Query
// Table, CDI table, recent-response cache), its transport (leaky-bucket
// pacing + per-hop ack/retransmission over the shared broadcast medium) and
// the PDD/PDR engines. Applications:
//
//  * publish data — `publish_metadata` / `publish_item` / `publish_chunk`;
//  * discover what exists nearby — `discover` (multi-round PDD);
//  * collect many small matching items — `collect_items`;
//  * retrieve a large chunked item — `retrieve` (two-phase PDR) or
//    `retrieve_mdr` (the multi-round baseline).
//
// Consumer sessions are owned by the node and remain valid until the node is
// destroyed; completion is signaled through their callbacks.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/cdi_table.h"
#include "core/config.h"
#include "core/context.h"
#include "core/data_store.h"
#include "core/discovery.h"
#include "core/lingering_query_table.h"
#include "core/mdr.h"
#include "core/pdd.h"
#include "core/pdr.h"
#include "core/retrieval.h"
#include "core/subscription.h"
#include "net/face.h"
#include "net/transport.h"
#include "sim/radio.h"
#include "sim/simulator.h"

namespace pds::core {

class PdsNode {
 public:
  // Registers the node with the medium at `position`. The node must outlive
  // the simulation run (scheduled events capture `this`).
  PdsNode(sim::Simulator& sim, sim::RadioMedium& medium, NodeId id,
          const PdsConfig& config, sim::Vec2 position, bool enabled = true);

  PdsNode(const PdsNode&) = delete;
  PdsNode& operator=(const PdsNode&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }

  // -- Producer API ---------------------------------------------------------
  // Announces a locally produced data item (its metadata entry never
  // expires on this node).
  void publish_metadata(const DataDescriptor& descriptor);
  // Stores a complete small data item (descriptor + payload).
  void publish_item(const net::ItemPayload& item);
  // Stores one chunk of a large item; `item_descriptor` is the item-level
  // descriptor (carrying total_chunks), not the chunk descriptor.
  void publish_chunk(const DataDescriptor& item_descriptor,
                     const net::ChunkPayload& chunk);

  // -- Consumer API ---------------------------------------------------------
  DiscoverySession& discover(Filter filter, DiscoverySession::Callback done);
  DiscoverySession& collect_items(Filter filter,
                                  DiscoverySession::Callback done);
  PdrSession& retrieve(const DataDescriptor& item_descriptor,
                       PdrSession::Callback done);
  MdrSession& retrieve_mdr(const DataDescriptor& item_descriptor,
                           MdrSession::Callback done);
  // Long-lived subscriptions: entries matching `filter` stream to the
  // callback as they appear anywhere in the network, until `duration`
  // elapses (§IV future work; one lingering query does all the work).
  SubscriptionSession& subscribe(Filter filter, SimTime duration,
                                 SubscriptionSession::EntryCallback on_entry);
  SubscriptionSession& subscribe_items(
      Filter filter, SimTime duration,
      SubscriptionSession::EntryCallback on_entry);

  // -- Fault semantics (DESIGN.md §11) --------------------------------------
  // Crash: the node stops processing messages and its transport drops all
  // in-flight state (pending retransmissions, queued sends, partial
  // reassemblies). With `wipe_state` the persistent tables go too — Data
  // Store, CDI, lingering queries, response dedup — modeling a device whose
  // storage does not survive the failure. The caller (fault injector) is
  // responsible for detaching the node from the radio medium.
  void crash(bool wipe_state);
  // Clears the crashed flag; protocol state is whatever crash() left.
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }

  // -- Introspection ----------------------------------------------------------
  [[nodiscard]] DataStore& store() { return store_; }
  [[nodiscard]] const DataStore& store() const { return store_; }
  [[nodiscard]] CdiTable& cdi_table() { return cdi_; }
  [[nodiscard]] LingeringQueryTable& lqt() { return lqt_; }
  [[nodiscard]] net::Transport& transport() { return transport_; }
  [[nodiscard]] NodeContext& context() { return ctx_; }
  [[nodiscard]] const PdsConfig& config() const { return config_; }

 private:
  void on_message(const net::MessagePtr& msg);
  // Transport retransmission budget exhausted toward `peer`: fan the signal
  // out to the engines (LQT/CDI cleanup) and to unfinished retrieval
  // sessions (immediate re-dispatch).
  void on_peer_unreachable(NodeId peer);
  void maybe_sweep();

  sim::Simulator& sim_;
  NodeId id_;
  PdsConfig config_;
  Rng rng_;
  DataStore store_;
  LingeringQueryTable lqt_;
  util::DedupCache recent_responses_;
  CdiTable cdi_;
  net::BloomSyncCache bloom_sync_;
  net::BroadcastFace face_;
  net::Transport transport_;
  NodeContext ctx_;
  PddEngine pdd_;
  PdrEngine pdr_;

  std::unordered_map<QueryId, LocalResponseHandler> local_handlers_;
  std::vector<std::unique_ptr<DiscoverySession>> discovery_sessions_;
  std::vector<std::unique_ptr<PdrSession>> pdr_sessions_;
  std::vector<std::unique_ptr<MdrSession>> mdr_sessions_;
  std::vector<std::unique_ptr<SubscriptionSession>> subscriptions_;
  std::uint64_t messages_handled_ = 0;
  bool crashed_ = false;
};

}  // namespace pds::core
