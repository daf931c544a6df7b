#include "net/transport.h"

#include <algorithm>
#include <memory>

#include "common/assert.h"
#include "common/hash.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace pds::net {

namespace {

// Wire overhead of a fragment header (token, index/count, sizes).
constexpr std::size_t kFragmentHeaderBytes = 24;

std::uint64_t packet_ack_token(std::uint64_t msg_token, std::uint32_t index) {
  return hash_combine(msg_token, index);
}

// Whole-message token for fragmentation/acks. Relays rewrite and re-send
// responses under the same response id at every hop, so the hop's sender id
// is mixed in to keep concurrent transmissions of "the same" message from
// different nodes distinct at receivers.
std::uint64_t message_token(const Message& m) {
  return hash_combine(m.ack_key(), m.sender.value());
}

// Adds `receivers` to the sorted, unique list of receivers awaited.
void await(std::vector<NodeId>& awaiting,
           const std::vector<NodeId>& receivers) {
  awaiting.insert(awaiting.end(), receivers.begin(), receivers.end());
  std::sort(awaiting.begin(), awaiting.end());
  awaiting.erase(std::unique(awaiting.begin(), awaiting.end()),
                 awaiting.end());
}

}  // namespace

Transport::Transport(sim::Simulator& sim, Face& face, NodeId self,
                     TransportConfig cfg, Codec codec)
    : sim_(sim),
      face_(face),
      self_(self),
      cfg_(cfg),
      codec_(std::move(codec)),
      bucket_(cfg.bucket_capacity_bytes, cfg.leak_rate_bps) {
  PDS_ENSURE(cfg.mtu_bytes > kFragmentHeaderBytes);
  face_.set_receiver([this](const sim::Frame& frame) { on_frame(frame); });
}

std::vector<Transport::Packet> Transport::packetize(
    const MessagePtr& msg) const {
  const std::size_t wire = codec_.wire_size(*msg);
  std::vector<Packet> out;
  if (wire <= cfg_.mtu_bytes) {
    Packet p;
    p.whole = msg;
    p.ack_token = message_token(*msg);
    p.index = 0;
    p.count = 1;
    p.wire_bytes = wire;
    p.receivers = msg->receivers;
    out.push_back(std::move(p));
    return out;
  }
  const std::size_t budget = cfg_.mtu_bytes - kFragmentHeaderBytes;
  const auto count =
      static_cast<std::uint32_t>((wire + budget - 1) / budget);
  const std::uint64_t msg_token = message_token(*msg);
  std::size_t remaining = wire;
  for (std::uint32_t i = 0; i < count; ++i) {
    Packet p;
    p.whole = msg;
    p.ack_token = packet_ack_token(msg_token, i);
    p.index = i;
    p.count = count;
    p.wire_bytes = std::min(budget, remaining) + kFragmentHeaderBytes;
    p.receivers = msg->receivers;
    remaining -= std::min(budget, remaining);
    out.push_back(std::move(p));
  }
  return out;
}

void Transport::send(MessagePtr msg) {
  PDS_PROF_SCOPE(sim_.profiler(), "transport");
  PDS_ENSURE(msg != nullptr);
  const bool reliable = cfg_.reliability_enabled && !msg->is_ack() &&
                        !msg->receivers.empty();
  ++stats_.messages_sent;
  std::vector<Packet> packets = packetize(msg);
  if (packets.size() > 1) {
    PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), self_, "transport",
                      "fragments", {"count", packets.size()},
                      {"bytes", codec_.wire_size(*msg)});
  }
  if (cfg_.repair_enabled && packets.size() > 1) {
    // Keep the message around so receivers can ask for missing fragments.
    const std::uint64_t token = message_token(*msg);
    if (sent_fragmented_.emplace(token, msg).second) {
      // Evict before appending, so a full window never needs a larger ring.
      if (sent_fragmented_order_.size() == 64) {
        sent_fragmented_.erase(sent_fragmented_order_.front());
        sent_fragmented_order_.pop_front();
      }
      sent_fragmented_order_.push_back(token);
    }
  }
  for (Packet& p : packets) {
    enqueue_packet(std::move(p), reliable);
  }
}

void Transport::enqueue_packet(Packet packet, bool reliable) {
  if (!reliable) {
    transmit(packet, false);
    return;
  }
  if (auto it = pending_.find(packet.ack_token); it != pending_.end()) {
    // Same packet sent again (e.g., a relay serving a later-arriving
    // matching query): extend the awaited set and retransmit outside the
    // window accounting.
    await(it->second.awaiting, packet.receivers);
    it->second.packet = packet;
    transmit(packet, true);
    return;
  }
  if (cfg_.max_inflight > 0 && inflight_ >= cfg_.max_inflight) {
    send_queue_.push_back(std::move(packet));
    return;
  }
  start_reliable(std::move(packet));
}

void Transport::start_reliable(Packet packet) {
  ++inflight_;
  Pending& p = pending_[packet.ack_token];
  p.packet = packet;
  await(p.awaiting, packet.receivers);
  transmit(p.packet, true);
}

void Transport::complete_pending(std::uint64_t token) {
  if (pending_.erase(token) == 0) return;
  PDS_ENSURE(inflight_ > 0);
  --inflight_;
  while (!send_queue_.empty() &&
         (cfg_.max_inflight == 0 || inflight_ < cfg_.max_inflight)) {
    Packet next = std::move(send_queue_.front());
    send_queue_.pop_front();
    if (pending_.contains(next.ack_token)) continue;  // merged duplicate
    start_reliable(std::move(next));
  }
}

void Transport::transmit(const Packet& packet, bool track_reliably) {
  const SimTime release = bucket_.offer(sim_.now(), packet.wire_bytes);
  const std::uint64_t token = packet.ack_token;
  const int round = track_reliably ? pending_[token].retransmissions : 0;

  // Build the frame payload: small messages travel as-is (with their own
  // receiver list); fragments get a wrapper carrying this transmission's
  // receiver subset.
  std::shared_ptr<const sim::FramePayload> payload;
  if (packet.count == 1 && packet.receivers == packet.whole->receivers) {
    payload = packet.whole;
  } else if (packet.count == 1) {
    auto copy = std::make_shared<Message>(*packet.whole);
    copy->receivers = packet.receivers;
    payload = std::move(copy);
  } else {
    auto frag = std::make_shared<FragmentPayload>();
    frag->whole = packet.whole;
    frag->token = message_token(*packet.whole);
    frag->index = packet.index;
    frag->count = packet.count;
    frag->wire_bytes = packet.wire_bytes;
    frag->receivers = packet.receivers;
    payload = std::move(frag);
  }

  if (packet.count > 1) ++stats_.fragments_sent;
  sim_.schedule_at(release, [this, payload = std::move(payload),
                             size = packet.wire_bytes, track_reliably, token,
                             round, epoch = epoch_,
                             trace = packet.whole->trace] {
    if (epoch != epoch_) return;  // transport reset while queued: stale send
    if (!face_.send(sim::Frame{.sender = self_,
                               .size_bytes = size,
                               .payload = payload})) {
      ++stats_.frames_dropped_overflow;
      PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), self_, "transport",
                        "drop_overflow", {"bytes", size});
    } else if (trace.valid()) {
      // Per-frame cost attribution (DESIGN.md §14): one xmit per on-air
      // frame of a traced message, keyed by the tx span that put it on this
      // hop. round > 0 marks retransmissions; "us" charges the airtime.
      PDS_TRACE_INSTANT(
          sim_.tracer(), sim_.now(), self_, "causal", "xmit",
          {"trace", trace.trace_id}, {"span", trace.parent_span},
          {"round", round}, {"bytes", size},
          {"us",
           transmission_time(size, face_.link_rate_bps()).as_micros()});
    }
    if (track_reliably) {
      // The ack round trip cannot complete before this packet drains through
      // the link's buffer and crosses the air, so the timer starts after an
      // estimate of that backlog.
      const SimTime drain = transmission_time(
          face_.backlog_bytes() + size, face_.link_rate_bps());
      sim_.schedule(drain + cfg_.retr_timeout, [this, token, round] {
        check_pending(token, round);
      });
    }
  });
}

void Transport::check_pending(std::uint64_t token, int expected_round) {
  auto it = pending_.find(token);
  if (it == pending_.end()) return;  // fully acknowledged
  Pending& p = it->second;
  if (p.retransmissions != expected_round) return;  // a newer timer exists
  if (p.awaiting.empty()) {
    complete_pending(token);
    return;
  }
  if (p.retransmissions >= cfg_.max_retransmissions) {
    ++stats_.deliveries_gave_up;
    PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), self_, "transport", "give_up",
                      {"round", p.retransmissions},
                      {"awaiting", p.awaiting.size()});
    // Degrade instead of hanging: surface every still-silent receiver, in
    // id order, so the protocol layer can drop routes/queries through it.
    const std::vector<NodeId> silent = std::move(p.awaiting);
    complete_pending(token);
    if (unreachable_cb_) {
      for (NodeId peer : silent) unreachable_cb_(peer);
    }
    return;
  }
  // Retransmit with the receiver list rewritten to the unacked subset.
  p.packet.receivers = p.awaiting;
  ++p.retransmissions;
  ++stats_.retransmissions;
  PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), self_, "transport",
                    "retransmit", {"round", p.retransmissions},
                    {"awaiting", p.awaiting.size()});
  transmit(p.packet, true);
}

void Transport::send_ack(std::uint64_t token) {
  ack_batch_.push_back(token);
  if (!ack_flush_scheduled_) {
    ack_flush_scheduled_ = true;
    sim_.schedule(cfg_.ack_aggregation_delay, [this] { flush_acks(); });
  }
}

void Transport::flush_acks() {
  ack_flush_scheduled_ = false;
  std::size_t i = 0;
  while (i < ack_batch_.size()) {
    auto ack = std::make_shared<Message>();
    ack->type = MessageType::kAck;
    ack->acker = self_;
    ack->sender = self_;
    const std::size_t end =
        std::min(i + cfg_.max_ack_tokens_per_frame, ack_batch_.size());
    ack->ack_tokens.assign(ack_batch_.begin() + static_cast<std::ptrdiff_t>(i),
                           ack_batch_.begin() + static_cast<std::ptrdiff_t>(end));
    i = end;
    ++stats_.acks_sent;
    // Acks bypass the leaky bucket and ride as priority control frames.
    const std::size_t ack_bytes = codec_.wire_size(*ack);
    if (!face_.send(sim::Frame{.sender = self_,
                               .size_bytes = ack_bytes,
                               .control = true,
                               .payload = std::move(ack)})) {
      ++stats_.frames_dropped_overflow;
      PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), self_, "transport",
                        "drop_overflow", {"bytes", ack_bytes});
    }
  }
  ack_batch_.clear();
}

bool Transport::explicitly_addressed_for_repair(const MessagePtr& whole) const {
  return !whole->receivers.empty() &&
         std::find(whole->receivers.begin(), whole->receivers.end(), self_) !=
             whole->receivers.end();
}

void Transport::on_data_packet(const MessagePtr& whole,
                               std::uint64_t msg_token, std::uint32_t index,
                               std::uint32_t count,
                               std::uint64_t packet_token,
                               const std::vector<NodeId>& receivers) {
  // Per-hop ack: only when explicitly listed; an empty receiver list means
  // "all neighbors", whom the sender cannot enumerate to await acks from.
  const bool explicitly_addressed =
      !receivers.empty() &&
      std::find(receivers.begin(), receivers.end(), self_) != receivers.end();
  if (explicitly_addressed && cfg_.reliability_enabled) {
    send_ack(packet_token);
  }

  if (count == 1) {
    if (handler_) handler_(whole);
    return;
  }

  // Reassemble fragmented messages; every receiver (including overhearers)
  // reassembles so opportunistic caching sees whole messages.
  if (completed_messages_.contains(msg_token)) return;  // retx duplicate
  Reassembly& r = reassembly_[msg_token];
  if (r.whole == nullptr) {
    r.whole = whole;
    r.have.assign(count, false);
  }
  r.last_update = sim_.now();
  if (index < r.have.size() && !r.have[index]) {
    r.have[index] = true;
    ++r.received;
  }
  const bool complete = r.received == count;
  if (complete) {
    reassembly_.erase(msg_token);
    completed_messages_.insert(msg_token);
    if (handler_) handler_(whole);
    return;
  }
  if (cfg_.repair_enabled) {
    if (explicitly_addressed_for_repair(whole)) r.addressed = true;
    if (r.addressed && !r.repair_scheduled &&
        r.repair_attempts < cfg_.max_repair_attempts) {
      r.repair_scheduled = true;
      sim_.schedule(cfg_.repair_timeout,
                    [this, msg_token] { check_repair(msg_token); });
    }
  }
  if (reassembly_.size() > 256) {
    // Drop the stalest partial assembly to bound memory. reassembly_ is an
    // ordered map, so the strict `<` tie-breaks equally-old assemblies by
    // lowest token — deterministically, unlike the former hash-order walk.
    auto oldest = reassembly_.begin();
    for (auto it = reassembly_.begin(); it != reassembly_.end(); ++it) {
      if (it->second.last_update < oldest->second.last_update) oldest = it;
    }
    reassembly_.erase(oldest);
  }
}

void Transport::check_repair(std::uint64_t msg_token) {
  auto it = reassembly_.find(msg_token);
  if (it == reassembly_.end()) return;  // completed or evicted
  Reassembly& r = it->second;
  r.repair_scheduled = false;
  if (r.received > r.last_progress) {
    // Fragments still trickling in; check again later.
    r.last_progress = r.received;
    r.repair_scheduled = true;
    sim_.schedule(cfg_.repair_timeout,
                  [this, msg_token] { check_repair(msg_token); });
    return;
  }
  if (r.repair_attempts >= cfg_.max_repair_attempts) {
    // Stop asking, but keep the partial bitmap: fragments still in flight
    // (retransmissions, other receivers' repairs) continue to accumulate.
    // Erasing here would restart reassembly from scratch and re-request
    // nearly the whole message, looping forever.
    return;
  }
  ++r.repair_attempts;
  ++stats_.repair_requests_sent;
  auto request = std::make_shared<Message>();
  request->type = MessageType::kRepair;
  request->sender = self_;
  request->acker = self_;
  request->ack_tokens = {msg_token};
  for (std::uint32_t i = 0;
       i < r.have.size() &&
       request->requested_chunks.size() < cfg_.max_repair_indices_per_request;
       ++i) {
    if (!r.have[i]) request->requested_chunks.push_back(i);
  }
  const std::size_t request_bytes = codec_.wire_size(*request);
  if (!face_.send(sim::Frame{.sender = self_,
                             .size_bytes = request_bytes,
                             .control = true,
                             .payload = std::move(request)})) {
    ++stats_.frames_dropped_overflow;
    PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), self_, "transport",
                      "drop_overflow", {"bytes", request_bytes});
  }
  r.repair_scheduled = true;
  sim_.schedule(cfg_.repair_timeout,
                [this, msg_token] { check_repair(msg_token); });
}

void Transport::handle_repair_request(const Message& request) {
  if (request.ack_tokens.empty()) return;
  auto it = sent_fragmented_.find(request.ack_tokens.front());
  if (it == sent_fragmented_.end()) return;  // not ours or evicted
  ++stats_.repair_requests_served;
  const MessagePtr& whole = it->second;
  std::vector<Packet> packets = packetize(whole);
  for (ChunkIndex index : request.requested_chunks) {
    if (index >= packets.size()) continue;
    Packet p = packets[index];
    p.receivers = {request.acker};
    enqueue_packet(std::move(p), cfg_.reliability_enabled);
  }
}

void Transport::on_frame(const sim::Frame& frame) {
  PDS_PROF_SCOPE(sim_.profiler(), "transport");
  if (auto msg = std::dynamic_pointer_cast<const Message>(frame.payload)) {
    if (msg->is_repair()) {
      handle_repair_request(*msg);
      return;
    }
    if (msg->is_ack()) {
      for (std::uint64_t token : msg->ack_tokens) {
        auto it = pending_.find(token);
        if (it == pending_.end()) continue;
        ++stats_.acks_received;
        std::vector<NodeId>& awaiting = it->second.awaiting;
        const auto acker =
            std::lower_bound(awaiting.begin(), awaiting.end(), msg->acker);
        if (acker != awaiting.end() && *acker == msg->acker) {
          awaiting.erase(acker);
        }
        if (awaiting.empty()) complete_pending(token);
      }
      return;
    }
    on_data_packet(msg, message_token(*msg), 0, 1, message_token(*msg),
                   msg->receivers);
    return;
  }
  auto frag = std::dynamic_pointer_cast<const FragmentPayload>(frame.payload);
  // Unknown payloads (e.g. fault-injected junk traffic) are ignored, like a
  // real radio overhearing foreign frames; their cost is airtime and OS
  // buffer space, not an abort.
  if (frag == nullptr) return;
  on_data_packet(frag->whole, frag->token, frag->index, frag->count,
                 packet_ack_token(frag->token, frag->index), frag->receivers);
}

void Transport::reset() {
  ++epoch_;
  pending_.clear();
  send_queue_.clear();
  inflight_ = 0;
  reassembly_.clear();
  sent_fragmented_.clear();
  sent_fragmented_order_.clear();
  ack_batch_.clear();
  ack_flush_scheduled_ = false;
  completed_messages_.clear();
  bucket_ = util::LeakyBucket(cfg_.bucket_capacity_bytes, cfg_.leak_rate_bps);
}

}  // namespace pds::net
