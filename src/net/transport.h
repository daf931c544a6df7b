// Per-node transport: leaky-bucket pacing + per-hop ack/retransmission over
// the broadcast medium (paper §V.1–§V.2).
//
// Outgoing messages pass through the application-level leaky bucket (pacing
// around the OS UDP send-buffer overflow) and are then handed to the OS
// buffer of the simulated radio. A message with a non-empty intended-receiver
// list is sent reliably: the sender waits for an Ack from every intended
// receiver and, on RetrTimeout, retransmits with the receiver list rewritten
// to the not-yet-acknowledged subset, up to MaxRetrTime times. Messages with
// an empty receiver list (flooded queries — the sender cannot enumerate "all
// neighbors") are unreliable; multi-round discovery recovers their losses.
//
// Acks are tiny control frames and bypass the leaky bucket (pacing them
// behind a queued 256 KB chunk would guarantee spurious retransmissions of
// that very chunk); they still occupy the OS buffer and airtime.
//
// Every received non-ack frame — intended or overheard — is delivered to the
// node's handler; opportunistic caching lives a layer above.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>

#include "common/ring_queue.h"
#include "net/codec.h"
#include "net/face.h"
#include "net/message.h"
#include "sim/radio.h"
#include "sim/simulator.h"
#include "util/dedup_cache.h"
#include "util/leaky_bucket.h"

namespace pds::net {

struct TransportConfig {
  // Leaky bucket (§V.2): best-performing parameters from the prototype.
  std::size_t bucket_capacity_bytes = 300'000;
  double leak_rate_bps = 4.5e6;

  // Ack/retransmission (§V.1): benefits plateau beyond 0.2 s / 4 retries.
  bool reliability_enabled = true;
  SimTime retr_timeout = SimTime::millis(200);
  int max_retransmissions = 4;
  // Reliable packets in flight at once. The prototype sends a message and
  // then waits for its acks (§V.1), i.e., ack-clocked flow control; a small
  // window generalizes that without changing the stop-and-wait character.
  // Further reliable sends queue until a slot frees (full ack or give-up).
  std::size_t max_inflight = 4;
  // Messages larger than this are fragmented into packets of at most this
  // wire size, acked and retransmitted individually, and reassembled at
  // every receiver (including overhearers). The prototype sends 1.5 KB UDP
  // packets; a 256 KB chunk is ~171 of them, so a collision costs one packet
  // rather than 285 ms of airtime.
  std::size_t mtu_bytes = 1500;
  // Delayed-ack aggregation: acks accumulate for this long and leave as one
  // control frame. Without batching, a node receiving several fragment
  // streams emits hundreds of tiny ack frames per second and they starve in
  // the contended medium, firing spurious data retransmissions.
  SimTime ack_aggregation_delay = SimTime::millis(8);
  std::size_t max_ack_tokens_per_frame = 64;
  // Selective repair of reassembly holes: an intended receiver whose
  // fragment reassembly stalls asks the sender to re-send the missing
  // fragments instead of abandoning the whole message.
  bool repair_enabled = true;
  SimTime repair_timeout = SimTime::millis(150);
  int max_repair_attempts = 3;
  std::size_t max_repair_indices_per_request = 64;
};

// Wire/frame representation of one fragment of a large message. The whole
// message rides along by pointer; the simulator charges `wire_bytes` (the
// fragment's share of the message plus the fragment header).
struct FragmentPayload final : sim::FramePayload {
  MessagePtr whole;
  std::uint64_t token = 0;  // whole-message token
  std::uint32_t index = 0;
  std::uint32_t count = 1;
  std::size_t wire_bytes = 0;
  std::vector<NodeId> receivers;  // intended receivers of this transmission
};

class Transport final {
 public:
  // The transport owns no link state: it talks to whatever Face it is
  // given (§V's uniform interface over heterogeneous links). The owner
  // guarantees both outlive the simulation run.
  Transport(sim::Simulator& sim, Face& face, NodeId self, TransportConfig cfg,
            Codec codec);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  using MessageHandler = std::function<void(const MessagePtr&)>;
  void set_handler(MessageHandler handler) { handler_ = std::move(handler); }

  // Called once per receiver still unacknowledged when a reliable packet
  // exhausts its retransmission budget — the transport's peer-failure
  // signal. The protocol layer uses it to invalidate routing/query state
  // pointing at the silent peer (DESIGN.md §11) instead of hanging on it.
  using UnreachableCallback = std::function<void(NodeId)>;
  void set_unreachable_callback(UnreachableCallback cb) {
    unreachable_cb_ = std::move(cb);
  }

  // Crash semantics (fault injection): drop every pending reliable packet,
  // queued send, partial reassembly and batched ack, and reset pacing — the
  // state a process loses when it dies. Cumulative stats survive (they
  // belong to the observer, not the process). Timers already scheduled
  // against the old state become no-ops.
  void reset();

  // Queues `msg` for transmission. Reliability is implied by the message:
  // non-ack messages with explicit receivers are acked/retransmitted.
  void send(MessagePtr msg);

  // Frame upcall from the face (public for faces and tests that inject
  // frames directly).
  void on_frame(const sim::Frame& frame);

  struct Stats {
    std::uint64_t messages_sent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t acks_received = 0;
    std::uint64_t deliveries_gave_up = 0;
    std::uint64_t repair_requests_sent = 0;
    std::uint64_t repair_requests_served = 0;
    // Fragment frames handed to the face (fragmented messages only).
    std::uint64_t fragments_sent = 0;
    // Frames the face refused (OS send-buffer overflow). Previously these
    // losses were invisible at the transport: the frame silently never flew.
    std::uint64_t frames_dropped_overflow = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] const Codec& codec() const { return codec_; }

  // -- Flight-recorder sampling accessors (DESIGN.md §15) --------------------
  // Instantaneous backlog snapshots, read-only. Summed (or maxed) across
  // nodes by the Scenario collector.
  [[nodiscard]] std::size_t inflight() const { return inflight_; }
  [[nodiscard]] std::size_t queued_sends() const { return send_queue_.size(); }
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] std::size_t reassembly_count() const {
    return reassembly_.size();
  }
  // Pacing backlog: how far the leaky bucket's next free slot sits past
  // `now` (µs); 0 when the bucket would admit a send immediately.
  [[nodiscard]] std::int64_t bucket_backlog_us(SimTime now) const {
    const SimTime free_at = bucket_.next_free();
    return free_at > now ? (free_at - now).as_micros() : 0;
  }

 private:
  // One reliable in-flight packet: a whole small message or one fragment.
  struct Packet {
    MessagePtr whole;
    std::uint64_t ack_token = 0;  // per-packet token
    std::uint32_t index = 0;
    std::uint32_t count = 1;
    std::size_t wire_bytes = 0;
    std::vector<NodeId> receivers;
  };
  struct Pending {
    Packet packet;
    // Receivers yet to ack, sorted and unique: receiver lists are short,
    // and a retransmission addresses them in this order.
    std::vector<NodeId> awaiting;
    int retransmissions = 0;
  };
  struct Reassembly {
    MessagePtr whole;
    std::vector<bool> have;
    std::uint32_t received = 0;
    SimTime last_update = SimTime::zero();
    bool addressed = false;
    bool repair_scheduled = false;
    int repair_attempts = 0;
    std::uint32_t last_progress = 0;
  };

  [[nodiscard]] std::vector<Packet> packetize(const MessagePtr& msg) const;
  void enqueue_packet(Packet packet, bool reliable);
  void start_reliable(Packet packet);
  void transmit(const Packet& packet, bool track_reliably);
  void check_pending(std::uint64_t token, int expected_round);
  void complete_pending(std::uint64_t token);
  void send_ack(std::uint64_t token);
  void flush_acks();
  void check_repair(std::uint64_t msg_token);
  void handle_repair_request(const Message& request);
  [[nodiscard]] bool explicitly_addressed_for_repair(
      const MessagePtr& whole) const;
  void on_data_packet(const MessagePtr& whole, std::uint64_t msg_token,
                      std::uint32_t index, std::uint32_t count,
                      std::uint64_t packet_ack_token,
                      const std::vector<NodeId>& receivers);

  sim::Simulator& sim_;
  Face& face_;
  NodeId self_;
  TransportConfig cfg_;
  Codec codec_;
  util::LeakyBucket bucket_;
  MessageHandler handler_;
  UnreachableCallback unreachable_cb_;
  // Bumped by reset(); scheduled transmissions from a previous life check it
  // and abort, so a crashed-then-restarted node does not send zombie frames.
  std::uint64_t epoch_ = 0;
  std::unordered_map<std::uint64_t, Pending> pending_;
  RingQueue<Packet> send_queue_;  // reliable packets awaiting a slot
  std::size_t inflight_ = 0;
  // Ordered by message token: the stale-assembly eviction scan walks this
  // map, and with hash order the tie-break between equally-old assemblies
  // would differ across runs and standard libraries.
  std::map<std::uint64_t, Reassembly> reassembly_;
  util::DedupCache completed_messages_{4096};
  // Recently sent fragmented messages, kept for selective repair.
  std::unordered_map<std::uint64_t, MessagePtr> sent_fragmented_;
  RingQueue<std::uint64_t> sent_fragmented_order_;
  std::vector<std::uint64_t> ack_batch_;
  bool ack_flush_scheduled_ = false;
  Stats stats_;
};

}  // namespace pds::net
