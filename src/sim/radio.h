// Broadcast wireless medium.
//
// Models exactly the effects PDS's evaluation depends on, and nothing more:
//
//  * unit-disk connectivity over mobile 2-D positions;
//  * every frame is a broadcast: all in-range enabled nodes receive it unless
//    lost, which is what enables opportunistic overhearing and mixedcast;
//  * a finite per-node OS send buffer drained at the MAC broadcast rate,
//    with silent tail drop — reproduces the Android UDP send-API overflow
//    (paper §V.2: lost messages "were never transmitted");
//  * CSMA-style deferral with DIFS + random backoff; senders that start
//    within the same microsecond, and hidden terminals that cannot hear each
//    other, overlap at common receivers and corrupt each other's frames;
//  * half-duplex radios (a transmitting node cannot receive);
//  * independent per-receiver random noise loss.
//
// There is no capture effect, no rate adaptation and no exponential backoff;
// the paper's protocol recovers residual losses at the application layer
// (ack/retransmission, multi-round discovery), which is the behaviour under
// study.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/ring_queue.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/position.h"
#include "sim/shard_executor.h"
#include "sim/simulator.h"

namespace pds::sim {

// Base for anything carried inside a frame; the net layer derives its
// message type from this so sim stays independent of message formats.
class FramePayload {
 public:
  virtual ~FramePayload() = default;
};

struct Frame {
  NodeId sender;
  std::size_t size_bytes = 0;
  // Control frames (acks) jump the OS queue and contend with a shorter
  // inter-frame space and smaller backoff window, like MAC-level control
  // traffic; without priority, acks starve under saturation and trigger
  // spurious data retransmissions.
  bool control = false;
  std::shared_ptr<const FramePayload> payload;
};

// Receiver interface a device registers with the medium.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  // Called for every successfully received frame, whether or not this node
  // is an intended receiver (overhearing).
  virtual void on_frame(const Frame& frame) = 0;
};

struct RadioConfig {
  // Communication range (unit disk).
  double range_m = 15.0;
  // Carrier-sense range: real radios detect channel energy below the decode
  // threshold, so the sensing range exceeds the data range; transmitters
  // closer than this to each other serialize. <= 0 means "2 × range_m".
  double carrier_sense_range_m = 0.0;
  // Interference range: a signal too weak to decode still corrupts other
  // receptions out to roughly 1.5× the data range. Transmitters beyond each
  // other's carrier-sense range but within this ring of a receiver are the
  // hidden terminals that make multi-hop floods lossy (paper Fig. 4's recall
  // decline with hop count). <= 0 means "1.5 × range_m".
  double interference_range_m = 0.0;
  // MAC broadcast data rate; 802.11n 20 MHz broadcasts at ~7.2 Mb/s (§V.2).
  double mac_rate_bps = 7.2e6;
  // OS UDP send buffer. The prototype observed ~658 1.5 KB packets (≈1 MB)
  // surviving before overflow drops began.
  std::size_t os_buffer_bytes = 1'000'000;
  // Per-frame, per-receiver noise loss.
  double loss_probability = 0.02;
  SimTime difs = SimTime::micros(34);
  SimTime backoff_slot = SimTime::micros(9);
  // Contention window. Broadcast frames get no MAC-level loss feedback, so
  // there is no exponential backoff; a window wider than unicast 802.11's
  // initial CW=16 keeps same-slot collisions rare even with a handful of
  // concurrent chunk streams (fragment trains are hundreds of frames long —
  // per-frame collision rates compound fast).
  int max_backoff_slots = 64;
  // Radio power draw for the energy accountant (§VII: overhearing keeps the
  // radio on). Typical smartphone Wi-Fi figures: transmit ~1.3 W, receive
  // ~0.9 W, idle listening ~0.75 W. Energy per node =
  // idle_power × wall time + (tx_power − idle) × tx airtime +
  // (rx_power − idle) × rx airtime (receptions and overhears both count —
  // the radio demodulates either way).
  double tx_power_w = 1.3;
  double rx_power_w = 0.9;
  double idle_power_w = 0.75;

  // Physical capture: when two frames overlap at a receiver, the one whose
  // transmitter is at most `capture_ratio` times the other's distance is
  // decoded anyway (SINR capture); comparable distances corrupt both. This
  // keeps hidden-terminal interference from two hops away from destroying
  // every adjacent-neighbor transfer, matching the per-link loss rates the
  // paper measured and ported into its simulator.
  double capture_ratio = 0.6;

  // When true (default), delivery fan-out, carrier sensing and neighbors()
  // use the spatial grid / active-transmitter index and visit only nearby
  // nodes. When false, every query scans the whole fleet — the original O(N)
  // reference path, kept for determinism regression tests and as the perf
  // baseline. Both paths produce bit-identical results for the same seed
  // (DESIGN.md §"Spatial index").
  bool use_spatial_grid = true;

  // Deterministic intra-run parallelism: total threads (including the sim
  // thread) classifying delivery fan-out for large candidate sets. The
  // sharded phase consumes no RNG, writes only receiver-private state plus
  // per-shard partials, and partials merge in fixed shard order, so results
  // are byte-identical for any value (DESIGN.md §13; trace_determinism_test
  // asserts 1/2/8 agree). 1 = serial.
  int shard_threads = 1;
  // Fan-outs below this stay serial even when shard_threads > 1: waking the
  // worker pool costs more than scanning a small candidate list.
  std::size_t shard_min_candidates = 192;
};

// Calibrated radio environments.
//
// The paper plugs single-hop rates *measured on real phones* into its
// simulator instead of simulating PHY contention; its discovery experiments
// exhibit heavy flood-time losses (32% single-round recall without ack)
// while its retrieval experiments move 20 MB at near-wire efficiency — two
// regimes no single simple PHY reproduces at once. We therefore calibrate
// two profiles and state per experiment which one is used (EXPERIMENTS.md):
//
//  * contended — interference ring at 1.5× range with strict capture;
//    reproduces the paper's discovery-time loss rates (saturation, Fig. 4);
//  * clean     — interference limited to decode range (capture still
//    applies); reproduces the paper's streaming efficiency (Figs. 11–16).
[[nodiscard]] RadioConfig contended_radio_profile();
[[nodiscard]] RadioConfig clean_radio_profile();

// Two-state Gilbert–Elliott burst-loss channel (per receiver, on top of the
// i.i.d. noise model): the chain advances once per decodable frame; the
// "bad" state models a deep fade where most frames are lost in a burst.
struct GilbertElliottParams {
  double p_good_to_bad = 0.05;
  double p_bad_to_good = 0.25;
  double loss_good = 0.02;
  double loss_bad = 0.85;
};

struct MediumStats {
  std::uint64_t frames_offered = 0;
  std::uint64_t os_buffer_drops = 0;
  std::uint64_t frames_transmitted = 0;
  std::uint64_t bytes_transmitted = 0;
  // Cumulative on-air time across all transmissions (µs). The flight
  // recorder differentiates this per sample interval to get channel
  // utilization: Δair_us / interval_us = average concurrent transmissions.
  std::uint64_t air_time_us = 0;
  std::uint64_t deliveries = 0;  // per-receiver successful receptions
  std::uint64_t losses_collision = 0;
  std::uint64_t losses_noise = 0;
  std::uint64_t losses_half_duplex = 0;
  // Drops from scripted per-pair loss overrides (partitions, degraded links).
  std::uint64_t losses_fault = 0;
  // Drops from Gilbert–Elliott burst channels.
  std::uint64_t losses_burst = 0;

  friend bool operator==(const MediumStats&, const MediumStats&) = default;

  void reset() { *this = MediumStats{}; }
};

// Per-node radio activity for energy accounting.
struct RadioActivity {
  SimTime tx_airtime = SimTime::zero();
  SimTime rx_airtime = SimTime::zero();  // includes overheard/corrupted frames
};

class RadioMedium {
 public:
  RadioMedium(Simulator& sim, RadioConfig cfg);

  RadioMedium(const RadioMedium&) = delete;
  RadioMedium& operator=(const RadioMedium&) = delete;

  void add_node(NodeId id, FrameSink& sink, Vec2 pos, bool enabled = true);
  void set_position(NodeId id, Vec2 pos);
  void set_enabled(NodeId id, bool enabled);
  [[nodiscard]] bool is_enabled(NodeId id) const;
  [[nodiscard]] Vec2 position(NodeId id) const;

  // Hand a frame to the node's OS send buffer. Returns false when the buffer
  // overflows and the frame is silently dropped (never transmitted).
  bool send(NodeId sender, Frame frame);

  // Enabled nodes currently within range of `id`.
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId id) const;

  // -- Scripted channel faults (src/sim/faults.h drives these) --------------
  // Symmetric per-pair loss override: frames between `a` and `b` are dropped
  // with probability `loss` instead of the i.i.d. noise draw. loss >= 1 is a
  // hard partition edge and drops deterministically (no randomness consumed,
  // so schedules differing only in partitioned pairs stay comparable).
  // Overrides compose identically with the spatial grid and the brute-force
  // path: both decide losses in finish_reception, in registration order.
  void set_pair_loss(NodeId a, NodeId b, double loss);
  void clear_pair_loss(NodeId a, NodeId b);
  [[nodiscard]] std::size_t pair_loss_count() const {
    return pair_loss_.size();
  }

  // Attaches / detaches a Gilbert–Elliott burst channel to a receiver. The
  // chain starts in the good state and replaces the i.i.d. noise draw while
  // attached.
  void set_burst_channel(NodeId id, GilbertElliottParams params);
  void clear_burst_channel(NodeId id);

  [[nodiscard]] MediumStats& stats() { return stats_; }
  [[nodiscard]] const MediumStats& stats() const { return stats_; }

  [[nodiscard]] std::size_t os_backlog_bytes(NodeId id) const;

  // Energy consumed by `id`'s radio over `elapsed` of wall-clock time,
  // given the activity recorded so far (joules).
  [[nodiscard]] double energy_joules(NodeId id, SimTime elapsed) const;
  [[nodiscard]] const RadioActivity& activity(NodeId id) const;
  // Sum over all registered nodes.
  [[nodiscard]] double total_energy_joules(SimTime elapsed) const;

  // Observes every started transmission; experiment harnesses use this to
  // attribute on-air bytes to protocol phases.
  using TxObserver = std::function<void(NodeId, const Frame&)>;
  void set_tx_observer(TxObserver observer) {
    tx_observer_ = std::move(observer);
  }

  [[nodiscard]] const RadioConfig& config() const { return cfg_; }

  // -- Flight-recorder sampling accessors (DESIGN.md §15) --------------------
  // Read-only structural snapshots for the sim-time sampler; none mutate
  // state, so sampling never perturbs the medium.
  [[nodiscard]] std::size_t active_transmitters() const {
    return transmitting_.size();
  }
  // Spatial spread of the instantaneous transmitter set over coarse grid
  // cells: how many distinct cells hold a transmitter, and the deepest
  // single-cell pileup (local contention hot spot).
  struct TxCellOccupancy {
    std::size_t cells = 0;
    std::size_t max_per_cell = 0;
  };
  [[nodiscard]] TxCellOccupancy tx_cell_occupancy() const;
  // Total OS send-buffer backlog across all nodes (bytes).
  [[nodiscard]] std::size_t total_os_backlog_bytes() const;

 private:
  // Dense registration index into `states_`; doubles as the deterministic
  // iteration order (registration order), matching the historical
  // `node_order_` scan.
  using Index = std::uint32_t;

  // In-flight reception bookkeeping at one receiver. The frame itself is
  // carried once per transmission (in the batched completion event), not
  // copied per receiver.
  struct Reception {
    std::uint64_t tx_seq = 0;
    double sender_distance = 0.0;
    bool corrupted = false;
    // False for interference-only receptions (transmitter inside the
    // interference ring but outside decode range): they corrupt others but
    // never deliver.
    bool decodable = true;
  };

  // Cold / medium-rate per-node state. The fields every neighbor query and
  // fan-out classification touches (position, enabled, transmitting,
  // tx deadline, grid links) live in parallel arrays below instead — a
  // structure-of-arrays layout that keeps a 50k-node sweep cache-resident
  // where an array of these structs would drag the queue and reception
  // vectors through the cache line by line.
  struct NodeState {
    NodeId id;
    FrameSink* sink = nullptr;
    RingQueue<Frame> os_queue;
    std::size_t os_bytes = 0;
    bool attempt_scheduled = false;
    std::vector<Reception> receptions;
    RadioActivity activity;
    // Gilbert–Elliott burst channel state (faults.h).
    bool burst_enabled = false;
    bool burst_bad = false;
    GilbertElliottParams burst;
  };

  // Symmetric pair key for the per-pair loss overrides.
  [[nodiscard]] static std::uint64_t pair_key(NodeId a, NodeId b) {
    const std::uint32_t lo = std::min(a.value(), b.value());
    const std::uint32_t hi = std::max(a.value(), b.value());
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }

  [[nodiscard]] Index index_of(NodeId id) const;
  NodeState& state_of(NodeId id) { return states_[index_of(id)]; }
  const NodeState& state_of(NodeId id) const { return states_[index_of(id)]; }
  [[nodiscard]] double carrier_sense_range() const {
    return cfg_.carrier_sense_range_m > 0.0 ? cfg_.carrier_sense_range_m
                                            : 2.0 * cfg_.range_m;
  }
  [[nodiscard]] double interference_range() const {
    return cfg_.interference_range_m > 0.0 ? cfg_.interference_range_m
                                           : 1.5 * cfg_.range_m;
  }

  // -- Two-level spatial grid -------------------------------------------------
  // Fine cells are interference-range-sized (a radius query is a 3×3 fine
  // scan); 8×8 fine cells group into one coarse cell so a query resolves in
  // at most four hash lookups instead of nine, and each hit walks intrusive
  // per-fine-cell linked lists threaded through the node index arrays — no
  // per-cell vectors, O(1) pointer-splice moves, and the whole occupancy
  // structure recycles through a pool as nodes churn.
  static constexpr std::int32_t kCoarseShift = 3;  // 8×8 fine per coarse
  static constexpr std::int32_t kCoarseSpan = 1 << kCoarseShift;
  struct CoarseCell {
    // Head of the intrusive node list per fine sub-cell; -1 = empty.
    std::array<std::int32_t, kCoarseSpan * kCoarseSpan> heads;
    std::uint32_t count = 0;  // nodes across all sub-cells
    CoarseCell() { heads.fill(-1); }
  };

  [[nodiscard]] std::int32_t fine_coord(double v) const;
  [[nodiscard]] static std::uint64_t coarse_key(std::int32_t cx,
                                                std::int32_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  }
  [[nodiscard]] static std::size_t sub_cell(std::int32_t fx, std::int32_t fy) {
    // Low bits of the fine coords index within the coarse cell; & works for
    // negatives the same way >> groups them (two's complement low bits).
    return static_cast<std::size_t>(((fy & (kCoarseSpan - 1)) << kCoarseShift) |
                                    (fx & (kCoarseSpan - 1)));
  }
  void grid_insert(Index idx);
  void grid_remove(Index idx);
  // Indices of all nodes other than `self` whose fine cell intersects the
  // disk (pos, radius) — a superset of the nodes actually within `radius` —
  // sorted by registration index so callers iterate in the same order as a
  // full registration-order scan. Falls back to "everyone but self" when the
  // grid is disabled. Returns a reusable scratch buffer.
  const std::vector<Index>& candidates_near(Index self, Vec2 pos,
                                            double radius) const;

  [[nodiscard]] bool medium_busy_around(Index idx) const;
  [[nodiscard]] SimTime busy_end_around(Index idx) const;
  [[nodiscard]] SimTime random_backoff();
  [[nodiscard]] SimTime access_delay(const NodeState& st);

  void maybe_schedule_attempt(Index idx, SimTime extra_delay);
  void attempt_transmission(Index idx);
  void start_transmission(Index idx);
  void finish_reception(Index ridx, std::uint64_t tx_seq, const Frame& frame);
  void finish_transmission(Index idx);

  Simulator& sim_;
  RadioConfig cfg_;
  Rng rng_;
  double cell_size_m_ = 0.0;
  std::vector<NodeState> states_;  // dense, in registration order
  std::unordered_map<NodeId, Index> index_of_;

  // -- Hot per-node state, structure-of-arrays (parallel to states_) ---------
  std::vector<Vec2> pos_;
  std::vector<std::uint8_t> enabled_;
  std::vector<std::uint8_t> tx_active_;  // frame on the air right now
  std::vector<SimTime> tx_end_;
  std::vector<std::int32_t> cell_fx_;  // fine grid cell currently occupied
  std::vector<std::int32_t> cell_fy_;
  // Intrusive doubly-linked occupancy lists (indices into the arrays; -1
  // terminates). grid_prev_ lets grid_remove splice in O(1).
  std::vector<std::int32_t> grid_next_;
  std::vector<std::int32_t> grid_prev_;

  // coarse cell key -> slot in coarse_cells_; empty cells return to
  // coarse_free_ so mobility churn stops allocating once warm.
  std::unordered_map<std::uint64_t, std::uint32_t> coarse_map_;
  std::vector<CoarseCell> coarse_cells_;
  std::vector<std::uint32_t> coarse_free_;

  // Nodes with a frame on the air right now; carrier sensing only ever asks
  // about these, so scanning this list replaces the O(N) busy scans.
  std::vector<Index> transmitting_;
  mutable std::vector<Index> scratch_;  // candidate buffer, reused per query

  // -- Sharded fan-out classification (cfg_.shard_threads > 1) ---------------
  std::unique_ptr<ShardExecutor> shards_;
  // Per-shard partials, merged in shard order after every sharded phase.
  std::vector<std::vector<Index>> shard_receivers_;
  std::vector<std::uint64_t> shard_half_duplex_;

  // Scripted per-pair loss overrides, keyed by pair_key (symmetric).
  std::unordered_map<std::uint64_t, double> pair_loss_;
  MediumStats stats_;
  TxObserver tx_observer_;
  std::uint64_t next_tx_seq_ = 1;
};

}  // namespace pds::sim
