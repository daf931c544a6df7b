// Deterministic fault-schedule engine (DESIGN.md §11).
//
// A FaultSchedule is plain data: a list of scripted events — node crashes
// and restarts (with or without state wipe), churn departures/arrivals,
// link degradation and network partitions (per-pair loss overrides in
// RadioMedium), Gilbert–Elliott burst-loss channels and send-buffer
// overflow storms. A FaultInjector installs a schedule into a running
// Simulator: every event is applied at its scripted sim time, through the
// same event queue as protocol traffic, so a faulted run is exactly as
// seed-reproducible as an unfaulted one (no wall clock, no extra RNG
// streams — the only randomness faults introduce is the medium's own
// per-frame draws for sub-unity loss overrides and burst channels).
//
// The injector operates on the medium directly (radio on/off, pair loss,
// burst channels, junk frames) and delegates protocol-level crash/restart
// semantics to caller-provided hooks: the sim layer cannot depend on core,
// so wl::Scenario wires the hooks to core::PdsNode::crash()/restart().
// Every applied event emits a "fault" trace event and bumps a FaultStats
// counter, so pdsreport and the metrics registry can gate on fault
// exposure.
#pragma once

#include <functional>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "sim/radio.h"
#include "sim/simulator.h"

namespace pds::sim {

enum class FaultKind {
  kCrash,        // nodes[]: radio off + protocol crash hook (wipe_state)
  kRestart,      // nodes[]: radio on + protocol restart hook
  kLinkLoss,     // nodes[] × peers[]: per-pair loss override = loss
  kLinkRestore,  // nodes[] × peers[]: clear the per-pair override
  kPartition,    // nodes[] × peers[]: hard cut (loss 1.0) on every cross pair
  kHeal,         // nodes[] × peers[]: clear every cross-pair override
  kBurstOn,      // nodes[]: attach a Gilbert–Elliott burst channel
  kBurstOff,     // nodes[]: detach it
  kBufferStorm,  // nodes[]: flood the OS send buffer with junk frames
};

struct FaultEvent {
  SimTime at = SimTime::zero();
  FaultKind kind = FaultKind::kCrash;
  std::vector<NodeId> nodes;
  std::vector<NodeId> peers;  // link/partition events: the other side
  bool wipe_state = false;    // kCrash: also wipe DataStore/CDI/LQT
  double loss = 1.0;          // kLinkLoss
  GilbertElliottParams burst;         // kBurstOn
  std::size_t storm_bytes = 2'000'000;  // kBufferStorm: junk volume
  std::size_t storm_frame_bytes = 1500;
};

// Builder-style schedule; every helper appends event(s) and returns *this
// so scripted timelines read top to bottom.
struct FaultSchedule {
  std::vector<FaultEvent> events;

  FaultSchedule& crash(SimTime at, NodeId node, bool wipe = false);
  FaultSchedule& restart(SimTime at, NodeId node);
  // Churn: depart at `leave` (state kept — the device walks away, it does
  // not reboot) and rejoin at `rejoin`.
  FaultSchedule& churn(SimTime leave, SimTime rejoin, NodeId node);
  FaultSchedule& link_loss(SimTime at, NodeId a, NodeId b, double loss);
  FaultSchedule& link_restore(SimTime at, NodeId a, NodeId b);
  // Cuts every (a ∈ side_a) × (b ∈ side_b) pair at `at`; heals at `heal_at`
  // (skipped when heal_at <= at: a permanent partition).
  FaultSchedule& partition(SimTime at, SimTime heal_at,
                           std::vector<NodeId> side_a,
                           std::vector<NodeId> side_b);
  // Burst channel on `node` from `at` until `until` (until <= at: forever).
  FaultSchedule& burst(SimTime at, SimTime until, NodeId node,
                       GilbertElliottParams params = {});
  FaultSchedule& buffer_storm(SimTime at, NodeId node,
                              std::size_t bytes = 2'000'000,
                              std::size_t frame_bytes = 1500);

  [[nodiscard]] bool empty() const { return events.empty(); }
};

struct FaultStats {
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t links_degraded = 0;  // pairs overridden
  std::uint64_t links_restored = 0;  // pairs cleared
  std::uint64_t partitions = 0;      // partition events applied
  std::uint64_t heals = 0;
  std::uint64_t bursts_started = 0;
  std::uint64_t bursts_stopped = 0;
  std::uint64_t storms = 0;
  std::uint64_t storm_frames = 0;  // junk frames offered to OS buffers

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

// Junk payload used by buffer storms. Transports ignore frames whose
// payload they do not recognize (a real radio overhears foreign traffic
// all the time); the damage is done in the OS buffer and on the air.
struct StormPayload final : FramePayload {};

class FaultInjector {
 public:
  // Protocol-level crash/restart semantics, wired by the scenario layer.
  // Optional: with no hooks a crash is radio-only (the medium still stops
  // delivering to and from the node).
  struct Hooks {
    std::function<void(NodeId, bool wipe)> crash;
    std::function<void(NodeId)> restart;
  };

  FaultInjector(Simulator& sim, RadioMedium& medium, Hooks hooks = {});

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules every event of `schedule` on the simulator. May be called
  // more than once; schedules merge.
  void install(const FaultSchedule& schedule);

  // Nodes currently down (crashed and not yet restarted).
  [[nodiscard]] bool is_crashed(NodeId id) const {
    return crashed_.contains(id.value());
  }
  [[nodiscard]] std::size_t crashed_count() const { return crashed_.size(); }

  [[nodiscard]] const FaultStats& stats() const { return stats_; }

 private:
  void apply(const FaultEvent& event);
  void apply_crash(NodeId node, bool wipe);
  void apply_restart(NodeId node);
  void apply_storm(const FaultEvent& event, NodeId node);

  Simulator& sim_;
  RadioMedium& medium_;
  Hooks hooks_;
  std::unordered_set<std::uint32_t> crashed_;
  std::shared_ptr<const StormPayload> storm_payload_;
  FaultStats stats_;
};

}  // namespace pds::sim
