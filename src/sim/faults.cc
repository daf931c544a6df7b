#include "sim/faults.h"

#include <memory>

#include "common/assert.h"
#include "obs/trace.h"

namespace pds::sim {

namespace {

// Every FaultEvent field has a default member initializer, so builders fill
// in only what each event kind needs, starting from this base. (Plain
// designated initializers would trip -Wmissing-field-initializers.)
FaultEvent make_event(SimTime at, FaultKind kind, std::vector<NodeId> nodes) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.nodes = std::move(nodes);
  return ev;
}

}  // namespace

FaultSchedule& FaultSchedule::crash(SimTime at, NodeId node, bool wipe) {
  FaultEvent ev = make_event(at, FaultKind::kCrash, {node});
  ev.wipe_state = wipe;
  events.push_back(std::move(ev));
  return *this;
}

FaultSchedule& FaultSchedule::restart(SimTime at, NodeId node) {
  events.push_back(make_event(at, FaultKind::kRestart, {node}));
  return *this;
}

FaultSchedule& FaultSchedule::churn(SimTime leave, SimTime rejoin,
                                    NodeId node) {
  PDS_ENSURE(rejoin > leave);
  crash(leave, node, /*wipe=*/false);
  return restart(rejoin, node);
}

FaultSchedule& FaultSchedule::link_loss(SimTime at, NodeId a, NodeId b,
                                        double loss) {
  FaultEvent ev = make_event(at, FaultKind::kLinkLoss, {a});
  ev.peers = {b};
  ev.loss = loss;
  events.push_back(std::move(ev));
  return *this;
}

FaultSchedule& FaultSchedule::link_restore(SimTime at, NodeId a, NodeId b) {
  FaultEvent ev = make_event(at, FaultKind::kLinkRestore, {a});
  ev.peers = {b};
  events.push_back(std::move(ev));
  return *this;
}

FaultSchedule& FaultSchedule::partition(SimTime at, SimTime heal_at,
                                        std::vector<NodeId> side_a,
                                        std::vector<NodeId> side_b) {
  FaultEvent cut = make_event(at, FaultKind::kPartition, std::move(side_a));
  cut.peers = std::move(side_b);
  events.push_back(cut);
  if (heal_at > at) {
    cut.at = heal_at;
    cut.kind = FaultKind::kHeal;
    events.push_back(std::move(cut));
  }
  return *this;
}

FaultSchedule& FaultSchedule::burst(SimTime at, SimTime until, NodeId node,
                                    GilbertElliottParams params) {
  FaultEvent on = make_event(at, FaultKind::kBurstOn, {node});
  on.burst = params;
  events.push_back(std::move(on));
  if (until > at) {
    events.push_back(make_event(until, FaultKind::kBurstOff, {node}));
  }
  return *this;
}

FaultSchedule& FaultSchedule::buffer_storm(SimTime at, NodeId node,
                                           std::size_t bytes,
                                           std::size_t frame_bytes) {
  PDS_ENSURE(frame_bytes > 0);
  FaultEvent ev = make_event(at, FaultKind::kBufferStorm, {node});
  ev.storm_bytes = bytes;
  ev.storm_frame_bytes = frame_bytes;
  events.push_back(std::move(ev));
  return *this;
}

FaultInjector::FaultInjector(Simulator& sim, RadioMedium& medium, Hooks hooks)
    : sim_(sim),
      medium_(medium),
      hooks_(std::move(hooks)),
      storm_payload_(std::make_shared<StormPayload>()) {}

void FaultInjector::install(const FaultSchedule& schedule) {
  for (const FaultEvent& event : schedule.events) {
    // A FaultEvent is larger than a scheduled closure's inline buffer, so
    // the closure holds it through a shared pointer.
    auto shared = std::make_shared<const FaultEvent>(event);
    sim_.schedule_at(event.at, [this, shared] { apply(*shared); });
  }
}

void FaultInjector::apply_crash(NodeId node, bool wipe) {
  if (!crashed_.insert(node.value()).second) return;  // already down
  medium_.set_enabled(node, false);
  if (hooks_.crash) hooks_.crash(node, wipe);
  ++stats_.crashes;
  PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), node, "fault", "crash",
                    {"wipe", static_cast<std::int64_t>(wipe)});
}

void FaultInjector::apply_restart(NodeId node) {
  if (crashed_.erase(node.value()) == 0) return;  // not down
  medium_.set_enabled(node, true);
  if (hooks_.restart) hooks_.restart(node);
  ++stats_.restarts;
  PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), node, "fault", "restart", );
}

void FaultInjector::apply_storm(const FaultEvent& event, NodeId node) {
  if (is_crashed(node)) return;  // a dead node's app cannot flood its OS
  const std::size_t frames =
      (event.storm_bytes + event.storm_frame_bytes - 1) /
      event.storm_frame_bytes;
  for (std::size_t i = 0; i < frames; ++i) {
    medium_.send(node, Frame{.sender = node,
                             .size_bytes = event.storm_frame_bytes,
                             .payload = storm_payload_});
  }
  ++stats_.storms;
  stats_.storm_frames += frames;
  PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), node, "fault", "storm",
                    {"frames", frames}, {"bytes", event.storm_bytes});
}

void FaultInjector::apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kCrash:
      for (NodeId node : event.nodes) apply_crash(node, event.wipe_state);
      break;
    case FaultKind::kRestart:
      for (NodeId node : event.nodes) apply_restart(node);
      break;
    case FaultKind::kLinkLoss:
      for (NodeId a : event.nodes) {
        for (NodeId b : event.peers) {
          medium_.set_pair_loss(a, b, event.loss);
          ++stats_.links_degraded;
          PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), a, "fault",
                            "link_degrade", {"peer", b},
                            {"loss_pct", event.loss * 100.0});
        }
      }
      break;
    case FaultKind::kLinkRestore:
      for (NodeId a : event.nodes) {
        for (NodeId b : event.peers) {
          medium_.clear_pair_loss(a, b);
          ++stats_.links_restored;
          PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), a, "fault",
                            "link_restore", {"peer", b});
        }
      }
      break;
    case FaultKind::kPartition: {
      std::uint64_t pairs = 0;
      for (NodeId a : event.nodes) {
        for (NodeId b : event.peers) {
          medium_.set_pair_loss(a, b, 1.0);
          ++pairs;
        }
      }
      ++stats_.partitions;
      PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(),
                        event.nodes.empty() ? NodeId::invalid()
                                            : event.nodes.front(),
                        "fault", "partition", {"pairs", pairs});
      break;
    }
    case FaultKind::kHeal: {
      std::uint64_t pairs = 0;
      for (NodeId a : event.nodes) {
        for (NodeId b : event.peers) {
          medium_.clear_pair_loss(a, b);
          ++pairs;
        }
      }
      ++stats_.heals;
      PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(),
                        event.nodes.empty() ? NodeId::invalid()
                                            : event.nodes.front(),
                        "fault", "heal", {"pairs", pairs});
      break;
    }
    case FaultKind::kBurstOn:
      for (NodeId node : event.nodes) {
        medium_.set_burst_channel(node, event.burst);
        ++stats_.bursts_started;
        PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), node, "fault", "burst_on",
                          {"loss_bad_pct", event.burst.loss_bad * 100.0});
      }
      break;
    case FaultKind::kBurstOff:
      for (NodeId node : event.nodes) {
        medium_.clear_burst_channel(node);
        ++stats_.bursts_stopped;
        PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), node, "fault",
                          "burst_off", );
      }
      break;
    case FaultKind::kBufferStorm:
      for (NodeId node : event.nodes) apply_storm(event, node);
      break;
  }
}

}  // namespace pds::sim
