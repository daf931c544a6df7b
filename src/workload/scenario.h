// Scenario: one simulator + medium + a set of PDS nodes, assembled for tests,
// examples and experiment harnesses.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/node.h"
#include "sim/faults.h"
#include "sim/mobility.h"
#include "sim/radio.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace pds::obs {
class Profiler;
class TimeSeries;
class Tracer;
}  // namespace pds::obs

namespace pds::wl {

class Scenario {
 public:
  Scenario(std::uint64_t seed, sim::RadioConfig radio,
           sim::SchedulerKind scheduler = sim::SchedulerKind::kCalendar)
      : sim_(seed, scheduler), medium_(sim_, radio) {}

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  core::PdsNode& add_node(NodeId id, sim::Vec2 pos,
                          const core::PdsConfig& config, bool enabled = true);

  [[nodiscard]] core::PdsNode& node(NodeId id);
  [[nodiscard]] std::vector<core::PdsNode*> nodes();
  [[nodiscard]] std::size_t node_count() const { return order_.size(); }

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] sim::RadioMedium& medium() { return medium_; }

  // Runs the simulation until `horizon` (events beyond it stay queued).
  void run_until(SimTime horizon) { sim_.run(horizon); }

  // On-air megabytes since the last stats reset — the paper's message
  // overhead metric.
  [[nodiscard]] double overhead_mb() const {
    return static_cast<double>(medium_.stats().bytes_transmitted) / 1e6;
  }
  void reset_overhead() { medium_.stats().reset(); }

  // Attaches a structured-event tracer (null detaches). The tracer must
  // outlive the scenario's simulation runs.
  void set_tracer(obs::Tracer* tracer) { sim_.set_tracer(tracer); }

  // Attaches the flight-recorder sampler (null detaches): registers the full
  // column catalog (tools/telemetry_schema.h) and installs a collector that
  // snapshots scheduler occupancy, radio channel state, transport backlogs,
  // per-node store/LQT state and pool/RSS probes at every interval boundary.
  // Reads state only — sampled and unsampled runs stay byte-identical. The
  // sampler must outlive the scenario's simulation runs.
  void attach_sampler(obs::TimeSeries* sampler);

  // Attaches the scoped wall-clock profiler (null detaches); subsystem
  // PDS_PROF_SCOPE sites resolve through the simulator.
  void set_profiler(obs::Profiler* profiler) { sim_.set_profiler(profiler); }

  // Installs a fault schedule against this scenario's nodes: crash/restart
  // hooks route to PdsNode::crash/restart, radio effects go straight to the
  // medium. Callable repeatedly; schedules accumulate. All referenced nodes
  // must already exist.
  void install_faults(const sim::FaultSchedule& schedule);
  // Null until install_faults() has been called.
  [[nodiscard]] sim::FaultInjector* fault_injector() { return faults_.get(); }

 private:
  sim::Simulator sim_;
  sim::RadioMedium medium_;
  std::unordered_map<NodeId, std::unique_ptr<core::PdsNode>> by_id_;
  std::vector<NodeId> order_;
  std::unique_ptr<sim::FaultInjector> faults_;
};

// A Scenario with nodes laid out as an nx × ny grid such that every node
// reaches its 8 surrounding neighbors (§VI-A); the paper's consumer sits at
// the grid center.
struct GridSetup {
  std::size_t nx = 10;
  std::size_t ny = 10;
  double range_m = 15.0;
  sim::RadioConfig radio;  // range_m is overwritten from the field above
  core::PdsConfig pds;
  // Event scheduler for the scenario's Simulator. kHeap is the oracle: for
  // any seed both kinds produce bit-identical traces and outcomes
  // (trace_determinism_test), so experiments may flip this freely.
  sim::SchedulerKind scheduler = sim::SchedulerKind::kCalendar;
  // Optional per-node config override, invoked with each node's id and a
  // copy of `pds` before the node is built. Mixed-population runs (e.g. the
  // wire-compat interop tests: half the grid on the legacy codec, half on
  // the v2 extensions) flip per-node knobs here.
  std::function<void(NodeId, core::PdsConfig&)> node_config;
};

struct Grid {
  std::unique_ptr<Scenario> scenario;
  std::vector<NodeId> ids;  // row-major
  std::size_t nx = 0;
  std::size_t ny = 0;
  NodeId center;

  [[nodiscard]] core::PdsNode& center_node() {
    return scenario->node(center);
  }
};

[[nodiscard]] Grid make_grid(const GridSetup& setup, std::uint64_t seed);

// Node ids inside the central cx × cy subgrid (the paper places multiple
// consumers randomly in the center 5×5 of the 10×10 grid).
[[nodiscard]] std::vector<NodeId> center_subgrid(const Grid& grid,
                                                 std::size_t cx,
                                                 std::size_t cy);

// A Scenario driven by a generated mobility trace. All pool nodes are
// created up front; absent ones have their radio disabled until they join.
struct MobilitySetup {
  sim::MobilityParams mobility;
  double range_m = 40.0;
  sim::RadioConfig radio;
  core::PdsConfig pds;
  std::size_t churn_pool_extra = 30;  // reserve nodes for joins
  std::size_t pinned_consumers = 1;
  sim::SchedulerKind scheduler = sim::SchedulerKind::kCalendar;
  // Uniform-random placement occasionally partitions the arena; real crowds
  // (the paper observed actual people) form one connected cluster. When
  // set, placements are re-drawn until the initially present nodes form a
  // connected unit-disk graph (bounded retries; the last draw is kept if
  // none connects).
  bool require_connected = true;
};

struct MobileWorld {
  std::unique_ptr<Scenario> scenario;
  std::vector<NodeId> pool;
  std::vector<NodeId> consumers;          // pinned, never leave
  std::vector<NodeId> initially_present;  // producers hold data only here
};

[[nodiscard]] MobileWorld make_mobile_world(const MobilitySetup& setup,
                                            std::uint64_t seed);

}  // namespace pds::wl
