// Unit tests for the discrete-event simulator, radio medium, topology and
// mobility models.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "net/message.h"
#include "sim/event_queue.h"
#include "sim/mobility.h"
#include "sim/radio.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace pds::sim {
namespace {

// -- EventQueue ---------------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(SimTime::seconds(2.0), [&] { order.push_back(2); });
  q.push(SimTime::seconds(1.0), [&] { order.push_back(1); });
  q.push(SimTime::seconds(3.0), [&] { order.push_back(3); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(SimTime::seconds(1.0), [&, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const auto id = q.push(SimTime::seconds(1.0), [&] { fired = true; });
  q.push(SimTime::seconds(2.0), [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().action();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireAndDoubleCancelAreNoOps) {
  EventQueue q;
  const auto first = q.push(SimTime::seconds(1.0), [] {});
  const auto second = q.push(SimTime::seconds(2.0), [] {});
  q.pop().action();  // fires `first`
  q.cancel(first);   // already fired: must not disturb accounting
  EXPECT_EQ(q.size(), 1u);
  q.cancel(second);
  q.cancel(second);  // double cancel
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, CancelledHeadDoesNotBlockNextTime) {
  EventQueue q;
  const auto head = q.push(SimTime::seconds(1.0), [] {});
  q.push(SimTime::seconds(2.0), [] {});
  q.cancel(head);
  EXPECT_EQ(q.next_time(), SimTime::seconds(2.0));
  EXPECT_EQ(q.pop().at, SimTime::seconds(2.0));
  EXPECT_TRUE(q.empty());
}

// -- Simulator ---------------------------------------------------------------

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim(1);
  SimTime seen = SimTime::zero();
  sim.schedule(SimTime::seconds(1.5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::seconds(1.5));
  EXPECT_EQ(sim.now(), SimTime::seconds(1.5));
}

TEST(Simulator, NestedSchedulingRelativeToFireTime) {
  Simulator sim(1);
  SimTime second = SimTime::zero();
  sim.schedule(SimTime::seconds(1.0), [&] {
    sim.schedule(SimTime::seconds(2.0), [&] { second = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(second, SimTime::seconds(3.0));
}

TEST(Simulator, HorizonStopsExecution) {
  Simulator sim(1);
  bool late_fired = false;
  sim.schedule(SimTime::seconds(10.0), [&] { late_fired = true; });
  sim.run(SimTime::seconds(5.0));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.now(), SimTime::seconds(5.0));
  // Continuing past the horizon fires the event.
  sim.run(SimTime::seconds(20.0));
  EXPECT_TRUE(late_fired);
}

TEST(Simulator, StopHaltsImmediately) {
  Simulator sim(1);
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(SimTime::seconds(i), [&] {
      if (++count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, SixteenLiveOnOneThreadRunAndDieInConstructionOrder) {
  // Simulators share no per-thread state: one thread may hold any number of
  // them, run each, and destroy them oldest first while younger ones keep
  // running.
  constexpr std::size_t kSims = 16;
  std::vector<std::unique_ptr<Simulator>> sims;
  for (std::size_t i = 0; i < kSims; ++i) {
    sims.push_back(std::make_unique<Simulator>(i));
  }
  std::vector<SimTime> seen(kSims);
  const auto run_one = [&sims, &seen](std::size_t i) {
    Simulator& sim = *sims[i];
    sim.schedule(SimTime::millis(static_cast<std::int64_t>(i) + 1),
                 [&sim, &seen, i] { seen[i] = sim.now(); });
    sim.run();
  };
  for (std::size_t i = 0; i < kSims; ++i) run_one(i);
  // Destroy in construction order; the younger half runs again in between.
  for (std::size_t i = 0; i < kSims / 2; ++i) sims[i].reset();
  for (std::size_t i = kSims / 2; i < kSims; ++i) run_one(i);
  for (std::size_t i = kSims / 2; i < kSims; ++i) sims[i].reset();
  for (std::size_t i = 0; i < kSims; ++i) {
    const std::int64_t ms = static_cast<std::int64_t>(i) + 1;
    EXPECT_EQ(seen[i], SimTime::millis(i < kSims / 2 ? ms : 2 * ms))
        << "simulator " << i;
  }
}

// -- Topology -----------------------------------------------------------------

TEST(Topology, GridPositionsRowMajor) {
  const auto pos = grid_positions(3, 2, 10.0);
  ASSERT_EQ(pos.size(), 6u);
  EXPECT_EQ(pos[0], (Vec2{0, 0}));
  EXPECT_EQ(pos[1], (Vec2{10, 0}));
  EXPECT_EQ(pos[3], (Vec2{0, 10}));
  EXPECT_EQ(pos[5], (Vec2{20, 10}));
}

TEST(Topology, SpacingGivesEightNeighbors) {
  const double range = 15.0;
  const double s = grid_spacing_for_range(range);
  // Diagonal neighbor in range, 2-hop neighbor out of range.
  EXPECT_LE(s * std::sqrt(2.0), range);
  EXPECT_GT(2.0 * s, range);
}

TEST(Topology, CenterIndex) {
  EXPECT_EQ(grid_center_index(10, 10), 55u);
  EXPECT_EQ(grid_center_index(3, 3), 4u);
  EXPECT_EQ(grid_center_index(1, 1), 0u);
}

// -- RadioMedium ----------------------------------------------------------------

class Collector final : public FrameSink {
 public:
  void on_frame(const Frame& frame) override { frames.push_back(frame); }
  std::vector<Frame> frames;
};

struct Blob final : FramePayload {
  int id = 0;
};

Frame make_frame(NodeId sender, std::size_t bytes, int id = 0) {
  auto blob = std::make_shared<Blob>();
  blob->id = id;
  return Frame{.sender = sender, .size_bytes = bytes, .payload = blob};
}

TEST(RadioMedium, DeliversToAllInRange) {
  Simulator sim(1);
  RadioConfig cfg;
  cfg.loss_probability = 0.0;
  RadioMedium medium(sim, cfg);
  Collector a, b, c;
  medium.add_node(NodeId(0), a, {0, 0});
  medium.add_node(NodeId(1), b, {10, 0});
  medium.add_node(NodeId(2), c, {100, 0});  // out of range

  medium.send(NodeId(0), make_frame(NodeId(0), 1000));
  sim.run();
  EXPECT_EQ(b.frames.size(), 1u);  // broadcast: in-range receiver hears it
  EXPECT_TRUE(c.frames.empty());
  EXPECT_TRUE(a.frames.empty());  // no self-delivery
}

TEST(RadioMedium, OsBufferOverflowDropsSilently) {
  Simulator sim(1);
  RadioConfig cfg;
  cfg.os_buffer_bytes = 5000;
  cfg.loss_probability = 0.0;
  RadioMedium medium(sim, cfg);
  Collector a, b;
  medium.add_node(NodeId(0), a, {0, 0});
  medium.add_node(NodeId(1), b, {10, 0});

  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (medium.send(NodeId(0), make_frame(NodeId(0), 1000, i))) ++accepted;
  }
  EXPECT_EQ(accepted, 5);
  EXPECT_EQ(medium.stats().os_buffer_drops, 5u);
  sim.run();
  EXPECT_EQ(b.frames.size(), 5u);
}

TEST(RadioMedium, RandomLossDropsApproximatelyAtConfiguredRate) {
  Simulator sim(2);
  RadioConfig cfg;
  cfg.loss_probability = 0.2;
  cfg.os_buffer_bytes = 100'000'000;
  RadioMedium medium(sim, cfg);
  Collector a, b;
  medium.add_node(NodeId(0), a, {0, 0});
  medium.add_node(NodeId(1), b, {10, 0});
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    medium.send(NodeId(0), make_frame(NodeId(0), 500, i));
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(b.frames.size()) / n, 0.8, 0.03);
}

TEST(RadioMedium, CarrierSenseSerializesNeighbors) {
  // Two in-range senders saturating: collisions should be essentially
  // absent because each defers to the other.
  Simulator sim(3);
  RadioConfig cfg;
  cfg.loss_probability = 0.0;
  RadioMedium medium(sim, cfg);
  Collector a, b, c;
  medium.add_node(NodeId(0), a, {0, 0});
  medium.add_node(NodeId(1), b, {10, 0});
  medium.add_node(NodeId(2), c, {5, 5});
  for (int i = 0; i < 200; ++i) {
    medium.send(NodeId(0), make_frame(NodeId(0), 1000, i));
    medium.send(NodeId(1), make_frame(NodeId(1), 1000, 1000 + i));
  }
  sim.run();
  const auto& st = medium.stats();
  EXPECT_LT(st.losses_collision, st.deliveries / 20);
}

TEST(RadioMedium, HiddenTerminalsCollideAtMiddleReceiver) {
  // Senders 80 m apart (out of carrier-sense range), receiver midway hears
  // both: concurrent saturating streams must corrupt heavily at the middle
  // (equal distances defeat capture).
  Simulator sim(4);
  RadioConfig cfg;
  cfg.range_m = 50.0;
  cfg.carrier_sense_range_m = 60.0;
  cfg.interference_range_m = 50.0;
  cfg.loss_probability = 0.0;
  cfg.os_buffer_bytes = 100'000'000;
  RadioMedium medium(sim, cfg);
  Collector left, right, middle;
  medium.add_node(NodeId(0), left, {0, 0});
  medium.add_node(NodeId(1), right, {80, 0});
  medium.add_node(NodeId(2), middle, {40, 0});
  for (int i = 0; i < 500; ++i) {
    medium.send(NodeId(0), make_frame(NodeId(0), 1500, i));
    medium.send(NodeId(1), make_frame(NodeId(1), 1500, 1000 + i));
  }
  sim.run();
  EXPECT_GT(medium.stats().losses_collision, 400u);
}

TEST(RadioMedium, CaptureLetsCloserSenderWin) {
  // Receiver 10 m from sender A; interferer B 40 m away and hidden from A:
  // A's frames survive via capture.
  Simulator sim(5);
  RadioConfig cfg;
  cfg.range_m = 45.0;
  cfg.carrier_sense_range_m = 46.0;
  cfg.interference_range_m = 45.0;
  cfg.loss_probability = 0.0;
  cfg.capture_ratio = 0.6;
  cfg.os_buffer_bytes = 100'000'000;
  RadioMedium medium(sim, cfg);
  Collector a, b, rx;
  medium.add_node(NodeId(0), a, {0, 0});
  medium.add_node(NodeId(1), b, {50, 0});  // 50m from A: hidden
  medium.add_node(NodeId(2), rx, {10, 0});  // 10m from A, 40m from B
  for (int i = 0; i < 300; ++i) {
    medium.send(NodeId(0), make_frame(NodeId(0), 1500, i));
    medium.send(NodeId(1), make_frame(NodeId(1), 1500, 1000 + i));
  }
  sim.run();
  // rx should receive nearly all of A's 300 frames (and lose most of B's).
  int from_a = 0;
  for (const Frame& f : rx.frames) {
    if (f.sender == NodeId(0)) ++from_a;
  }
  EXPECT_GT(from_a, 280);
}

TEST(RadioMedium, DisabledNodeNeitherSendsNorReceives) {
  Simulator sim(6);
  RadioConfig cfg;
  cfg.loss_probability = 0.0;
  RadioMedium medium(sim, cfg);
  Collector a, b;
  medium.add_node(NodeId(0), a, {0, 0});
  medium.add_node(NodeId(1), b, {10, 0}, /*enabled=*/false);

  medium.send(NodeId(0), make_frame(NodeId(0), 100));
  EXPECT_FALSE(medium.send(NodeId(1), make_frame(NodeId(1), 100)));
  sim.run();
  EXPECT_TRUE(b.frames.empty());

  medium.set_enabled(NodeId(1), true);
  medium.send(NodeId(0), make_frame(NodeId(0), 100));
  sim.run();
  EXPECT_EQ(b.frames.size(), 1u);
}

TEST(RadioMedium, MobilityChangesConnectivity) {
  Simulator sim(7);
  RadioConfig cfg;
  cfg.loss_probability = 0.0;
  RadioMedium medium(sim, cfg);
  Collector a, b;
  medium.add_node(NodeId(0), a, {0, 0});
  medium.add_node(NodeId(1), b, {100, 0});
  EXPECT_TRUE(medium.neighbors(NodeId(0)).empty());

  medium.set_position(NodeId(1), {10, 0});
  EXPECT_EQ(medium.neighbors(NodeId(0)).size(), 1u);
  medium.send(NodeId(0), make_frame(NodeId(0), 100));
  sim.run();
  EXPECT_EQ(b.frames.size(), 1u);
}

TEST(RadioMedium, ControlFramesJumpQueue) {
  Simulator sim(8);
  RadioConfig cfg;
  cfg.loss_probability = 0.0;
  RadioMedium medium(sim, cfg);
  Collector a, b;
  medium.add_node(NodeId(0), a, {0, 0});
  medium.add_node(NodeId(1), b, {10, 0});

  std::vector<int> order;
  medium.set_tx_observer([&](NodeId, const Frame& f) {
    order.push_back(std::static_pointer_cast<const Blob>(f.payload)->id);
  });
  // Three data frames then a control frame: control should transmit before
  // the queued data (but after any frame already on the air).
  for (int i = 0; i < 3; ++i) {
    medium.send(NodeId(0), make_frame(NodeId(0), 10000, i));
  }
  Frame ctl = make_frame(NodeId(0), 50, 99);
  ctl.control = true;
  medium.send(NodeId(0), ctl);
  sim.run();
  ASSERT_EQ(order.size(), 4u);
  // The control frame overtakes all queued data (it transmits first or, if
  // a data frame was already on the air, immediately after it).
  EXPECT_TRUE(order[0] == 99 || order[1] == 99);
}

// -- Mobility ---------------------------------------------------------------

TEST(Mobility, PresetsMatchPaperObservations) {
  const MobilityParams sc = student_center_params();
  EXPECT_DOUBLE_EQ(sc.area_width_m, 120.0);
  EXPECT_EQ(sc.population, 20u);
  EXPECT_DOUBLE_EQ(sc.moves_per_minute, 4.0);
  const MobilityParams cl = classroom_params();
  EXPECT_DOUBLE_EQ(cl.area_width_m, 20.0);
  EXPECT_EQ(cl.population, 30u);
  EXPECT_DOUBLE_EQ(cl.joins_per_minute, 0.5);
}

std::vector<NodeId> make_pool(std::size_t n) {
  std::vector<NodeId> pool;
  for (std::size_t i = 0; i < n; ++i) {
    pool.push_back(NodeId(static_cast<std::uint32_t>(i)));
  }
  return pool;
}

TEST(Mobility, InitialPlacementRespectsPopulationAndPinned) {
  Rng rng(1);
  MobilityParams params = student_center_params();
  const auto pool = make_pool(40);
  const std::vector<NodeId> pinned{NodeId(0), NodeId(1)};
  const MobilityTrace trace =
      MobilityTrace::generate(params, pool, pinned, rng);

  std::size_t present = 0;
  for (const InitialPlacement& p : trace.initial()) {
    if (p.present) ++present;
    EXPECT_GE(p.pos.x, 0.0);
    EXPECT_LE(p.pos.x, params.area_width_m);
  }
  EXPECT_EQ(present, params.population);
  for (NodeId pin : pinned) {
    const auto it = std::find_if(
        trace.initial().begin(), trace.initial().end(),
        [pin](const InitialPlacement& p) { return p.node == pin; });
    ASSERT_NE(it, trace.initial().end());
    EXPECT_TRUE(it->present);
  }
}

TEST(Mobility, PinnedNodesNeverLeave) {
  Rng rng(2);
  MobilityParams params = student_center_params();
  params.duration = SimTime::minutes(30);
  params.frequency_multiplier = 2.0;
  const auto pool = make_pool(60);
  const std::vector<NodeId> pinned{NodeId(5)};
  const MobilityTrace trace =
      MobilityTrace::generate(params, pool, pinned, rng);
  for (const MobilityEvent& ev : trace.events()) {
    if (ev.kind == MobilityEvent::Kind::kLeave) {
      EXPECT_NE(ev.node, NodeId(5));
    }
  }
}

TEST(Mobility, EventRatesScaleWithParameters) {
  Rng rng(3);
  MobilityParams params = student_center_params();
  params.duration = SimTime::minutes(60);
  const auto pool = make_pool(80);
  const MobilityTrace trace = MobilityTrace::generate(params, pool, {}, rng);

  std::size_t moves = 0;
  for (const auto& ev : trace.events()) {
    if (ev.kind == MobilityEvent::Kind::kMove) ++moves;
  }
  // 4 moves/minute over 60 minutes ≈ 240.
  EXPECT_NEAR(static_cast<double>(moves), 240.0, 60.0);
}

TEST(Mobility, EventsAreTimeOrderedAndConsistent) {
  Rng rng(4);
  MobilityParams params = classroom_params();
  params.duration = SimTime::minutes(20);
  const auto pool = make_pool(50);
  const MobilityTrace trace = MobilityTrace::generate(params, pool, {}, rng);

  // Replay presence and check kJoin only for absent, kLeave only for
  // present nodes.
  std::unordered_set<NodeId> present;
  for (const auto& p : trace.initial()) {
    if (p.present) present.insert(p.node);
  }
  SimTime prev = SimTime::zero();
  for (const auto& ev : trace.events()) {
    EXPECT_GE(ev.at, prev);
    prev = ev.at;
    switch (ev.kind) {
      case MobilityEvent::Kind::kJoin:
        EXPECT_FALSE(present.contains(ev.node));
        present.insert(ev.node);
        break;
      case MobilityEvent::Kind::kLeave:
        EXPECT_TRUE(present.contains(ev.node));
        present.erase(ev.node);
        break;
      case MobilityEvent::Kind::kMove:
        EXPECT_TRUE(present.contains(ev.node));
        break;
    }
  }
}

TEST(Mobility, InstallDrivesMedium) {
  Simulator sim(5);
  RadioConfig cfg;
  RadioMedium medium(sim, cfg);
  Collector sink;
  medium.add_node(NodeId(0), sink, {0, 0}, true);
  medium.add_node(NodeId(1), sink, {5, 5}, false);

  MobilityTrace trace;
  // Hand-build a trace through the public API: generate with rates 0 and
  // verify via install of a synthetic one is not possible, so use generate
  // with a leave-heavy configuration instead.
  MobilityParams params;
  params.population = 2;
  params.joins_per_minute = 0.0;
  params.moves_per_minute = 0.0;
  params.leaves_per_minute = 30.0;
  params.duration = SimTime::minutes(2);
  Rng rng(6);
  const auto pool = make_pool(2);
  const MobilityTrace t = MobilityTrace::generate(params, pool, {}, rng);
  ASSERT_FALSE(t.events().empty());
  t.install(sim, medium);
  sim.run();
  // With only leaves, at least one node ended disabled.
  EXPECT_TRUE(!medium.is_enabled(NodeId(0)) || !medium.is_enabled(NodeId(1)));
}

}  // namespace
}  // namespace pds::sim
