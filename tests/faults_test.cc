// Unit tests for the deterministic fault-schedule engine (sim/faults.h):
// crash/restart radio semantics, per-pair loss overrides, Gilbert–Elliott
// burst channels, buffer storms, schedule builders and the FaultStats
// counters — all at the sim layer, with dummy sinks instead of PDS nodes.
#include <gtest/gtest.h>

#include "sim/faults.h"
#include "sim/radio.h"
#include "sim/simulator.h"

namespace pds::sim {
namespace {

class Collector final : public FrameSink {
 public:
  void on_frame(const Frame& frame) override { frames.push_back(frame); }
  std::vector<Frame> frames;
};

struct Blob final : FramePayload {};

Frame make_frame(NodeId sender, std::size_t bytes = 1000) {
  return Frame{.sender = sender, .size_bytes = bytes,
               .payload = std::make_shared<Blob>()};
}

RadioConfig lossless() {
  RadioConfig cfg;
  cfg.loss_probability = 0.0;
  return cfg;
}

TEST(FaultSchedule, BuildersAppendInCallOrder) {
  FaultSchedule s;
  EXPECT_TRUE(s.empty());
  s.crash(SimTime::seconds(1), NodeId(3), /*wipe=*/true)
      .restart(SimTime::seconds(2), NodeId(3))
      .link_loss(SimTime::seconds(3), NodeId(0), NodeId(1), 0.5)
      .link_restore(SimTime::seconds(4), NodeId(0), NodeId(1))
      .burst(SimTime::seconds(5), SimTime::seconds(6), NodeId(2))
      .buffer_storm(SimTime::seconds(7), NodeId(4));
  EXPECT_EQ(s.events.size(), 7u);  // burst(on+off) expands to two events
  EXPECT_EQ(s.events.front().kind, FaultKind::kCrash);
  EXPECT_TRUE(s.events.front().wipe_state);
}

TEST(FaultSchedule, ChurnExpandsToCrashWithoutWipePlusRestart) {
  FaultSchedule s;
  s.churn(SimTime::seconds(2), SimTime::seconds(10), NodeId(7));
  ASSERT_EQ(s.events.size(), 2u);
  EXPECT_EQ(s.events[0].kind, FaultKind::kCrash);
  EXPECT_FALSE(s.events[0].wipe_state);  // the device walks away, not reboots
  EXPECT_EQ(s.events[1].kind, FaultKind::kRestart);
  EXPECT_EQ(s.events[1].at, SimTime::seconds(10));
}

TEST(FaultSchedule, PermanentPartitionSkipsHeal) {
  FaultSchedule permanent;
  permanent.partition(SimTime::seconds(1), SimTime::zero(), {NodeId(0)},
                      {NodeId(1)});
  EXPECT_EQ(permanent.events.size(), 1u);
  FaultSchedule healing;
  healing.partition(SimTime::seconds(1), SimTime::seconds(5), {NodeId(0)},
                    {NodeId(1)});
  EXPECT_EQ(healing.events.size(), 2u);
}

TEST(FaultInjector, CrashSilencesNodeAndRestartRevives) {
  Simulator sim(1);
  RadioMedium medium(sim, lossless());
  Collector a, b;
  medium.add_node(NodeId(0), a, {0, 0});
  medium.add_node(NodeId(1), b, {10, 0});

  FaultInjector injector(sim, medium);
  FaultSchedule s;
  s.crash(SimTime::seconds(1), NodeId(0))
      .restart(SimTime::seconds(2), NodeId(0));
  injector.install(s);

  // Before the crash: delivered. While down: the medium refuses the send.
  // After restart: delivered again.
  medium.send(NodeId(0), make_frame(NodeId(0)));
  sim.schedule_at(SimTime::seconds(1.5),
                  [&] { medium.send(NodeId(0), make_frame(NodeId(0))); });
  sim.schedule_at(SimTime::seconds(2.5),
                  [&] { medium.send(NodeId(0), make_frame(NodeId(0))); });
  sim.schedule_at(SimTime::seconds(1.25),
                  [&] { EXPECT_TRUE(injector.is_crashed(NodeId(0))); });
  sim.run();
  EXPECT_EQ(b.frames.size(), 2u);
  EXPECT_FALSE(injector.is_crashed(NodeId(0)));
  EXPECT_EQ(injector.stats().crashes, 1u);
  EXPECT_EQ(injector.stats().restarts, 1u);
}

TEST(FaultInjector, DoubleCrashAndSpuriousRestartAreIdempotent) {
  Simulator sim(1);
  RadioMedium medium(sim, lossless());
  Collector a;
  medium.add_node(NodeId(0), a, {0, 0});
  FaultInjector injector(sim, medium);
  FaultSchedule s;
  s.restart(SimTime::seconds(0.5), NodeId(0))  // not down: no-op
      .crash(SimTime::seconds(1), NodeId(0))
      .crash(SimTime::seconds(2), NodeId(0));  // already down: no-op
  injector.install(s);
  sim.run();
  EXPECT_EQ(injector.stats().crashes, 1u);
  EXPECT_EQ(injector.stats().restarts, 0u);
  EXPECT_EQ(injector.crashed_count(), 1u);
}

TEST(FaultInjector, HardPairLossCutsOneDirectionPairwise) {
  Simulator sim(1);
  RadioMedium medium(sim, lossless());
  Collector a, b, c;
  medium.add_node(NodeId(0), a, {0, 0});
  medium.add_node(NodeId(1), b, {10, 0});
  medium.add_node(NodeId(2), c, {5, 8});  // in range of both

  FaultInjector injector(sim, medium);
  FaultSchedule s;
  s.link_loss(SimTime::zero(), NodeId(0), NodeId(1), 1.0);
  injector.install(s);

  sim.schedule_at(SimTime::millis(1),
                  [&] { medium.send(NodeId(0), make_frame(NodeId(0))); });
  sim.run();
  // The 0->1 link is cut but the broadcast still reaches node 2.
  EXPECT_TRUE(b.frames.empty());
  EXPECT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(medium.stats().losses_fault, 1u);
  EXPECT_EQ(injector.stats().links_degraded, 1u);
}

TEST(FaultInjector, LinkRestoreClearsTheOverride) {
  Simulator sim(1);
  RadioMedium medium(sim, lossless());
  Collector a, b;
  medium.add_node(NodeId(0), a, {0, 0});
  medium.add_node(NodeId(1), b, {10, 0});

  FaultInjector injector(sim, medium);
  FaultSchedule s;
  s.link_loss(SimTime::zero(), NodeId(0), NodeId(1), 1.0)
      .link_restore(SimTime::seconds(1), NodeId(0), NodeId(1));
  injector.install(s);

  sim.schedule_at(SimTime::millis(1),
                  [&] { medium.send(NodeId(0), make_frame(NodeId(0))); });
  sim.schedule_at(SimTime::seconds(2),
                  [&] { medium.send(NodeId(0), make_frame(NodeId(0))); });
  sim.run();
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(medium.pair_loss_count(), 0u);
  EXPECT_EQ(injector.stats().links_restored, 1u);
}

TEST(FaultInjector, PartitionCutsCrossPairsAndHealRestores) {
  Simulator sim(1);
  RadioMedium medium(sim, lossless());
  Collector a, b, c;
  medium.add_node(NodeId(0), a, {0, 0});
  medium.add_node(NodeId(1), b, {10, 0});
  medium.add_node(NodeId(2), c, {5, 8});

  FaultInjector injector(sim, medium);
  FaultSchedule s;
  s.partition(SimTime::zero(), SimTime::seconds(1), {NodeId(0)},
              {NodeId(1), NodeId(2)});
  injector.install(s);

  sim.schedule_at(SimTime::millis(1),
                  [&] { medium.send(NodeId(0), make_frame(NodeId(0))); });
  sim.schedule_at(SimTime::seconds(2),
                  [&] { medium.send(NodeId(0), make_frame(NodeId(0))); });
  sim.run();
  // First send fully cut; second (after heal) reaches both.
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(medium.stats().losses_fault, 2u);
  EXPECT_EQ(injector.stats().partitions, 1u);
  EXPECT_EQ(injector.stats().heals, 1u);
  EXPECT_EQ(medium.pair_loss_count(), 0u);
}

TEST(FaultInjector, BurstChannelInBadStateLosesFrames) {
  Simulator sim(1);
  RadioMedium medium(sim, lossless());
  Collector a, b;
  medium.add_node(NodeId(0), a, {0, 0});
  medium.add_node(NodeId(1), b, {10, 0});

  // Degenerate chain: enters (and stays in) the bad state on the first
  // frame and loses everything there.
  GilbertElliottParams ge;
  ge.p_good_to_bad = 1.0;
  ge.p_bad_to_good = 0.0;
  ge.loss_good = 0.0;
  ge.loss_bad = 1.0;

  FaultInjector injector(sim, medium);
  FaultSchedule s;
  s.burst(SimTime::zero(), SimTime::seconds(5), NodeId(1), ge);
  injector.install(s);

  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(SimTime::millis(10 + 20 * i),
                    [&] { medium.send(NodeId(0), make_frame(NodeId(0))); });
  }
  sim.schedule_at(SimTime::seconds(6),
                  [&] { medium.send(NodeId(0), make_frame(NodeId(0))); });
  sim.run();
  // All five frames during the burst are lost; the one after burst-off
  // arrives.
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(medium.stats().losses_burst, 5u);
  EXPECT_EQ(injector.stats().bursts_started, 1u);
  EXPECT_EQ(injector.stats().bursts_stopped, 1u);
}

TEST(FaultInjector, BufferStormFillsOsBufferAndDropsOverflow) {
  Simulator sim(1);
  RadioConfig cfg = lossless();
  cfg.os_buffer_bytes = 10'000;  // fits ~6 junk frames of 1500 B
  RadioMedium medium(sim, cfg);
  Collector a, b;
  medium.add_node(NodeId(0), a, {0, 0});
  medium.add_node(NodeId(1), b, {10, 0});

  FaultInjector injector(sim, medium);
  FaultSchedule s;
  s.buffer_storm(SimTime::millis(1), NodeId(0), /*bytes=*/30'000,
                 /*frame_bytes=*/1500);
  injector.install(s);
  sim.run();
  EXPECT_EQ(injector.stats().storms, 1u);
  EXPECT_EQ(injector.stats().storm_frames, 20u);
  // The buffer only holds a fraction of the storm; the rest drops at the OS.
  EXPECT_GT(medium.stats().os_buffer_drops, 0u);
  // Junk frames still burn airtime at every receiver in range.
  EXPECT_GT(b.frames.size(), 0u);
  for (const Frame& f : b.frames) {
    EXPECT_NE(dynamic_cast<const StormPayload*>(f.payload.get()), nullptr);
  }
}

TEST(FaultInjector, StormOnCrashedNodeIsSkipped) {
  Simulator sim(1);
  RadioMedium medium(sim, lossless());
  Collector a;
  medium.add_node(NodeId(0), a, {0, 0});
  FaultInjector injector(sim, medium);
  FaultSchedule s;
  s.crash(SimTime::millis(1), NodeId(0))
      .buffer_storm(SimTime::millis(2), NodeId(0));
  injector.install(s);
  sim.run();
  EXPECT_EQ(injector.stats().storms, 0u);
  EXPECT_EQ(injector.stats().storm_frames, 0u);
}

TEST(FaultInjector, SameSeedAndScheduleGiveIdenticalStats) {
  const auto run = [] {
    Simulator sim(42);
    RadioConfig cfg;
    cfg.loss_probability = 0.1;
    RadioMedium medium(sim, cfg);
    std::vector<std::unique_ptr<Collector>> sinks;
    for (std::uint32_t i = 0; i < 6; ++i) {
      sinks.push_back(std::make_unique<Collector>());
      medium.add_node(NodeId(i), *sinks.back(),
                      {static_cast<double>(i) * 9.0, 0.0});
    }
    FaultInjector injector(sim, medium);
    FaultSchedule s;
    s.link_loss(SimTime::millis(50), NodeId(0), NodeId(1), 0.5)
        .burst(SimTime::millis(60), SimTime::seconds(2), NodeId(2))
        .churn(SimTime::millis(80), SimTime::millis(500), NodeId(3))
        .buffer_storm(SimTime::millis(90), NodeId(4));
    injector.install(s);
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(SimTime::millis(10 * i), [&medium, i] {
        medium.send(NodeId(static_cast<std::uint32_t>(i % 3)),
                    make_frame(NodeId(static_cast<std::uint32_t>(i % 3))));
      });
    }
    sim.run(SimTime::seconds(5));
    return std::make_pair(medium.stats(), injector.stats());
  };
  const auto [stats_a, faults_a] = run();
  const auto [stats_b, faults_b] = run();
  EXPECT_EQ(stats_a, stats_b);
  EXPECT_EQ(faults_a, faults_b);
}

TEST(FaultInjector, StatsCountAppliedFaults) {
  Simulator sim(1);
  RadioMedium medium(sim, lossless());
  Collector a;
  medium.add_node(NodeId(0), a, {0, 0});
  FaultInjector injector(sim, medium);
  FaultSchedule s;
  s.churn(SimTime::millis(1), SimTime::millis(2), NodeId(0));
  injector.install(s);
  sim.run();

  const FaultStats& stats = injector.stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(stats.storms, 0u);
}

}  // namespace
}  // namespace pds::sim
