// City-scale simulation core benchmark: node sweep over 1k/5k/20k/50k grids
// driving the full PDD + PDR stacks, plus a scheduler hold-model microbench
// (calendar queue vs the binary-heap oracle) at matching pending-event
// counts. Results land in BENCH_scale.json so the scale envelope is tracked
// across PRs and gated by pdsreport.
//
// Sections:
//   scheduler  hold model (pop earliest, push replacement at a random
//              near-future offset) at pending counts matching the node
//              sweep; events/sec per SchedulerKind and the calendar/heap
//              speedup. This isolates scheduler throughput from protocol
//              work — the number a scenario's event loop is bounded by.
//   scenarios  full PDD discovery + PDR retrieval per grid size: recall,
//              wall seconds, simulator events/sec, peak RSS.
//   oracle     smallest grid run twice (kCalendar vs kHeap): every outcome
//              bit must match — the calendar queue is only an optimisation.
//   shards     smallest grid PDD across shard_threads 1/2/8 with the
//              candidate threshold forced to 0 so the worker pool engages:
//              outcomes must be bit-identical regardless of thread count.
//   stats      flight-recorder summary (DESIGN.md §15): the largest grid's
//              PDR run is sampled at 1 Hz sim time (full capture written to
//              STATS_scale.ndjson for `pdscli stats`), and the shard runs
//              above each re-capture the same series — the sim-kind
//              projection must be byte-identical across thread counts.
//
// Exit status: nonzero when the oracle, shard outcomes or shard series
// diverge, or when the env floors below are set and missed (CI sets them;
// default 0 = report only, so laptops and debug builds stay green).
//
// Flags / env (invalid values are fatal, never silently defaulted):
//   --smoke                     1k + 5k grids only, shorter hold model (CI)
//   --tiny                      a few hundred nodes, minimal ops (TSan CI)
//   PDS_SIM_SHARDS              shard_threads for the scenario sweep
//   PDS_SCALE_MIN_EVENTS_PER_S  floor on every scenario's PDD events/sec
//   PDS_SCALE_MIN_SCHED_SPEEDUP floor on the calendar/heap speedup at the
//                               largest pending count
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "sim/event_queue.h"
#include "workload/experiment.h"

namespace pds {
namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// -- Scheduler hold model -----------------------------------------------------

// Hold workload with timer churn, shaped like the transport's steady
// state: keep `pending` frame events in flight; each iteration pops the
// earliest, schedules a replacement at a random offset in (0, 250 ms]
// (the order of pacing gaps and timeouts), arms a 200 ms retransmission
// timer, and cancels the oldest armed timer — the way an ack cancels the
// timer of a delivered frame. Nearly every timer dies before firing, so a
// lazy-deletion scheduler carries the corpses until their timestamps
// surface; O(1) cancellation does not. Actions carry an 80-byte payload
// like real protocol continuations, so moving a realistically sized
// InlineFunction (not a trivial empty lambda) is what gets measured.
double run_hold_once(sim::SchedulerKind kind, std::size_t pending,
                     std::uint64_t ops) {
  sim::EventQueue q(kind);
  Rng rng(0x5ca1ab1eull + pending);
  std::uint64_t acc = 0;
  std::array<std::uint64_t, 10> payload{};
  SimTime now = SimTime::zero();
  const auto offset = [&rng] {
    return SimTime::micros(1 + rng.uniform_int(0, 249'999));
  };
  for (std::size_t i = 0; i < pending; ++i) {
    payload[0] = i;
    q.push(now + offset(), [payload, &acc] { acc += payload[0]; });
  }
  // Circular book of armed retransmission timers; overwriting cancels.
  std::vector<sim::EventQueue::EventId> timers(std::max<std::size_t>(
      pending / 4, 16));
  std::size_t timer_head = 0;
  std::size_t timers_armed = 0;
  const double start = now_s();
  for (std::uint64_t op = 0; op < ops; ++op) {
    auto popped = q.pop();
    popped.action();
    now = popped.at;
    payload[0] = op;
    q.push(now + offset(), [payload, &acc] { acc += payload[0]; });
    if (timers_armed == timers.size()) q.cancel(timers[timer_head]);
    payload[0] = ~op;
    timers[timer_head] =
        q.push(now + SimTime::millis(200), [payload, &acc] {
          acc += payload[0];
        });
    timer_head = (timer_head + 1) % timers.size();
    timers_armed = std::min(timers_armed + 1, timers.size());
  }
  const double wall = now_s() - start;
  while (!q.empty()) q.pop().action();
  // Keep the accumulator observable so the work cannot be optimised away.
  if (acc == 0xdeadbeef) std::fprintf(stderr, "unreachable\n");
  return static_cast<double>(ops) / wall;
}

// Best of five interleaved runs per kind: the bench host is a shared
// single-vCPU VM where a single-shot timing swings by ±30%, so the fastest
// repetition is the closest observable to the implementation's actual cost —
// and alternating kinds rep-by-rep makes any quiet (or noisy) phase of the
// host cover both, keeping the reported ratio honest.
struct HoldResult {
  double calendar = 0.0;
  double heap = 0.0;
};

HoldResult run_hold(std::size_t pending, std::uint64_t ops) {
  HoldResult r;
  for (int rep = 0; rep < 5; ++rep) {
    r.calendar = std::max(
        r.calendar, run_hold_once(sim::SchedulerKind::kCalendar, pending, ops));
    r.heap =
        std::max(r.heap, run_hold_once(sim::SchedulerKind::kHeap, pending, ops));
  }
  return r;
}

// -- Scenario sweep -----------------------------------------------------------

struct ScenarioResult {
  std::size_t nodes = 0;
  wl::PddOutcome pdd;
  double pdd_wall_s = 0.0;
  wl::RetrievalOutcome pdr;
  double pdr_wall_s = 0.0;
};

wl::PddGridParams pdd_params(std::size_t side, int shard_threads) {
  wl::PddGridParams p;
  p.nx = side;
  p.ny = side;
  // A fixed catalogue regardless of grid size: the sweep scales the *radio
  // population*, not the workload, so events/sec differences are the sim
  // core's. Redundancy 2 keeps copies within discovery reach on big grids.
  p.metadata_count = 500;
  p.redundancy = 2;
  p.consumers = 1;
  p.radio.shard_threads = shard_threads;
  p.seed = 1;
  return p;
}

wl::RetrievalGridParams pdr_params(std::size_t side, int shard_threads) {
  wl::RetrievalGridParams p;
  p.nx = side;
  p.ny = side;
  p.item_size_bytes = 2u * 1024 * 1024;
  // Copy density scales with area so the nearest holder of any chunk stays
  // a bounded number of hops away — the pervasive-caching regime the paper
  // assumes; without it, city-scale retrieval is bounded by raw distance,
  // not by the sim core this bench measures.
  p.redundancy = std::max<int>(2, static_cast<int>((side * side) / 64));
  p.consumers = 1;
  p.radio.shard_threads = shard_threads;
  p.seed = 1;
  return p;
}

// `stats`, when non-null, flight-records the PDR run (the memory-heavy leg:
// cached chunk bytes, reassembly buffers) and profiles both legs. Sampling
// reads state only, so outcomes are identical with or without it.
ScenarioResult run_scenario(std::size_t side, int shard_threads,
                            bench::StatsCapture* stats) {
  ScenarioResult r;
  r.nodes = side * side;
  wl::PddGridParams pp = pdd_params(side, shard_threads);
  wl::RetrievalGridParams rp = pdr_params(side, shard_threads);
  if (stats != nullptr) {
    stats->reset();
    pp.profiler = stats->profiler();
    rp.sampler = stats->sampler();
    rp.profiler = stats->profiler();
  }
  double t0 = now_s();
  r.pdd = wl::run_pdd_grid(pp);
  r.pdd_wall_s = now_s() - t0;
  t0 = now_s();
  r.pdr = wl::run_retrieval_grid(rp);
  r.pdr_wall_s = now_s() - t0;
  return r;
}

bool pdd_outcomes_identical(const wl::PddOutcome& a, const wl::PddOutcome& b) {
  return a.recall == b.recall && a.latency_s == b.latency_s &&
         a.overhead_mb == b.overhead_mb && a.rounds == b.rounds &&
         a.all_finished == b.all_finished &&
         a.events_executed == b.events_executed;
}

int run(bool smoke, bool tiny) {
  std::printf("== tab_scale — city-scale sim core sweep ==\n");
  std::printf("mode: %s\n\n", tiny ? "tiny" : smoke ? "smoke" : "full");

  // Grid sides: 32^2=1024, 71^2=5041, 141^2=19881, 224^2=50176.
  const std::vector<std::size_t> sides =
      tiny    ? std::vector<std::size_t>{8}
      : smoke ? std::vector<std::size_t>{32, 71}
              : std::vector<std::size_t>{32, 71, 141, 224};
  const std::uint64_t hold_ops = tiny ? 20'000 : smoke ? 400'000 : 1'000'000;
  const int shard_threads = bench::env_positive_int("PDS_SIM_SHARDS", 1);

  obs::Report::Options options;
  options.experiment = "scale";
  options.title = "tab_scale — city-scale sim core sweep";
  options.paper =
      "engineering benchmark (not a paper figure): calendar scheduler, SoA "
      "radio and sharded execution must hold the scale envelope";
  options.runs = 1;
  options.jobs = 1;
  obs::Report report{std::move(options)};
  report.set_param("mode", tiny ? "tiny" : smoke ? "smoke" : "full");
  report.set_param("shard_threads", static_cast<std::int64_t>(shard_threads));

  // Scheduler hold model at pending counts matching the node sweep.
  report.begin_table("scheduler", {"pending", "calendar ev/s", "heap ev/s",
                                   "speedup"});
  double largest_speedup = 0.0;
  for (const std::size_t side : sides) {
    const std::size_t pending = side * side;
    const HoldResult hold = run_hold(pending, hold_ops);
    const double cal = hold.calendar;
    const double heap = hold.heap;
    const double speedup = heap > 0.0 ? cal / heap : 0.0;
    largest_speedup = speedup;
    report.point()
        .param("pending", static_cast<std::int64_t>(pending))
        .metric("calendar.events_per_s", cal, 0)
        .metric("heap.events_per_s", heap, 0)
        .metric("speedup", speedup, 2);
  }
  report.print_table();

  // Full-stack scenario sweep.
  report.begin_table("scenarios",
                     {"nodes", "pdd recall", "pdd wall (s)", "pdd ev/s",
                      "pdr recall", "pdr wall (s)", "pdr ev/s", "rss (MB)"});
  std::vector<ScenarioResult> results;
  bench::StatsCapture capture;
  for (const std::size_t side : sides) {
    // Flight-record the largest grid — the run the RSS budget gate judges.
    const ScenarioResult r = run_scenario(
        side, shard_threads, side == sides.back() ? &capture : nullptr);
    const double pdd_eps = r.pdd_wall_s > 0.0
                               ? static_cast<double>(r.pdd.events_executed) /
                                     r.pdd_wall_s
                               : 0.0;
    const double pdr_eps = r.pdr_wall_s > 0.0
                               ? static_cast<double>(r.pdr.events_executed) /
                                     r.pdr_wall_s
                               : 0.0;
    report.point()
        .param("nodes", static_cast<std::int64_t>(r.nodes))
        .metric("pdd.recall", r.pdd.recall, 3)
        .metric("pdd.wall_s", r.pdd_wall_s, 2)
        .metric("pdd.events_per_s", pdd_eps, 0)
        .metric("pdr.recall", r.pdr.recall, 3)
        .metric("pdr.wall_s", r.pdr_wall_s, 2)
        .metric("pdr.events_per_s", pdr_eps, 0)
        .metric("peak_rss_mb", obs::peak_rss_mb(), 1)
        .hidden_metric("pdd.events",
                       static_cast<double>(r.pdd.events_executed))
        .hidden_metric("pdr.events",
                       static_cast<double>(r.pdr.events_executed))
        .hidden_metric("pdd.latency_s", r.pdd.latency_s)
        .hidden_metric("pdd.overhead_mb", r.pdd.overhead_mb)
        .hidden_metric("pdr.latency_s", r.pdr.latency_s)
        .hidden_metric("pdr.overhead_mb", r.pdr.overhead_mb);
    results.push_back(r);
  }
  report.print_table();

  // Oracle parity: the calendar queue against the heap on the smallest
  // grid. Every observable outcome (including the event count) must match.
  const std::size_t oracle_side = sides.front();
  wl::PddGridParams oracle = pdd_params(oracle_side, /*shard_threads=*/1);
  const wl::PddOutcome cal_out = wl::run_pdd_grid(oracle);
  oracle.scheduler = sim::SchedulerKind::kHeap;
  const wl::PddOutcome heap_out = wl::run_pdd_grid(oracle);
  const bool oracle_identical = pdd_outcomes_identical(cal_out, heap_out);
  report.begin_section("oracle");
  report.point()
      .param("nodes", static_cast<std::int64_t>(oracle_side * oracle_side))
      .param("identical", oracle_identical, oracle_identical ? "yes" : "NO")
      .hidden_metric("calendar.events",
                     static_cast<double>(cal_out.events_executed))
      .hidden_metric("heap.events",
                     static_cast<double>(heap_out.events_executed));
  std::printf("\noracle parity (%zu nodes): %s\n", oracle_side * oracle_side,
              oracle_identical ? "identical" : "DIVERGED");

  // Shard determinism: identical outcomes for 1/2/8 worker threads, with
  // the candidate threshold forced to 0 so small grids still shard. Each
  // run also re-captures the flight-recorder series: the sim-kind
  // projection must be byte-identical across thread counts too (the
  // `timeseries-deterministic` gate).
  report.begin_section("shards");
  const std::vector<int> thread_counts = tiny ? std::vector<int>{1, 2}
                                              : std::vector<int>{1, 2, 8};
  bench::StatsCapture shard_capture;
  std::string first_series;
  std::vector<wl::PddOutcome> shard_outs;
  bool shards_identical = true;
  bool series_identical = true;
  for (const int threads : thread_counts) {
    wl::PddGridParams p = pdd_params(sides.front(), threads);
    p.radio.shard_min_candidates = 0;
    shard_capture.reset();
    p.sampler = shard_capture.sampler();
    p.profiler = shard_capture.profiler();
    const double t0 = now_s();
    shard_outs.push_back(wl::run_pdd_grid(p));
    const double wall = now_s() - t0;
    const bool same = pdd_outcomes_identical(shard_outs.front(),
                                             shard_outs.back());
    shards_identical = shards_identical && same;
    const std::string series = shard_capture.ndjson(/*include_wall=*/false);
    if (first_series.empty()) first_series = series;
    const bool series_same = series == first_series;
    series_identical = series_identical && series_same;
    report.point()
        .param("threads", static_cast<std::int64_t>(threads))
        .metric("wall_s", wall, 2)
        .param("identical", same, same ? "yes" : "NO")
        .param("series_identical", series_same, series_same ? "yes" : "NO");
    std::printf("shards=%d: wall %.2f s, outcome %s, series %s\n", threads,
                wall, same ? "identical" : "DIVERGED",
                series_same ? "identical" : "DIVERGED");
  }

  // Flight-recorder summary over the largest grid's sampled PDR run; the
  // full capture goes to STATS_scale.ndjson for `pdscli stats`. Utilization
  // is average concurrent transmissions, so node count is its hard ceiling.
  report.begin_section("stats");
  const tools::ParsedSeries parsed = capture.analyze();
  obs::Report::Point& stats_point =
      report.point()
          .param("nodes",
                 static_cast<std::int64_t>(sides.back() * sides.back()))
          .param("identical", series_identical,
                 series_identical ? "yes" : "NO");
  bench::add_stats_point(stats_point, parsed,
                         static_cast<double>(sides.back() * sides.back()));
  std::printf("\nflight recorder: %zu rows over the %zu-node PDR run, "
              "series across shard threads %s\n",
              parsed.rows.size(), sides.back() * sides.back(),
              series_identical ? "identical" : "DIVERGED");

  int rc = 0;
  if (!capture.write("STATS_scale.ndjson")) {
    std::fprintf(stderr, "FAIL: cannot write STATS_scale.ndjson\n");
    rc = 1;
  } else {
    std::printf("wrote STATS_scale.ndjson\n");
  }
  if (!series_identical) {
    std::fprintf(stderr,
                 "FAIL: flight-recorder series depends on thread count\n");
    rc = 1;
  }
  if (report.write_json()) {
    std::printf("wrote %s\n", report.json_path().c_str());
  } else {
    rc = 1;
  }
  if (!oracle_identical) {
    std::fprintf(stderr, "FAIL: calendar and heap scheduler outcomes "
                         "diverge\n");
    rc = 1;
  }
  if (!shards_identical) {
    std::fprintf(stderr, "FAIL: sharded outcomes depend on thread count\n");
    rc = 1;
  }
  const double min_eps =
      bench::env_nonneg_double("PDS_SCALE_MIN_EVENTS_PER_S", 0.0);
  if (min_eps > 0.0) {
    for (const ScenarioResult& r : results) {
      const double eps = r.pdd_wall_s > 0.0
                             ? static_cast<double>(r.pdd.events_executed) /
                                   r.pdd_wall_s
                             : 0.0;
      if (eps < min_eps) {
        std::fprintf(stderr,
                     "FAIL: %zu-node PDD events/sec %.0f below required "
                     "%.0f\n",
                     r.nodes, eps, min_eps);
        rc = 1;
      }
    }
  }
  const double min_speedup =
      bench::env_nonneg_double("PDS_SCALE_MIN_SCHED_SPEEDUP", 0.0);
  if (min_speedup > 0.0 && largest_speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: scheduler speedup %.2fx below required %.2fx\n",
                 largest_speedup, min_speedup);
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace pds

int main(int argc, char** argv) {
  bool smoke = false;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }
  return pds::run(smoke, tiny);
}
