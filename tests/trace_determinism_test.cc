// Tracing must be a pure observer: with the same seed, (a) attaching a
// tracer leaves every experiment outcome bit-identical to the untraced run,
// (b) the NDJSON bytes are identical whether the radio's spatial grid is on
// or off, and (c) identical when runs execute on PDS_BENCH_JOBS>1 worker
// threads (each worker owns its own Simulator and tracer). The PDD, PDR and
// faulted captures must also pass check_trace against the event catalog.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/trace.h"
#include "parallel_runs.h"
#include "tools/trace_causal.h"
#include "tools/trace_reader.h"
#include "workload/experiment.h"

namespace pds::wl {
namespace {

PddGridParams small_pdd(std::uint64_t seed, obs::Tracer* tracer,
                        bool spatial_grid = true) {
  PddGridParams p;
  p.nx = p.ny = 5;
  p.metadata_count = 400;
  p.consumers = 2;
  p.sequential = true;
  p.seed = seed;
  p.tracer = tracer;
  p.radio.use_spatial_grid = spatial_grid;
  return p;
}

bool same_outcome(const PddOutcome& a, const PddOutcome& b) {
  return a.recall == b.recall && a.latency_s == b.latency_s &&
         a.overhead_mb == b.overhead_mb && a.rounds == b.rounds &&
         a.all_finished == b.all_finished &&
         a.per_consumer_recall == b.per_consumer_recall &&
         a.per_consumer_latency_s == b.per_consumer_latency_s;
}

std::vector<tools::ParsedEvent> parse(const obs::Tracer& tracer) {
  std::stringstream ss;
  tracer.write_ndjson(ss);
  std::size_t bad_line = 0;
  std::vector<tools::ParsedEvent> events = tools::read_trace(ss, bad_line);
  EXPECT_EQ(bad_line, 0u);
  return events;
}

// What `pdscli trace check` finds in a capture, one violation per line;
// empty when the capture matches the event catalog.
std::string violations(const std::vector<tools::ParsedEvent>& events) {
  std::string out;
  for (const tools::TraceViolation& v : tools::check_trace(events).violations) {
    out += "line " + std::to_string(v.line) + ": " + v.what + "\n";
  }
  return out;
}

TEST(TraceDeterminism, TracedPddOutcomeBitIdenticalToUntraced) {
  const PddOutcome untraced = run_pdd_grid(small_pdd(7, nullptr));
  obs::Tracer tracer;
  const PddOutcome traced = run_pdd_grid(small_pdd(7, &tracer));
  EXPECT_TRUE(same_outcome(untraced, traced));
  EXPECT_FALSE(tracer.events().empty());
  // The traced run also reconstructs the per-round history.
  ASSERT_EQ(traced.per_consumer_rounds.size(), 2u);
  EXPECT_FALSE(traced.per_consumer_rounds[0].empty());
  const PddRoundRecord& last = traced.per_consumer_rounds[0].back();
  EXPECT_GT(last.cumulative, 0u);
}

TEST(TraceDeterminism, TracedPdrOutcomeBitIdenticalToUntraced) {
  RetrievalGridParams p;
  p.nx = p.ny = 4;
  p.item_size_bytes = 2u * 1024 * 1024;
  p.seed = 3;
  const RetrievalOutcome untraced = run_retrieval_grid(p);
  obs::Tracer tracer;
  p.tracer = &tracer;
  const RetrievalOutcome traced = run_retrieval_grid(p);
  EXPECT_EQ(untraced.recall, traced.recall);
  EXPECT_EQ(untraced.latency_s, traced.latency_s);
  EXPECT_EQ(untraced.overhead_mb, traced.overhead_mb);
  EXPECT_EQ(untraced.per_consumer_chunk_arrival_s,
            traced.per_consumer_chunk_arrival_s);
  EXPECT_FALSE(tracer.events().empty());
  EXPECT_EQ(violations(parse(tracer)), "");
  ASSERT_EQ(traced.per_consumer_chunk_arrival_s.size(), 1u);
  EXPECT_FALSE(traced.per_consumer_chunk_arrival_s[0].empty());
}

TEST(TraceDeterminism, NdjsonBytesIdenticalWithGridOnAndOff) {
  obs::Tracer with_grid;
  (void)run_pdd_grid(small_pdd(11, &with_grid, /*spatial_grid=*/true));
  obs::Tracer without_grid;
  (void)run_pdd_grid(small_pdd(11, &without_grid, /*spatial_grid=*/false));
  EXPECT_FALSE(with_grid.events().empty());
  EXPECT_EQ(with_grid.ndjson(), without_grid.ndjson());
}

TEST(TraceDeterminism, NdjsonBytesIdenticalUnderParallelJobs) {
  // Serial reference: one trace per seed.
  ::setenv("PDS_BENCH_JOBS", "1", 1);
  std::vector<obs::Tracer> serial_tracers(4);
  const auto serial = bench::run_indexed(4, [&](int i) {
    (void)run_pdd_grid(small_pdd(static_cast<std::uint64_t>(i + 1),
                           &serial_tracers[static_cast<std::size_t>(i)]));
    return serial_tracers[static_cast<std::size_t>(i)].ndjson();
  });

  // Parallel: each worker thread runs its own Simulator + tracer.
  ::setenv("PDS_BENCH_JOBS", "4", 1);
  std::vector<obs::Tracer> parallel_tracers(4);
  const auto parallel = bench::run_indexed(4, [&](int i) {
    (void)run_pdd_grid(small_pdd(static_cast<std::uint64_t>(i + 1),
                           &parallel_tracers[static_cast<std::size_t>(i)]));
    return parallel_tracers[static_cast<std::size_t>(i)].ndjson();
  });
  ::unsetenv("PDS_BENCH_JOBS");

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].empty());
    EXPECT_EQ(serial[i], parallel[i]) << "seed " << i + 1;
  }
}

// -- Scheduler implementations -----------------------------------------------
// The calendar queue and the binary-heap oracle must be interchangeable at
// the level of whole experiments: same seed, same workload, byte-identical
// trace streams (equal-timestamp events pop in identical order).

TEST(TraceDeterminism, NdjsonBytesIdenticalAcrossSchedulerKinds) {
  obs::Tracer calendar;
  {
    PddGridParams p = small_pdd(13, &calendar);
    p.scheduler = sim::SchedulerKind::kCalendar;
    (void)run_pdd_grid(p);
  }
  obs::Tracer heap;
  {
    PddGridParams p = small_pdd(13, &heap);
    p.scheduler = sim::SchedulerKind::kHeap;
    (void)run_pdd_grid(p);
  }
  EXPECT_FALSE(calendar.events().empty());
  EXPECT_EQ(calendar.ndjson(), heap.ndjson());
}

TEST(TraceDeterminism, PdrOutcomeBitIdenticalAcrossSchedulerKinds) {
  RetrievalGridParams p;
  p.nx = p.ny = 4;
  p.item_size_bytes = 2u * 1024 * 1024;
  p.seed = 9;
  p.scheduler = sim::SchedulerKind::kCalendar;
  const RetrievalOutcome calendar = run_retrieval_grid(p);
  p.scheduler = sim::SchedulerKind::kHeap;
  const RetrievalOutcome heap = run_retrieval_grid(p);
  EXPECT_EQ(calendar.recall, heap.recall);
  EXPECT_EQ(calendar.latency_s, heap.latency_s);
  EXPECT_EQ(calendar.overhead_mb, heap.overhead_mb);
  EXPECT_EQ(calendar.per_consumer_chunk_arrival_s,
            heap.per_consumer_chunk_arrival_s);
}

// -- Sharded fan-out classification ------------------------------------------
// Deterministic intra-run parallelism (RadioConfig::shard_threads): the
// sharded phase consumes no RNG and merges per-shard partials in fixed
// shard order, so any thread count must yield byte-identical traces. The
// threshold is forced to zero so even this small topology exercises the
// worker pool on every transmission.

std::string sharded_ndjson(std::uint64_t seed, int threads) {
  obs::Tracer tracer;
  PddGridParams p = small_pdd(seed, &tracer);
  p.radio.shard_threads = threads;
  p.radio.shard_min_candidates = 0;
  (void)run_pdd_grid(p);
  EXPECT_FALSE(tracer.events().empty());
  return tracer.ndjson();
}

TEST(TraceDeterminism, NdjsonBytesIdenticalAcrossShardThreadCounts) {
  for (const std::uint64_t seed : {21u, 22u}) {
    const std::string one = sharded_ndjson(seed, 1);
    const std::string two = sharded_ndjson(seed, 2);
    const std::string eight = sharded_ndjson(seed, 8);
    EXPECT_EQ(one, two) << "seed " << seed;
    EXPECT_EQ(one, eight) << "seed " << seed;
  }
}

// -- Dropped events ----------------------------------------------------------
// An analyzed run must never have silently lost events. The tracer keeps
// every event, so its own captures carry no trace/drops trailer; a capture
// from a ring-buffered tracer of an older build may, and the causal analyzer
// and the checker refuse to treat it as complete.

TEST(TraceDeterminism, AnalyzedRunsReportNoDroppedEvents) {
  obs::Tracer tracer;
  (void)run_pdd_grid(small_pdd(7, &tracer));
  const auto events = parse(tracer);
  EXPECT_EQ(tools::analyze_causal(events).dropped_events, 0u);
  EXPECT_EQ(violations(events), "");
}

TEST(TraceDeterminism, BoundedRingSurfacesDropCount) {
  // A full capture with the trailer a ring-buffered tracer appended after
  // evicting events, as an older build would have written it.
  constexpr std::uint64_t kDropped = 1234;
  obs::Tracer tracer;
  (void)run_pdd_grid(small_pdd(7, &tracer));
  std::stringstream ss;
  tracer.write_ndjson(ss);
  ss << "{\"t\":0,\"node\":" << NodeId::invalid().value()
     << ",\"ph\":\"i\",\"sub\":\"trace\",\"ev\":\"drops\","
     << "\"args\":{\"count\":" << kDropped << "}}\n";
  std::size_t bad_line = 0;
  const auto events = tools::read_trace(ss, bad_line);
  ASSERT_EQ(bad_line, 0u);
  // The trailer round-trips the exact eviction count into the analysis.
  EXPECT_EQ(tools::analyze_causal(events).dropped_events, kDropped);
  // ... and the checker fails the capture on it, at the trailer's line.
  const tools::TraceCheck check = tools::check_trace(events);
  ASSERT_FALSE(check.violations.empty());
  EXPECT_EQ(check.violations.back().line, events.size());
  EXPECT_EQ(check.violations.back().what,
            "tracer dropped " + std::to_string(kDropped) +
                " event(s) (ring buffer overflow)");
}

// -- Fault schedules ---------------------------------------------------------
// A faulted run is exactly as deterministic as a clean one: same seed +
// same schedule must give byte-identical trace streams and report JSON,
// serially or across PDS_BENCH_JOBS worker threads.

sim::FaultSchedule probe_schedule() {
  sim::FaultSchedule s;
  s.crash(SimTime::millis(500), NodeId(0), /*wipe=*/true)
      .restart(SimTime::seconds(4), NodeId(0))
      .churn(SimTime::millis(700), SimTime::seconds(5), NodeId(4))
      .partition(SimTime::seconds(1), SimTime::seconds(3),
                 {NodeId(20), NodeId(21)}, {NodeId(23), NodeId(24)})
      .burst(SimTime::zero(), SimTime::seconds(6), NodeId(2))
      .buffer_storm(SimTime::millis(300), NodeId(10));
  return s;
}

PddGridParams faulted_pdd(std::uint64_t seed, obs::Tracer* tracer) {
  PddGridParams p = small_pdd(seed, tracer);
  p.redundancy = 2;
  p.faults = probe_schedule();
  return p;
}

TEST(TraceDeterminism, FaultedRunSameSeedSameScheduleByteIdentical) {
  obs::Tracer a;
  const PddOutcome out_a = run_pdd_grid(faulted_pdd(5, &a));
  obs::Tracer b;
  const PddOutcome out_b = run_pdd_grid(faulted_pdd(5, &b));
  EXPECT_TRUE(same_outcome(out_a, out_b));
  EXPECT_FALSE(a.events().empty());
  EXPECT_EQ(a.ndjson(), b.ndjson());
  // The schedule's fault events must actually appear in the stream, and
  // every one of them must match the event catalog.
  EXPECT_NE(a.ndjson().find("\"fault\""), std::string::npos);
  EXPECT_EQ(violations(parse(a)), "");
}

TEST(TraceDeterminism, FaultedNdjsonBytesIdenticalUnderParallelJobs) {
  ::setenv("PDS_BENCH_JOBS", "1", 1);
  std::vector<obs::Tracer> serial_tracers(4);
  const auto serial = bench::run_indexed(4, [&](int i) {
    (void)run_pdd_grid(faulted_pdd(static_cast<std::uint64_t>(i + 1),
                             &serial_tracers[static_cast<std::size_t>(i)]));
    return serial_tracers[static_cast<std::size_t>(i)].ndjson();
  });

  ::setenv("PDS_BENCH_JOBS", "4", 1);
  std::vector<obs::Tracer> parallel_tracers(4);
  const auto parallel = bench::run_indexed(4, [&](int i) {
    (void)run_pdd_grid(faulted_pdd(static_cast<std::uint64_t>(i + 1),
                             &parallel_tracers[static_cast<std::size_t>(i)]));
    return parallel_tracers[static_cast<std::size_t>(i)].ndjson();
  });
  ::unsetenv("PDS_BENCH_JOBS");

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].empty());
    EXPECT_EQ(serial[i], parallel[i]) << "seed " << i + 1;
  }
}

// Miniature BENCH_faults-style report over faulted runs: the JSON bytes
// must not depend on the worker-thread count (modulo the recorded jobs
// field, which differs by design).
std::string faulted_report_json() {
  obs::Report::Options options;
  options.experiment = "faults_determinism_probe";
  options.runs = 4;
  options.jobs = bench::jobs();
  obs::Report report(std::move(options));
  report.begin_section("pdd");
  const bench::Series series = bench::average(4, [](std::uint64_t seed) {
    const PddOutcome out = run_pdd_grid(faulted_pdd(seed, nullptr));
    return std::tuple{out.recall, out.latency_s, out.overhead_mb};
  });
  report.point()
      .metric("recall", series.recall, 3)
      .metric("latency_s", series.latency_s, 2)
      .metric("overhead_mb", series.overhead_mb, 2);
  return report.to_json();
}

TEST(TraceDeterminism, FaultedReportJsonBytesIdenticalUnderParallelJobs) {
  ::setenv("PDS_BENCH_JOBS", "1", 1);
  const std::string serial = faulted_report_json();
  ::setenv("PDS_BENCH_JOBS", "4", 1);
  const std::string parallel = faulted_report_json();
  ::unsetenv("PDS_BENCH_JOBS");
  EXPECT_FALSE(serial.empty());
  const auto strip_jobs = [](std::string s) {
    const std::size_t at = s.find("\"jobs\":");
    EXPECT_NE(at, std::string::npos);
    const std::size_t end = s.find_first_of(",}", at);
    return s.erase(at, end - at);
  };
  EXPECT_EQ(strip_jobs(serial), strip_jobs(parallel));
}

}  // namespace
}  // namespace pds::wl
