// The flight recorder must be a pure observer (DESIGN.md §15): with the
// same seed, (a) attaching a sampler + profiler leaves every experiment
// outcome bit-identical to the unsampled run, (b) the deterministic (sim-
// kind) series projection is byte-identical across RadioConfig::shard_threads
// 1/2/8 and across PDS_BENCH_JOBS worker pools, and (c) the scenario
// collector populates exactly the columns registered in
// tools/telemetry_schema.h with sane (non-negative, cumulative-monotone)
// values.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "parallel_runs.h"
#include "tools/stats_analysis.h"
#include "tools/telemetry_schema.h"
#include "workload/experiment.h"

namespace pds::wl {
namespace {

PddGridParams small_pdd(std::uint64_t seed, obs::TimeSeries* sampler,
                        obs::Profiler* profiler = nullptr) {
  PddGridParams p;
  p.nx = p.ny = 5;
  p.metadata_count = 400;
  p.consumers = 2;
  p.sequential = true;
  p.seed = seed;
  p.sampler = sampler;
  p.profiler = profiler;
  return p;
}

bool same_outcome(const PddOutcome& a, const PddOutcome& b) {
  return a.recall == b.recall && a.latency_s == b.latency_s &&
         a.overhead_mb == b.overhead_mb && a.rounds == b.rounds &&
         a.all_finished == b.all_finished &&
         a.events_executed == b.events_executed &&
         a.per_consumer_recall == b.per_consumer_recall &&
         a.per_consumer_latency_s == b.per_consumer_latency_s;
}

TEST(TimeSeriesDeterminism, SampledPddOutcomeBitIdenticalToUnsampled) {
  const PddOutcome plain = run_pdd_grid(small_pdd(7, nullptr));
  obs::TimeSeries sampler(SimTime::millis(100));
  obs::Profiler profiler;
  const PddOutcome sampled =
      run_pdd_grid(small_pdd(7, &sampler, &profiler));
  EXPECT_TRUE(same_outcome(plain, sampled));
  EXPECT_GT(sampler.row_count(), 0u);
  EXPECT_FALSE(profiler.snapshot().empty());
}

TEST(TimeSeriesDeterminism, SampledPdrOutcomeBitIdenticalToUnsampled) {
  RetrievalGridParams p;
  p.nx = p.ny = 4;
  p.item_size_bytes = 2u * 1024 * 1024;
  p.seed = 3;
  const RetrievalOutcome plain = run_retrieval_grid(p);
  obs::TimeSeries sampler(SimTime::millis(100));
  p.sampler = &sampler;
  const RetrievalOutcome sampled = run_retrieval_grid(p);
  EXPECT_EQ(plain.recall, sampled.recall);
  EXPECT_EQ(plain.latency_s, sampled.latency_s);
  EXPECT_EQ(plain.overhead_mb, sampled.overhead_mb);
  EXPECT_EQ(plain.events_executed, sampled.events_executed);
  EXPECT_EQ(plain.per_consumer_chunk_arrival_s,
            sampled.per_consumer_chunk_arrival_s);
  EXPECT_GT(sampler.row_count(), 0u);
}

// -- Shard threads -----------------------------------------------------------
// The sharded radio fan-out (RadioConfig::shard_threads) must not move the
// deterministic series projection: the collector reads merged state only
// after the shard barrier, so any thread count samples identical values.

std::string sharded_series(std::uint64_t seed, int threads) {
  obs::TimeSeries sampler(SimTime::millis(100));
  PddGridParams p = small_pdd(seed, &sampler);
  p.radio.shard_threads = threads;
  p.radio.shard_min_candidates = 0;
  (void)run_pdd_grid(p);
  EXPECT_GT(sampler.row_count(), 0u);
  return sampler.ndjson(/*include_wall=*/false);
}

TEST(TimeSeriesDeterminism, SeriesBytesIdenticalAcrossShardThreadCounts) {
  for (const std::uint64_t seed : {21u, 22u}) {
    const std::string one = sharded_series(seed, 1);
    const std::string two = sharded_series(seed, 2);
    const std::string eight = sharded_series(seed, 8);
    EXPECT_EQ(one, two) << "seed " << seed;
    EXPECT_EQ(one, eight) << "seed " << seed;
  }
}

// -- Worker pools ------------------------------------------------------------
// Each bench::run_indexed worker owns its own Simulator and sampler; the
// sim-kind projection must not depend on which thread ran the seed.

TEST(TimeSeriesDeterminism, SeriesBytesIdenticalUnderParallelJobs) {
  const auto capture_all = [](int jobs) {
    ::setenv("PDS_BENCH_JOBS", jobs == 1 ? "1" : "4", 1);
    std::vector<std::unique_ptr<obs::TimeSeries>> samplers;
    for (int i = 0; i < 4; ++i) {
      samplers.push_back(
          std::make_unique<obs::TimeSeries>(SimTime::millis(100)));
    }
    const auto series = bench::run_indexed(4, [&](int i) {
      (void)run_pdd_grid(
          small_pdd(static_cast<std::uint64_t>(i + 1),
                    samplers[static_cast<std::size_t>(i)].get()));
      return samplers[static_cast<std::size_t>(i)]->ndjson(
          /*include_wall=*/false);
    });
    ::unsetenv("PDS_BENCH_JOBS");
    return series;
  };
  const auto serial = capture_all(1);
  const auto parallel = capture_all(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].empty());
    EXPECT_EQ(serial[i], parallel[i]) << "seed " << i + 1;
  }
}

// -- Collector contents ------------------------------------------------------

TEST(TimeSeriesDeterminism, CollectorColumnsMatchSchemaCatalog) {
  obs::TimeSeries sampler(SimTime::millis(100));
  (void)run_pdd_grid(small_pdd(5, &sampler));
  std::string error;
  const auto parsed = tools::parse_timeseries(sampler.ndjson(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->columns.size(), tools::kSeriesCatalog.size());
  for (const tools::SeriesColumn& col : parsed->columns) {
    bool registered = false;
    for (const tools::SeriesSchema& s : tools::kSeriesCatalog) {
      if (col.name == s.name) {
        EXPECT_EQ(col.kind, s.kind) << col.name;
        registered = true;
        break;
      }
    }
    EXPECT_TRUE(registered) << "unregistered column " << col.name;
  }
}

TEST(TimeSeriesDeterminism, CumulativeColumnsAreMonotoneAndValuesSane) {
  obs::TimeSeries sampler(SimTime::millis(100));
  (void)run_pdd_grid(small_pdd(5, &sampler));
  std::string error;
  const auto parsed = tools::parse_timeseries(sampler.ndjson(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_FALSE(parsed->rows.empty());
  for (const char* name : {"sim.events", "radio.air_us", "radio.bytes"}) {
    const int col = tools::series_column(*parsed, name);
    ASSERT_GE(col, 0) << name;
    double prev = 0.0;
    for (const tools::SeriesRow& row : parsed->rows) {
      const double v = row.v[static_cast<std::size_t>(col)];
      EXPECT_GE(v, prev) << name << " regressed at t=" << row.t_us;
      prev = v;
    }
    EXPECT_GT(prev, 0.0) << name << " never moved";
  }
  // Every value in every row is finite and non-negative (gauges can touch
  // zero but nothing in the collector can go negative).
  for (const tools::SeriesRow& row : parsed->rows) {
    for (const double v : row.v) {
      EXPECT_GE(v, 0.0);
    }
  }
  // Channel utilization derived from radio.air_us stays within the node
  // count (25 nodes on the 5x5 probe grid).
  for (const double u : tools::channel_utilization(*parsed)) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 25.0);
  }
}

// A StatsCapture (bench_common.h) snapshot parses back through the same
// analysis path the benches and `pdscli stats` use.
TEST(TimeSeriesDeterminism, StatsCaptureRoundTripsThroughAnalysis) {
  bench::StatsCapture capture(SimTime::millis(100));
  {
    PddGridParams p = small_pdd(9, capture.sampler());
    p.profiler = capture.profiler();
    (void)run_pdd_grid(p);
  }
  const tools::ParsedSeries parsed = capture.analyze();
  EXPECT_FALSE(parsed.rows.empty());
  EXPECT_FALSE(parsed.profile.empty());
  const auto summaries = tools::summarize_series(parsed);
  ASSERT_EQ(summaries.size(), parsed.columns.size());
  for (const tools::SeriesSummary& s : summaries) {
    EXPECT_GE(s.peak, s.p99) << s.name;
    EXPECT_GE(s.p99, s.p50) << s.name;
  }
}

}  // namespace
}  // namespace pds::wl
