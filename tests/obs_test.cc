// Unit tests for src/obs: the sim-time tracer (event retention, NDJSON/Chrome
// rendering, macro no-eval guarantees) with the tools/trace_reader.h parser
// and check_trace validator, and the flight recorder (obs/timeseries.h
// sampler, obs/profiler.h scoped profiler) with the tools/stats_analysis.h
// parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "tools/stats_analysis.h"
#include "tools/trace_reader.h"

namespace pds::obs {
namespace {

TEST(Tracer, KeepsEveryEventUntilCleared) {
  // An attached tracer has no capacity: nothing is evicted, so a capture
  // never carries a trace/drops trailer.
  Tracer tracer;
  constexpr std::int64_t kEvents = 100'000;
  for (std::int64_t i = 0; i < kEvents; ++i) {
    tracer.instant(SimTime::micros(i), NodeId(0), "s", "e");
  }
  ASSERT_EQ(tracer.events().size(), static_cast<std::size_t>(kEvents));
  EXPECT_EQ(tracer.events().front().t_us, 0);
  EXPECT_EQ(tracer.events().back().t_us, kEvents - 1);
  EXPECT_EQ(tracer.ndjson().find("\"drops\""), std::string::npos);
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, NdjsonIsExactAndTyped) {
  Tracer tracer;
  tracer.begin(SimTime::micros(1500), NodeId(7), "pdd", "round",
               {{"round", 1}, {"ratio", 0.5}, {"why", "test"}});
  EXPECT_EQ(tracer.ndjson(),
            "{\"t\":1500,\"node\":7,\"ph\":\"B\",\"sub\":\"pdd\","
            "\"ev\":\"round\",\"args\":{\"round\":1,\"ratio\":0.5,"
            "\"why\":\"test\"}}\n");
}

TEST(Tracer, ChromeTraceRendersPhasesAndTids) {
  Tracer tracer;
  tracer.begin(SimTime::micros(10), NodeId(3), "pdd", "round", {{"round", 1}});
  tracer.end(SimTime::micros(20), NodeId(3), "pdd", "round");
  tracer.instant(SimTime::micros(15), NodeId(4), "radio", "tx");
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"B\",\"ts\":10,\"pid\":0,\"tid\":3"),
            std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"E\",\"ts\":20"), std::string::npos);
  // Instants carry a scope field for chrome://tracing.
  EXPECT_NE(out.find("\"s\":\"t\""), std::string::npos);
}

TEST(Tracer, MacroSkipsArgEvaluationWhenDetached) {
  int evaluations = 0;
  const auto expensive = [&evaluations] {
    ++evaluations;
    return std::int64_t{42};
  };
  Tracer* detached = nullptr;
  PDS_TRACE_INSTANT(detached, SimTime::zero(), NodeId(0), "s", "e",
                    {"v", expensive()});
  EXPECT_EQ(evaluations, 0);

  Tracer tracer;
  PDS_TRACE_INSTANT(&tracer, SimTime::zero(), NodeId(0), "s", "e",
                    {"v", expensive()});
  EXPECT_EQ(evaluations, 1);
  ASSERT_EQ(tracer.events().size(), 1u);
}

TEST(Tracer, StringArgsAreEscaped) {
  Tracer tracer;
  tracer.instant(SimTime::zero(), NodeId(0), "s", "e",
                 {{"text", "a\"b\\c\nd"}});
  EXPECT_NE(tracer.ndjson().find("\"text\":\"a\\\"b\\\\c\\nd\""),
            std::string::npos);
}

TEST(TraceReader, ParsesWriterOutputExactly) {
  Tracer tracer;
  tracer.instant(SimTime::micros(250), NodeId(9), "transport", "retransmit",
                 {{"round", 2}, {"awaiting", std::uint64_t{3}}});
  std::istringstream in(tracer.ndjson());
  std::size_t bad_line = 0;
  const auto events = tools::read_trace(in, bad_line);
  EXPECT_EQ(bad_line, 0u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].t_us, 250);
  EXPECT_EQ(events[0].node, 9u);
  EXPECT_EQ(events[0].ph, 'i');
  EXPECT_EQ(events[0].sub, "transport");
  EXPECT_EQ(events[0].ev, "retransmit");
  EXPECT_DOUBLE_EQ(events[0].num("round"), 2.0);
  EXPECT_DOUBLE_EQ(events[0].num("awaiting"), 3.0);
  EXPECT_EQ(events[0].arg("missing"), nullptr);
}

TEST(TraceReader, RejectsMalformedLines) {
  const std::string good =
      R"({"t":1,"node":0,"ph":"i","sub":"s","ev":"e","args":{}})";
  for (const std::string& bad : {
           std::string("not json"),
           // A bare word where the timestamp's number belongs.
           std::string(
               R"({"t":abc,"node":0,"ph":"i","sub":"s","ev":"e","args":{}})"),
           // Bytes after the closing brace.
           good + "x",
       }) {
    std::istringstream in(good + "\n" + bad + "\n");
    std::size_t bad_line = 0;
    const auto events = tools::read_trace(in, bad_line);
    EXPECT_EQ(events.size(), 1u) << bad;
    EXPECT_EQ(bad_line, 2u) << bad;
  }
}

// One line per defect, each after a clean line: check_trace flags exactly
// the defective line, with the message `pdscli trace check` prints.
TEST(TraceCheck, FlagsEachSeededDefect) {
  struct Case {
    const char* line;
    const char* want;
  };
  const Case cases[] = {
      {R"({"t":5,"node":0,"ph":"i","sub":"pdd","ev":"nope","args":{}})",
       "unknown event pdd/nope"},
      {R"({"t":5,"node":0,"ph":"B","sub":"radio","ev":"defer",)"
       R"("args":{"wait_us":3}})",
       "phase 'B' not allowed for radio/defer"},
      {R"({"t":5,"node":0,"ph":"i","sub":"radio","ev":"tx",)"
       R"("args":{"bytes":9}})",
       "radio/tx missing required arg \"control\""},
      {R"({"t":1,"node":0,"ph":"i","sub":"radio","ev":"defer",)"
       R"("args":{"wait_us":3}})",
       "timestamp decreased (events must be emitted in simulation order)"},
      {R"({"t":5,"node":0,"ph":"E","sub":"pdd","ev":"round",)"
       R"("args":{"round":1,"new":0,"total":0,"responses":0}})",
       "span end without matching begin for pdd/round"},
  };
  const std::string clean =
      R"({"t":2,"node":0,"ph":"i","sub":"radio","ev":"defer",)"
      R"("args":{"wait_us":3}})";
  for (const Case& c : cases) {
    std::istringstream in(clean + "\n" + c.line + "\n");
    std::size_t bad_line = 0;
    const auto events = tools::read_trace(in, bad_line);
    ASSERT_EQ(bad_line, 0u) << c.line;
    const tools::TraceCheck check = tools::check_trace(events);
    ASSERT_EQ(check.violations.size(), 1u) << c.line;
    EXPECT_EQ(check.violations[0].line, 2u) << c.line;
    EXPECT_EQ(check.violations[0].what, c.want);
  }
}

TEST(TimeSeries, CommitsOneRowPerBoundaryAndSkipsStale) {
  TimeSeries ts(SimTime::millis(10));
  const int col = ts.column("test.value");
  int fired = 0;
  ts.set_collector([&](SimTime now, TimeSeries& out) {
    ++fired;
    out.set(col, static_cast<double>(now.as_micros()));
  });
  ts.advance_to(SimTime::millis(5));  // before the first boundary
  EXPECT_EQ(ts.row_count(), 0u);
  ts.advance_to(SimTime::millis(35));  // crosses 10, 20, 30 ms
  EXPECT_EQ(ts.row_count(), 3u);
  EXPECT_EQ(fired, 3);
  ts.advance_to(SimTime::millis(20));  // non-monotone: no new boundary
  EXPECT_EQ(ts.row_count(), 3u);
  EXPECT_EQ(ts.row_time(0), SimTime::millis(10));
  EXPECT_EQ(ts.row_time(2), SimTime::millis(30));
  // The collector sees the boundary time, not the caller's clock.
  EXPECT_DOUBLE_EQ(ts.value(1, col), 20'000.0);
}

TEST(TimeSeries, ColumnRegistrationIsIdempotentAndOrdered) {
  TimeSeries ts(SimTime::seconds(1.0));
  const int a = ts.column("a", TimeSeries::Kind::kSim);
  const int b = ts.column("b", TimeSeries::Kind::kWall);
  EXPECT_EQ(ts.column("a"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(ts.column_count(), 2u);
  EXPECT_STREQ(ts.column_name(a), "a");
  EXPECT_EQ(ts.column_kind(b), TimeSeries::Kind::kWall);
}

TEST(TimeSeries, NdjsonDropsWallColumnsFromDeterministicProjection) {
  TimeSeries ts(SimTime::seconds(1.0));
  const int sim_col = ts.column("sim.col", TimeSeries::Kind::kSim);
  const int wall_col = ts.column("wall.col", TimeSeries::Kind::kWall);
  ts.set_collector([&](SimTime, TimeSeries& out) {
    out.set(sim_col, 7.0);
    out.set(wall_col, 9.0);
  });
  ts.advance_to(SimTime::seconds(2.0));

  std::string error;
  const auto full = tools::parse_timeseries(ts.ndjson(true), &error);
  ASSERT_TRUE(full.has_value()) << error;
  ASSERT_EQ(full->columns.size(), 2u);
  EXPECT_EQ(full->columns[1].kind, "wall");
  ASSERT_EQ(full->rows.size(), 2u);
  EXPECT_DOUBLE_EQ(full->rows[0].v[1], 9.0);

  const auto sim_only = tools::parse_timeseries(ts.ndjson(false), &error);
  ASSERT_TRUE(sim_only.has_value()) << error;
  ASSERT_EQ(sim_only->columns.size(), 1u);
  EXPECT_EQ(sim_only->columns[0].name, "sim.col");
  ASSERT_EQ(sim_only->rows.size(), 2u);
  ASSERT_EQ(sim_only->rows[0].v.size(), 1u);
  EXPECT_DOUBLE_EQ(sim_only->rows[0].v[0], 7.0);
}

TEST(TimeSeries, ResetKeepsColumnsAndCollector) {
  TimeSeries ts(SimTime::seconds(1.0));
  const int col = ts.column("test.value");
  ts.set_collector(
      [&](SimTime, TimeSeries& out) { out.set(col, 1.0); });
  ts.advance_to(SimTime::seconds(3.0));
  EXPECT_EQ(ts.row_count(), 3u);
  ts.reset();
  EXPECT_EQ(ts.row_count(), 0u);
  EXPECT_EQ(ts.column_count(), 1u);
  ts.advance_to(SimTime::seconds(1.0));
  ASSERT_EQ(ts.row_count(), 1u);  // collector survived the reset
  EXPECT_DOUBLE_EQ(ts.value(0, col), 1.0);
}

TEST(Profiler, NestedScopesBuildPathsAndCountCalls) {
  Profiler prof;
  for (int i = 0; i < 3; ++i) {
    PDS_PROF_SCOPE(&prof, "sim");
    {
      PDS_PROF_SCOPE(&prof, "radio");
    }
  }
  const auto entries = prof.snapshot();
  ASSERT_EQ(entries.size(), 2u);
  // Sorted by path: "sim" then "sim/radio".
  EXPECT_EQ(entries[0].path, "sim");
  EXPECT_EQ(entries[0].depth, 0);
  EXPECT_EQ(entries[0].calls, 3u);
  EXPECT_EQ(entries[1].path, "sim/radio");
  EXPECT_EQ(entries[1].depth, 1);
  EXPECT_EQ(entries[1].calls, 3u);
  EXPECT_GE(entries[0].ns, entries[1].ns);
}

TEST(Profiler, DetachedScopesAreInert) {
  Profiler prof;
  Profiler* detached = nullptr;
  {
    PDS_PROF_SCOPE(detached, "sim");  // must not crash
    PDS_PROF_SCOPE(detached, "radio");
  }
  // A detached scope leaves no trace in the thread's scope cursor: the next
  // attached scope is a root, not a child of the detached ones.
  {
    PDS_PROF_SCOPE(&prof, "pdd");
  }
  const auto entries = prof.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path, "pdd");
  EXPECT_EQ(entries[0].calls, 1u);
}

TEST(Profiler, MergeSnapshotsFoldsByPath) {
  Profiler a;
  Profiler b;
  {
    PDS_PROF_SCOPE(&a, "sim");
  }
  {
    PDS_PROF_SCOPE(&b, "sim");
    PDS_PROF_SCOPE(&b, "radio");
  }
  const auto merged = Profiler::merge_snapshots({a.snapshot(), b.snapshot()});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].path, "sim");
  EXPECT_EQ(merged[0].calls, 2u);
  EXPECT_EQ(merged[1].path, "sim/radio");
  EXPECT_EQ(merged[1].calls, 1u);
}

TEST(Profiler, ConcurrentScopesOnSharedProfilerStayConsistent) {
  Profiler prof;
  std::vector<std::thread> pool;
  for (int w = 0; w < 4; ++w) {
    pool.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        PDS_PROF_SCOPE(&prof, "sim");
        PDS_PROF_SCOPE(&prof, "transport");
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const auto entries = prof.snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].path, "sim");
  EXPECT_EQ(entries[0].calls, 4000u);
  EXPECT_EQ(entries[1].path, "sim/transport");
  EXPECT_EQ(entries[1].calls, 4000u);
}

// Run under TSan: threads enter existing scopes (the lock-free hit path)
// while others create new ones under the same parents, so node creation
// races both lookups and the accumulation of earlier scopes.
TEST(Profiler, ConcurrentNewAndExistingScopesAreRaceFree) {
  constexpr int kThreads = 4;
  constexpr int kFreshPerThread = 32;
  std::vector<std::string> names;
  for (int i = 0; i < kThreads * kFreshPerThread; ++i) {
    names.push_back("fresh" + std::to_string(i));
  }
  Profiler prof;
  std::vector<std::thread> pool;
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      for (int i = 0; i < 400; ++i) {
        const Profiler::Scope sim(&prof, "sim");
        {
          const Profiler::Scope known(&prof, "radio");
        }
        const auto& name = names[static_cast<std::size_t>(
            w * kFreshPerThread + i % kFreshPerThread)];
        const Profiler::Scope fresh(&prof, name.c_str());
        const Profiler::Scope nested(&prof, "radio");
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const auto entries = prof.snapshot();
  // sim, sim/radio, and per fresh name sim/<fresh> and sim/<fresh>/radio.
  ASSERT_EQ(entries.size(), 2u + 2u * names.size());
  std::uint64_t fresh_calls = 0;
  std::uint64_t nested_calls = 0;
  for (const Profiler::Entry& e : entries) {
    if (e.path == "sim" || e.path == "sim/radio") {
      EXPECT_EQ(e.calls, std::uint64_t{kThreads} * 400) << e.path;
    } else if (e.depth == 1) {
      fresh_calls += e.calls;
    } else {
      EXPECT_EQ(e.depth, 2) << e.path;
      nested_calls += e.calls;
    }
  }
  EXPECT_EQ(fresh_calls, std::uint64_t{kThreads} * 400);
  EXPECT_EQ(nested_calls, std::uint64_t{kThreads} * 400);
}

TEST(Profiler, ProfileJsonLineRoundTripsThroughStatsAnalysis) {
  Profiler prof;
  {
    PDS_PROF_SCOPE(&prof, "sim");
    PDS_PROF_SCOPE(&prof, "pdd");
  }
  // A profile line is valid only appended to a series body.
  TimeSeries ts(SimTime::seconds(1.0));
  ts.column("test.value");
  ts.advance_to(SimTime::seconds(1.0));
  const std::string text =
      ts.ndjson() + Profiler::profile_json_line(prof.snapshot());
  std::string error;
  const auto parsed = tools::parse_timeseries(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->profile.size(), 2u);
  EXPECT_EQ(parsed->profile[0].path, "sim");
  EXPECT_EQ(parsed->profile[0].depth, 0);
  EXPECT_EQ(parsed->profile[0].calls, 1u);
  EXPECT_EQ(parsed->profile[1].path, "sim/pdd");
  EXPECT_EQ(parsed->profile[1].depth, 1);
  EXPECT_GE(parsed->profile[0].ns, parsed->profile[1].ns);
}

}  // namespace
}  // namespace pds::obs
