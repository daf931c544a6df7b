// Outcome pins: exact results of three small multi-hop scenarios.
//
// Performance work on the store, the LQT, the transport or the scheduler must
// leave every simulated outcome bit-identical. The other tier-1 tests check
// properties (recall floors, determinism across threads, traced equals
// untraced); none of them would notice a change that moved an event, a
// response or a byte while keeping those properties. These pins do: each
// scenario records its event count, overhead, and per-consumer recall,
// latency and round timeline, and compares them with values computed on the
// commit that introduced this file.
//
// The values hold for libstdc++ only. Which entries a response carries, and
// in what order, still follows std::unordered_map iteration order (ROADMAP.md,
// "Canonical order"); a different standard library, or the change that gives
// those walks a canonical order, moves them on purpose. Regenerate them then:
// a failing pin prints the whole new digest.
#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <string>

#include "workload/experiment.h"

namespace pds::wl {
namespace {

void append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

// Every pinned field, doubles at round-trip precision.
std::string digest(const PddOutcome& o) {
  std::string s;
  append(s, "events %llu overhead_mb %.17g finished %d\n",
         static_cast<unsigned long long>(o.events_executed), o.overhead_mb,
         o.all_finished ? 1 : 0);
  for (std::size_t i = 0; i < o.per_consumer_recall.size(); ++i) {
    append(s, "consumer %zu recall %.17g latency_s %.17g\n", i,
           o.per_consumer_recall[i], o.per_consumer_latency_s[i]);
    for (const PddRoundRecord& r : o.per_consumer_rounds[i]) {
      append(s, " round %d %.17g %.17g new %zu cum %zu responses %zu\n",
             r.round, r.start_s, r.end_s, r.new_keys, r.cumulative,
             r.responses);
    }
  }
  return s;
}

std::string digest(const RetrievalOutcome& o) {
  std::string s;
  append(s, "events %llu overhead_mb %.17g complete %d\n",
         static_cast<unsigned long long>(o.events_executed), o.overhead_mb,
         o.all_complete ? 1 : 0);
  for (std::size_t i = 0; i < o.per_consumer_recall.size(); ++i) {
    const std::vector<double>& arrivals = o.per_consumer_chunk_arrival_s[i];
    append(s, "consumer %zu recall %.17g latency_s %.17g chunks %zu last %.17g\n",
           i, o.per_consumer_recall[i], o.per_consumer_latency_s[i],
           arrivals.size(), arrivals.empty() ? 0.0 : arrivals.back());
  }
  return s;
}

// Simultaneous consumers on the default contended radio: the write-heavy
// regime, where every relay and bystander caches the response streams of
// four overlapping lingering-query trees.
TEST(OutcomePin, SimultaneousPddOnContendedGrid) {
  PddGridParams p;
  p.nx = 6;
  p.ny = 6;
  p.metadata_count = 2000;
  p.consumers = 4;
  p.seed = 7;
  EXPECT_EQ(digest(run_pdd_grid(p)), R"(events 68451 overhead_mb 4.862476 finished 1
consumer 0 recall 1 latency_s 6.5055500000000004
 round 1 0 5.25 new 1693 cum 1693 responses 114
 round 2 5.25 6.5 new 304 cum 1997 responses 45
 round 3 6.5 7.75 new 3 cum 2000 responses 2
 round 4 7.75 8.75 new 0 cum 2000 responses 0
consumer 1 recall 1 latency_s 4.7533180000000002
 round 1 0 4.75 new 1997 cum 1997 responses 168
 round 2 4.75 6 new 3 cum 2000 responses 2
 round 3 6 7 new 0 cum 2000 responses 0
consumer 2 recall 1 latency_s 7.7623069999999998
 round 1 0 6.5 new 1785 cum 1785 responses 155
 round 2 6.5 7.75 new 214 cum 1999 responses 26
 round 3 7.75 9 new 1 cum 2000 responses 2
 round 4 9 10 new 0 cum 2000 responses 0
consumer 3 recall 1 latency_s 4.0878509999999997
 round 1 0 5.25 new 2000 cum 2000 responses 209
 round 2 5.25 6.25 new 0 cum 2000 responses 0
)");
}

// Sequential consumers on the full v2 wire (delta Blooms, compressed
// entries, adaptive round spacing, serve cooldown): later consumers are
// answered from caches.
TEST(OutcomePin, SequentialPddOnV2Wire) {
  PddGridParams p;
  p.nx = 6;
  p.ny = 6;
  p.metadata_count = 1500;
  p.consumers = 3;
  p.sequential = true;
  p.seed = 11;
  p.pds.wire.metadata_entry_bytes = 0;
  p.pds.wire.delta_bloom = true;
  p.pds.wire.compress_entries = true;
  p.pds.wire.chunk_bitmap = true;
  p.pds.adaptive_round_spacing = true;
  p.pds.entry_serve_cooldown = SimTime::seconds(3.0);
  EXPECT_EQ(digest(run_pdd_grid(p)), R"(events 15624 overhead_mb 1.5277970000000001 finished 1
consumer 0 recall 1 latency_s 0.85654600000000003
 round 1 0 2 new 1500 cum 1500 responses 46
 round 2 2.25 3.25 new 0 cum 1500 responses 0
 round 3 3.25 4.25 new 0 cum 1500 responses 0
consumer 1 recall 1 latency_s 3.7533829999999999
 round 1 4.25 6 new 883 cum 1369 responses 44
 round 2 6.25 7.75 new 130 cum 1499 responses 18
 round 3 8 9.25 new 1 cum 1500 responses 1
 round 4 9.75 10.75 new 0 cum 1500 responses 0
 round 5 10.75 11.75 new 0 cum 1500 responses 0
consumer 2 recall 1 latency_s 0.026239999999999999
 round 1 11.75 13 new 38 cum 1500 responses 1
 round 2 13.25 14.25 new 0 cum 1500 responses 0
 round 3 14.25 15.25 new 0 cum 1500 responses 0
)");
}

// Sequential PDR retrieval of one chunked item with two copies.
TEST(OutcomePin, SequentialPdrRetrieval) {
  RetrievalGridParams p;
  p.nx = 4;
  p.ny = 4;
  p.item_size_bytes = 2u * 1024 * 1024;
  p.redundancy = 2;
  p.consumers = 2;
  p.sequential = true;
  p.seed = 3;
  EXPECT_EQ(digest(run_retrieval_grid(p)), R"(events 37074 overhead_mb 5.8777600000000003 complete 1
consumer 0 recall 1 latency_s 3.9002050000000001 chunks 8 last 3.9002050000000001
consumer 1 recall 1 latency_s 4.4897530000000003 chunks 8 last 8.389958
)");
}

}  // namespace
}  // namespace pds::wl
