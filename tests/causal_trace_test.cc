// Causal span-DAG tests (DESIGN.md §14): the single-hop harness emits a
// hand-computable golden span set, grid experiments must stitch into
// orphan-free DAGs with critical paths ending in a deliver, and the analyzed
// report must be byte-deterministic across RadioConfig::shard_threads and
// PDS_BENCH_JOBS worker counts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/trace.h"
#include "tools/trace_causal.h"
#include "workload/experiment.h"

namespace pds::wl {
namespace {

std::vector<tools::ParsedEvent> parse(const obs::Tracer& tracer) {
  std::stringstream ss;
  tracer.write_ndjson(ss);
  std::size_t bad_line = 0;
  auto events = tools::read_trace(ss, bad_line);
  EXPECT_EQ(bad_line, 0u);
  return events;
}

const tools::ParsedEvent* find_causal(
    const std::vector<tools::ParsedEvent>& events, const std::string& ev) {
  for (const tools::ParsedEvent& e : events) {
    if (e.sub == "causal" && e.ev == ev) return &e;
  }
  return nullptr;
}

// NodeContext::new_span packing: (node+1)<<40 | per-node sequence.
constexpr std::uint64_t span_id(std::uint32_t node, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(node) + 1) << 40 | seq;
}

// -- Golden single-hop DAG ---------------------------------------------------
// One sender (node 1), one message, clean channel: the full span set is
// root -> tx at the sender, recv -> deliver at the receiver (node 0), with
// exactly one xmit frame attributed to the tx span.

TEST(CausalTrace, SingleHopGoldenSpans) {
  obs::Tracer tracer;
  SingleHopParams p;
  p.senders = 1;
  p.messages_per_sender = 1;
  p.mode = TransportMode::kLeakyBucket;
  p.tracer = &tracer;
  const SingleHopOutcome out = run_single_hop(p);
  EXPECT_EQ(out.reception, 1.0);

  const auto events = parse(tracer);
  const tools::ParsedEvent* root = find_causal(events, "root");
  const tools::ParsedEvent* tx = find_causal(events, "tx");
  const tools::ParsedEvent* recv = find_causal(events, "recv");
  const tools::ParsedEvent* deliver = find_causal(events, "deliver");
  const tools::ParsedEvent* xmit = find_causal(events, "xmit");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(tx, nullptr);
  ASSERT_NE(recv, nullptr);
  ASSERT_NE(deliver, nullptr);
  ASSERT_NE(xmit, nullptr);

  // Sender node 1: root is its first span, tx its second.
  EXPECT_EQ(root->node, 1u);
  EXPECT_EQ(tools::arg_u64(*root, "span"), span_id(1, 1));
  EXPECT_EQ(tx->node, 1u);
  EXPECT_EQ(tools::arg_u64(*tx, "span"), span_id(1, 2));
  EXPECT_EQ(tools::arg_u64(*tx, "parent"), span_id(1, 1));
  EXPECT_EQ(tools::arg_u64(*tx, "hop"), 0u);

  // Receiver node 0: recv links to the sender's tx span, deliver to recv.
  EXPECT_EQ(recv->node, 0u);
  EXPECT_EQ(tools::arg_u64(*recv, "span"), span_id(0, 1));
  EXPECT_EQ(tools::arg_u64(*recv, "parent"), span_id(1, 2));
  EXPECT_EQ(deliver->node, 0u);
  EXPECT_EQ(tools::arg_u64(*deliver, "span"), span_id(0, 2));
  EXPECT_EQ(tools::arg_u64(*deliver, "parent"), span_id(0, 1));

  // The frame on air is attributed to the tx span, first attempt.
  EXPECT_EQ(xmit->node, 1u);
  EXPECT_EQ(tools::arg_u64(*xmit, "span"), span_id(1, 2));
  EXPECT_EQ(tools::arg_u64(*xmit, "round"), 0u);
  EXPECT_EQ(tools::arg_u64(*xmit, "bytes"), 1500u);

  // Every event carries the same trace id: the sender's first response id.
  const std::uint64_t trace_id = tools::arg_u64(*root, "trace");
  EXPECT_NE(trace_id, 0u);
  for (const tools::ParsedEvent* e : {tx, recv, deliver, xmit}) {
    EXPECT_EQ(tools::arg_u64(*e, "trace"), trace_id);
  }
}

TEST(CausalTrace, SingleHopGoldenCriticalPath) {
  obs::Tracer tracer;
  SingleHopParams p;
  p.senders = 1;
  p.messages_per_sender = 1;
  p.mode = TransportMode::kLeakyBucket;
  p.tracer = &tracer;
  (void)run_single_hop(p);

  const tools::CausalReport report = tools::analyze_causal(parse(tracer));
  EXPECT_EQ(report.dropped_events, 0u);
  EXPECT_EQ(report.total_orphans, 0u);
  ASSERT_EQ(report.traces.size(), 1u);
  ASSERT_EQ(report.traces_with_path, 1u);

  const tools::TraceAnalysis& ta = report.traces[0];
  EXPECT_EQ(ta.kind, "singlehop");
  EXPECT_EQ(ta.spans.size(), 4u);
  EXPECT_EQ(ta.delivers, 1);
  EXPECT_EQ(ta.retx, 0);
  EXPECT_EQ(ta.bytes_on_air, 1500u);
  EXPECT_GT(ta.airtime_us, 0);

  // root -> tx -> recv -> deliver, with exactly one air hop.
  ASSERT_EQ(ta.critical_path.size(), 3u);
  EXPECT_EQ(ta.critical_path[0].from, span_id(1, 1));
  EXPECT_EQ(ta.critical_path[0].to, span_id(1, 2));
  EXPECT_EQ(ta.critical_path[1].from, span_id(1, 2));
  EXPECT_EQ(ta.critical_path[1].to, span_id(0, 1));
  EXPECT_EQ(ta.critical_path[1].cls, "air");
  EXPECT_EQ(ta.critical_path[2].from, span_id(0, 1));
  EXPECT_EQ(ta.critical_path[2].to, span_id(0, 2));
  EXPECT_EQ(ta.critical_path[2].cls, "deliver");
  EXPECT_EQ(ta.cp_air_hops, 1);
  EXPECT_GT(ta.cp_len_us, 0);
}

// -- Orphan freedom on the grid experiments ----------------------------------
// Every span's parent must appear in the same trace: the PDD flood, the
// lingering-query relay chain and the PDR/MDR retrieval paths all stitch
// into complete DAGs, and each completed session has a critical path.

TEST(CausalTrace, PddGridDagIsOrphanFree) {
  obs::Tracer tracer;
  PddGridParams p;
  p.nx = p.ny = 5;
  p.metadata_count = 400;
  p.consumers = 2;
  p.sequential = true;
  p.seed = 7;
  p.tracer = &tracer;
  (void)run_pdd_grid(p);

  const tools::CausalReport report = tools::analyze_causal(parse(tracer));
  EXPECT_EQ(report.dropped_events, 0u);
  EXPECT_EQ(report.total_orphans, 0u);
  EXPECT_EQ(report.traces.size(), 2u);  // one trace per consumer session
  EXPECT_EQ(report.traces_with_path, 2u);
  for (const tools::TraceAnalysis& ta : report.traces) {
    EXPECT_EQ(ta.kind, "pdd-metadata");
    EXPECT_GT(ta.delivers, 0);
    EXPECT_GT(ta.bytes_on_air, 0u);
    EXPECT_FALSE(ta.critical_path.empty());
    // The path must cross the air at least once: consumer and holders are
    // distinct nodes.
    EXPECT_GE(ta.cp_air_hops, 1);
  }
}

TEST(CausalTrace, RetrievalDagIsOrphanFreeForPdrAndMdr) {
  for (const RetrievalMethod method :
       {RetrievalMethod::kPdr, RetrievalMethod::kMdr}) {
    obs::Tracer tracer;
    RetrievalGridParams p;
    p.nx = p.ny = 4;
    p.item_size_bytes = 2u * 1024 * 1024;
    p.method = method;
    p.seed = 3;
    p.tracer = &tracer;
    const RetrievalOutcome out = run_retrieval_grid(p);
    EXPECT_GT(out.recall, 0.99);

    const tools::CausalReport report = tools::analyze_causal(parse(tracer));
    EXPECT_EQ(report.dropped_events, 0u);
    EXPECT_EQ(report.total_orphans, 0u)
        << (method == RetrievalMethod::kPdr ? "PDR" : "MDR");
    ASSERT_EQ(report.traces.size(), 1u);
    EXPECT_EQ(report.traces_with_path, 1u);
    const tools::TraceAnalysis& ta = report.traces[0];
    EXPECT_GT(ta.delivers, 0);
    EXPECT_GT(ta.bytes_on_air, 0u);
    EXPECT_GE(ta.cp_air_hops, 1);
  }
}

// -- Byte determinism of the analyzed report ---------------------------------
// The causal JSON is derived from the NDJSON stream, so any nondeterminism
// in analysis ordering (maps keyed by ids, not pointers) or in the sharded
// radio fan-out would show up here as byte drift.

std::string causal_json(std::uint64_t seed, int shard_threads) {
  obs::Tracer tracer;
  PddGridParams p;
  p.nx = p.ny = 5;
  p.metadata_count = 400;
  p.consumers = 2;
  p.sequential = true;
  p.seed = seed;
  p.tracer = &tracer;
  p.radio.shard_threads = shard_threads;
  p.radio.shard_min_candidates = 0;
  (void)run_pdd_grid(p);
  std::stringstream ss;
  tracer.write_ndjson(ss);
  std::size_t bad_line = 0;
  return tools::causal_report_json(tools::analyze_causal(
      tools::read_trace(ss, bad_line)));
}

TEST(CausalTrace, ReportBytesIdenticalAcrossShardThreadCounts) {
  for (const std::uint64_t seed : {21u, 22u}) {
    const std::string one = causal_json(seed, 1);
    const std::string two = causal_json(seed, 2);
    const std::string eight = causal_json(seed, 8);
    EXPECT_FALSE(one.empty());
    EXPECT_NE(one.find("\"orphans\":0"), std::string::npos);
    EXPECT_EQ(one, two) << "seed " << seed;
    EXPECT_EQ(one, eight) << "seed " << seed;
  }
}

TEST(CausalTrace, ReportBytesIdenticalUnderParallelJobs) {
  ::setenv("PDS_BENCH_JOBS", "1", 1);
  const auto serial = bench::run_indexed(
      4, [](int i) { return causal_json(static_cast<std::uint64_t>(i + 1), 1); });
  ::setenv("PDS_BENCH_JOBS", "4", 1);
  const auto parallel = bench::run_indexed(
      4, [](int i) { return causal_json(static_cast<std::uint64_t>(i + 1), 1); });
  ::unsetenv("PDS_BENCH_JOBS");
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].empty());
    EXPECT_EQ(serial[i], parallel[i]) << "seed " << i + 1;
  }
}

}  // namespace
}  // namespace pds::wl
