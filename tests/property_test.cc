// Parameterized property sweeps over whole-system runs: metric sanity,
// determinism, the dominance relations the design promises (multi-round
// ≥ single round; ack ≥ no-ack; mixedcast/Bloom reduce overhead), and the
// protocol invariants that must survive arbitrary fault schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "net/bloom_delta.h"
#include "obs/trace.h"
#include "util/bloom_filter.h"
#include "workload/experiment.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace pds::wl {
namespace {

// -- PDD invariants over (grid size, metadata amount, redundancy) ------------

using PddSweepParam = std::tuple<std::size_t, std::size_t, int>;

class PddSweep : public ::testing::TestWithParam<PddSweepParam> {};

TEST_P(PddSweep, MetricsAreSane) {
  const auto [grid, entries, redundancy] = GetParam();
  PddGridParams p;
  p.nx = p.ny = grid;
  p.metadata_count = entries;
  p.redundancy = redundancy;
  p.seed = 1000 + grid * 10 + static_cast<std::size_t>(redundancy);
  const PddOutcome out = run_pdd_grid(p);

  EXPECT_TRUE(out.all_finished);
  EXPECT_GE(out.recall, 0.0);
  EXPECT_LE(out.recall, 1.0);
  EXPECT_GE(out.recall, 0.95) << "multi-round PDD should approach full recall";
  EXPECT_GT(out.overhead_mb, 0.0);
  EXPECT_GE(out.latency_s, 0.0);
  EXPECT_GE(out.rounds, 1.0);
  // Overhead is at least the payload the consumer received once.
  const double payload_mb = static_cast<double>(entries) * 30.0 / 1e6;
  EXPECT_GT(out.overhead_mb, payload_mb * out.recall);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, PddSweep,
    ::testing::Values(PddSweepParam{5, 500, 1}, PddSweepParam{5, 500, 3},
                      PddSweepParam{7, 1500, 1}, PddSweepParam{7, 1500, 2},
                      PddSweepParam{9, 2500, 1}));

// -- PDD dominance relations ---------------------------------------------------

class PddDominance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PddDominance, MultiRoundNeverWorseThanSingle) {
  PddGridParams p;
  p.nx = p.ny = 7;
  p.metadata_count = 1500;
  p.seed = GetParam();
  p.multi_round = false;
  const PddOutcome single = run_pdd_grid(p);
  p.multi_round = true;
  const PddOutcome multi = run_pdd_grid(p);
  EXPECT_GE(multi.recall + 1e-9, single.recall);
}

TEST_P(PddDominance, AckNeverWorseThanNoAckSingleRound) {
  PddGridParams p;
  p.nx = p.ny = 7;
  p.metadata_count = 1500;
  p.multi_round = false;
  p.seed = GetParam();
  p.ack = false;
  const PddOutcome off = run_pdd_grid(p);
  p.ack = true;
  const PddOutcome on = run_pdd_grid(p);
  EXPECT_GE(on.recall + 0.02, off.recall);  // small tolerance for noise
}

INSTANTIATE_TEST_SUITE_P(Seeds, PddDominance, ::testing::Values(21, 22, 23));

// -- Determinism -----------------------------------------------------------

TEST(Determinism, IdenticalSeedsGiveIdenticalRuns) {
  PddGridParams p;
  p.nx = p.ny = 7;
  p.metadata_count = 800;
  p.seed = 99;
  const PddOutcome a = run_pdd_grid(p);
  const PddOutcome b = run_pdd_grid(p);
  EXPECT_DOUBLE_EQ(a.recall, b.recall);
  EXPECT_DOUBLE_EQ(a.latency_s, b.latency_s);
  EXPECT_DOUBLE_EQ(a.overhead_mb, b.overhead_mb);
  EXPECT_DOUBLE_EQ(a.rounds, b.rounds);
}

TEST(Determinism, RetrievalRunsAreReproducible) {
  RetrievalGridParams p;
  p.nx = p.ny = 5;
  p.item_size_bytes = 2u * 1024 * 1024;
  p.seed = 77;
  const RetrievalOutcome a = run_retrieval_grid(p);
  const RetrievalOutcome b = run_retrieval_grid(p);
  EXPECT_DOUBLE_EQ(a.latency_s, b.latency_s);
  EXPECT_DOUBLE_EQ(a.overhead_mb, b.overhead_mb);
}

TEST(Determinism, DifferentSeedsDiffer) {
  PddGridParams p;
  p.nx = p.ny = 5;
  p.metadata_count = 500;
  p.seed = 1;
  const PddOutcome a = run_pdd_grid(p);
  p.seed = 2;
  const PddOutcome b = run_pdd_grid(p);
  // Placement and channel draws differ; exact metric equality would be
  // astonishing.
  EXPECT_NE(a.overhead_mb, b.overhead_mb);
}

// -- Retrieval invariants over (size, redundancy, method) -----------------

using RetrSweepParam = std::tuple<std::size_t, int, RetrievalMethod>;

class RetrievalSweep : public ::testing::TestWithParam<RetrSweepParam> {};

TEST_P(RetrievalSweep, CompletesWithExactChunkCount) {
  const auto [mib, redundancy, method] = GetParam();
  RetrievalGridParams p;
  p.nx = p.ny = 7;
  p.item_size_bytes = mib * 1024 * 1024;
  p.redundancy = redundancy;
  p.method = method;
  p.seed = 500 + mib + static_cast<std::size_t>(redundancy);
  const RetrievalOutcome out = run_retrieval_grid(p);
  EXPECT_TRUE(out.all_complete);
  EXPECT_DOUBLE_EQ(out.recall, 1.0);
  EXPECT_GT(out.latency_s, 0.0);
  // Overhead at least the item size (it crossed the air at least once).
  EXPECT_GT(out.overhead_mb,
            static_cast<double>(p.item_size_bytes) / 1e6 * 0.9);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndMethods, RetrievalSweep,
    ::testing::Values(RetrSweepParam{1, 1, RetrievalMethod::kPdr},
                      RetrSweepParam{4, 1, RetrievalMethod::kPdr},
                      RetrSweepParam{4, 3, RetrievalMethod::kPdr},
                      RetrSweepParam{1, 1, RetrievalMethod::kMdr},
                      RetrSweepParam{4, 2, RetrievalMethod::kMdr}));

// -- Ablation dominance ---------------------------------------------------------

TEST(Ablations, GapBalancingNeverHurtsCompleteness) {
  RetrievalGridParams p;
  p.nx = p.ny = 7;
  p.item_size_bytes = 4u * 1024 * 1024;
  p.redundancy = 3;
  p.seed = 31;
  p.pds.enable_gap_balancing = false;
  const RetrievalOutcome naive = run_retrieval_grid(p);
  p.pds.enable_gap_balancing = true;
  const RetrievalOutcome balanced = run_retrieval_grid(p);
  EXPECT_TRUE(balanced.all_complete);
  EXPECT_TRUE(naive.all_complete);
}

TEST(Ablations, LingeringQueriesReduceOverheadUnderMultipleRounds) {
  // One-shot (NDN-style) queries are consumed by the first matching
  // response relay, so later entries need fresh rounds; lingering queries
  // let one query drain the whole stream.
  PddGridParams p;
  p.nx = p.ny = 7;
  p.metadata_count = 1500;
  p.seed = 41;
  p.pds.enable_lingering_queries = false;
  const PddOutcome oneshot = run_pdd_grid(p);
  p.pds.enable_lingering_queries = true;
  const PddOutcome lingering = run_pdd_grid(p);
  EXPECT_GE(lingering.recall, 0.99);
  // One-shot needs at least as many rounds to reach its recall.
  EXPECT_GE(oneshot.rounds + 0.001, lingering.rounds);
}

// -- Invariants under random fault schedules (DESIGN.md §11) ----------------
//
// A seeded generator scripts crashes, churn, partitions, burst channels,
// lossy links and buffer storms against a 5×5 grid while one consumer runs a
// full discover-then-retrieve workload. Whatever the schedule does, the
// protocol must keep its books straight:
//  * a node never serves/relays an entry the query's original Bloom filter
//    covers (redundancy detection, §III-B.2/§V.3);
//  * the consumer application never sees the same chunk delivered twice;
//  * once the permanently crashed provider's give-up signals and CDI TTLs
//    have run out, no live node still routes chunk queries through it;
//  * every session terminates and no lingering query outlives its expiry.

constexpr std::size_t kFaultCaseEntries = 120;
constexpr std::size_t kFaultCaseChunks = 8;
constexpr std::size_t kFaultCaseChunkBytes = 64 * 1024;

struct FaultCaseOutcome {
  bool discovery_done = false;
  bool retrieval_done = false;
  std::size_t distinct_received = 0;
  core::RetrievalResult retrieval;
  std::size_t session_chunks = 0;
  std::size_t session_arrivals = 0;
  std::size_t bloom_violations = 0;
  std::size_t routes_via_crashed = 0;
  std::size_t stuck_queries = 0;
  std::vector<std::int64_t> chunk_arrival_trace;  // chunk ids at the consumer
  std::string ndjson;
};

std::int64_t arg_value(const obs::TraceEvent& e, const char* key) {
  for (std::uint8_t i = 0; i < e.arg_count; ++i) {
    const obs::Arg& a = e.args[i];
    if (a.key == nullptr || std::strcmp(a.key, key) != 0) continue;
    if (a.kind == obs::Arg::Kind::kInt) return a.i;
    if (a.kind == obs::Arg::Kind::kUint) return static_cast<std::int64_t>(a.u);
    return 0;
  }
  return -1;
}

// Everything — topology, placement, victims and fault times — derives from
// `seed`, so a rerun with the same seed replays the identical schedule.
FaultCaseOutcome run_random_fault_case(std::uint64_t seed) {
  FaultCaseOutcome out;
  obs::Tracer tracer;

  GridSetup setup;
  setup.nx = setup.ny = 5;
  setup.pds.chunk_size_bytes = kFaultCaseChunkBytes;
  Grid grid = make_grid(setup, seed);
  Scenario& sc = *grid.scenario;
  sc.set_tracer(&tracer);

  Rng rng(seed * 0x9e3779b9u + 17);
  std::vector<NodeId> others;  // everyone but the consumer
  for (NodeId id : grid.ids) {
    if (id != grid.center) others.push_back(id);
  }
  const auto pick_other = [&](std::vector<NodeId>& exclude) {
    for (;;) {
      const NodeId id = others[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(others.size()) - 1))];
      if (std::find(exclude.begin(), exclude.end(), id) == exclude.end()) {
        exclude.push_back(id);
        return id;
      }
    }
  };

  // Redundancy-2 metadata plus one chunked item on two holders; holder h1
  // crashes permanently mid-retrieval, h2 survives untouched.
  std::vector<NodeId> reserved;
  const NodeId h1 = pick_other(reserved);
  const NodeId h2 = pick_other(reserved);
  const auto item = make_chunked_item(
      "clip", kFaultCaseChunks * kFaultCaseChunkBytes, kFaultCaseChunkBytes);
  for (ChunkIndex c = 0; c < kFaultCaseChunks; ++c) {
    const auto chunk = make_chunk(item, c,
                                  kFaultCaseChunks * kFaultCaseChunkBytes,
                                  kFaultCaseChunkBytes);
    sc.node(h1).publish_chunk(item, chunk);
    sc.node(h2).publish_chunk(item, chunk);
  }
  for (std::size_t i = 0; i < kFaultCaseEntries; ++i) {
    core::DataDescriptor d;
    d.set("seq", static_cast<std::int64_t>(i));
    std::vector<NodeId> placed;
    sc.node(pick_other(placed)).publish_metadata(d);
    sc.node(pick_other(placed)).publish_metadata(d);
  }

  // The schedule: one permanent provider crash plus four random faults on
  // nodes that are neither the consumer nor the surviving holder.
  sim::FaultSchedule faults;
  faults.crash(SimTime::seconds(rng.uniform(6.0, 12.0)), h1,
               /*wipe=*/rng.bernoulli(0.5));
  std::vector<NodeId> faulted = reserved;  // h1, h2 are off limits
  for (int f = 0; f < 4; ++f) {
    const NodeId v = pick_other(faulted);
    const SimTime at = SimTime::seconds(rng.uniform(0.3, 10.0));
    const SimTime until = at + SimTime::seconds(rng.uniform(5.0, 15.0));
    switch (rng.uniform_int(0, 5)) {
      case 0:
        faults.churn(at, until, v);
        break;
      case 1:
        faults.crash(at, v, rng.bernoulli(0.5)).restart(until, v);
        break;
      case 2:
        faults.burst(at, until, v);
        break;
      case 3:
        faults.buffer_storm(at, v);
        break;
      case 4: {
        std::vector<NodeId> peer_pick{v};
        const NodeId peer = pick_other(peer_pick);
        faults.link_loss(at, v, peer, rng.uniform(0.3, 0.8))
            .link_restore(until, v, peer);
        break;
      }
      default: {
        std::vector<NodeId> rest;
        for (NodeId id : grid.ids) {
          if (id != v) rest.push_back(id);
        }
        faults.partition(at, until, {v}, rest);
        break;
      }
    }
  }
  sc.install_faults(faults);

  // Bloom invariant probe, sampled while traffic is live: a served key must
  // never be one the query's *original* (immutable) Bloom filter covered —
  // the mutable rewritten copy only grows, so a violation here means some
  // node transmitted an entry its upstream had already declared held.
  for (int p = 1; p <= 90; ++p) {
    sc.sim().schedule_at(SimTime::millis(500 * p), [&sc, &out] {
      const SimTime now = sc.sim().now();
      for (core::PdsNode* n : sc.nodes()) {
        if (n->crashed()) continue;
        for (const net::ContentKind kind :
             {net::ContentKind::kMetadata, net::ContentKind::kItem}) {
          for (core::LingeringQuery* lq : n->lqt().live_queries(kind, now)) {
            lq->served_keys.for_each([&](std::uint64_t key) {
              if (lq->query->exclude.maybe_contains(key)) {
                ++out.bloom_violations;
              }
            });
          }
        }
      }
    });
  }

  core::PdsNode& consumer = grid.center_node();
  core::PdrSession* session = nullptr;
  consumer.discover(
      core::Filter{}, [&](const core::DiscoverySession::Result& r) {
        out.discovery_done = true;
        out.distinct_received = r.distinct_received;
        session = &consumer.retrieve(item, [&](const core::RetrievalResult& rr) {
          out.retrieval_done = true;
          out.retrieval = rr;
        });
      });
  sc.run_until(SimTime::seconds(300));

  if (session != nullptr) {
    out.session_chunks = session->chunks().size();
    out.session_arrivals = session->arrivals().size();
  }
  const SimTime now = sc.sim().now();
  for (core::PdsNode* n : sc.nodes()) {
    if (n->id() == h1 || n->crashed()) continue;
    out.routes_via_crashed += n->cdi_table().routes_via(h1, now);
    n->lqt().sweep(now);
    out.stuck_queries += n->lqt().size();
  }
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.node == grid.center.value() &&
        std::strcmp(e.subsystem, "pdr") == 0 &&
        std::strcmp(e.name, "chunk_arrival") == 0) {
      out.chunk_arrival_trace.push_back(arg_value(e, "chunk"));
    }
  }
  out.ndjson = tracer.ndjson();
  return out;
}

class RandomFaultSchedule : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomFaultSchedule, InvariantsHold) {
  const FaultCaseOutcome out = run_random_fault_case(GetParam());

  // Sessions terminate under a generous horizon.
  EXPECT_TRUE(out.discovery_done);
  EXPECT_TRUE(out.retrieval_done);
  EXPECT_GT(out.distinct_received, 0u);
  // 120 entries plus the chunked item's own metadata: one item-level entry
  // and one per published chunk.
  EXPECT_LE(out.distinct_received,
            kFaultCaseEntries + kFaultCaseChunks + 1);

  // No entry transmitted to a node whose Bloom filter covers it.
  EXPECT_EQ(out.bloom_violations, 0u);

  // No duplicate chunk deliveries: every arrival traced at the consumer is a
  // distinct chunk, and the session's books agree with the result.
  std::vector<std::int64_t> chunks = out.chunk_arrival_trace;
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(std::adjacent_find(chunks.begin(), chunks.end()), chunks.end())
      << "a chunk was delivered to the consumer application twice";
  EXPECT_EQ(chunks.size(), out.retrieval.chunks_received);
  EXPECT_EQ(out.session_chunks, out.retrieval.chunks_received);
  EXPECT_EQ(out.session_arrivals, out.retrieval.chunks_received);
  EXPECT_LE(out.retrieval.chunks_received, kFaultCaseChunks);
  // The surviving holder has every chunk, so retrieval must complete.
  EXPECT_TRUE(out.retrieval.complete);
  EXPECT_EQ(out.retrieval.chunks_received, kFaultCaseChunks);

  // The CDI tables never keep routing through the permanently crashed
  // provider once give-up signals and TTL expiry have done their work.
  EXPECT_EQ(out.routes_via_crashed, 0u);
  EXPECT_EQ(out.stuck_queries, 0u);
}

TEST_P(RandomFaultSchedule, SameSeedSameScheduleIsByteIdentical) {
  const FaultCaseOutcome a = run_random_fault_case(GetParam());
  const FaultCaseOutcome b = run_random_fault_case(GetParam());
  EXPECT_EQ(a.distinct_received, b.distinct_received);
  EXPECT_EQ(a.retrieval.chunks_received, b.retrieval.chunks_received);
  EXPECT_EQ(a.retrieval.complete, b.retrieval.complete);
  EXPECT_FALSE(a.ndjson.empty());
  EXPECT_EQ(a.ndjson, b.ndjson);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFaultSchedule,
                         ::testing::Values(601, 602, 603));

// -- Delta-Bloom sync reconvergence (DESIGN.md §16) ---------------------------
//
// Random filter-mutation sequences with random frame loss: a receiver that
// misses deltas falls back to the last filter it successfully applied — or
// the empty filter if it has none — which is recall-safe because every
// applied filter is one the consumer actually shipped. It must reconverge
// on the sender's exact filter within kFullFrameEvery frames of losses
// stopping, because every kFullFrameEvery-th frame is a sparse full
// snapshot.

class DeltaBloomReconvergence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaBloomReconvergence, RandomLossReconvergesAfterResync) {
  Rng rng(GetParam());
  net::DeltaBloomSender sender;
  net::BloomSyncCache cache;
  const std::uint64_t session = rng.next_u64();

  util::BloomFilter filter =
      util::BloomFilter::with_capacity(4096, 0.01, rng.next_u64());
  std::uint32_t epoch = 1;
  std::uint32_t frames_since_loss = 1u << 20;  // no loss yet
  std::unordered_set<std::uint64_t> shipped_checks;

  for (int step = 0; step < 120; ++step) {
    // Occasionally bump the epoch (fresh hash family), as DiscoverySession
    // does on capacity overflow and for the confirmation round.
    bool epoch_bumped = false;
    if (rng.bernoulli(0.05)) {
      ++epoch;
      filter = util::BloomFilter::with_capacity(4096, 0.01, rng.next_u64());
      epoch_bumped = true;
    }
    const int inserts = static_cast<int>(rng.uniform_int(0, 40));
    for (int i = 0; i < inserts; ++i) filter.insert(rng.next_u64());

    const net::BloomDeltaFrame frame =
        sender.next_frame(session, epoch, filter, epoch_bumped);
    shipped_checks.insert(net::bloom_check(filter));

    if (!frame.full && rng.bernoulli(0.25)) {
      frames_since_loss = 0;  // delta lost in flight; receiver never sees it
      continue;
    }
    ++frames_since_loss;

    const util::BloomFilter got = cache.apply(frame);
    if (frame.full) {
      // A full frame always restores exact sync, loss history or not.
      ASSERT_EQ(net::bloom_check(got), net::bloom_check(filter))
          << "full frame failed to resync at step " << step;
    } else if (frames_since_loss > net::kFullFrameEvery) {
      // Far enough from the last loss that a full frame must have landed.
      ASSERT_EQ(net::bloom_check(got), net::bloom_check(filter))
          << "delta chain diverged at step " << step;
    } else if (net::bloom_check(got) != net::bloom_check(filter)) {
      // Desynced window after a loss: the fallback must be the empty
      // filter or a filter the sender previously shipped — it may only
      // suppress entries the consumer already announced, never hold
      // corrupt half-applied state.
      ASSERT_TRUE(got.empty_filter() ||
                  shipped_checks.contains(net::bloom_check(got)))
          << "desynced receiver holds a never-shipped filter at step "
          << step;
    }
  }
  // Loss is long over after the final stretch of applied frames only if the
  // last frames applied; drive a clean tail to force reconvergence.
  for (std::uint32_t i = 0; i <= net::kFullFrameEvery; ++i) {
    filter.insert(rng.next_u64());
    const util::BloomFilter got =
        cache.apply(sender.next_frame(session, epoch, filter));
    if (i == net::kFullFrameEvery) {
      EXPECT_EQ(net::bloom_check(got), net::bloom_check(filter))
          << "receiver failed to reconverge within kFullFrameEvery frames";
    }
  }
  EXPECT_EQ(cache.session_count(), 1u);
}

TEST(DeltaBloomReconvergence, DuplicateAndReorderedFramesAreHarmless) {
  Rng rng(77);
  net::DeltaBloomSender sender;
  net::BloomSyncCache cache;
  util::BloomFilter filter =
      util::BloomFilter::with_capacity(1024, 0.01, 9);

  std::vector<net::BloomDeltaFrame> history;
  for (int step = 0; step < 12; ++step) {
    for (int i = 0; i < 16; ++i) filter.insert(rng.next_u64());
    history.push_back(sender.next_frame(1, 1, filter));
    (void)cache.apply(history.back());
  }
  const std::uint64_t synced = net::bloom_check(cache.apply(
      [&] {
        filter.insert(rng.next_u64());
        return sender.next_frame(1, 1, filter);
      }()));
  ASSERT_EQ(synced, net::bloom_check(filter));

  // Flood duplicates deliver old frames again, in any order: the cache must
  // ignore them (same epoch, seq <= cached) and keep the synced filter.
  rng.shuffle(history);
  for (const net::BloomDeltaFrame& stale : history) {
    const util::BloomFilter got = cache.apply(stale);
    EXPECT_EQ(net::bloom_check(got), net::bloom_check(filter));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaBloomReconvergence,
                         ::testing::Values(901, 902, 903, 904, 905));

}  // namespace
}  // namespace pds::wl
