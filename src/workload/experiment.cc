#include "workload/experiment.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <unordered_set>

#include "common/assert.h"
#include "obs/trace.h"
#include "workload/generator.h"

namespace pds::wl {

namespace {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

std::vector<PddRoundRecord> round_timeline(const core::DiscoverySession& s) {
  std::vector<PddRoundRecord> out;
  out.reserve(s.round_history().size());
  for (const core::DiscoverySession::RoundRecord& r : s.round_history()) {
    out.push_back(PddRoundRecord{.round = r.round,
                                 .start_s = r.start.as_seconds(),
                                 .end_s = r.end.as_seconds(),
                                 .new_keys = r.new_keys,
                                 .cumulative = r.cumulative,
                                 .responses = r.responses});
  }
  return out;
}

// Consumer placement: the paper puts a single consumer at the grid center
// and multiple consumers at random nodes of the center 5×5 subgrid.
std::vector<NodeId> pick_consumers(const Grid& grid, std::size_t count,
                                   Rng& rng) {
  std::vector<NodeId> consumers{grid.center};
  if (count <= 1) return consumers;
  std::vector<NodeId> candidates = center_subgrid(
      grid, std::min<std::size_t>(5, grid.nx), std::min<std::size_t>(5, grid.ny));
  candidates.erase(
      std::remove(candidates.begin(), candidates.end(), grid.center),
      candidates.end());
  rng.shuffle(candidates);
  for (std::size_t i = 0; i + 1 < count && i < candidates.size(); ++i) {
    consumers.push_back(candidates[i]);
  }
  return consumers;
}

}  // namespace

PddOutcome run_pdd_grid(const PddGridParams& params) {
  core::PdsConfig pds = params.pds;
  pds.transport.reliability_enabled = params.ack;
  if (!params.multi_round) {
    pds.max_rounds = 1;
    pds.empty_round_retries = 0;
  }

  GridSetup setup;
  setup.nx = params.nx;
  setup.ny = params.ny;
  setup.radio = params.radio;
  setup.scheduler = params.scheduler;
  setup.pds = pds;
  setup.node_config = params.node_config;
  Grid grid = make_grid(setup, params.seed);
  Scenario& sc = *grid.scenario;
  sc.set_tracer(params.tracer);
  sc.attach_sampler(params.sampler);
  sc.set_profiler(params.profiler);
  if (params.scenario_hook) params.scenario_hook(sc);

  Rng rng(params.seed * 7919 + 17);
  const std::vector<NodeId> consumers =
      pick_consumers(grid, params.consumers, rng);

  std::vector<core::DataDescriptor> entries =
      make_sample_descriptors(params.metadata_count, SampleSpace{}, rng);
  std::vector<core::PdsNode*> nodes = sc.nodes();
  distribute_metadata(nodes, entries, params.redundancy, rng, consumers);

  sc.reset_overhead();
  if (!params.faults.empty()) sc.install_faults(params.faults);

  std::vector<const core::DiscoverySession*> sessions(consumers.size(),
                                                      nullptr);
  std::function<void(std::size_t)> start_consumer = [&](std::size_t i) {
    sessions[i] = &sc.node(consumers[i])
                       .discover(core::Filter{},
                                 [&, i](const core::DiscoverySession::Result&) {
                                   if (params.sequential &&
                                       i + 1 < consumers.size()) {
                                     start_consumer(i + 1);
                                   }
                                 });
  };
  if (params.sequential) {
    start_consumer(0);
  } else {
    for (std::size_t i = 0; i < consumers.size(); ++i) start_consumer(i);
  }

  sc.run_until(params.horizon);

  PddOutcome out;
  out.all_finished = true;
  std::vector<double> rounds;
  for (const core::DiscoverySession* s : sessions) {
    if (s == nullptr || !s->finished()) {
      out.all_finished = false;
      if (s == nullptr) continue;
    }
    out.per_consumer_recall.push_back(
        static_cast<double>(s->arrivals().size()) /
        static_cast<double>(params.metadata_count));
    out.per_consumer_latency_s.push_back(
        s->finished() ? s->result().latency.as_seconds() : 0.0);
    rounds.push_back(static_cast<double>(
        s->finished() ? s->result().rounds : 0));
    out.per_consumer_rounds.push_back(round_timeline(*s));
  }
  out.recall = mean(out.per_consumer_recall);
  out.latency_s = mean(out.per_consumer_latency_s);
  out.rounds = mean(rounds);
  out.overhead_mb = sc.overhead_mb();
  out.events_executed = sc.sim().events_executed();
  return out;
}

PddOutcome run_pdd_mobility(const PddMobilityParams& params) {
  MobilitySetup setup;
  setup.mobility = params.mobility;
  setup.range_m = params.range_m;
  setup.pds = params.pds;
  setup.pinned_consumers = 1;
  MobileWorld world = make_mobile_world(setup, params.seed);
  Scenario& sc = *world.scenario;
  sc.set_tracer(params.tracer);

  Rng rng(params.seed * 104729 + 29);
  std::vector<core::DataDescriptor> entries =
      make_sample_descriptors(params.metadata_count, SampleSpace{}, rng);
  // Producers are the initially present nodes; data leaves with them when
  // they walk out.
  std::vector<core::PdsNode*> present;
  for (NodeId id : world.initially_present) present.push_back(&sc.node(id));
  distribute_metadata(present, entries, params.redundancy, rng,
                      world.consumers);

  sc.reset_overhead();
  if (!params.faults.empty()) sc.install_faults(params.faults);
  const core::DiscoverySession* session = nullptr;
  session = &sc.node(world.consumers.front())
                 .discover(core::Filter{},
                           [](const core::DiscoverySession::Result&) {});
  sc.run_until(params.horizon);

  PddOutcome out;
  out.all_finished = session->finished();
  out.recall = static_cast<double>(session->arrivals().size()) /
               static_cast<double>(params.metadata_count);
  out.latency_s =
      session->finished() ? session->result().latency.as_seconds() : 0.0;
  out.rounds =
      session->finished() ? static_cast<double>(session->result().rounds) : 0.0;
  out.per_consumer_recall = {out.recall};
  out.per_consumer_latency_s = {out.latency_s};
  out.per_consumer_rounds = {round_timeline(*session)};
  out.overhead_mb = sc.overhead_mb();
  out.events_executed = sc.sim().events_executed();
  return out;
}

namespace {

// Sorted chunk-arrival seconds for a PDR session (empty for MDR/null).
std::vector<double> chunk_timeline(const core::PdrSession* s) {
  std::vector<double> out;
  if (s == nullptr) return out;
  out.reserve(s->arrivals().size());
  for (const auto& [chunk, when] : s->arrivals()) {
    out.push_back(when.as_seconds());
  }
  std::sort(out.begin(), out.end());
  return out;
}

RetrievalOutcome collect_retrieval(
    Scenario& sc, std::size_t total_chunks,
    const std::vector<core::RetrievalResult>& results,
    const std::vector<bool>& finished) {
  RetrievalOutcome out;
  out.all_complete = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!finished[i] || !results[i].complete) out.all_complete = false;
    out.per_consumer_recall.push_back(
        static_cast<double>(results[i].chunks_received) /
        static_cast<double>(total_chunks));
    out.per_consumer_latency_s.push_back(results[i].latency.as_seconds());
  }
  double recall_sum = 0.0;
  double latency_sum = 0.0;
  for (double r : out.per_consumer_recall) recall_sum += r;
  for (double l : out.per_consumer_latency_s) latency_sum += l;
  const auto n = static_cast<double>(results.size());
  out.recall = n == 0.0 ? 0.0 : recall_sum / n;
  out.latency_s = n == 0.0 ? 0.0 : latency_sum / n;
  out.overhead_mb = sc.overhead_mb();
  return out;
}

}  // namespace

RetrievalOutcome run_retrieval_grid(const RetrievalGridParams& params) {
  GridSetup setup;
  setup.nx = params.nx;
  setup.ny = params.ny;
  setup.radio = params.contended_medium ? sim::contended_radio_profile()
                                        : sim::clean_radio_profile();
  // Mechanical knobs (index/parallelism choices that never change outcomes)
  // come from the caller's radio config; the physics stays profile-driven.
  setup.radio.use_spatial_grid = params.radio.use_spatial_grid;
  setup.radio.shard_threads = params.radio.shard_threads;
  setup.scheduler = params.scheduler;
  setup.pds = params.pds;
  setup.node_config = params.node_config;
  Grid grid = make_grid(setup, params.seed);
  Scenario& sc = *grid.scenario;
  sc.set_tracer(params.tracer);
  sc.attach_sampler(params.sampler);
  sc.set_profiler(params.profiler);
  if (params.scenario_hook) params.scenario_hook(sc);

  Rng rng(params.seed * 6151 + 3);
  const std::vector<NodeId> consumers =
      pick_consumers(grid, params.consumers, rng);

  const core::DataDescriptor item = make_chunked_item(
      "clip", params.item_size_bytes, params.pds.chunk_size_bytes);
  const std::size_t total_chunks = chunk_count(item);
  std::vector<core::PdsNode*> nodes = sc.nodes();
  distribute_chunks(nodes, item, params.item_size_bytes,
                    params.pds.chunk_size_bytes, params.redundancy, rng,
                    consumers);

  sc.reset_overhead();
  if (!params.faults.empty()) sc.install_faults(params.faults);

  std::vector<core::RetrievalResult> results(consumers.size());
  std::vector<bool> finished(consumers.size(), false);
  std::vector<const core::PdrSession*> pdr_sessions(consumers.size(), nullptr);
  std::function<void(std::size_t)> start_consumer = [&](std::size_t i) {
    auto done = [&, i](const core::RetrievalResult& r) {
      results[i] = r;
      finished[i] = true;
      if (params.sequential && i + 1 < consumers.size()) {
        start_consumer(i + 1);
      }
    };
    if (params.method == RetrievalMethod::kPdr) {
      pdr_sessions[i] = &sc.node(consumers[i]).retrieve(item, done);
    } else {
      sc.node(consumers[i]).retrieve_mdr(item, done);
    }
  };
  if (params.sequential) {
    start_consumer(0);
  } else {
    for (std::size_t i = 0; i < consumers.size(); ++i) start_consumer(i);
  }

  sc.run_until(params.horizon);
  RetrievalOutcome out = collect_retrieval(sc, total_chunks, results, finished);
  for (const core::PdrSession* s : pdr_sessions) {
    out.per_consumer_chunk_arrival_s.push_back(chunk_timeline(s));
  }
  out.events_executed = sc.sim().events_executed();
  return out;
}

RetrievalOutcome run_retrieval_mobility(
    const RetrievalMobilityParams& params) {
  MobilitySetup setup;
  setup.mobility = params.mobility;
  setup.range_m = params.range_m;
  setup.radio = params.contended_medium ? sim::contended_radio_profile()
                                        : sim::clean_radio_profile();
  setup.pds = params.pds;
  setup.pinned_consumers = 1;
  MobileWorld world = make_mobile_world(setup, params.seed);
  Scenario& sc = *world.scenario;
  sc.set_tracer(params.tracer);

  Rng rng(params.seed * 2741 + 11);
  const core::DataDescriptor item = make_chunked_item(
      "clip", params.item_size_bytes, params.pds.chunk_size_bytes);
  const std::size_t total_chunks = chunk_count(item);
  std::vector<core::PdsNode*> present;
  for (NodeId id : world.initially_present) present.push_back(&sc.node(id));
  distribute_chunks(present, item, params.item_size_bytes,
                    params.pds.chunk_size_bytes, params.redundancy, rng,
                    world.consumers);

  sc.reset_overhead();
  if (!params.faults.empty()) sc.install_faults(params.faults);

  std::vector<core::RetrievalResult> results(1);
  std::vector<bool> finished(1, false);
  const core::PdrSession* pdr_session = nullptr;
  auto done = [&](const core::RetrievalResult& r) {
    results[0] = r;
    finished[0] = true;
  };
  if (params.method == RetrievalMethod::kPdr) {
    pdr_session = &sc.node(world.consumers.front()).retrieve(item, done);
  } else {
    sc.node(world.consumers.front()).retrieve_mdr(item, done);
  }

  sc.run_until(params.horizon);
  RetrievalOutcome out = collect_retrieval(sc, total_chunks, results, finished);
  out.per_consumer_chunk_arrival_s.push_back(chunk_timeline(pdr_session));
  out.events_executed = sc.sim().events_executed();
  return out;
}

SingleHopOutcome run_single_hop(const SingleHopParams& params) {
  sim::Simulator sim(params.seed, params.scheduler);
  sim.set_tracer(params.tracer);
  sim::RadioConfig radio;
  radio.range_m = 50.0;  // everyone in range: a single-hop cell
  sim::RadioMedium medium(sim, radio);
  const net::Codec codec{net::WireConfig{}};

  // Per-node causal span sequences (DESIGN.md §14); the same
  // (node+1)<<40 | seq packing NodeContext::new_span uses. This harness has
  // no NodeContext, so spans are allocated inline.
  const auto span_of = [](NodeId node, std::uint64_t& seq) {
    return (static_cast<std::uint64_t>(node.value()) + 1) << 40 | ++seq;
  };

  net::TransportConfig sender_cfg;
  switch (params.mode) {
    case TransportMode::kRawUdp:
      // The prototype's app calls the non-blocking UDP send API "as quickly
      // as possible"; syscall throughput is far above the 7.2 Mb/s MAC
      // broadcast drain, so the OS buffer overflows and silently drops
      // (§V.2: 14% reception). We model the app-side offering rate as
      // ~50 Mb/s.
      sender_cfg.bucket_capacity_bytes = params.message_bytes;
      sender_cfg.leak_rate_bps = 51.4e6;
      sender_cfg.reliability_enabled = false;
      break;
    case TransportMode::kLeakyBucket:
      sender_cfg.bucket_capacity_bytes = params.bucket_capacity_bytes;
      sender_cfg.leak_rate_bps = params.leak_rate_bps;
      sender_cfg.reliability_enabled = false;
      break;
    case TransportMode::kLeakyBucketAck:
      sender_cfg.bucket_capacity_bytes = params.bucket_capacity_bytes;
      sender_cfg.leak_rate_bps = params.leak_rate_bps;
      sender_cfg.reliability_enabled = true;
      sender_cfg.retr_timeout = params.retr_timeout;
      sender_cfg.max_retransmissions = params.max_retransmissions;
      break;
  }
  net::TransportConfig receiver_cfg = sender_cfg;

  const NodeId rx_id(0);
  net::BroadcastFace rx_face(medium, rx_id, sim::Vec2{0.0, 0.0});
  net::Transport receiver(sim, rx_face, rx_id, receiver_cfg, codec);

  std::unordered_set<std::uint64_t> received_ids;
  std::uint64_t received_bytes = 0;
  std::uint64_t rx_seq = 0;
  SimTime first_arrival = SimTime::zero();
  SimTime last_arrival = SimTime::zero();
  receiver.set_handler([&](const net::MessagePtr& msg) {
    if (!msg->is_response()) return;
    if (received_ids.insert(msg->response_id.value()).second) {
      if (received_ids.size() == 1) first_arrival = sim.now();
      last_arrival = sim.now();
      received_bytes += codec.wire_size(*msg);
      if (msg->trace.valid()) {
        const std::uint64_t recv_span = span_of(rx_id, rx_seq);
        PDS_TRACE_INSTANT(sim.tracer(), sim.now(), rx_id, "causal", "recv",
                          {"trace", msg->trace.trace_id}, {"span", recv_span},
                          {"parent", msg->trace.parent_span},
                          {"hop", msg->trace.hop});
        const std::uint64_t deliver_span = span_of(rx_id, rx_seq);
        PDS_TRACE_INSTANT(sim.tracer(), sim.now(), rx_id, "causal",
                          "deliver", {"trace", msg->trace.trace_id},
                          {"span", deliver_span}, {"parent", recv_span});
      }
    }
  });

  std::vector<std::unique_ptr<net::BroadcastFace>> faces;
  std::vector<std::unique_ptr<net::Transport>> senders;
  Rng rng(params.seed ^ 0xabcdef1234567890ULL);
  for (std::size_t s = 0; s < params.senders; ++s) {
    const NodeId id(static_cast<std::uint32_t>(s + 1));
    const double angle = 2.0 * 3.14159265 * static_cast<double>(s) /
                         static_cast<double>(std::max<std::size_t>(params.senders, 1));
    faces.push_back(std::make_unique<net::BroadcastFace>(
        medium, id, sim::Vec2{5.0 * std::cos(angle), 5.0 * std::sin(angle)}));
    senders.push_back(std::make_unique<net::Transport>(sim, *faces.back(), id,
                                                       sender_cfg, codec));
  }

  // A template message sized so its wire size is params.message_bytes: the
  // prototype's 1.5 KB packets.
  net::Message tmpl;
  tmpl.type = net::MessageType::kResponse;
  tmpl.kind = net::ContentKind::kItem;
  tmpl.receivers = {rx_id};
  net::ItemPayload payload;
  payload.descriptor.set(core::kAttrNamespace, std::string("bench"));
  payload.descriptor.set(core::kAttrDataType, std::string("blob"));
  payload.size_bytes = 0;
  tmpl.items = {payload};
  const std::size_t base = codec.wire_size(tmpl);
  PDS_ENSURE(params.message_bytes > base);
  tmpl.items[0].size_bytes =
      static_cast<std::uint32_t>(params.message_bytes - base);

  for (std::size_t s = 0; s < params.senders; ++s) {
    net::Transport& tx = *senders[s];
    tmpl.sender = tx.self();
    // Each sender is one causal trace: a root span, then one tx span per
    // message. trace id = the sender's first response id.
    std::uint64_t sender_seq = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t root_span = 0;
    for (std::size_t k = 0; k < params.messages_per_sender; ++k) {
      auto msg = std::make_shared<net::Message>(tmpl);
      msg->response_id = ResponseId(rng.next_u64());
      if (trace_id == 0) {
        trace_id = msg->response_id.value();
        root_span = span_of(tx.self(), sender_seq);
        PDS_TRACE_INSTANT(sim.tracer(), sim.now(), tx.self(), "causal",
                          "root", {"trace", trace_id}, {"span", root_span},
                          {"kind", "singlehop"});
      }
      const std::uint64_t tx_span = span_of(tx.self(), sender_seq);
      PDS_TRACE_INSTANT(sim.tracer(), sim.now(), tx.self(), "causal", "tx",
                        {"trace", trace_id}, {"span", tx_span},
                        {"parent", root_span}, {"hop", 0});
      msg->trace = {trace_id, tx_span, tx.self().value(), 0};
      tx.send(std::move(msg));
    }
  }

  sim.run(params.horizon);

  SingleHopOutcome out;
  const auto offered =
      static_cast<double>(params.senders * params.messages_per_sender);
  out.reception = static_cast<double>(received_ids.size()) / offered;
  const double span = (last_arrival - first_arrival).as_seconds();
  out.data_rate_mbps =
      span > 0.0 ? static_cast<double>(received_bytes) * 8.0 / span / 1e6 : 0.0;
  return out;
}

}  // namespace pds::wl
