#include "workload/scenario.h"

#include <algorithm>

#include "common/assert.h"
#include "obs/timeseries.h"

namespace pds::wl {

core::PdsNode& Scenario::add_node(NodeId id, sim::Vec2 pos,
                                  const core::PdsConfig& config,
                                  bool enabled) {
  PDS_ENSURE(!by_id_.contains(id));
  auto node =
      std::make_unique<core::PdsNode>(sim_, medium_, id, config, pos, enabled);
  core::PdsNode& ref = *node;
  by_id_.emplace(id, std::move(node));
  order_.push_back(id);
  return ref;
}

core::PdsNode& Scenario::node(NodeId id) {
  auto it = by_id_.find(id);
  PDS_ENSURE(it != by_id_.end());
  return *it->second;
}

std::vector<core::PdsNode*> Scenario::nodes() {
  std::vector<core::PdsNode*> out;
  out.reserve(order_.size());
  for (NodeId id : order_) out.push_back(&node(id));
  return out;
}

void Scenario::attach_sampler(obs::TimeSeries* sampler) {
  sim_.set_sampler(sampler);
  if (sampler == nullptr) return;

  // Column ids for the collector below; registration is idempotent, so
  // re-attaching the same series to a fresh scenario reuses the layout.
  struct Cols {
    int queue_len, ring_live, overflow_depth, slot_pool, events;
    int active_tx, tx_cells, max_cell_tx, air_us, radio_bytes, os_backlog;
    int inflight, send_queue, pending, reassembly, bucket_backlog;
    int store_meta, store_items, chunk_bytes, lqt_entries, bloom_fill, rss;
  };
  obs::TimeSeries& ts = *sampler;
  const Cols c{
      PDS_TS_COLUMN(ts, "sched.queue_len"),
      PDS_TS_COLUMN(ts, "sched.ring_live"),
      PDS_TS_COLUMN(ts, "sched.overflow_depth"),
      PDS_TS_COLUMN(ts, "sched.slot_pool"),
      PDS_TS_COLUMN(ts, "sim.events"),
      PDS_TS_COLUMN(ts, "radio.active_tx"),
      PDS_TS_COLUMN(ts, "radio.tx_cells"),
      PDS_TS_COLUMN(ts, "radio.max_cell_tx"),
      PDS_TS_COLUMN(ts, "radio.air_us"),
      PDS_TS_COLUMN(ts, "radio.bytes"),
      PDS_TS_COLUMN(ts, "radio.os_backlog_bytes"),
      PDS_TS_COLUMN(ts, "transport.inflight"),
      PDS_TS_COLUMN(ts, "transport.send_queue"),
      PDS_TS_COLUMN(ts, "transport.pending"),
      PDS_TS_COLUMN(ts, "transport.reassembly"),
      PDS_TS_COLUMN(ts, "transport.bucket_backlog_us_max"),
      PDS_TS_COLUMN(ts, "store.metadata"),
      PDS_TS_COLUMN(ts, "store.items"),
      PDS_TS_COLUMN(ts, "store.chunk_bytes"),
      PDS_TS_COLUMN(ts, "lqt.entries"),
      PDS_TS_COLUMN(ts, "lqt.bloom_fill_max"),
      PDS_TS_COLUMN(ts, "rss.peak_mb", obs::TimeSeries::Kind::kWall),
  };

  sampler->set_collector([this, c](SimTime now, obs::TimeSeries& out) {
    const sim::EventQueue& q = sim_.queue();
    out.set(c.queue_len, static_cast<double>(q.size()));
    out.set(c.ring_live, static_cast<double>(q.ring_live()));
    out.set(c.overflow_depth, static_cast<double>(q.overflow_depth()));
    out.set(c.slot_pool, static_cast<double>(q.slot_pool_size()));
    out.set(c.events, static_cast<double>(sim_.events_executed()));

    const auto tx = medium_.tx_cell_occupancy();
    out.set(c.active_tx, static_cast<double>(medium_.active_transmitters()));
    out.set(c.tx_cells, static_cast<double>(tx.cells));
    out.set(c.max_cell_tx, static_cast<double>(tx.max_per_cell));
    out.set(c.air_us, static_cast<double>(medium_.stats().air_time_us));
    out.set(c.radio_bytes,
            static_cast<double>(medium_.stats().bytes_transmitted));
    out.set(c.os_backlog,
            static_cast<double>(medium_.total_os_backlog_bytes()));

    double inflight = 0, send_queue = 0, pending = 0, reassembly = 0;
    double bucket_max = 0, meta = 0, items = 0, chunk_bytes = 0;
    double lqt_entries = 0, bloom_max = 0;
    for (const NodeId id : order_) {
      core::PdsNode& n = node(id);
      const net::Transport& t = n.transport();
      inflight += static_cast<double>(t.inflight());
      send_queue += static_cast<double>(t.queued_sends());
      pending += static_cast<double>(t.pending_count());
      reassembly += static_cast<double>(t.reassembly_count());
      bucket_max = std::max(bucket_max,
                            static_cast<double>(t.bucket_backlog_us(now)));
      meta += static_cast<double>(n.store().metadata_count(now));
      items += static_cast<double>(n.store().item_count());
      chunk_bytes += static_cast<double>(n.store().cached_chunk_bytes());
      lqt_entries += static_cast<double>(n.lqt().size());
      bloom_max = std::max(bloom_max, n.lqt().bloom_stats().max_fill);
    }
    out.set(c.inflight, inflight);
    out.set(c.send_queue, send_queue);
    out.set(c.pending, pending);
    out.set(c.reassembly, reassembly);
    out.set(c.bucket_backlog, bucket_max);
    out.set(c.store_meta, meta);
    out.set(c.store_items, items);
    out.set(c.chunk_bytes, chunk_bytes);
    out.set(c.lqt_entries, lqt_entries);
    out.set(c.bloom_fill, bloom_max);
    // Wall-kind: a host fact, excluded from the deterministic projection.
    out.set(c.rss, obs::peak_rss_mb());
  });
}

void Scenario::install_faults(const sim::FaultSchedule& schedule) {
  if (!faults_) {
    faults_ = std::make_unique<sim::FaultInjector>(
        sim_, medium_,
        sim::FaultInjector::Hooks{
            .crash = [this](NodeId id, bool wipe) { node(id).crash(wipe); },
            .restart = [this](NodeId id) { node(id).restart(); }});
  }
  faults_->install(schedule);
}

Grid make_grid(const GridSetup& setup, std::uint64_t seed) {
  sim::RadioConfig radio = setup.radio;
  const bool pinned_interference =
      radio.interference_range_m > 0.0 &&
      radio.interference_range_m <= radio.range_m;
  radio.range_m = setup.range_m;
  if (pinned_interference) radio.interference_range_m = setup.range_m;
  const double spacing = sim::grid_spacing_for_range(setup.range_m);

  Grid grid;
  grid.nx = setup.nx;
  grid.ny = setup.ny;
  grid.scenario = std::make_unique<Scenario>(seed, radio, setup.scheduler);
  const std::vector<sim::Vec2> positions =
      sim::grid_positions(setup.nx, setup.ny, spacing);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const NodeId id(static_cast<std::uint32_t>(i));
    if (setup.node_config) {
      core::PdsConfig pds = setup.pds;
      setup.node_config(id, pds);
      grid.scenario->add_node(id, positions[i], pds);
    } else {
      grid.scenario->add_node(id, positions[i], setup.pds);
    }
    grid.ids.push_back(id);
  }
  grid.center = grid.ids[sim::grid_center_index(setup.nx, setup.ny)];
  return grid;
}

std::vector<NodeId> center_subgrid(const Grid& grid, std::size_t cx,
                                   std::size_t cy) {
  const std::size_t nx = grid.nx;
  const std::size_t ny = grid.ny;
  PDS_ENSURE(cx <= nx && cy <= ny);
  const std::size_t x0 = (nx - cx) / 2;
  const std::size_t y0 = (ny - cy) / 2;
  std::vector<NodeId> out;
  for (std::size_t row = y0; row < y0 + cy; ++row) {
    for (std::size_t col = x0; col < x0 + cx; ++col) {
      out.push_back(grid.ids[row * nx + col]);
    }
  }
  return out;
}

namespace {

// Is the unit-disk graph over the present nodes' positions connected?
bool placement_connected(const sim::MobilityTrace& trace, double range_m) {
  std::vector<sim::Vec2> present;
  for (const sim::InitialPlacement& p : trace.initial()) {
    if (p.present) present.push_back(p.pos);
  }
  if (present.size() <= 1) return true;
  std::vector<bool> visited(present.size(), false);
  std::vector<std::size_t> frontier{0};
  visited[0] = true;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const std::size_t v = frontier.back();
    frontier.pop_back();
    for (std::size_t u = 0; u < present.size(); ++u) {
      if (!visited[u] &&
          sim::distance(present[v], present[u]) <= range_m) {
        visited[u] = true;
        ++reached;
        frontier.push_back(u);
      }
    }
  }
  return reached == present.size();
}

}  // namespace

MobileWorld make_mobile_world(const MobilitySetup& setup, std::uint64_t seed) {
  sim::RadioConfig radio = setup.radio;
  const bool pinned_interference =
      radio.interference_range_m > 0.0 &&
      radio.interference_range_m <= radio.range_m;
  radio.range_m = setup.range_m;
  if (pinned_interference) radio.interference_range_m = setup.range_m;

  MobileWorld world;
  world.scenario = std::make_unique<Scenario>(seed, radio, setup.scheduler);
  Scenario& sc = *world.scenario;

  const std::size_t pool_size =
      setup.mobility.population + setup.churn_pool_extra;
  for (std::size_t i = 0; i < pool_size; ++i) {
    world.pool.push_back(NodeId(static_cast<std::uint32_t>(i)));
  }
  PDS_ENSURE(setup.pinned_consumers <= setup.mobility.population);
  for (std::size_t i = 0; i < setup.pinned_consumers; ++i) {
    world.consumers.push_back(world.pool[i]);
  }

  Rng trace_rng = sc.sim().rng().fork();
  sim::MobilityTrace trace = sim::MobilityTrace::generate(
      setup.mobility, world.pool, world.consumers, trace_rng);
  if (setup.require_connected) {
    for (int attempt = 0;
         attempt < 25 && !placement_connected(trace, setup.range_m);
         ++attempt) {
      trace = sim::MobilityTrace::generate(setup.mobility, world.pool,
                                           world.consumers, trace_rng);
    }
  }

  for (const sim::InitialPlacement& p : trace.initial()) {
    sc.add_node(p.node, p.pos, setup.pds, p.present);
    if (p.present) world.initially_present.push_back(p.node);
  }
  trace.install(sc.sim(), sc.medium());
  return world;
}

}  // namespace pds::wl
