#include "sim/radio.h"

#include <algorithm>
#include <cmath>

#include <unordered_map>

#include "common/assert.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace pds::sim {

RadioConfig contended_radio_profile() {
  return RadioConfig{};  // defaults: interference ring at 1.5× range
}

RadioConfig clean_radio_profile() {
  RadioConfig cfg;
  cfg.interference_range_m = cfg.range_m;  // no corruption beyond decode range
  return cfg;
}

RadioMedium::RadioMedium(Simulator& sim, RadioConfig cfg)
    : sim_(sim), cfg_(cfg), rng_(sim.rng().fork()) {
  // A nonzero explicit range with default interference keeps the 1.5× rule;
  // profiles that pin interference to the decode range must track range_m.
  if (cfg_.interference_range_m > 0.0 &&
      cfg_.interference_range_m < cfg_.range_m) {
    cfg_.interference_range_m = cfg_.range_m;
  }
  // Fine cell size = interference range: delivery fan-out (the most frequent
  // radius query) always resolves to a 3×3 fine-cell scan; the wider
  // carrier-sense radius never touches the grid (see transmitting_).
  cell_size_m_ = interference_range();
  PDS_ENSURE(cell_size_m_ > 0.0);

  const int threads = std::max(1, cfg_.shard_threads);
  if (threads > 1) shards_ = std::make_unique<ShardExecutor>(threads);
  shard_receivers_.resize(static_cast<std::size_t>(threads));
  shard_half_duplex_.resize(static_cast<std::size_t>(threads), 0);
}

RadioMedium::Index RadioMedium::index_of(NodeId id) const {
  auto it = index_of_.find(id);
  PDS_ENSURE(it != index_of_.end());
  return it->second;
}

std::int32_t RadioMedium::fine_coord(double v) const {
  return static_cast<std::int32_t>(std::floor(v / cell_size_m_));
}

void RadioMedium::grid_insert(Index idx) {
  const std::int32_t fx = cell_fx_[idx];
  const std::int32_t fy = cell_fy_[idx];
  auto [it, inserted] = coarse_map_.try_emplace(
      coarse_key(fx >> kCoarseShift, fy >> kCoarseShift), 0);
  if (inserted) {
    if (!coarse_free_.empty()) {
      it->second = coarse_free_.back();
      coarse_free_.pop_back();
    } else {
      it->second = static_cast<std::uint32_t>(coarse_cells_.size());
      coarse_cells_.emplace_back();
    }
  }
  CoarseCell& cell = coarse_cells_[it->second];
  std::int32_t& head = cell.heads[sub_cell(fx, fy)];
  const auto node = static_cast<std::int32_t>(idx);
  grid_prev_[idx] = -1;
  grid_next_[idx] = head;
  if (head >= 0) grid_prev_[static_cast<Index>(head)] = node;
  head = node;
  ++cell.count;
}

void RadioMedium::grid_remove(Index idx) {
  const std::int32_t fx = cell_fx_[idx];
  const std::int32_t fy = cell_fy_[idx];
  auto it =
      coarse_map_.find(coarse_key(fx >> kCoarseShift, fy >> kCoarseShift));
  PDS_ENSURE(it != coarse_map_.end());
  CoarseCell& cell = coarse_cells_[it->second];
  const std::int32_t nxt = grid_next_[idx];
  const std::int32_t prv = grid_prev_[idx];
  if (prv >= 0) {
    grid_next_[static_cast<Index>(prv)] = nxt;
  } else {
    cell.heads[sub_cell(fx, fy)] = nxt;
  }
  if (nxt >= 0) grid_prev_[static_cast<Index>(nxt)] = prv;
  PDS_ENSURE(cell.count > 0);
  if (--cell.count == 0) {
    // Empty sub-lists leave every head at -1 again, so the pooled cell is
    // ready for its next tenant without a reset pass.
    coarse_free_.push_back(it->second);
    coarse_map_.erase(it);
  }
}

const std::vector<RadioMedium::Index>& RadioMedium::candidates_near(
    Index self, Vec2 pos, double radius) const {
  scratch_.clear();
  if (!cfg_.use_spatial_grid) {
    // Brute-force reference: the historical implementation walked the
    // registration list and resolved each node through the id hash map
    // (`state_of(other)`); reproduce that lookup so this path stays a
    // faithful perf baseline for the pre-grid code, not just a correctness
    // oracle.
    for (const NodeState& st : states_) {
      const Index i = index_of_.find(st.id)->second;
      if (i != self) scratch_.push_back(i);
    }
    return scratch_;  // ascending == registration order already
  }
  const std::int32_t cfx = fine_coord(pos.x);
  const std::int32_t cfy = fine_coord(pos.y);
  const auto reach =
      static_cast<std::int32_t>(std::ceil(radius / cell_size_m_));
  const std::int32_t fx0 = cfx - reach;
  const std::int32_t fx1 = cfx + reach;
  const std::int32_t fy0 = cfy - reach;
  const std::int32_t fy1 = cfy + reach;
  // One coarse lookup covers an 8×8 block of fine cells, so the usual 3×3
  // fine query costs at most four hash probes.
  for (std::int32_t cx = fx0 >> kCoarseShift; cx <= (fx1 >> kCoarseShift);
       ++cx) {
    for (std::int32_t cy = fy0 >> kCoarseShift; cy <= (fy1 >> kCoarseShift);
         ++cy) {
      auto it = coarse_map_.find(coarse_key(cx, cy));
      if (it == coarse_map_.end()) continue;
      const CoarseCell& cell = coarse_cells_[it->second];
      const std::int32_t gx0 = std::max(fx0, cx * kCoarseSpan);
      const std::int32_t gx1 = std::min(fx1, cx * kCoarseSpan + kCoarseSpan - 1);
      const std::int32_t gy0 = std::max(fy0, cy * kCoarseSpan);
      const std::int32_t gy1 = std::min(fy1, cy * kCoarseSpan + kCoarseSpan - 1);
      for (std::int32_t fy = gy0; fy <= gy1; ++fy) {
        for (std::int32_t fx = gx0; fx <= gx1; ++fx) {
          for (std::int32_t n = cell.heads[sub_cell(fx, fy)]; n >= 0;
               n = grid_next_[static_cast<Index>(n)]) {
            if (static_cast<Index>(n) != self) {
              scratch_.push_back(static_cast<Index>(n));
            }
          }
        }
      }
    }
  }
  // Registration order keeps grid and brute-force scans byte-for-byte
  // equivalent: same reception scheduling order, same RNG draw order.
  std::sort(scratch_.begin(), scratch_.end());
  return scratch_;
}

void RadioMedium::add_node(NodeId id, FrameSink& sink, Vec2 pos,
                           bool enabled) {
  const auto idx = static_cast<Index>(states_.size());
  const bool inserted = index_of_.try_emplace(id, idx).second;
  PDS_ENSURE(inserted);
  NodeState state;
  state.id = id;
  state.sink = &sink;
  states_.push_back(std::move(state));
  pos_.push_back(pos);
  enabled_.push_back(enabled ? 1 : 0);
  tx_active_.push_back(0);
  tx_end_.push_back(SimTime::zero());
  cell_fx_.push_back(fine_coord(pos.x));
  cell_fy_.push_back(fine_coord(pos.y));
  grid_next_.push_back(-1);
  grid_prev_.push_back(-1);
  grid_insert(idx);
}

void RadioMedium::set_position(NodeId id, Vec2 pos) {
  const Index idx = index_of(id);
  pos_[idx] = pos;
  const std::int32_t fx = fine_coord(pos.x);
  const std::int32_t fy = fine_coord(pos.y);
  if (fx != cell_fx_[idx] || fy != cell_fy_[idx]) {
    grid_remove(idx);
    cell_fx_[idx] = fx;
    cell_fy_[idx] = fy;
    grid_insert(idx);
  }
}

void RadioMedium::set_enabled(NodeId id, bool enabled) {
  const Index idx = index_of(id);
  if ((enabled_[idx] != 0) == enabled) return;
  enabled_[idx] = enabled ? 1 : 0;
  NodeState& st = states_[idx];
  if (!enabled) {
    // Radio off: pending sends and in-flight receptions are gone. An ongoing
    // transmission is allowed to finish (the tail of the frame is already on
    // the air as far as other nodes can tell).
    st.os_queue.clear();
    st.os_bytes = 0;
    st.receptions.clear();
  } else if (!st.os_queue.empty()) {
    maybe_schedule_attempt(idx, SimTime::zero());
  }
}

bool RadioMedium::is_enabled(NodeId id) const {
  return enabled_[index_of(id)] != 0;
}

Vec2 RadioMedium::position(NodeId id) const { return pos_[index_of(id)]; }

bool RadioMedium::send(NodeId sender, Frame frame) {
  ++stats_.frames_offered;
  const Index idx = index_of(sender);
  if (enabled_[idx] == 0) return false;
  NodeState& st = states_[idx];
  if (st.os_bytes + frame.size_bytes > cfg_.os_buffer_bytes) {
    ++stats_.os_buffer_drops;
    PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), sender, "radio", "os_drop",
                      {"bytes", frame.size_bytes});
    return false;
  }
  st.os_bytes += frame.size_bytes;
  if (frame.control) {
    st.os_queue.push_front(std::move(frame));  // control frames jump the queue
  } else {
    st.os_queue.push_back(std::move(frame));
  }
  maybe_schedule_attempt(idx, SimTime::zero());
  return true;
}

std::vector<NodeId> RadioMedium::neighbors(NodeId id) const {
  std::vector<NodeId> out;
  const Index idx = index_of(id);
  if (enabled_[idx] == 0) return out;
  const Vec2 self_pos = pos_[idx];
  for (Index i : candidates_near(idx, self_pos, cfg_.range_m)) {
    if (enabled_[i] != 0 && distance(self_pos, pos_[i]) <= cfg_.range_m) {
      out.push_back(states_[i].id);
    }
  }
  return out;
}

void RadioMedium::set_pair_loss(NodeId a, NodeId b, double loss) {
  PDS_ENSURE(a != b);
  pair_loss_[pair_key(a, b)] = loss;
}

void RadioMedium::clear_pair_loss(NodeId a, NodeId b) {
  pair_loss_.erase(pair_key(a, b));
}

void RadioMedium::set_burst_channel(NodeId id, GilbertElliottParams params) {
  NodeState& st = state_of(id);
  st.burst_enabled = true;
  st.burst_bad = false;  // a fresh channel starts in the good state
  st.burst = params;
}

void RadioMedium::clear_burst_channel(NodeId id) {
  NodeState& st = state_of(id);
  st.burst_enabled = false;
  st.burst_bad = false;
}

std::size_t RadioMedium::os_backlog_bytes(NodeId id) const {
  return state_of(id).os_bytes;
}

const RadioActivity& RadioMedium::activity(NodeId id) const {
  return state_of(id).activity;
}

double RadioMedium::energy_joules(NodeId id, SimTime elapsed) const {
  const RadioActivity& a = state_of(id).activity;
  return cfg_.idle_power_w * elapsed.as_seconds() +
         (cfg_.tx_power_w - cfg_.idle_power_w) * a.tx_airtime.as_seconds() +
         (cfg_.rx_power_w - cfg_.idle_power_w) * a.rx_airtime.as_seconds();
}

double RadioMedium::total_energy_joules(SimTime elapsed) const {
  double sum = 0.0;
  for (const NodeState& st : states_) sum += energy_joules(st.id, elapsed);
  return sum;
}

bool RadioMedium::medium_busy_around(Index idx) const {
  const Vec2 self_pos = pos_[idx];
  const double cs = carrier_sense_range();
  if (cfg_.use_spatial_grid) {
    for (Index other : transmitting_) {
      if (other == idx) continue;
      if (distance(self_pos, pos_[other]) <= cs) return true;
    }
    return false;
  }
  // Brute-force reference: full registration-order scan with the historical
  // per-node hash lookup (see candidates_near).
  for (Index other = 0; other < states_.size(); ++other) {
    if (other == idx) continue;
    const Index i = index_of_.find(states_[other].id)->second;
    if (tx_active_[i] != 0 && distance(self_pos, pos_[i]) <= cs) return true;
  }
  return false;
}

SimTime RadioMedium::busy_end_around(Index idx) const {
  const Vec2 self_pos = pos_[idx];
  const double cs = carrier_sense_range();
  SimTime latest = sim_.now();
  if (cfg_.use_spatial_grid) {
    for (Index other : transmitting_) {
      if (other == idx) continue;
      if (distance(self_pos, pos_[other]) <= cs) {
        latest = std::max(latest, tx_end_[other]);
      }
    }
    return latest;
  }
  // Brute-force reference: full registration-order scan with the historical
  // per-node hash lookup (see candidates_near).
  for (Index other = 0; other < states_.size(); ++other) {
    if (other == idx) continue;
    const Index i = index_of_.find(states_[other].id)->second;
    if (tx_active_[i] != 0 && distance(self_pos, pos_[i]) <= cs) {
      latest = std::max(latest, tx_end_[i]);
    }
  }
  return latest;
}

SimTime RadioMedium::random_backoff() {
  const auto slots = rng_.uniform_int(0, cfg_.max_backoff_slots - 1);
  return cfg_.backoff_slot * static_cast<double>(slots);
}

SimTime RadioMedium::access_delay(const NodeState& st) {
  // Control frames (acks) contend with a shorter inter-frame space and a
  // small backoff window, like MAC control traffic.
  const bool control = !st.os_queue.empty() && st.os_queue.front().control;
  if (control) {
    return 0.5 * cfg_.difs + cfg_.backoff_slot *
                                 static_cast<double>(rng_.uniform_int(0, 7));
  }
  return cfg_.difs + random_backoff();
}

void RadioMedium::maybe_schedule_attempt(Index idx, SimTime extra_delay) {
  NodeState& st = states_[idx];
  if (st.attempt_scheduled || tx_active_[idx] != 0 || st.os_queue.empty() ||
      enabled_[idx] == 0) {
    return;
  }
  st.attempt_scheduled = true;
  sim_.schedule(extra_delay + access_delay(st),
                [this, idx] { attempt_transmission(idx); });
}

void RadioMedium::attempt_transmission(Index idx) {
  NodeState& st = states_[idx];
  st.attempt_scheduled = false;
  if (enabled_[idx] == 0 || tx_active_[idx] != 0 || st.os_queue.empty()) {
    return;
  }
  if (medium_busy_around(idx)) {
    // Defer: retry after the sensed busy period plus fresh backoff.
    const SimTime wait = busy_end_around(idx) - sim_.now();
    PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), st.id, "radio", "defer",
                      {"wait_us", wait.as_micros()});
    st.attempt_scheduled = true;
    sim_.schedule(wait + access_delay(st),
                  [this, idx] { attempt_transmission(idx); });
    return;
  }
  start_transmission(idx);
}

void RadioMedium::start_transmission(Index idx) {
  PDS_PROF_SCOPE(sim_.profiler(), "radio");
  NodeState& st = states_[idx];
  Frame frame = std::move(st.os_queue.front());
  st.os_queue.pop_front();
  PDS_ENSURE(st.os_bytes >= frame.size_bytes);
  st.os_bytes -= frame.size_bytes;

  const SimTime airtime = transmission_time(frame.size_bytes, cfg_.mac_rate_bps);
  tx_active_[idx] = 1;
  tx_end_[idx] = sim_.now() + airtime;
  st.activity.tx_airtime += airtime;
  transmitting_.push_back(idx);

  ++stats_.frames_transmitted;
  stats_.bytes_transmitted += frame.size_bytes;
  stats_.air_time_us += static_cast<std::uint64_t>(airtime.as_micros());
  PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), st.id, "radio", "tx",
                    {"bytes", frame.size_bytes},
                    {"control", static_cast<std::int64_t>(frame.control)});
  if (tx_observer_) tx_observer_(st.id, frame);

  const std::uint64_t tx_seq = next_tx_seq_++;
  const Vec2 sender_pos = pos_[idx];
  const double interference = interference_range();
  const std::vector<Index>& cands =
      candidates_near(idx, sender_pos, interference);

  // Classify every candidate: does this transmission reach it, decodably or
  // as interference, and does it survive half-duplex? The per-candidate work
  // consumes no RNG and writes only receiver-private state (receptions,
  // rx_airtime) plus per-shard partials, so it may run sharded; partials
  // merge in fixed shard order below, making the result byte-identical to
  // the serial loop for any thread count (DESIGN.md §13).
  auto classify = [&](std::size_t begin, std::size_t end, std::size_t shard) {
    std::vector<Index>& out = shard_receivers_[shard];
    std::uint64_t half_duplex = 0;
    for (std::size_t c = begin; c < end; ++c) {
      const Index ridx = cands[c];
      if (enabled_[ridx] == 0) continue;
      const double new_dist = distance(sender_pos, pos_[ridx]);
      if (new_dist > interference) continue;
      const bool decodable = new_dist <= cfg_.range_m;
      if (tx_active_[ridx] != 0) {
        // Half-duplex: a busy transmitter cannot decode incoming frames.
        if (decodable) ++half_duplex;
        continue;
      }
      NodeState& rx = states_[ridx];
      // Overlapping receptions interfere; a frame survives only if its
      // transmitter is decisively closer than the competing one (physical
      // capture). Hidden terminals — senders out of each other's
      // carrier-sense range whose signals meet at this receiver, possibly
      // too weak to decode but strong enough to corrupt — are what make
      // multi-hop floods lossy.
      if (decodable) rx.activity.rx_airtime += airtime;
      Reception incoming{.tx_seq = tx_seq,
                         .sender_distance = new_dist,
                         .corrupted = false,
                         .decodable = decodable};
      for (Reception& ongoing : rx.receptions) {
        if (new_dist > ongoing.sender_distance * cfg_.capture_ratio) {
          incoming.corrupted = true;
        }
        if (ongoing.sender_distance > new_dist * cfg_.capture_ratio) {
          ongoing.corrupted = true;
        }
      }
      rx.receptions.push_back(incoming);
      out.push_back(ridx);
    }
    shard_half_duplex_[shard] = half_duplex;
  };

  if (shards_ && cands.size() >= cfg_.shard_min_candidates) {
    PDS_PROF_SCOPE(sim_.profiler(), "classify-shards");
    shards_->run(cands.size(), classify);
  } else {
    classify(0, cands.size(), 0);
    for (std::size_t s = 1; s < shard_receivers_.size(); ++s) {
      shard_receivers_[s].clear();
      shard_half_duplex_[s] = 0;
    }
  }

  // Merge per-shard partials in shard order: shards cover contiguous,
  // ascending candidate ranges, so concatenation reproduces the serial
  // receiver order exactly.
  std::vector<Index> receivers;
  for (std::size_t s = 0; s < shard_receivers_.size(); ++s) {
    std::vector<Index>& part = shard_receivers_[s];
    receivers.insert(receivers.end(), part.begin(), part.end());
    part.clear();
    stats_.losses_half_duplex += shard_half_duplex_[s];
    shard_half_duplex_[s] = 0;
  }

  // One completion event per transmission, iterating receivers in candidate
  // (registration) order — the same per-receiver sequence the historical
  // per-receiver events produced, since those carried consecutive sequence
  // numbers at the identical timestamp.
  if (!receivers.empty()) {
    sim_.schedule_at(tx_end_[idx], [this, recv = std::move(receivers),
                                    fr = std::move(frame), tx_seq] {
      for (Index ridx : recv) finish_reception(ridx, tx_seq, fr);
    });
  }

  sim_.schedule_at(tx_end_[idx], [this, idx] { finish_transmission(idx); });
}

void RadioMedium::finish_transmission(Index idx) {
  tx_active_[idx] = 0;
  auto it = std::find(transmitting_.begin(), transmitting_.end(), idx);
  PDS_ENSURE(it != transmitting_.end());
  *it = transmitting_.back();
  transmitting_.pop_back();
  maybe_schedule_attempt(idx, SimTime::zero());
}

void RadioMedium::finish_reception(Index ridx, std::uint64_t tx_seq,
                                   const Frame& frame) {
  NodeState& rx = states_[ridx];
  auto it = std::find_if(rx.receptions.begin(), rx.receptions.end(),
                         [tx_seq](const Reception& r) {
                           return r.tx_seq == tx_seq;
                         });
  if (it == rx.receptions.end()) return;  // node left mid-frame
  const Reception rec = *it;
  rx.receptions.erase(it);

  if (enabled_[ridx] == 0 || !rec.decodable) return;
  if (rec.corrupted) {
    ++stats_.losses_collision;
    PDS_TRACE_INSTANT(sim_.tracer(), sim_.now(), rx.id, "radio", "collision",
                      {"bytes", frame.size_bytes});
    return;
  }
  // Scripted per-pair override (partition / degraded link) replaces the
  // noise/burst draw for this sender–receiver pair. A hard partition edge
  // (loss >= 1) drops without consuming randomness so the RNG stream stays
  // aligned across schedules that only differ in partitioned pairs.
  if (!pair_loss_.empty()) {
    if (auto it = pair_loss_.find(pair_key(frame.sender, rx.id));
        it != pair_loss_.end()) {
      if (it->second >= 1.0 || rng_.bernoulli(it->second)) {
        ++stats_.losses_fault;
        return;
      }
      ++stats_.deliveries;
      rx.sink->on_frame(frame);
      return;
    }
  }
  if (rx.burst_enabled) {
    // Gilbert–Elliott channel: advance the two-state chain once per
    // decodable frame, then draw from the current state's loss rate.
    if (rx.burst_bad) {
      if (rng_.bernoulli(rx.burst.p_bad_to_good)) rx.burst_bad = false;
    } else {
      if (rng_.bernoulli(rx.burst.p_good_to_bad)) rx.burst_bad = true;
    }
    const double p = rx.burst_bad ? rx.burst.loss_bad : rx.burst.loss_good;
    if (rng_.bernoulli(p)) {
      ++stats_.losses_burst;
      return;
    }
    ++stats_.deliveries;
    rx.sink->on_frame(frame);
    return;
  }
  if (rng_.bernoulli(cfg_.loss_probability)) {
    ++stats_.losses_noise;
    return;
  }
  ++stats_.deliveries;
  rx.sink->on_frame(frame);
}

RadioMedium::TxCellOccupancy RadioMedium::tx_cell_occupancy() const {
  TxCellOccupancy out;
  // Small map: |transmitting_| concurrent transmitters, not N nodes. Only
  // the distinct-cell count and the per-cell max leave this function, both
  // independent of hash iteration order.
  std::unordered_map<std::uint64_t, std::size_t> per_cell;
  per_cell.reserve(transmitting_.size());
  for (Index idx : transmitting_) {
    const std::uint64_t key = coarse_key(cell_fx_[idx] >> kCoarseShift,
                                         cell_fy_[idx] >> kCoarseShift);
    const std::size_t n = ++per_cell[key];
    out.max_per_cell = std::max(out.max_per_cell, n);
  }
  out.cells = per_cell.size();
  return out;
}

std::size_t RadioMedium::total_os_backlog_bytes() const {
  std::size_t total = 0;
  for (const NodeState& st : states_) total += st.os_bytes;
  return total;
}

}  // namespace pds::sim
