#include "core/mdr.h"

#include <algorithm>
#include <memory>

#include "common/assert.h"
#include "obs/trace.h"

namespace pds::core {

MdrSession::MdrSession(NodeContext& ctx, DataDescriptor item_descriptor,
                       Callback done)
    : ctx_(ctx),
      item_descriptor_(std::move(item_descriptor)),
      item_(item_descriptor_.item_id()),
      done_(std::move(done)) {
  const auto total = item_descriptor_.total_chunks();
  PDS_ENSURE(total.has_value() && *total > 0);
  total_chunks_ = static_cast<std::size_t>(*total);
}

// The discovery window T is calibrated for 30-byte metadata entries; a
// 256 KB chunk takes ~0.46 s just to pace through the leaky bucket per hop,
// so chunk rounds judge "diminishing" on a window scaled to the chunk
// transfer time, and never end before a couple of multi-hop transfers could
// possibly complete.
SimTime MdrSession::round_window() const {
  const SimTime chunk_tx = transmission_time(
      ctx_.config.chunk_size_bytes, ctx_.config.transport.leak_rate_bps);
  // Patience scales with remaining work: while dozens of chunks are still
  // streaming store-and-forward across a contended medium, multi-second
  // arrival gaps are normal, and a premature round floods duplicate
  // requests for everything already in flight.
  const double missing = static_cast<double>(missing_chunks().size());
  return std::max(ctx_.config.window,
                  std::max(4.0, missing / 4.0) * chunk_tx);
}

SimTime MdrSession::min_round_duration() const {
  // A round must live long enough for the requested volume to stream
  // through the network at the paced rate (store-and-forward per hop, with
  // contention); ending rounds early just floods duplicate requests into an
  // already saturated medium. Rounds that made no progress back off
  // exponentially: the missing chunks are usually still crawling through a
  // backlogged region, and hammering them helps nobody.
  const SimTime chunk_tx = transmission_time(
      ctx_.config.chunk_size_bytes, ctx_.config.transport.leak_rate_bps);
  const auto requested = static_cast<double>(missing_chunks().size());
  const SimTime base =
      std::max(2.0 * round_window(), requested * chunk_tx);
  return base * static_cast<double>(1 << std::min(no_progress_rounds_, 3));
}

std::vector<ChunkIndex> MdrSession::missing_chunks() const {
  std::vector<ChunkIndex> out;
  for (ChunkIndex c = 0; c < total_chunks_; ++c) {
    if (!chunks_.contains(c)) out.push_back(c);
  }
  return out;
}

void MdrSession::start() {
  PDS_ENSURE(!started_);
  started_ = true;
  start_time_ = ctx_.now();
  last_new_chunk_ = start_time_;

  for (ChunkIndex c : ctx_.store.chunks_of(item_)) {
    if (const auto payload = ctx_.store.chunk(item_, c)) chunks_[c] = *payload;
  }
  if (chunks_.size() >= total_chunks_) {
    finish(true);
    return;
  }
  start_round();
}

void MdrSession::sync_from_store() {
  for (ChunkIndex c : ctx_.store.chunks_of(item_)) {
    if (chunks_.contains(c)) continue;
    const auto payload = ctx_.store.chunk(item_, c);
    if (!payload.has_value()) continue;
    chunks_[c] = *payload;
    last_new_chunk_ = ctx_.now();
    ++round_new_;
    // Counts as round activity: a chunk that arrived outside the session's
    // lingering query is still progress, and starting a fresh round while
    // data is flowing only floods duplicate requests.
    round_response_times_.push_back(ctx_.now());
  }
  if (!finished_ && chunks_.size() >= total_chunks_) finish(true);
}

void MdrSession::start_round() {
  ++rounds_;
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "mdr", "round",
                    {"round", rounds_}, {"missing", missing_chunks().size()});
  round_start_ = ctx_.now();
  round_new_ = 0;
  round_response_times_.clear();

  // Each round floods a query for every chunk not yet received (§VI-B.3).
  auto query = std::make_shared<net::Message>();
  query->type = net::MessageType::kQuery;
  query->kind = net::ContentKind::kChunk;
  query->query_id = ctx_.new_query_id();
  query->sender = ctx_.self;
  // A round's query must not outlive the round by much: stale generations
  // lingering at relays fork every passing chunk into extra reverse paths.
  query->expire_at =
      ctx_.now() + min_round_duration() + 4.0 * round_window();
  query->target = item_descriptor_;
  query->requested_chunks = missing_chunks();

  // Causal spans (DESIGN.md §14): the session's trace id is its first
  // flooded query id; each round's flood is a tx child of a round span.
  if (trace_id_ == 0) {
    trace_id_ = query->query_id.value();
    root_span_ = ctx_.new_span();
    PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "causal",
                      "root", {"trace", trace_id_}, {"span", root_span_},
                      {"kind", "mdr"});
  }
  const std::uint64_t round_span = ctx_.new_span();
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "causal",
                    "round", {"trace", trace_id_}, {"span", round_span},
                    {"parent", root_span_}, {"round", rounds_});
  const std::uint64_t tx_span = ctx_.new_span();
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "causal", "tx",
                    {"trace", trace_id_}, {"span", tx_span},
                    {"parent", round_span}, {"hop", 0});
  query->trace = {trace_id_, tx_span, ctx_.self.value(), 0};

  ctx_.register_local_query(
      query, [this](const net::Message& r) { on_local_response(r); });
  ctx_.transport.send(std::move(query));

  const SimTime interval =
      std::max(round_window() * 0.25, SimTime::millis(50));
  ctx_.sim.schedule(interval, [this] { check_round(); });
}

void MdrSession::on_local_response(const net::Message& response) {
  if (finished_) return;
  if (response.kind != net::ContentKind::kChunk || !response.chunk) return;
  round_response_times_.push_back(ctx_.now());
  const ChunkIndex c = response.chunk->index;
  if (chunks_.emplace(c, *response.chunk).second) {
    last_new_chunk_ = ctx_.now();
    ++round_new_;
    if (chunks_.size() >= total_chunks_) finish(true);
  }
}

void MdrSession::check_round() {
  if (finished_) return;
  sync_from_store();
  if (finished_) return;
  const SimTime now = ctx_.now();
  const SimTime window = round_window();
  const SimTime interval = std::max(window * 0.25, SimTime::millis(50));

  if (now - round_start_ < min_round_duration()) {
    ctx_.sim.schedule(interval, [this] { check_round(); });
    return;
  }
  const auto total = static_cast<double>(round_response_times_.size());
  std::size_t in_window = 0;
  for (SimTime t : round_response_times_) {
    if (t > now - window) ++in_window;
  }
  if (static_cast<double>(in_window) > ctx_.config.threshold_tr * total) {
    ctx_.sim.schedule(interval, [this] { check_round(); });
    return;
  }

  // Round over: request the remainder, or give up once rounds stop making
  // progress.
  no_progress_rounds_ = round_new_ == 0 ? no_progress_rounds_ + 1 : 0;
  if (no_progress_rounds_ >= 4 ||
      rounds_ >= ctx_.config.max_retrieval_rounds) {
    finish(chunks_.size() >= total_chunks_);
    return;
  }
  start_round();
}

void MdrSession::finish(bool complete) {
  if (finished_) return;
  finished_ = true;
  result_.complete = complete;
  result_.chunks_received = chunks_.size();
  result_.total_chunks = total_chunks_;
  result_.latency =
      chunks_.empty() ? SimTime::zero() : last_new_chunk_ - start_time_;
  result_.request_rounds = rounds_;
  result_.finished_at = ctx_.now();
  if (done_) done_(result_);
}

}  // namespace pds::core
