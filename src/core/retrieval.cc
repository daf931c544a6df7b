#include "core/retrieval.h"

#include <algorithm>
#include <memory>

#include "common/assert.h"
#include "core/causal.h"
#include "core/pdr.h"
#include "obs/trace.h"

namespace pds::core {

PdrSession::PdrSession(NodeContext& ctx, DataDescriptor item_descriptor,
                       Callback done)
    : ctx_(ctx),
      item_descriptor_(std::move(item_descriptor)),
      item_(item_descriptor_.item_id()),
      done_(std::move(done)) {
  const auto total = item_descriptor_.total_chunks();
  PDS_ENSURE(total.has_value() && *total > 0);
  total_chunks_ = static_cast<std::size_t>(*total);
}

std::vector<ChunkIndex> PdrSession::missing_chunks() const {
  std::vector<ChunkIndex> out;
  for (ChunkIndex c = 0; c < total_chunks_; ++c) {
    if (!chunks_.contains(c)) out.push_back(c);
  }
  return out;
}

void PdrSession::start() {
  PDS_ENSURE(phase_ == Phase::kIdle);
  start_time_ = ctx_.now();
  last_new_chunk_ = start_time_;

  // Chunks already cached locally (overheard during earlier retrievals)
  // count immediately.
  for (ChunkIndex c : ctx_.store.chunks_of(item_)) {
    if (const auto payload = ctx_.store.chunk(item_, c)) {
      chunks_[c] = *payload;
      arrivals_[c] = ctx_.now();
    }
  }
  if (chunks_.size() >= total_chunks_) {
    phase_ = Phase::kCdi;  // finish() requires a non-idle phase transition
    finish(true);
    return;
  }
  phase_ = Phase::kCdi;
  send_cdi_query();
  ctx_.sim.schedule(ctx_.config.cdi_window * 0.5, [this] { check_cdi(); });
}

void PdrSession::send_cdi_query() {
  ++cdi_rounds_;
  last_cdi_activity_ = ctx_.now();
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "pdr",
                    "cdi_round", {"round", cdi_rounds_});

  auto query = std::make_shared<net::Message>();
  query->type = net::MessageType::kQuery;
  query->kind = net::ContentKind::kCdi;
  query->query_id = ctx_.new_query_id();
  query->sender = ctx_.self;
  query->expire_at = ctx_.now() + ctx_.config.query_lifetime;
  query->target = item_descriptor_;

  // Causal spans (DESIGN.md §14): the session's trace id is its first CDI
  // query id; each CDI round hangs off the root span.
  if (trace_id_ == 0) {
    trace_id_ = query->query_id.value();
    root_span_ = ctx_.new_span();
    PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "causal",
                      "root", {"trace", trace_id_}, {"span", root_span_},
                      {"kind", "pdr"});
  }
  const std::uint64_t round_span = ctx_.new_span();
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "causal",
                    "round", {"trace", trace_id_}, {"span", round_span},
                    {"parent", root_span_}, {"round", cdi_rounds_});
  const std::uint64_t tx_span = ctx_.new_span();
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "causal", "tx",
                    {"trace", trace_id_}, {"span", tx_span},
                    {"parent", round_span}, {"hop", 0});
  query->trace = {trace_id_, tx_span, ctx_.self.value(), 0};

  ctx_.register_local_query(
      query, [this](const net::Message& r) { on_local_response(r); });
  ctx_.transport.send(query);
}

bool PdrSession::cdi_covers_missing() const {
  for (ChunkIndex c : missing_chunks()) {
    if (ctx_.cdi.lookup(item_, c, ctx_.now()) == nullptr) return false;
  }
  return true;
}

void PdrSession::check_cdi() {
  if (phase_ != Phase::kCdi) return;
  if (cdi_covers_missing()) {
    begin_fetch();
    return;
  }
  if (ctx_.now() - last_cdi_activity_ >= ctx_.config.cdi_window) {
    // CDI collection went silent without full coverage.
    if (cdi_rounds_ < ctx_.config.max_cdi_rounds) {
      send_cdi_query();
    } else if (ctx_.cdi.lookup_item(item_, ctx_.now()).empty() &&
               chunks_.empty()) {
      finish(false);  // nothing reachable at all
      return;
    } else {
      begin_fetch();  // proceed with partial coverage
      return;
    }
  }
  ctx_.sim.schedule(ctx_.config.cdi_window * 0.5, [this] { check_cdi(); });
}

void PdrSession::begin_fetch() {
  PDS_ENSURE(phase_ == Phase::kCdi);
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "pdr",
                    "cdi_done", {"rounds", cdi_rounds_},
                    {"missing", missing_chunks().size()});
  phase_ = Phase::kFetch;
  last_progress_ = ctx_.now();
  issue_requests();
  ctx_.sim.schedule(ctx_.config.retrieval_stall_timeout * 0.5,
                    [this] { check_stall(); });
}

void PdrSession::sync_from_store() {
  for (ChunkIndex c : ctx_.store.chunks_of(item_)) {
    if (chunks_.contains(c)) continue;
    const auto payload = ctx_.store.chunk(item_, c);
    if (!payload.has_value()) continue;
    chunks_[c] = *payload;
    arrivals_[c] = ctx_.now();
    last_new_chunk_ = ctx_.now();
    last_progress_ = ctx_.now();
  }
  if (phase_ != Phase::kDone && chunks_.size() >= total_chunks_) finish(true);
}

void PdrSession::issue_requests() {
  ++request_rounds_;
  sync_from_store();
  if (phase_ == Phase::kDone) return;
  const std::vector<ChunkIndex> missing = missing_chunks();
  if (missing.empty()) {
    finish(true);
    return;
  }
  const ChunkPlan plan = plan_chunk_requests(ctx_, item_, missing);
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "pdr", "plan",
                    {"missing", missing.size()},
                    {"neighbors", plan.by_neighbor.size()},
                    {"unroutable", plan.unroutable.size()});
  // Fetch rounds get their own causal round span under the session root;
  // every directed chunk query of the round is a tx child of it.
  std::uint64_t round_span = 0;
  if (trace_id_ != 0 && !plan.by_neighbor.empty()) {
    round_span = ctx_.new_span();
    PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "causal",
                      "round", {"trace", trace_id_}, {"span", round_span},
                      {"parent", root_span_}, {"round", request_rounds_});
  }
  for (const auto& [neighbor, chunk_list] : plan.by_neighbor) {
    PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "pdr",
                      "assign", {"neighbor", neighbor},
                      {"chunks", chunk_list.size()});
    auto query = std::make_shared<net::Message>();
    query->type = net::MessageType::kQuery;
    query->kind = net::ContentKind::kChunk;
    query->query_id = ctx_.new_query_id();
    query->sender = ctx_.self;
    query->receivers = {neighbor};
    // Bounded by the stall timeout: a re-plan should find the previous
    // generation gone from relays, not fork chunks down both paths.
    query->expire_at = ctx_.now() + 2.0 * ctx_.config.retrieval_stall_timeout;
    query->ttl = ctx_.config.chunk_query_ttl;
    query->target = item_descriptor_;
    query->requested_chunks = chunk_list;
    if (trace_id_ != 0) {
      const std::uint64_t tx_span = ctx_.new_span();
      PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "causal",
                        "tx", {"trace", trace_id_}, {"span", tx_span},
                        {"parent", round_span}, {"hop", 0});
      query->trace = {trace_id_, tx_span, ctx_.self.value(), 0};
    }
    ctx_.register_local_query(
        query, [this](const net::Message& r) { on_local_response(r); });
    ctx_.transport.send(std::move(query));
  }
  if (!plan.unroutable.empty() && cdi_rounds_ < ctx_.config.max_cdi_rounds) {
    send_cdi_query();  // refresh routing state for the unroutable chunks
  }
  if (plan.by_neighbor.empty() &&
      cdi_rounds_ >= ctx_.config.max_cdi_rounds) {
    finish(false);  // no way to route any request and no CDI budget left
  }
}

void PdrSession::on_peer_unreachable(NodeId peer) {
  if (phase_ != Phase::kFetch) return;
  if (request_rounds_ >= ctx_.config.max_retrieval_rounds) return;
  // A crash makes every in-flight message toward the peer give up in quick
  // succession; one re-plan covers them all.
  const SimTime cooldown = ctx_.config.retrieval_stall_timeout * 0.25;
  if (ctx_.now() - last_redispatch_ < cooldown &&
      last_redispatch_ != SimTime::zero()) {
    return;
  }
  last_redispatch_ = ctx_.now();
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "fault",
                    "redispatch", {"peer", peer},
                    {"missing", missing_chunks().size()});
  last_progress_ = ctx_.now();
  issue_requests();
}

void PdrSession::check_stall() {
  if (phase_ != Phase::kFetch) return;
  sync_from_store();
  if (phase_ != Phase::kFetch) return;
  if (ctx_.now() - last_progress_ >= ctx_.config.retrieval_stall_timeout) {
    if (request_rounds_ >= ctx_.config.max_retrieval_rounds) {
      finish(chunks_.size() >= total_chunks_);
      return;
    }
    last_progress_ = ctx_.now();
    issue_requests();
    if (phase_ != Phase::kFetch) return;  // issue_requests may finish()
  }
  ctx_.sim.schedule(ctx_.config.retrieval_stall_timeout * 0.5,
                    [this] { check_stall(); });
}

void PdrSession::on_local_response(const net::Message& response) {
  if (phase_ == Phase::kDone) return;
  if (response.kind == net::ContentKind::kCdi) {
    last_cdi_activity_ = ctx_.now();
    return;
  }
  if (response.kind != net::ContentKind::kChunk || !response.chunk) return;
  const ChunkIndex c = response.chunk->index;
  if (chunks_.emplace(c, *response.chunk).second) {
    arrivals_[c] = ctx_.now();
    last_new_chunk_ = ctx_.now();
    last_progress_ = ctx_.now();
    PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "pdr",
                      "chunk_arrival", {"chunk", c},
                      {"have", chunks_.size()}, {"total", total_chunks_});
    if (chunks_.size() >= total_chunks_ && phase_ != Phase::kDone) {
      finish(true);
    }
  }
}

void PdrSession::finish(bool complete) {
  PDS_ENSURE(phase_ != Phase::kDone && phase_ != Phase::kIdle);
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "pdr",
                    "session_done",
                    {"complete", static_cast<std::int64_t>(complete)},
                    {"chunks", chunks_.size()}, {"total", total_chunks_});
  phase_ = Phase::kDone;
  result_.complete = complete;
  result_.chunks_received = chunks_.size();
  result_.total_chunks = total_chunks_;
  result_.latency =
      chunks_.empty() ? SimTime::zero() : last_new_chunk_ - start_time_;
  result_.cdi_rounds = cdi_rounds_;
  result_.request_rounds = request_rounds_;
  result_.finished_at = ctx_.now();
  if (done_) done_(result_);
}

}  // namespace pds::core
