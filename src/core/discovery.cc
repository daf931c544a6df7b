#include "core/discovery.h"

#include <algorithm>
#include <memory>

#include "common/assert.h"
#include "common/hash.h"
#include "obs/trace.h"

namespace pds::core {

namespace {

// Adaptive round spacing (DESIGN.md §16): the wait before every re-flood,
// the ceiling its exponential backoff stops at, and the new/total ratio
// below which a round counts as contributing little novelty.
constexpr SimTime kAdaptiveSpacingBase = SimTime::millis(250);
constexpr SimTime kAdaptiveSpacingMax = SimTime::seconds(2.0);
constexpr double kAdaptiveNoveltyThreshold = 0.05;

}  // namespace

DiscoverySession::DiscoverySession(NodeContext& ctx, net::ContentKind kind,
                                   Filter filter, Callback done)
    : ctx_(ctx),
      kind_(kind),
      filter_(std::move(filter)),
      done_(std::move(done)),
      bloom_seed_base_(ctx.rng.next_u64()) {
  PDS_ENSURE(kind == net::ContentKind::kMetadata ||
             kind == net::ContentKind::kItem);
}

void DiscoverySession::record_key(std::uint64_t key) {
  const auto [it, inserted] = arrivals_.emplace(key, ctx_.now());
  if (inserted) {
    last_new_arrival_ = ctx_.now();
    ++round_new_;
  }
}

void DiscoverySession::start() {
  PDS_ENSURE(!started_);
  started_ = true;
  start_time_ = ctx_.now();
  last_new_arrival_ = start_time_;

  // Entries already cached locally (opportunistic caching from earlier
  // traffic) count as received immediately; the paper's 5th sequential
  // consumer finishes in 0.2 s because >95% of entries were pre-cached.
  if (kind_ == net::ContentKind::kMetadata) {
    for (DataDescriptor& d : ctx_.store.match_metadata(filter_, ctx_.now())) {
      const std::uint64_t key = d.entry_key();
      if (!arrivals_.contains(key)) entries_.push_back(d);
      record_key(key);
    }
  } else {
    for (net::ItemPayload& item : ctx_.store.match_items(filter_, ctx_.now())) {
      const std::uint64_t key = item.descriptor.entry_key();
      if (!arrivals_.contains(key)) items_.push_back(item);
      record_key(key);
    }
  }
  round_new_ = 0;  // pre-cached entries do not count as round progress
  start_round();
}

void DiscoverySession::start_round() {
  ++rounds_;
  PDS_TRACE_BEGIN(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "pdd",
                  "round", {"round", rounds_},
                  {"arrivals", arrivals_.size()});
  round_start_ = ctx_.now();
  round_new_ = 0;
  round_response_times_.clear();

  auto query = std::make_shared<net::Message>();
  query->type = net::MessageType::kQuery;
  query->kind = kind_;
  query->query_id = ctx_.new_query_id();
  query->sender = ctx_.self;
  query->expire_at = ctx_.now() + ctx_.config.query_lifetime;
  query->filter = filter_;

  // Causal spans (DESIGN.md §14): the session's trace id is its first query
  // id (already globally unique and on the wire); span ids tick whether or
  // not a tracer is attached, so traced and untraced runs stay identical.
  if (trace_id_ == 0) {
    trace_id_ = query->query_id.value();
    root_span_ = ctx_.new_span();
    PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "causal",
                      "root", {"trace", trace_id_}, {"span", root_span_},
                      {"kind", kind_ == net::ContentKind::kMetadata
                                   ? "pdd-metadata"
                                   : "pdd-item"});
  }
  round_span_ = ctx_.new_span();
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "causal",
                    "round", {"trace", trace_id_}, {"span", round_span_},
                    {"parent", root_span_}, {"round", rounds_});
  const std::uint64_t tx_span = ctx_.new_span();
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "causal", "tx",
                    {"trace", trace_id_}, {"span", tx_span},
                    {"parent", round_span_}, {"hop", 0});
  query->trace = {trace_id_, tx_span, ctx_.self.value(), 0};

  // Redundancy detection: from the second round on (or whenever something is
  // already held), attach a Bloom filter of everything received, built with
  // a per-round hash family so persistent false positives die out (§V.3).
  if (ctx_.config.enable_bloom_rewriting && !arrivals_.empty()) {
    if (ctx_.config.wire.delta_bloom) {
      // Delta-Bloom mode (DESIGN.md §16): every round after novelty starts
      // a fresh epoch — new hash family, filter sized exactly for the
      // current arrivals — and ships it as a full frame. Two reasons a
      // delta cannot follow a productive round anyway: (a) a relay that
      // served rewrote the forwarded filter into classic form, so caches
      // downstream of it missed the session's frames and a delta would
      // push them to the fallback path; (b) rotating the family on every
      // full frame restores classic's per-round false-positive die-out for
      // entries still outstanding. Deltas ship only after silent rounds,
      // where frames relayed verbatim (no serve, no rewrite), every cache
      // is known to be in step, and the frame carries no blocks — a few
      // bytes per hop to confirm the quiesced state.
      const bool novelty = arrivals_.size() != arrivals_at_last_frame_;
      const bool fresh_epoch = session_filter_.empty_filter() || novelty;
      if (fresh_epoch) {
        ++epoch_;
        session_filter_ = util::BloomFilter::with_capacity(
            arrivals_.size() + 64, ctx_.config.bloom_fpp,
            hash_combine(bloom_seed_base_,
                         static_cast<std::uint64_t>(epoch_)));
      }
      // Insertion is an idempotent bit-OR: re-inserting everything each
      // round only touches the words of keys new since the last frame.
      // pdslint:allow(unordered-iter)
      for (const auto& [key, when] : arrivals_) session_filter_.insert(key);
      query->exclude_delta = delta_sender_.next_frame(
          trace_id_, epoch_, session_filter_, fresh_epoch);
      arrivals_at_last_frame_ = arrivals_.size();
    } else {
      util::BloomFilter bloom = util::BloomFilter::with_capacity(
          arrivals_.size(), ctx_.config.bloom_fpp,
          hash_combine(bloom_seed_base_, static_cast<std::uint64_t>(rounds_)));
      // Bloom insertion is commutative (bitwise OR), so hash-order iteration
      // cannot reach the wire or the trace. pdslint:allow(unordered-iter)
      for (const auto& [key, when] : arrivals_) bloom.insert(key);
      query->exclude = std::move(bloom);
    }
  }

  ctx_.register_local_query(
      query, [this](const net::Message& r) { on_local_response(r); });
  ctx_.transport.send(query);
  schedule_check();
}

void DiscoverySession::on_local_response(const net::Message& response) {
  if (finished_) return;
  round_response_times_.push_back(ctx_.now());
  if (kind_ == net::ContentKind::kMetadata) {
    for (const DataDescriptor& d : response.metadata) {
      const std::uint64_t key = d.entry_key();
      if (!arrivals_.contains(key)) entries_.push_back(d);
      record_key(key);
    }
  } else {
    for (const net::ItemPayload& item : response.items) {
      const std::uint64_t key = item.descriptor.entry_key();
      if (!arrivals_.contains(key)) items_.push_back(item);
      record_key(key);
    }
  }
}

void DiscoverySession::schedule_check() {
  // Poll round state at a fraction of the window so a silent round ends
  // within roughly T of its last response.
  const SimTime interval =
      std::max(ctx_.config.window * 0.25, SimTime::millis(50));
  ctx_.sim.schedule(interval, [this] { check_round(); });
}

void DiscoverySession::check_round() {
  if (finished_) return;
  const SimTime now = ctx_.now();
  const SimTime window = ctx_.config.window;

  if (now - round_start_ < window) {
    schedule_check();
    return;
  }
  const auto total = static_cast<double>(round_response_times_.size());
  std::size_t in_window = 0;
  for (SimTime t : round_response_times_) {
    if (t > now - window) ++in_window;
  }
  // Diminishing rule: responses still arriving within the recent window —
  // round continues.
  if (static_cast<double>(in_window) > ctx_.config.threshold_tr * total) {
    schedule_check();
    return;
  }

  // Round finished; decide whether to start another (§III-B.2).
  close_round();
  if (arrivals_.empty()) {
    // Nothing received at all: the flooded query itself was probably lost.
    // The paper's rule would terminate with recall 0; a real consumer
    // retries, so we re-issue a bounded number of times.
    if (empty_retries_ < ctx_.config.empty_round_retries) {
      ++empty_retries_;
      start_round();
      return;
    }
    finish();
    return;
  }
  const double new_ratio = static_cast<double>(round_new_) /
                           static_cast<double>(arrivals_.size());
  if (round_new_ > 0) confirmation_round_ = false;
  if (new_ratio > ctx_.config.threshold_td &&
      rounds_ < ctx_.config.max_rounds) {
    schedule_next_round(new_ratio);
  } else if (ctx_.config.wire.delta_bloom &&
             ctx_.config.enable_bloom_rewriting &&
             !confirmation_round_ && rounds_ < ctx_.config.max_rounds) {
    // Confirmation round (DESIGN.md §16): before finishing, re-query once
    // more. The round it confirms was silent — nothing served, so every
    // sync cache relayed the epoch's snapshot verbatim and is in step —
    // and the query ships a no-op delta frame, a few bytes per hop instead
    // of a snapshot flood. It catches two things the classic
    // terminate-on-silence rule misses: responses still in flight when the
    // previous round closed, and nodes whose sync cache fell back (their
    // stale filter makes them re-offer anything the consumer gained
    // since). If it surfaces new entries, discovery continues normally and
    // a later finish confirms again.
    confirmation_round_ = true;
    start_round();
  } else {
    finish();
  }
}

void DiscoverySession::schedule_next_round(double novelty) {
  if (!ctx_.config.adaptive_round_spacing) {
    spacing_ = SimTime::zero();
    start_round();
    return;
  }
  // Adaptive spacing: every re-flood waits at least the base spacing, so
  // responses still in flight land before the next round's filter is built
  // — the re-flood excludes them instead of re-collecting them, and the
  // round after a now-silent round can ship a no-op delta frame. Rounds
  // that contributed little novelty back off exponentially up to the max.
  spacing_ =
      novelty >= kAdaptiveNoveltyThreshold || spacing_ == SimTime::zero()
          ? kAdaptiveSpacingBase
          : std::min(spacing_ * 2.0, kAdaptiveSpacingMax);
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "pdd",
                    "round_backoff", {"round", rounds_},
                    {"delay_us", spacing_.as_micros()});
  ctx_.sim.schedule(spacing_, [this] {
    if (!finished_) start_round();
  });
}

void DiscoverySession::close_round() {
  RoundRecord rec;
  rec.round = rounds_;
  rec.start = round_start_;
  rec.end = ctx_.now();
  rec.new_keys = round_new_;
  rec.cumulative = arrivals_.size();
  rec.responses = round_response_times_.size();
  round_history_.push_back(rec);
  PDS_TRACE_END(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "pdd", "round",
                {"round", rec.round}, {"new", rec.new_keys},
                {"total", rec.cumulative}, {"responses", rec.responses});
}

void DiscoverySession::finish() {
  PDS_ENSURE(!finished_);
  finished_ = true;
  result_.distinct_received = arrivals_.size();
  result_.latency = arrivals_.empty() ? SimTime::zero()
                                      : last_new_arrival_ - start_time_;
  result_.rounds = rounds_;
  result_.finished_at = ctx_.now();
  PDS_TRACE_INSTANT(ctx_.sim.tracer(), ctx_.now(), ctx_.self, "pdd",
                    "session_done", {"rounds", rounds_},
                    {"total", arrivals_.size()});
  if (done_) done_(result_);
}

}  // namespace pds::core
