#include "net/bloom_delta.h"

#include <utility>

#include "common/assert.h"
#include "common/hash.h"

namespace pds::net {

namespace {

// Frame flag bits (byte after seq).
constexpr std::uint8_t kFlagFull = 0x01;

// Caps mirrored from BloomFilter::decode: at most 32 MiB of filter bits,
// so at most this many 64-bit words can legitimately appear in a frame.
constexpr std::uint32_t kMaxBitCount = 1u << 28;
constexpr std::uint32_t kMaxWordIndex = kMaxBitCount / 64;

}  // namespace

std::uint64_t bloom_check(const util::BloomFilter& f) {
  std::uint64_t h = hash_combine(f.bit_count(), f.hash_count());
  h = hash_combine(h, f.seed());
  for (std::uint64_t word : f.words()) h = hash_combine(h, word);
  return h;
}

template <typename Sink>
void BloomDeltaFrame::encode(Sink& w) const {
  w.put_u64(session);
  w.put_varint(epoch);
  w.put_varint(seq);
  w.put_u8(full ? kFlagFull : 0);
  if (full) {
    w.put_varint(bit_count);
    w.put_u8(hash_count);
    w.put_u64(seed);
  } else {
    w.put_u64(base_check);
  }
  w.put_u64(self_check);
  w.put_varint(blocks.size());
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    // First index raw; later ones as the gap to the previous index, which
    // is >= 1 because blocks are strictly increasing.
    w.put_varint(i == 0 ? blocks[i].index : blocks[i].index - prev);
    w.put_u64(blocks[i].word);
    prev = blocks[i].index;
  }
}

template void BloomDeltaFrame::encode(ByteWriter&) const;
template void BloomDeltaFrame::encode(ByteCounter&) const;

BloomDeltaFrame BloomDeltaFrame::decode(ByteReader& r) {
  BloomDeltaFrame f;
  f.session = r.get_u64();
  const std::uint64_t epoch = r.get_varint();
  const std::uint64_t seq = r.get_varint();
  if (epoch > 0xffffffffULL || seq > 0xffffffffULL) {
    throw DecodeError("Bloom sync epoch/seq out of range");
  }
  f.epoch = static_cast<std::uint32_t>(epoch);
  f.seq = static_cast<std::uint32_t>(seq);
  const std::uint8_t flags = r.get_u8();
  if ((flags & ~kFlagFull) != 0) {
    throw DecodeError("unknown Bloom sync frame flags");
  }
  f.full = (flags & kFlagFull) != 0;
  if (f.full) {
    const std::uint64_t bits = r.get_varint();
    f.hash_count = r.get_u8();
    f.seed = r.get_u64();
    if (bits == 0 || bits > kMaxBitCount || f.hash_count == 0) {
      throw DecodeError("malformed Bloom sync filter parameters");
    }
    f.bit_count = static_cast<std::uint32_t>(bits);
  } else {
    f.base_check = r.get_u64();
  }
  f.self_check = r.get_u64();
  const std::uint64_t n_blocks = r.get_varint();
  if (n_blocks > kMaxWordIndex) {
    throw DecodeError("Bloom sync block count out of range");
  }
  const std::uint32_t word_limit =
      f.full ? (f.bit_count + 63) / 64 : kMaxWordIndex;
  std::uint32_t prev = 0;
  for (std::uint64_t i = 0; i < n_blocks; ++i) {
    const std::uint64_t gap = r.get_varint();
    const std::uint64_t index = (i == 0) ? gap : gap + prev;
    if ((i > 0 && gap == 0) || index >= word_limit) {
      throw DecodeError("Bloom sync blocks not strictly increasing");
    }
    Block b;
    b.index = static_cast<std::uint32_t>(index);
    b.word = r.get_u64();
    if (b.word == 0) throw DecodeError("zero word in Bloom sync block");
    f.blocks.push_back(b);
    prev = b.index;
  }
  return f;
}

std::size_t BloomDeltaFrame::wire_size() const {
  ByteCounter c;
  encode(c);
  return c.size();
}

BloomDeltaFrame DeltaBloomSender::next_frame(std::uint64_t session,
                                             std::uint32_t epoch,
                                             const util::BloomFilter& filter,
                                             bool force_full) {
  PDS_ENSURE(!filter.empty_filter());
  BloomDeltaFrame f;
  f.session = session;
  f.epoch = epoch;
  f.seq = seq_++;
  const std::uint64_t check = bloom_check(filter);
  const bool full = force_full || !last_.has_value() || epoch != last_epoch_ ||
                    f.seq % kFullFrameEvery == 0;
  if (full) {
    f.full = true;
    f.bit_count = static_cast<std::uint32_t>(filter.bit_count());
    f.hash_count = static_cast<std::uint8_t>(filter.hash_count());
    f.seed = filter.seed();
    const auto words = filter.words();
    for (std::uint32_t i = 0; i < words.size(); ++i) {
      if (words[i] != 0) f.blocks.push_back({i, words[i]});
    }
    ++fulls_;
  } else {
    // Same epoch means the same capacity, so the word arrays line up.
    PDS_ENSURE(last_->bit_count() == filter.bit_count());
    f.base_check = last_check_;
    const auto prev = last_->words();
    const auto cur = filter.words();
    for (std::uint32_t i = 0; i < cur.size(); ++i) {
      if (cur[i] != prev[i]) f.blocks.push_back({i, cur[i]});
    }
  }
  f.self_check = check;
  last_ = filter;
  last_check_ = check;
  last_epoch_ = epoch;
  return f;
}

util::BloomFilter BloomSyncCache::fallback(std::uint64_t session) {
  ++fallbacks_;
  // Prefer the stale filter over the empty one: every cached filter is one
  // the consumer actually shipped, so it only suppresses entries the
  // consumer already held — still recall-safe, but it bounds duplicate
  // serving to the handful of entries that arrived since, instead of the
  // node re-serving its whole store. The stale entry stays cached (at its
  // old seq/check) until the next full frame resyncs it.
  const auto it = sessions_.find(session);
  if (it != sessions_.end()) {
    it->second.last_used = tick_;
    return it->second.filter;
  }
  return util::BloomFilter{};
}

util::BloomFilter BloomSyncCache::apply(const BloomDeltaFrame& frame) {
  ++tick_;
  if (frame.full) {
    // An out-of-order full frame must not roll a session back: the sender's
    // next delta would base-check against the newest state, not this one.
    const auto it = sessions_.find(frame.session);
    if (it != sessions_.end() && it->second.epoch == frame.epoch &&
        frame.seq < it->second.seq) {
      it->second.last_used = tick_;
      return it->second.filter;
    }
    util::BloomFilter f(frame.bit_count, frame.hash_count, frame.seed);
    const std::size_t words = f.words().size();
    for (const BloomDeltaFrame::Block& b : frame.blocks) {
      if (b.index >= words) return fallback(frame.session);
      f.set_word(b.index, b.word);
    }
    if (bloom_check(f) != frame.self_check) return fallback(frame.session);
    if (sessions_.size() >= max_sessions_ &&
        !sessions_.contains(frame.session)) {
      // Evict the least recently used session; ties (impossible — ticks are
      // unique) aside, this is deterministic because the map is ordered.
      auto lru = sessions_.begin();
      for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
        if (it->second.last_used < lru->second.last_used) lru = it;
      }
      sessions_.erase(lru);
    }
    Entry& e = sessions_[frame.session];
    e.filter = f;
    e.epoch = frame.epoch;
    e.seq = frame.seq;
    e.check = frame.self_check;
    e.last_used = tick_;
    return f;
  }
  const auto it = sessions_.find(frame.session);
  if (it == sessions_.end()) return fallback(frame.session);
  Entry& e = it->second;
  // A re-heard or out-of-order frame from the current state: if we already
  // are at (or past) this frame, just return what we have — re-applying a
  // delta whose base we no longer hold would needlessly drop the session.
  if (e.epoch == frame.epoch && frame.seq <= e.seq) {
    e.last_used = tick_;
    return e.filter;
  }
  if (e.check != frame.base_check) return fallback(frame.session);
  util::BloomFilter f = e.filter;
  const std::size_t words = f.words().size();
  for (const BloomDeltaFrame::Block& b : frame.blocks) {
    if (b.index >= words) return fallback(frame.session);
    f.set_word(b.index, b.word);
  }
  if (bloom_check(f) != frame.self_check) return fallback(frame.session);
  e.filter = f;
  e.epoch = frame.epoch;
  e.seq = frame.seq;
  e.check = frame.self_check;
  e.last_used = tick_;
  return f;
}

}  // namespace pds::net
