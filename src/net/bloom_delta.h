// Delta-synchronized Bloom filters for multi-round discovery (DESIGN.md §16).
//
// PDD's baseline ships the consumer's full exclude filter with every round's
// query, and every relay re-transmits it. After round 2 the filter changes
// only where newly arrived entries set bits, so later rounds can ship just
// the changed 64-bit blocks. The sync protocol is content-addressed rather
// than sequence-reliable:
//
//  * A frame names its base by checksum (`base_check` = bloom_check of the
//    filter the delta applies to) and its result (`self_check`). A receiver
//    applies a delta only if its cached filter for the session matches
//    base_check, and verifies self_check after patching. Any mismatch —
//    missed round, state heard from a rewriting relay, corruption — makes
//    the receiver fall back to the last filter it successfully applied for
//    the session (or the empty filter if it has none). Both fallbacks are
//    recall-safe: every cached filter is one the consumer shipped, so it
//    only suppresses entries the consumer already held.
//  * Full frames (a sparse list of all non-zero blocks plus the filter
//    parameters) re-seed the cache; senders emit one every kFullFrameEvery
//    frames and whenever the epoch changes, so a desynced receiver is back
//    in sync within a bounded number of rounds.
//  * `epoch` names the hash-function family. The paper (§V.3) re-seeds the
//    family every round so false positives die out; deltas require a stable
//    family, so delta mode keeps one family per epoch and the discovery
//    session starts a fresh epoch (new seed, exact sizing, full frame)
//    on every round after novelty — the family rotation preserves the
//    per-round false-positive die-out for entries still outstanding.
//  * Delta frames are only emitted after silent rounds (no new arrivals
//    since the previous frame): any round that surfaced entries had a relay
//    rewrite the forwarded filter into classic form, which hides the
//    session's frames from downstream caches — the round after novelty
//    always ships a full frame to resync them (see DiscoverySession).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "util/bloom_filter.h"

namespace pds::net {

// Senders emit a full frame at least every this many frames per session, so
// a receiver that fell back to the empty filter resyncs within a bounded
// number of rounds even without hearing the epoch change.
inline constexpr std::uint32_t kFullFrameEvery = 4;

// Order-independent 64-bit digest of a filter's parameters and bit array;
// the content address used by base_check/self_check.
[[nodiscard]] std::uint64_t bloom_check(const util::BloomFilter& f);

// One Bloom-sync frame: either a full sparse snapshot of the filter or a
// delta against the sender's previous frame.
struct BloomDeltaFrame {
  // One changed (or, in full frames, non-zero) 64-bit word of the bit array.
  struct Block {
    std::uint32_t index = 0;
    std::uint64_t word = 0;

    friend bool operator==(const Block&, const Block&) = default;
  };

  std::uint64_t session = 0;  // consumer session id (first query id)
  std::uint32_t epoch = 0;    // hash-family generation
  std::uint32_t seq = 0;      // frame number within the session
  bool full = false;          // snapshot vs delta
  // Full frames: filter parameters for reconstruction.
  std::uint32_t bit_count = 0;
  std::uint8_t hash_count = 0;
  std::uint64_t seed = 0;
  // Delta frames: checksum of the base filter this delta applies to.
  std::uint64_t base_check = 0;
  // Checksum of the filter that results from applying this frame.
  std::uint64_t self_check = 0;
  // Strictly increasing by index; words are always non-zero (within an
  // epoch the filter only ever gains bits, and full frames elide zero
  // words — which is what makes a snapshot of a sparse filter cheap).
  std::vector<Block> blocks;

  // The frame's one layout, run into a ByteWriter or, for wire_size, a
  // ByteCounter.
  template <typename Sink>
  void encode(Sink& w) const;
  // Throws DecodeError on any malformed input: unordered or zero blocks,
  // out-of-range parameters, truncation.
  static BloomDeltaFrame decode(ByteReader& r);
  [[nodiscard]] std::size_t wire_size() const;

  friend bool operator==(const BloomDeltaFrame&,
                         const BloomDeltaFrame&) = default;
};

// Consumer-side frame producer: remembers the last filter shipped for the
// session and diffs the next one against it. Owned by the DiscoverySession
// (only consumers originate sync frames; relays either pass frames through
// verbatim or drop to the classic full-filter encoding when they rewrote
// the filter en route).
class DeltaBloomSender {
 public:
  // Builds the next frame for `filter` under hash-family generation
  // `epoch`. Emits a full frame on the first call, whenever the epoch
  // changes, every kFullFrameEvery frames, and when `force_full` is set;
  // otherwise a delta against the previously shipped filter.
  [[nodiscard]] BloomDeltaFrame next_frame(std::uint64_t session,
                                           std::uint32_t epoch,
                                           const util::BloomFilter& filter,
                                           bool force_full = false);

  [[nodiscard]] std::uint32_t frames_sent() const { return seq_; }
  [[nodiscard]] std::uint32_t full_frames_sent() const { return fulls_; }

 private:
  std::optional<util::BloomFilter> last_;
  std::uint64_t last_check_ = 0;
  std::uint32_t last_epoch_ = 0;
  std::uint32_t seq_ = 0;
  std::uint32_t fulls_ = 0;
};

// Receiver-side reconstruction cache, one per node, keyed by session.
// `apply` returns the reconstructed exclude filter for a frame. When the
// frame cannot be applied (unknown base, checksum mismatch) it returns the
// session's last successfully applied filter — stale but shipped by the
// consumer, so recall-safe — or the empty filter for an unknown session.
// Bounded: least-recently-used sessions are evicted deterministically.
class BloomSyncCache {
 public:
  explicit BloomSyncCache(std::size_t max_sessions = 256)
      : max_sessions_(max_sessions) {}

  [[nodiscard]] util::BloomFilter apply(const BloomDeltaFrame& frame);

  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] std::uint64_t fallbacks() const { return fallbacks_; }
  void clear() { sessions_.clear(); }

 private:
  struct Entry {
    util::BloomFilter filter;
    std::uint32_t epoch = 0;
    std::uint32_t seq = 0;
    std::uint64_t check = 0;
    std::uint64_t last_used = 0;  // tick of last apply, for LRU eviction
  };

  util::BloomFilter fallback(std::uint64_t session);

  std::map<std::uint64_t, Entry> sessions_;
  std::size_t max_sessions_;
  std::uint64_t tick_ = 0;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace pds::net
