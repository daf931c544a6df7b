// Application-level leaky bucket pacer (paper §V.2).
//
// The Android prototype found that the non-blocking UDP send API silently
// drops packets once the OS internal send buffer overflows (MAC broadcast
// drains at only ~7.2 Mb/s). PDS therefore paces its own sends with a leaky
// bucket of BucketCapacity bytes draining at LeakingRate.
//
// We model it with token-bucket semantics, which reproduce both observations
// in §V.4: a send may burst up to BucketCapacity bytes instantly (so a
// too-large capacity overestimates the free OS buffer and still overflows
// it), while sustained traffic is shaped to LeakingRate. Messages that find
// insufficient tokens wait (FIFO) rather than drop; `offer` returns the
// virtual time at which the message may be handed to the OS.
#pragma once

#include <cstddef>

#include "common/sim_time.h"

namespace pds::util {

class LeakyBucket {
 public:
  // `capacity_bytes` — maximum token accumulation (burst size);
  // `leak_rate_bps` — token refill rate in bits per second.
  LeakyBucket(std::size_t capacity_bytes, double leak_rate_bps);

  // Offer a message of `bytes` at time `now` (calls must be in nondecreasing
  // `now` order). Returns the time the message is released to the OS; FIFO
  // order is preserved across queued messages.
  [[nodiscard]] SimTime offer(SimTime now, std::size_t bytes);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] double leak_rate_bps() const { return leak_rate_bps_; }

  // Release time of the last accepted message; messages offered before this
  // time queue behind it.
  [[nodiscard]] SimTime next_free() const { return last_release_; }

 private:
  std::size_t capacity_ = 0;
  double leak_rate_bps_ = 1.0;
  double tokens_ = 0.0;
  SimTime last_refill_ = SimTime::zero();
  SimTime last_release_ = SimTime::zero();
};

}  // namespace pds::util
