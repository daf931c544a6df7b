#include "util/leaky_bucket.h"

#include <algorithm>

#include "common/assert.h"

namespace pds::util {

LeakyBucket::LeakyBucket(std::size_t capacity_bytes, double leak_rate_bps)
    : capacity_(capacity_bytes),
      leak_rate_bps_(leak_rate_bps),
      tokens_(static_cast<double>(capacity_bytes)) {
  PDS_ENSURE(capacity_bytes > 0);
  PDS_ENSURE(leak_rate_bps > 0.0);
}

SimTime LeakyBucket::offer(SimTime now, std::size_t bytes) {
  // FIFO: a message cannot be released before previously queued ones.
  SimTime t = std::max(now, last_release_);

  // Refill tokens up to capacity for the elapsed interval.
  const double elapsed = (t - last_refill_).as_seconds();
  tokens_ = std::min(static_cast<double>(capacity_),
                     tokens_ + elapsed * leak_rate_bps_ / 8.0);
  last_refill_ = t;

  const auto need = static_cast<double>(bytes);
  if (tokens_ >= need) {
    tokens_ -= need;
    last_release_ = t;
    return t;
  }

  // Wait until continued refill covers the deficit. For messages larger than
  // the bucket this still terminates: accumulation is uncapped while a
  // message is at the head of the queue (the pacer simply shapes it to the
  // leak rate).
  const double deficit = need - tokens_;
  const double wait_seconds = deficit * 8.0 / leak_rate_bps_;
  const SimTime release = t + SimTime::seconds(wait_seconds);
  tokens_ = 0.0;
  last_refill_ = release;
  last_release_ = release;
  return release;
}

}  // namespace pds::util
