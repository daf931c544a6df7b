// Bounded set of recently seen identifiers.
//
// Used for the "Recent Responses" check (paper Alg. 2, step RR Lookup) and
// duplicate query suppression. Eviction is FIFO: in a broadcast medium a
// duplicate arrives within a handful of transmissions of the original, so a
// modest window suffices and memory stays bounded on small devices.
//
// The ids sit in a flat set and a ring of arrival order; neither allocates
// until the first insert (DESIGN.md §20).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/ring_queue.h"
#include "util/flat_key_set.h"

namespace pds::util {

class DedupCache {
 public:
  explicit DedupCache(std::size_t max_entries) : max_entries_(max_entries) {}

  // Returns true if `id` was newly inserted, false if it was already present
  // (i.e., a duplicate).
  bool insert(std::uint64_t id) {
    if (seen_.contains(id)) return false;
    if (max_entries_ == 0) return true;
    // Evict before appending, so a full window never needs a larger ring.
    if (order_.size() == max_entries_) {
      seen_.erase(order_.front());
      order_.pop_front();
    }
    seen_.insert(id);
    order_.push_back(id);
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t id) const {
    return seen_.contains(id);
  }
  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] std::size_t capacity() const { return max_entries_; }

  // Forget everything (crash-with-wipe fault semantics).
  void clear() {
    seen_ = FlatKeySet();
    order_.clear();
  }

 private:
  std::size_t max_entries_;
  FlatKeySet seen_;
  RingQueue<std::uint64_t> order_;
};

}  // namespace pds::util
