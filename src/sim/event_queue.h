// Priority queue of timed events for the discrete-event simulator.
//
// Events with equal timestamps fire in insertion order (a monotone sequence
// number breaks ties) so simulations are fully deterministic.
//
// Two interchangeable implementations sit behind one API (SchedulerKind):
//
//  * kCalendar (default) — a bucketed calendar queue tuned for the sim's
//    dense near-future event distribution: a ring of fixed-width time
//    buckets covers the active window (backoffs, airtimes, protocol timers),
//    an overflow min-heap holds the far future (mobility replay, horizons).
//    Push and pop are O(1) amortized; all entries live in a recycled slot
//    pool, so a warm queue does zero per-event heap traffic.
//  * kHeap — the original binary heap (std::push_heap/pop_heap over a
//    vector plus a live-id set). Kept as the correctness oracle and the perf
//    baseline: for any sequence of push/cancel/pop both kinds return events
//    in the identical order, including equal-timestamp ties
//    (tests/scheduler_property_test.cc drives both in lockstep).
//
// EventId values are opaque: unique per push, usable with cancel() until the
// event fires, no-ops afterwards. The two kinds emit different numeric ids
// (the heap reuses the sequence number, the calendar encodes a pooled slot
// plus a generation) but identical semantics.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/inline_function.h"
#include "common/sim_time.h"

namespace pds::sim {

enum class SchedulerKind {
  kCalendar,
  kHeap,
};

class EventQueue {
 public:
  // Every scheduled closure lives in this inline capacity (radio completion
  // ~80 bytes, mobility replay ~40); one that does not fit does not compile.
  // See common/inline_function.h.
  using Action = InlineFunction<void(), 104>;

  // Token that allows cancelling a scheduled event.
  using EventId = std::uint64_t;

  explicit EventQueue(SchedulerKind kind = SchedulerKind::kCalendar);

  EventId push(SimTime at, Action action);
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] SimTime next_time() const;
  [[nodiscard]] std::size_t size() const { return live_count_; }
  [[nodiscard]] SchedulerKind kind() const { return kind_; }

  // -- Occupancy introspection (flight recorder, DESIGN.md §15) --------------
  // Read-only structural counters the sim-time sampler snapshots; none of
  // them prune dead entries or move the window, so sampling never perturbs
  // the queue. For kHeap, ring/overflow decompose as "everything is
  // overflow" so the columns stay meaningful under the oracle scheduler.
  [[nodiscard]] std::size_t ring_live() const {
    return kind_ == SchedulerKind::kCalendar ? cal_.ring_live : 0;
  }
  [[nodiscard]] std::size_t overflow_depth() const {
    return kind_ == SchedulerKind::kCalendar ? cal_.overflow.size()
                                             : heap_.heap.size();
  }
  // Entries allocated in the backing store (calendar slot pool including the
  // free list, or the heap vector including dead entries awaiting lazy
  // cleanup) — the queue's memory footprint in entries.
  [[nodiscard]] std::size_t slot_pool_size() const {
    return kind_ == SchedulerKind::kCalendar ? cal_.slots.size()
                                             : heap_.heap.size();
  }

  // Pops and returns the earliest live event. Precondition: !empty().
  struct Popped {
    SimTime at;
    Action action;
  };
  Popped pop();

 private:
  // Both implementations defer cancelled-entry cleanup to the next lookup:
  // the observable state (the multiset of live events) never changes under a
  // const call, but pruning dead entries and advancing cursors does touch
  // the containers. The impl structs are therefore `mutable` members — the
  // const-correct form of the lazy skip (no const_cast).

  // -- Binary-heap oracle (the original implementation) ----------------------
  struct HeapImpl {
    struct Entry {
      SimTime at;
      std::uint64_t seq;
      EventId id;
      Action action;
    };
    struct Later {
      bool operator()(const Entry& a, const Entry& b) const {
        if (a.at != b.at) return a.at > b.at;
        return a.seq > b.seq;
      }
    };

    // Manual binary heap (std::push_heap/pop_heap) over a pre-reserved
    // vector. Actions live inside the heap entries; `live` tracks which ids
    // are still scheduled, so the hot path costs one hash-set insert on push
    // and one erase on pop — no id->action map churn. A cancelled entry's
    // closure is only released when its entry surfaces at the top (cancels
    // are rare: protocol timers fire far more often than they are torn
    // down).
    std::vector<Entry> heap;
    std::unordered_set<EventId> live;

    void skip_dead();
  };

  // -- Calendar queue ---------------------------------------------------------
  struct CalendarImpl {
    // One pooled entry. `gen` is bumped every time the slot is recycled so a
    // stale EventId (fired or long-cancelled) can never cancel the slot's
    // next tenant.
    struct Slot {
      SimTime at;
      std::uint64_t seq = 0;
      std::uint32_t gen = 0;
      bool live = false;
      bool in_ring = false;
      Action action;
    };

    // Ring geometry: kBucketWidthUs-wide buckets, kBuckets of them. The
    // window covers ~0.5 s of simulated time — backoffs (µs), airtimes (ms)
    // and protocol timers (hundreds of ms) land in-window; far-future events
    // (round horizons, mobility replay) take the overflow heap and drain in
    // as the window slides. The shape is measured, not guessed: narrower
    // buckets keep the clusters that form around popular timer offsets
    // (every retransmission timer lands at now + retr_timeout) shallow, so
    // sorted-insert memmoves stay small, while 8192 bucket headers are few
    // enough to stay cache-resident — 16384×64 µs and 2048×512 µs both
    // measure slower on the tab_scale hold model. Buckets are sorted
    // descending by (at, seq) so the bucket minimum pops from the back.
    static constexpr std::int64_t kBucketWidthUs = 64;
    static constexpr std::size_t kBuckets = 8192;  // power of two
    static constexpr std::int64_t kMask =
        static_cast<std::int64_t>(kBuckets) - 1;

    // Ring/overflow entry: (at, seq) are denormalized out of the slot so
    // ordered inserts and heap sifts compare within the (small, contiguous)
    // bucket instead of dereferencing the slot pool — at tens of thousands
    // of pending events the pool is far larger than L2 and every probe was
    // a cache miss. Liveness stays in the slot (cancel marks it dead); the
    // copies here are immutable for the entry's lifetime.
    struct Ref {
      SimTime at;
      std::uint64_t seq = 0;
      std::uint32_t idx = 0;
    };

    std::vector<Slot> slots;
    std::vector<std::uint32_t> free_slots;
    std::vector<std::vector<Ref>> buckets;  // ring, size kBuckets
    // Overflow min-heap ordered by (at, seq).
    std::vector<Ref> overflow;
    // Absolute bucket number (at_us / width) of the window's first bucket.
    std::int64_t window_start_abs = 0;
    bool window_set = false;
    // Scan cursor: no live ring entry sits in a window offset < cur.
    std::size_t cur = 0;
    // Live entries currently in the ring (cheap "is the ring worth
    // scanning" test when the queue drains down to far-future events).
    std::size_t ring_live = 0;

    // Cached location of the current minimum, so Simulator::run's
    // next_time()+pop() pair costs one scan, not two.
    struct Min {
      bool valid = false;
      // True when the minimum lies outside the current window (overflow heap
      // or a future ring lap); pop() relocates the window before extracting.
      bool far = false;
      std::size_t offset = 0;  // window offset of the bucket holding the min
      SimTime at;
      std::uint64_t seq = 0;
    };
    Min cached;

    [[nodiscard]] static std::int64_t abs_bucket(SimTime at) {
      // Floor division (times can be negative in standalone use).
      const std::int64_t us = at.as_micros();
      return us >= 0 ? us / kBucketWidthUs
                     : -((-us + kBucketWidthUs - 1) / kBucketWidthUs);
    }
    [[nodiscard]] bool in_window(std::int64_t abs) const {
      return window_set && abs >= window_start_abs &&
             abs < window_start_abs + static_cast<std::int64_t>(kBuckets);
    }
    [[nodiscard]] std::vector<Ref>& ring_at(std::int64_t abs) {
      return buckets[static_cast<std::size_t>(
          static_cast<std::uint64_t>(abs) & static_cast<std::uint64_t>(kMask))];
    }
    // (at, seq) lexicographic "fires later" — the shared ordering of the
    // sorted buckets and the overflow heap.
    [[nodiscard]] static bool later(const Ref& a, const Ref& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }

    std::uint32_t alloc_slot();
    void retire_slot(std::uint32_t idx);
    void bucket_insert(std::vector<Ref>& bucket, Ref r);
    void overflow_push(Ref r);
    Ref overflow_pop_top();
    void prune_overflow_top();
    void advance_window_to(SimTime at);
    void slide_window_to_cursor();
    // Locates the earliest live entry (pruning dead ones met on the way) and
    // caches the location. Precondition: at least one live entry.
    const Min& find_min();
  };

  SchedulerKind kind_;
  mutable HeapImpl heap_;
  mutable CalendarImpl cal_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace pds::sim
