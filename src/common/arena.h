// Object-recycling pools for the simulator's steady-state hot paths.
//
// A warm simulation allocates in three places: scheduled-event closures
// (fixed by InlineFunction's inline storage), per-transmission receiver
// lists, and per-frame payload objects in the net layer. The pools here
// retire the last two: freed storage parks in a free list and is handed back
// on the next acquire, so steady-state simulation does zero per-event heap
// traffic once the pools are warm.
//
// Determinism: recycling changes *which addresses* come back, never any
// simulated outcome — no code orders or hashes by pointer (pdslint's
// pointer-order rule guards that), so reuse is invisible to traces, stats
// and RNG draws.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.h"

// Defines ASAN_(UN)POISON_MEMORY_REGION: real under AddressSanitizer, no-ops
// otherwise.
#if defined(__has_include)
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace pds {

// Pool accounting the flight recorder samples (DESIGN.md §15): lifetime
// counters plus a high-water mark. Counters survive reset()/release_all() —
// the recorder wants "how hard was this pool worked over the whole run",
// not "since the last trim".
struct PoolStats {
  std::uint64_t acquires = 0;   // total acquire()/allocate() calls
  std::uint64_t reuses = 0;     // calls served from the free list
  std::size_t high_water = 0;   // peak parked entries (or bytes for BlockPool)
};

// Recycles std::vector buffers: acquire() returns an empty vector that keeps
// the capacity it had when released, so a stable working set stops touching
// the allocator entirely.
template <typename T>
class VectorPool {
 public:
  explicit VectorPool(std::size_t max_parked = 64) : max_parked_(max_parked) {}

  [[nodiscard]] std::vector<T> acquire() {
    ++stats_.acquires;
    if (parked_.empty()) return {};
    ++stats_.reuses;
    std::vector<T> v = std::move(parked_.back());
    parked_.pop_back();
    return v;
  }

  void release(std::vector<T>&& v) {
    v.clear();
    if (parked_.size() < max_parked_ && v.capacity() > 0) {
      parked_.push_back(std::move(v));
      stats_.high_water = std::max(stats_.high_water, parked_.size());
    }
  }

  // Frees every parked buffer; lifetime stats are preserved.
  void reset() { parked_.clear(); }

  [[nodiscard]] std::size_t parked() const { return parked_.size(); }
  [[nodiscard]] const PoolStats& stats() const { return stats_; }

 private:
  std::vector<std::vector<T>> parked_;
  std::size_t max_parked_;
  PoolStats stats_;
};

// Size-class keyed free lists of raw blocks, one pool per thread. Backs
// PoolAllocator: allocate_shared'd payload objects (control block + object
// in one cell) come from here, so frame payload churn stops hitting
// malloc/free once each size class is warm. Thread-local by design: worker
// threads in bench::run_indexed each own an independent pool, so no locks
// and no cross-thread traffic (TSan-clean).
class BlockPool {
 public:
  static BlockPool& local() {
    thread_local BlockPool pool;
    return pool;
  }

  void* allocate(std::size_t bytes) {
    ++stats_.acquires;
    auto it = free_.find(bytes);
    if (it != free_.end() && !it->second.empty()) {
      ++stats_.reuses;
      parked_bytes_ -= bytes;
      void* p = it->second.back();
      it->second.pop_back();
      return p;
    }
    return ::operator new(bytes);
  }

  void deallocate(void* p, std::size_t bytes) {
    if (bytes > kMaxBlockBytes) {
      ::operator delete(p);
      return;
    }
    std::vector<void*>& list = free_[bytes];
    if (list.size() >= kMaxPerClass) {
      ::operator delete(p);
      return;
    }
    list.push_back(p);
    parked_bytes_ += bytes;
    stats_.high_water = std::max(stats_.high_water, parked_bytes_);
  }

  // Returns every parked block to the system; lifetime stats survive. The
  // flight recorder reads parked_bytes() as a wall-kind column (the pool is
  // thread-local, so its occupancy depends on which worker thread — and how
  // many prior seeds — warmed it).
  void release_all() {
    for (auto& [bytes, list] : free_) {
      for (void* p : list) ::operator delete(p);
      list.clear();
    }
    parked_bytes_ = 0;
  }

  [[nodiscard]] std::size_t parked_bytes() const { return parked_bytes_; }
  [[nodiscard]] const PoolStats& stats() const { return stats_; }

  ~BlockPool() {
    // Lookup-only map: never iterated for output (the parked blocks hold no
    // simulation state), so hash order is immaterial.
    for (auto& [bytes, list] : free_) {
      for (void* p : list) ::operator delete(p);
    }
  }

  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

 private:
  BlockPool() = default;

  static constexpr std::size_t kMaxBlockBytes = 1 << 16;
  static constexpr std::size_t kMaxPerClass = 4096;

  std::unordered_map<std::size_t, std::vector<void*>> free_;
  std::size_t parked_bytes_ = 0;
  PoolStats stats_;
};

// Standard allocator over BlockPool::local(); drop-in for allocate_shared.
// Only single-object, normally-aligned allocations are pooled — array or
// over-aligned requests fall through to global new.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 1 && alignof(T) <= alignof(std::max_align_t)) {
      return static_cast<T*>(BlockPool::local().allocate(sizeof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    if (n == 1 && alignof(T) <= alignof(std::max_align_t)) {
      BlockPool::local().deallocate(p, sizeof(T));
      return;
    }
    ::operator delete(p);
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

// allocate_shared through the thread-local block pool: one pooled cell holds
// control block + object, exactly like make_shared but recycled.
template <typename T, typename... Args>
[[nodiscard]] std::shared_ptr<T> make_pooled(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>{},
                                 std::forward<Args>(args)...);
}

// Fixed-size slots carved from a few slabs, for the nodes of one node-based
// container (DESIGN.md §19). Every PDS node caches thousands of metadata
// records; as one heap chunk each they end up interleaved with every other
// node's, and a walk over one store touches memory spread across the whole
// heap. From a pool they sit in a few contiguous blocks.
//
//  * Slabs come from plain ::operator new(bytes), so a meter that counts
//    global new sees them. The first holds one slot and each later one a
//    quarter more than the one before (at least one more), up to
//    kMaxSlabSlots. Small steps matter: most stores of a 20k-node city hold
//    under ten records, and slabs doubling from four slots would leave a
//    third of all slots unused there (quarter steps leave an eighth).
//  * A freed slot goes on a free list and is handed out again before the
//    current slab advances. Memory returns to the system only in release(),
//    which requires every slot to be free, and in the destructor.
//  * Under AddressSanitizer a slot is poisoned while it is not handed out,
//    so reading a record through a dangling pointer is reported.
//
// Slots are aligned for pointers, which is all a container node needs. Not
// thread-safe: one pool serves one container. Addresses never reach an
// outcome, as for the pools above.
class SlabPool {
 public:
  static constexpr std::size_t kMaxSlabSlots = 256;
  static constexpr std::size_t kSlotAlign = alignof(void*);

  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool() { release(); }

  // One slot of `bytes`; every call on a pool must pass the same size.
  [[nodiscard]] void* allocate(std::size_t bytes) {
    bytes = (bytes + kSlotAlign - 1) / kSlotAlign * kSlotAlign;
    if (slot_bytes_ == 0) slot_bytes_ = bytes;
    PDS_ENSURE(bytes == slot_bytes_);
    ++live_;
    void* p = free_;
    if (p != nullptr) {
      ASAN_UNPOISON_MEMORY_REGION(p, slot_bytes_);
      std::memcpy(&free_, p, sizeof free_);
      return p;
    }
    if (next_ == end_) add_slab();
    p = next_;
    next_ += slot_bytes_;
    ASAN_UNPOISON_MEMORY_REGION(p, slot_bytes_);
    return p;
  }

  void deallocate(void* p) {
    PDS_ENSURE(live_ > 0);
    --live_;
    std::memcpy(p, &free_, sizeof free_);
    free_ = p;
    ASAN_POISON_MEMORY_REGION(p, slot_bytes_);
  }

  // Returns every slab to the system and starts over at the smallest slab.
  void release() {
    PDS_ENSURE(live_ == 0);
    while (slabs_ != nullptr) {
      Slab* slab = slabs_;
      slabs_ = slab->next;
      ::operator delete(slab);
    }
    free_ = nullptr;
    next_ = end_ = nullptr;
    slab_slots_ = 1;
  }

 private:
  // Header at the start of each slab; slots follow it. ASan leaves it
  // unpoisoned, so release() needs no unpoisoning: freeing the slab
  // replaces the slots' poison with ASan's own.
  struct Slab {
    Slab* next;
  };
  static_assert(sizeof(Slab) % kSlotAlign == 0);

  void add_slab() {
    const std::size_t slot_area = slab_slots_ * slot_bytes_;
    auto* slab = static_cast<Slab*>(::operator new(sizeof(Slab) + slot_area));
    slab->next = slabs_;
    slabs_ = slab;
    next_ = reinterpret_cast<char*>(slab + 1);
    end_ = next_ + slot_area;
    ASAN_POISON_MEMORY_REGION(next_, slot_area);
    slab_slots_ =
        std::min(slab_slots_ + std::max<std::size_t>(1, slab_slots_ / 4),
                 kMaxSlabSlots);
  }

  std::size_t slot_bytes_ = 0;  // fixed by the first allocate()
  std::size_t slab_slots_ = 1;  // size of the next slab
  std::size_t live_ = 0;
  Slab* slabs_ = nullptr;  // newest first
  void* free_ = nullptr;   // freed slots, linked through their first bytes
  char* next_ = nullptr;   // uncarved part of the newest slab
  char* end_ = nullptr;
};

// Standard allocator over a SlabPool: single objects (a node container's
// nodes) come from the pool; arrays (a hash table's bucket array) come from
// plain new, exactly as std::allocator would allocate them.
template <typename T>
class SlabAllocator {
 public:
  using value_type = T;

  explicit SlabAllocator(SlabPool& pool) : pool_(&pool) {}
  template <typename U>
  SlabAllocator(const SlabAllocator<U>& other)  // NOLINT
      : pool_(other.pool_) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    static_assert(alignof(T) <= SlabPool::kSlotAlign);
    if (n == 1) return static_cast<T*>(pool_->allocate(sizeof(T)));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    if (n == 1) {
      pool_->deallocate(p);
    } else {
      ::operator delete(p, n * sizeof(T));
    }
  }

  friend bool operator==(const SlabAllocator& a, const SlabAllocator& b) {
    return a.pool_ == b.pool_;
  }

 private:
  template <typename U>
  friend class SlabAllocator;

  SlabPool* pool_;
};

}  // namespace pds
