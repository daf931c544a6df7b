// Slab storage for the nodes of one node-based container: the data store's
// metadata records (DESIGN.md §19).
//
// Determinism: recycling a slot changes *which addresses* come back, never
// any simulated outcome — no code orders or hashes by pointer (pdslint's
// pointer-order rule guards that), so reuse is invisible to traces, stats
// and RNG draws.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <new>

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
// thread-safe: one pool serves one container.
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
