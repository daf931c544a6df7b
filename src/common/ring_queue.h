// A FIFO in one power-of-two circular buffer, for per-node queues.
//
// Every simulated node keeps a few queues (the radio's OS send buffer, the
// transport's send queue and repair window, two dedup windows), and a city
// run builds twenty thousand nodes, most of whose queues stay empty or
// short (DESIGN.md §20). std::deque allocates a block and a map when it is
// constructed and its move may throw, so a growing vector of nodes copies
// every queue. This queue:
//
//  * allocates nothing until the first push, and frees everything in
//    clear();
//  * doubles when full, and halves when a pop leaves it at most a quarter
//    full, down to kMinSlots: storage a burst needed goes back as the
//    queue drains instead of staying with the node for the rest of the run;
//  * moves by stealing its buffer, noexcept.
//
// Storage comes from std::allocator, so plain ::operator new, which the
// ledger's heap meter sees.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/assert.h"

namespace pds {

template <typename T>
class RingQueue {
  static_assert(std::is_nothrow_move_constructible_v<T>);

 public:
  // Slots allocated by the first push; the queue never shrinks below this.
  static constexpr std::size_t kMinSlots = 4;

  RingQueue() noexcept = default;
  // Delegates so that a throwing element copy runs the destructor, which
  // frees the elements copied so far.
  RingQueue(const RingQueue& other) : RingQueue() {
    if (other.size_ == 0) return;
    const std::size_t slots = slots_for(other.size_);
    slots_ = std::allocator<T>().allocate(slots);
    capacity_ = slots;
    for (; size_ < other.size_; ++size_) {
      ::new (static_cast<void*>(slots_ + size_)) T(other[size_]);
    }
  }
  RingQueue(RingQueue&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  RingQueue& operator=(const RingQueue& other) {
    if (this != &other) RingQueue(other).swap(*this);
    return *this;
  }
  RingQueue& operator=(RingQueue&& other) noexcept {
    RingQueue(std::move(other)).swap(*this);
    return *this;
  }
  ~RingQueue() { clear(); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  // Slots allocated (0 before the first push and after clear()).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  // The element `i` places behind the front.
  [[nodiscard]] const T& operator[](std::size_t i) const {
    PDS_ENSURE(i < size_);
    return slots_[slot(i)];
  }

  [[nodiscard]] T& front() {
    PDS_ENSURE(size_ > 0);
    return slots_[head_];
  }
  [[nodiscard]] const T& front() const {
    PDS_ENSURE(size_ > 0);
    return slots_[head_];
  }

  void push_back(T value) {
    if (size_ == capacity_) reallocate(slots_for(size_ + 1));
    ::new (static_cast<void*>(slots_ + slot(size_))) T(std::move(value));
    ++size_;
  }

  void push_front(T value) {
    if (size_ == capacity_) reallocate(slots_for(size_ + 1));
    head_ = (head_ + capacity_ - 1) & (capacity_ - 1);
    ::new (static_cast<void*>(slots_ + head_)) T(std::move(value));
    ++size_;
  }

  void pop_front() {
    PDS_ENSURE(size_ > 0);
    std::destroy_at(slots_ + head_);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
    if (capacity_ > kMinSlots && size_ * 4 <= capacity_) {
      reallocate(capacity_ / 2);
    }
  }

  // Destroys every element and frees the buffer.
  void clear() noexcept {
    for (std::size_t i = 0; i < size_; ++i) std::destroy_at(slots_ + slot(i));
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = nullptr;
    capacity_ = head_ = size_ = 0;
  }

 private:
  // The power of two that holds `n` elements, at least kMinSlots.
  static std::size_t slots_for(std::size_t n) {
    std::size_t slots = kMinSlots;
    while (slots < n) slots *= 2;
    return slots;
  }

  // Buffer index of the element `i` places behind the front.
  [[nodiscard]] std::size_t slot(std::size_t i) const {
    return (head_ + i) & (capacity_ - 1);
  }

  void swap(RingQueue& other) noexcept {
    std::swap(slots_, other.slots_);
    std::swap(capacity_, other.capacity_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
  }

  // Moves the elements, front first, into a new buffer of `slots`.
  void reallocate(std::size_t slots) {
    PDS_ENSURE(slots >= size_);
    T* fresh = std::allocator<T>().allocate(slots);
    for (std::size_t i = 0; i < size_; ++i) {
      T* from = slots_ + slot(i);
      ::new (static_cast<void*>(fresh + i)) T(std::move(*from));
      std::destroy_at(from);
    }
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = fresh;
    capacity_ = slots;
    head_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;  // zero or a power of two
  std::size_t head_ = 0;      // buffer index of the front element
  std::size_t size_ = 0;
};

}  // namespace pds
