// A set of 64-bit keys in one flat open-addressing table.
//
// std::unordered_set<std::uint64_t> spends a heap node per key; lingering
// queries keep one set of served entry keys each, and a dense PDD run holds
// hundreds of thousands of them at once (DESIGN.md §18). This set stores the
// keys themselves in a power-of-two slot array with linear probing, at most
// three quarters full: no per-key allocation, 8 bytes a slot. erase() uses
// backward-shift deletion, so the table never holds tombstones.
//
// It answers membership only. for_each visits keys in slot order, which
// depends on the insertion history, so no caller may depend on that order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace pds::util {

class FlatKeySet {
 public:
  // Returns true when `key` was not present before.
  bool insert(std::uint64_t key) {
    if (key == kEmpty) return !std::exchange(has_empty_key_, true);
    if ((slotted_ + 1) * 4 > slots_.size() * 3) grow();
    std::uint64_t& slot = probe(slots_, key);
    if (slot == key) return false;
    slot = key;
    ++slotted_;
    return true;
  }

  // Returns true when `key` was present. Each key after the erased one in
  // its probe run moves back into the hole unless its home slot lies
  // between the hole and where it sits, so every key stays reachable from
  // its home without a tombstone.
  bool erase(std::uint64_t key) {
    if (key == kEmpty) return std::exchange(has_empty_key_, false);
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = mix64(key) & mask;
    while (slots_[hole] != key) {
      if (slots_[hole] == kEmpty) return false;
      hole = (hole + 1) & mask;
    }
    for (std::size_t i = (hole + 1) & mask; slots_[i] != kEmpty;
         i = (i + 1) & mask) {
      const std::size_t home = mix64(slots_[i]) & mask;
      // Stays where it is: its home is in (hole, i], cyclically.
      if (((i - home) & mask) < ((i - hole) & mask)) continue;
      slots_[hole] = slots_[i];
      hole = i;
    }
    slots_[hole] = kEmpty;
    --slotted_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    if (key == kEmpty) return has_empty_key_;
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix64(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == key) return true;
      if (slots_[i] == kEmpty) return false;
    }
  }

  [[nodiscard]] std::size_t size() const {
    return slotted_ + (has_empty_key_ ? 1 : 0);
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (has_empty_key_) fn(kEmpty);
    for (const std::uint64_t key : slots_) {
      if (key != kEmpty) fn(key);
    }
  }

 private:
  // Marks a free slot; the key with this value is tracked by a flag instead.
  static constexpr std::uint64_t kEmpty = 0;

  // The slot holding `key`, or the free slot where it belongs. The table
  // always has a free slot, so the walk ends.
  static std::uint64_t& probe(std::vector<std::uint64_t>& slots,
                              std::uint64_t key) {
    const std::size_t mask = slots.size() - 1;
    std::size_t i = mix64(key) & mask;
    while (slots[i] != key && slots[i] != kEmpty) i = (i + 1) & mask;
    return slots[i];
  }

  void grow() {
    std::vector<std::uint64_t> bigger(slots_.empty() ? 8 : slots_.size() * 2,
                                      kEmpty);
    for (const std::uint64_t key : slots_) {
      if (key != kEmpty) probe(bigger, key) = key;
    }
    slots_ = std::move(bigger);
  }

  std::vector<std::uint64_t> slots_;
  std::size_t slotted_ = 0;  // keys held in slots_
  bool has_empty_key_ = false;
};

}  // namespace pds::util
