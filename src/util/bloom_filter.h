// Bloom filter used for en-route redundancy detection (paper §III-B.2, §V.3).
//
// A consumer appends to each multi-round query a Bloom filter of the metadata
// entries it has already received; nodes on return paths test entries against
// it and transmit only the missing ones. Per the paper's §V.3, each discovery
// round uses a *different hash-function family* (here: a round-derived seed)
// so that an entry that is a false positive in one round is very unlikely to
// remain one across rounds.
//
// The words live in one reference-counted block that copies share until one
// of them writes (DESIGN.md §20): every hop copies a query's filter into its
// lingering-query entry and into the forwarded query, and most of those
// copies are never written.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <utility>

#include "common/bytes.h"

namespace pds::util {

class BloomFilter {
 public:
  // Empty filter that rejects nothing and contains nothing (m == 0). Useful
  // as "no filter attached" in first-round queries.
  BloomFilter() = default;

  // Filter with `bits` bits and `hash_count` hash functions drawn from the
  // family identified by `seed`.
  BloomFilter(std::size_t bits, std::uint32_t hash_count, std::uint64_t seed);

  // Copies share the words; insert() and set_word() detach a shared block.
  BloomFilter(const BloomFilter& other) noexcept
      : rep_(other.rep_),
        hash_count_(other.hash_count_),
        set_bits_(other.set_bits_),
        seed_(other.seed_),
        inserted_(other.inserted_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  BloomFilter(BloomFilter&& other) noexcept
      : rep_(std::exchange(other.rep_, nullptr)),
        hash_count_(other.hash_count_),
        set_bits_(other.set_bits_),
        seed_(other.seed_),
        inserted_(other.inserted_) {}
  BloomFilter& operator=(const BloomFilter& other) noexcept {
    BloomFilter(other).swap(*this);
    return *this;
  }
  BloomFilter& operator=(BloomFilter&& other) noexcept {
    BloomFilter(std::move(other)).swap(*this);
    return *this;
  }
  ~BloomFilter() { release(); }

  // Sizes a filter for `expected_items` with target false-positive rate
  // `fpp`, using the standard optimum m = -n ln p / (ln 2)^2, k = m/n ln 2.
  static BloomFilter with_capacity(std::size_t expected_items, double fpp,
                                   std::uint64_t seed);

  void insert(std::uint64_t key);
  [[nodiscard]] bool maybe_contains(std::uint64_t key) const;

  [[nodiscard]] bool empty_filter() const { return rep_ == nullptr; }
  [[nodiscard]] std::size_t bit_count() const { return words().size() * 64; }
  [[nodiscard]] std::uint32_t hash_count() const { return hash_count_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::size_t inserted_count() const { return inserted_; }

  // Wire size in bytes: the encoding run into a ByteCounter. This is what
  // the codec charges a query carrying it.
  [[nodiscard]] std::size_t wire_size() const;

  // Raw 64-bit block access for the delta-sync wire path (net/bloom_delta.h):
  // a frame patches individual words of a base filter instead of re-shipping
  // the whole bit array. `set_word` does not touch inserted_count(), which
  // only tracks keys added through insert(); it does keep the set-bit count.
  [[nodiscard]] std::span<const std::uint64_t> words() const {
    if (rep_ == nullptr) return {};
    return {words_of(rep_), rep_->words};
  }
  void set_word(std::size_t index, std::uint64_t value);

  // Fraction of bits set, from a count kept up to date by every write, so
  // O(1); the flight recorder samples it for every lingering query.
  [[nodiscard]] double fill_ratio() const;

  // The filter's one layout: a presence byte, then for a non-empty filter a
  // u32 bit count, u8 hash count, u64 seed and the words. The header gives
  // the word count, so the encoding delimits itself and a frame carries it
  // with no length prefix. Runs into a ByteWriter or a ByteCounter.
  template <typename Sink>
  void encode(Sink& w) const;
  // Reads one filter from `r`. A malformed header, or a body longer than
  // the bytes left, throws DecodeError before anything is allocated.
  static BloomFilter decode(ByteReader& r);

 private:
  // (h1, h2) of the double-hashing probe sequence for `key`.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> double_hash(
      std::uint64_t key) const;

  // Header of the block; the words follow it. `refs` follows the rules of
  // DataDescriptor's Rep (DESIGN.md §18): copies add with relaxed order,
  // releases subtract with acq_rel, and a writer's uniqueness check loads
  // with acquire, so every other holder's reads happen before the write.
  struct Rep {
    std::atomic<std::uint32_t> refs{1};
    std::uint32_t words = 0;
  };
  static_assert(sizeof(Rep) == sizeof(std::uint64_t));

  static std::uint64_t* words_of(Rep* rep) {
    return std::launder(reinterpret_cast<std::uint64_t*>(rep + 1));
  }
  // A block for `words` words (refs == 1); the caller fills the words.
  static Rep* allocate(std::size_t words);
  void release() noexcept;
  void swap(BloomFilter& other) noexcept {
    std::swap(rep_, other.rep_);
    std::swap(hash_count_, other.hash_count_);
    std::swap(set_bits_, other.set_bits_);
    std::swap(seed_, other.seed_);
    std::swap(inserted_, other.inserted_);
  }
  // The words, on a block only this filter holds: a shared block is copied
  // first.
  std::span<std::uint64_t> mutable_words();

  Rep* rep_ = nullptr;  // null for the empty filter
  std::uint32_t hash_count_ = 0;
  // Popcount of the words. 32 bits, like the wire's bit count, so it fits in
  // padding beside hash_count_.
  std::uint32_t set_bits_ = 0;
  std::uint64_t seed_ = 0;
  std::size_t inserted_ = 0;
};

}  // namespace pds::util
