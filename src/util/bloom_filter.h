// Bloom filter used for en-route redundancy detection (paper §III-B.2, §V.3).
//
// A consumer appends to each multi-round query a Bloom filter of the metadata
// entries it has already received; nodes on return paths test entries against
// it and transmit only the missing ones. Per the paper's §V.3, each discovery
// round uses a *different hash-function family* (here: a round-derived seed)
// so that an entry that is a false positive in one round is very unlikely to
// remain one across rounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace pds::util {

class BloomFilter {
 public:
  // Empty filter that rejects nothing and contains nothing (m == 0). Useful
  // as "no filter attached" in first-round queries.
  BloomFilter() = default;

  // Filter with `bits` bits and `hash_count` hash functions drawn from the
  // family identified by `seed`.
  BloomFilter(std::size_t bits, std::uint32_t hash_count, std::uint64_t seed);

  // Sizes a filter for `expected_items` with target false-positive rate
  // `fpp`, using the standard optimum m = -n ln p / (ln 2)^2, k = m/n ln 2.
  static BloomFilter with_capacity(std::size_t expected_items, double fpp,
                                   std::uint64_t seed);

  void insert(std::uint64_t key);
  [[nodiscard]] bool maybe_contains(std::uint64_t key) const;

  [[nodiscard]] bool empty_filter() const { return bits_.empty(); }
  [[nodiscard]] std::size_t bit_count() const { return bits_.size() * 64; }
  [[nodiscard]] std::uint32_t hash_count() const { return hash_count_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::size_t inserted_count() const { return inserted_; }

  // Wire size in bytes: bit array + 13-byte header (u32 bit count, u8 hash
  // count, u64 seed). This is what the codec charges a query carrying it.
  [[nodiscard]] std::size_t wire_size() const;

  // Raw 64-bit block access for the delta-sync wire path (net/bloom_delta.h):
  // a frame patches individual words of a base filter instead of re-shipping
  // the whole bit array. `set_word` does not touch inserted_count(), which
  // only tracks keys added through insert(); it does keep the set-bit count.
  [[nodiscard]] std::span<const std::uint64_t> words() const { return bits_; }
  void set_word(std::size_t index, std::uint64_t value);

  // Fraction of bits set, from a count kept up to date by every write, so
  // O(1); the flight recorder samples it for every lingering query.
  [[nodiscard]] double fill_ratio() const;

  void encode(std::vector<std::byte>& out) const;
  static BloomFilter decode(std::span<const std::byte> in);

 private:
  // (h1, h2) of the double-hashing probe sequence for `key`.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> double_hash(
      std::uint64_t key) const;

  std::vector<std::uint64_t> bits_;
  std::uint32_t hash_count_ = 0;
  // Popcount of bits_. 32 bits, like the wire's bit count, so it fits in
  // padding and a filter stays as large as it was without the count.
  std::uint32_t set_bits_ = 0;
  std::uint64_t seed_ = 0;
  std::size_t inserted_ = 0;
};

}  // namespace pds::util
