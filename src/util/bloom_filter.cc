#include "util/bloom_filter.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>

#include "common/assert.h"
#include "common/hash.h"

namespace pds::util {

BloomFilter::BloomFilter(std::size_t bits, std::uint32_t hash_count,
                         std::uint64_t seed)
    : hash_count_(hash_count), seed_(seed) {
  const std::size_t words = (bits + 63) / 64;
  PDS_ENSURE(bits > 0);
  PDS_ENSURE(words * 64 <= std::numeric_limits<std::uint32_t>::max());
  PDS_ENSURE(hash_count > 0);
  rep_ = allocate(words);
  std::memset(words_of(rep_), 0, words * sizeof(std::uint64_t));
}

BloomFilter::Rep* BloomFilter::allocate(std::size_t words) {
  // Plain ::operator new, so the ledger's heap meter sees the block.
  void* block = ::operator new(sizeof(Rep) + words * sizeof(std::uint64_t));
  Rep* rep = ::new (block) Rep;
  rep->words = static_cast<std::uint32_t>(words);
  return rep;
}

void BloomFilter::release() noexcept {
  if (rep_ != nullptr &&
      rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    rep_->~Rep();
    ::operator delete(rep_);
  }
  rep_ = nullptr;
}

std::span<std::uint64_t> BloomFilter::mutable_words() {
  if (rep_->refs.load(std::memory_order_acquire) != 1) {
    Rep* copy = allocate(rep_->words);
    std::memcpy(words_of(copy), words_of(rep_),
                rep_->words * sizeof(std::uint64_t));
    release();
    rep_ = copy;
  }
  return {words_of(rep_), rep_->words};
}

BloomFilter BloomFilter::with_capacity(std::size_t expected_items, double fpp,
                                       std::uint64_t seed) {
  PDS_ENSURE(fpp > 0.0 && fpp < 1.0);
  if (expected_items == 0) expected_items = 1;
  const double ln2 = std::log(2.0);
  const double m =
      -static_cast<double>(expected_items) * std::log(fpp) / (ln2 * ln2);
  const double k = m / static_cast<double>(expected_items) * ln2;
  const auto bits = static_cast<std::size_t>(std::ceil(m));
  const auto hashes =
      static_cast<std::uint32_t>(std::max(1.0, std::round(k)));
  return BloomFilter(std::max<std::size_t>(bits, 64), hashes, seed);
}

std::pair<std::uint64_t, std::uint64_t> BloomFilter::double_hash(
    std::uint64_t key) const {
  // Kirsch–Mitzenmacher double hashing: probe i is bit (h1 + i * h2) mod m,
  // with both halves derived from the (key, seed) pair so each round's
  // family is independent.
  const std::uint64_t h1 = mix64(key ^ seed_);
  const std::uint64_t h2 = mix64(h1 ^ 0x5851f42d4c957f2dULL) | 1;
  return {h1, h2};
}

void BloomFilter::insert(std::uint64_t key) {
  PDS_ENSURE(!empty_filter());
  const auto [h1, h2] = double_hash(key);
  const std::size_t m = bit_count();
  const std::span<std::uint64_t> words = mutable_words();
  for (std::uint32_t i = 0; i < hash_count_; ++i) {
    const auto b = static_cast<std::size_t>((h1 + i * h2) % m);
    std::uint64_t& word = words[b / 64];
    const std::uint64_t mask = std::uint64_t{1} << (b % 64);
    if ((word & mask) == 0) ++set_bits_;
    word |= mask;
  }
  ++inserted_;
}

void BloomFilter::set_word(std::size_t index, std::uint64_t value) {
  PDS_ENSURE(index < words().size());
  std::uint64_t& word = mutable_words()[index];
  set_bits_ -= static_cast<std::uint32_t>(std::popcount(word));
  set_bits_ += static_cast<std::uint32_t>(std::popcount(value));
  word = value;
}

bool BloomFilter::maybe_contains(std::uint64_t key) const {
  if (empty_filter()) return false;
  const auto [h1, h2] = double_hash(key);
  const std::size_t m = bit_count();
  const std::uint64_t* words = words_of(rep_);
  for (std::uint32_t i = 0; i < hash_count_; ++i) {
    const auto b = static_cast<std::size_t>((h1 + i * h2) % m);
    if ((words[b / 64] & (std::uint64_t{1} << (b % 64))) == 0) return false;
  }
  return true;
}

std::size_t BloomFilter::wire_size() const {
  ByteCounter c;
  encode(c);
  return c.size();
}

double BloomFilter::fill_ratio() const {
  if (empty_filter()) return 0.0;
  return static_cast<double>(set_bits_) / static_cast<double>(bit_count());
}

template <typename Sink>
void BloomFilter::encode(Sink& w) const {
  w.put_u8(empty_filter() ? 0 : 1);
  if (empty_filter()) return;
  w.put_u32(static_cast<std::uint32_t>(bit_count()));
  w.put_u8(static_cast<std::uint8_t>(hash_count_));
  w.put_u64(seed_);
  w.put_u64s(words());
}

template void BloomFilter::encode(ByteWriter&) const;
template void BloomFilter::encode(ByteCounter&) const;

BloomFilter BloomFilter::decode(ByteReader& r) {
  const std::uint8_t present = r.get_u8();
  if (present == 0) return BloomFilter{};
  const std::uint32_t bits = r.get_u32();
  const std::uint8_t hashes = r.get_u8();
  const std::uint64_t seed = r.get_u64();
  // Validate before constructing: the constructor's PDS_ENSUREs guard
  // against programmer error and abort, but malformed *wire* input must
  // surface as a catchable DecodeError. The size cap (32 MiB of bits)
  // keeps a hostile header from forcing a huge allocation.
  if (bits == 0 || hashes == 0 || bits > (1u << 28)) {
    throw DecodeError("malformed Bloom filter header");
  }
  // The header promises one u64 per 64-bit word; a short buffer would
  // fail word-by-word below anyway, but checking up front keeps a hostile
  // header from forcing the full (up to 32 MiB) zeroed allocation first
  // (pdslint wire-taint).
  const std::size_t words = (std::size_t{bits} + 63) / 64;
  if (r.remaining() < words * 8) {
    throw DecodeError("Bloom filter body exceeds buffer");
  }
  BloomFilter f(bits, hashes, seed);  // a block of its own
  for (std::uint64_t& word : f.mutable_words()) {
    word = r.get_u64();
    f.set_bits_ += static_cast<std::uint32_t>(std::popcount(word));
  }
  return f;
}

}  // namespace pds::util
