// Byte-level serialization.
//
// Messages are encoded to concrete bytes so that (1) the simulator charges
// every transmission its true wire size — the paper's "message overhead"
// metric is bytes on air — and (2) descriptor identity is a hash of a
// canonical encoding rather than of in-memory layout.
//
// Each wire layout is written once, as a writer templated on its sink
// (DESIGN.md §18): run into a ByteWriter it builds the bytes, run into a
// ByteCounter it sizes them. No size is kept by hand beside an encoder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pds {

// Thrown when a reader runs past the end of its buffer or a length prefix is
// inconsistent — i.e., a malformed message — and when a string is too long
// for its u16 length prefix.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The u16 length prefix of put_string. Every sink refuses the same strings,
// so sizing and hashing fail exactly where encoding does.
[[nodiscard]] inline std::uint16_t string_length(std::string_view s) {
  if (s.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw DecodeError("string too long to encode");
  }
  return static_cast<std::uint16_t>(s.size());
}

// Zigzag mapping of put_varint_i64: small magnitudes of either sign stay
// short.
[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

// Encoded length of `v` as a varint (1–10 bytes): ByteCounter's put_varint.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);
  // LEB128 base-128 varint, 1–10 bytes. The compressed wire paths
  // (net/codec.cc v2 extensions, net/bloom_delta.cc) use varints for counts,
  // indices and deltas that are small in the common case.
  void put_varint(std::uint64_t v);
  void put_varint_i64(std::int64_t v) { put_varint(zigzag(v)); }
  // Length-prefixed (u16) string.
  void put_string(std::string_view s);
  // An array of u64 fields, such as a Bloom filter's words.
  void put_u64s(std::span<const std::uint64_t> vs);

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::span<const std::byte> bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

// The sizing sink: ByteWriter's put_* interface, keeping only the count.
// Fixed-width fields and arrays of them cost O(1) to count.
class ByteCounter {
 public:
  void put_u8(std::uint8_t) { ++size_; }
  void put_u16(std::uint16_t) { size_ += 2; }
  void put_u32(std::uint32_t) { size_ += 4; }
  void put_u64(std::uint64_t) { size_ += 8; }
  void put_i64(std::int64_t) { size_ += 8; }
  void put_f64(double) { size_ += 8; }
  void put_varint(std::uint64_t v) { size_ += varint_size(v); }
  void put_varint_i64(std::int64_t v) { put_varint(zigzag(v)); }
  void put_string(std::string_view s) { size_ += 2 + string_length(s); }
  void put_u64s(std::span<const std::uint64_t> vs) { size_ += 8 * vs.size(); }
  // Bytes charged without being written: a size memoized elsewhere, or a
  // sizing rule's charge (net/codec.cc).
  void add(std::size_t n) { size_ += n; }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint16_t get_u16();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64() {
    return static_cast<std::int64_t>(get_u64());
  }
  [[nodiscard]] double get_f64();
  // Throws DecodeError on truncation and on non-canonical encodings
  // (more than 10 bytes, bits past the 64th, or a zero-valued trailing
  // continuation group), so decode(encode(x)) is the unique byte form.
  [[nodiscard]] std::uint64_t get_varint();
  [[nodiscard]] std::int64_t get_varint_i64();
  [[nodiscard]] std::string get_string();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) throw DecodeError("buffer underrun");
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace pds
