#include "common/bytes.h"

#include <bit>
#include <cstring>

namespace pds {

namespace {

template <typename T>
void append_le(std::vector<std::byte>& buf, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

}  // namespace

void ByteWriter::put_u16(std::uint16_t v) { append_le(buf_, v); }
void ByteWriter::put_u32(std::uint32_t v) { append_le(buf_, v); }
void ByteWriter::put_u64(std::uint64_t v) { append_le(buf_, v); }

void ByteWriter::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buf_.push_back(static_cast<std::byte>(v));
}

void ByteWriter::put_string(std::string_view s) {
  put_u16(string_length(s));
  for (char c : s) buf_.push_back(static_cast<std::byte>(c));
}

void ByteWriter::put_u64s(std::span<const std::uint64_t> vs) {
  buf_.reserve(buf_.size() + 8 * vs.size());
  for (std::uint64_t v : vs) append_le(buf_, v);
}

std::uint8_t ByteReader::get_u8() {
  require(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

namespace {

template <typename T>
T read_le(std::span<const std::byte> data, std::size_t pos) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<std::uint8_t>(data[pos + i])) << (8 * i);
  }
  return v;
}

}  // namespace

std::uint16_t ByteReader::get_u16() {
  require(2);
  auto v = read_le<std::uint16_t>(data_, pos_);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::get_u32() {
  require(4);
  auto v = read_le<std::uint32_t>(data_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::get_u64() {
  require(8);
  auto v = read_le<std::uint64_t>(data_, pos_);
  pos_ += 8;
  return v;
}

double ByteReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::uint64_t ByteReader::get_varint() {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    const std::uint8_t b = get_u8();
    const std::uint64_t group = b & 0x7f;
    // Byte 10 may only carry the top bit of a 64-bit value; anything more
    // overflows. A zero continuation group (other than a lone 0) would give
    // the value a second byte form, so reject it to keep encodings unique.
    if (i == 9 && group > 1) throw DecodeError("varint overflows 64 bits");
    if (i > 0 && group == 0 && (b & 0x80) == 0) {
      throw DecodeError("non-canonical varint");
    }
    v |= group << (7 * i);
    if ((b & 0x80) == 0) return v;
  }
  throw DecodeError("varint longer than 10 bytes");
}

std::int64_t ByteReader::get_varint_i64() {
  const std::uint64_t u = get_varint();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

std::string ByteReader::get_string() {
  const std::uint16_t n = get_u16();
  require(n);
  std::string s(n, '\0');
  std::memcpy(s.data(), data_.data() + pos_, n);
  pos_ += n;
  return s;
}

}  // namespace pds
