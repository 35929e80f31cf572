// Binary serialization for the runtime transport.
//
// Fixed little-endian wire format, explicit sizes, length-checked reads.
// Deliberately minimal: the runtime frames are tiny (token-account payloads
// are a handful of scalars).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace toka::util {

/// Appends values to a growable byte buffer.
class BinaryWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_le(bits);
  }
  /// Length-prefixed (u32) byte string.
  void bytes(std::span<const std::byte> data);
  void str(const std::string& s);

  const std::vector<std::byte>& data() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }
  /// Sizes the buffer for `bytes` in total before the writes that fill it.
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
  }
  std::vector<std::byte> buf_;
};

/// Reads values back; throws IoError on truncated input.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::vector<std::byte> bytes();
  std::string str();

  /// Bytes not yet consumed.
  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }

 private:
  template <typename T>
  T get_le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i])) << (8 * i);
    pos_ += sizeof(T);
    return v;
  }
  void need(std::size_t n) const {
    if (remaining() < n) throw IoError("binary read past end of buffer");
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace toka::util
