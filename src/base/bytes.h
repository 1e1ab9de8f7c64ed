// Bounds-checked binary readers/writers used by the ORB wire format.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "base/error.h"

namespace adapt {

using Bytes = std::vector<uint8_t>;

/// Append-only little-endian encoder. Each field is one append into a
/// buffer the caller can pre-size, so encoding a typical request allocates
/// once instead of once per doubling. The field writers are inline: they
/// run a few dozen times per ORB call.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Starts with room for `capacity` bytes.
  explicit ByteWriter(size_t capacity) { buf_.reserve(capacity); }

  void u8(uint8_t v) { buf_.push_back(v); }
  void u32(uint32_t v) {
    const uint8_t le[4] = {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8),
                           static_cast<uint8_t>(v >> 16), static_cast<uint8_t>(v >> 24)};
    raw(le, sizeof(le));
  }
  void u64(uint64_t v) {
    uint8_t le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<uint8_t>(v >> (8 * i));
    raw(le, sizeof(le));
  }
  void f64(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  /// Length-prefixed (u32) byte string.
  void str(std::string_view s) {
    u32(static_cast<uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void raw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  [[nodiscard]] const Bytes& bytes() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] size_t size() const { return buf_.size(); }

  /// Overwrites 4 bytes at `pos` (for back-patching frame lengths).
  void patch_u32(size_t pos, uint32_t v);

 private:
  Bytes buf_;
};

/// Bounds-checked little-endian decoder; throws SerializationError on
/// truncated input.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t n) : data_(data), size_(n) {}
  explicit ByteReader(const Bytes& b) : ByteReader(b.data(), b.size()) {}

  uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  uint32_t u32() {
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }
  uint64_t u64() {
    need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }
  double f64() {
    const uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str();

  [[nodiscard]] size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool done() const { return pos_ == size_; }

 private:
  void need(size_t n) const {
    if (size_ - pos_ < n) truncated();
  }
  /// Throws SerializationError (kept out of line, off the inlined paths).
  [[noreturn]] static void truncated();
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace adapt
