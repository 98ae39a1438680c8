// Byte-level serialization for the recovery WAL (and any other binary
// persistence): explicit little-endian packing of fixed-width integers,
// IEEE-754 bit patterns for doubles, and length-prefixed strings.
//
// Everything is encoded byte-by-byte — never by memcpy of a struct — so
// the wire format is identical on every platform and compiler, which is
// what lets a WAL written on one host resume on another and lets tests
// pin record bytes. Doubles travel as their exact bit pattern: a value
// decoded from a WAL is the *same double*, bit for bit, the writer had,
// the property the resume-bit-identically contract rests on.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace staleflow::binio {

/// Appends fixed-width fields to a growing byte buffer.
class Writer {
 public:
  void u8(std::uint8_t value) { buf_.push_back(static_cast<char>(value)); }

  void u32(std::uint32_t value) { append_le<4>(value); }

  void u64(std::uint64_t value) { append_le<8>(value); }

  /// Exact bit pattern — round-trips any double, including -0.0 and the
  /// results of platform-specific libm calls.
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

  /// u64 length prefix + raw bytes.
  void str(std::string_view value) {
    u64(value.size());
    buf_.append(value.data(), value.size());
  }

  const std::string& data() const noexcept { return buf_; }
  std::string take() noexcept { return std::move(buf_); }

 private:
  /// Packs the low N bytes of `value` least significant first into a
  /// local array and appends it in one call.
  template <std::size_t N>
  void append_le(std::uint64_t value) {
    char bytes[N];
    for (std::size_t i = 0; i < N; ++i) {
      bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
    buf_.append(bytes, N);
  }

  std::string buf_;
};

/// Reads fields back in write order. Underrun (a truncated or corrupt
/// payload) throws std::runtime_error rather than reading garbage — the
/// recovery scanner treats that as a torn record.
class Reader {
 public:
  explicit Reader(std::string_view data) noexcept : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(need(1)[0]); }

  std::uint32_t u32() {
    const std::string_view bytes = need(4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(bytes[i]))
               << (8 * i);
    }
    return value;
  }

  std::uint64_t u64() {
    const std::string_view bytes = need(8);
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(bytes[i]))
               << (8 * i);
    }
    return value;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint64_t size = u64();
    if (size > remaining()) {
      throw std::runtime_error("binio: truncated payload (string)");
    }
    return std::string(need(static_cast<std::size_t>(size)));
  }

  /// Reads a `Count`-wide (std::uint32_t or std::uint64_t) item count
  /// for a sequence whose items take at least `min_item_bytes` each, and
  /// throws std::runtime_error when the rest of the payload cannot hold
  /// that many — so a crafted count (the frame checksum is no MAC) is
  /// reported as corruption before anything is reserved for it.
  template <typename Count>
  std::size_t count(std::size_t min_item_bytes) {
    static_assert(std::is_same_v<Count, std::uint32_t> ||
                  std::is_same_v<Count, std::uint64_t>);
    const std::uint64_t value = sizeof(Count) == 4 ? u32() : u64();
    if (value > remaining() / min_item_bytes) {
      throw std::runtime_error("binio: item count " + std::to_string(value) +
                               " exceeds the payload");
    }
    return static_cast<std::size_t>(value);
  }

  std::size_t remaining() const noexcept { return data_.size() - offset_; }
  bool done() const noexcept { return remaining() == 0; }

 private:
  std::string_view need(std::size_t size) {
    if (size > remaining()) {
      throw std::runtime_error("binio: truncated payload");
    }
    const std::string_view bytes = data_.substr(offset_, size);
    offset_ += size;
    return bytes;
  }

  std::string_view data_;
  std::size_t offset_ = 0;
};

}  // namespace staleflow::binio
