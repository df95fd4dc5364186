// Bit-level I/O and the integer codes used by the webgraph codec:
// unary, Elias gamma, and zeta_k (Boldi & Vigna). zeta_k here uses a
// fixed-width remainder (h·k + k bits) instead of the minimal binary
// code of the original — one bit wasteful per value in the worst case,
// but a valid prefix code with identical asymptotics.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.h"

namespace hetsim::compress {

/// The unary, gamma and zeta_k codes, written through the derived
/// class's write_bits(bits, count). BitWriter emits them; BitCounter
/// only prices them, so both agree on every code length by construction.
template <typename Sink>
class CodeWriter {
 public:
  /// n >= 0: n zero bits then a one bit.
  void write_unary(std::uint32_t n) {
    while (n >= 32) {
      sink().write_bits(0, 32);
      n -= 32;
    }
    sink().write_bits(1, n + 1);  // n zeros followed by a one
  }

  /// Elias gamma code; x >= 1.
  void write_gamma(std::uint64_t x) {
    common::require<common::ConfigError>(x >= 1, "BitWriter: gamma needs x >= 1");
    const auto width = static_cast<std::uint32_t>(std::bit_width(x));  // >= 1
    write_unary(width - 1);
    if (width > 1) sink().write_bits(x & ((1ULL << (width - 1)) - 1), width - 1);
  }

  /// zeta_k code; x >= 1, 1 <= k <= 16.
  void write_zeta(std::uint64_t x, std::uint32_t k) {
    common::require<common::ConfigError>(x >= 1 && k >= 1 && k <= 16,
                                         "BitWriter: zeta needs x>=1, 1<=k<=16");
    // h with 2^(hk) <= x < 2^((h+1)k); hk <= bit_width(x) - 1 <= 63.
    const std::uint32_t h =
        (static_cast<std::uint32_t>(std::bit_width(x)) - 1) / k;
    write_unary(h);
    sink().write_bits(x - (1ULL << (h * k)), h * k + k);
  }

 private:
  Sink& sink() { return static_cast<Sink&>(*this); }
};

class BitWriter : public CodeWriter<BitWriter> {
 public:
  /// Append the low `count` bits of `bits`, most significant first.
  void write_bits(std::uint64_t bits, std::uint32_t count);

  [[nodiscard]] std::uint64_t bit_count() const noexcept { return bits_written_; }
  /// Pads the final byte with zeros and returns the buffer.
  [[nodiscard]] std::string finish();

 private:
  std::string buffer_;
  std::uint8_t current_ = 0;
  std::uint32_t filled_ = 0;  // bits used in current_
  std::uint64_t bits_written_ = 0;
};

/// Same interface and checks as BitWriter, but keeps only the bit
/// count: what a trial encoding costs, without producing it.
class BitCounter : public CodeWriter<BitCounter> {
 public:
  void write_bits(std::uint64_t /*bits*/, std::uint32_t count) {
    common::require<common::ConfigError>(count <= 64, "BitWriter: count > 64");
    bits_written_ += count;
  }

  [[nodiscard]] std::uint64_t bit_count() const noexcept { return bits_written_; }

 private:
  std::uint64_t bits_written_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint64_t read_bits(std::uint32_t count);
  [[nodiscard]] std::uint32_t read_unary();
  /// Throws StoreError on a prefix of 64 or more zeros (no such code).
  [[nodiscard]] std::uint64_t read_gamma();
  /// Throws StoreError when h·k reaches 64 (no such code).
  [[nodiscard]] std::uint64_t read_zeta(std::uint32_t k);
  [[nodiscard]] std::uint64_t bits_consumed() const noexcept { return at_; }
  [[nodiscard]] std::uint64_t bits_remaining() const noexcept {
    return data_.size() * 8ULL - at_;
  }

 private:
  [[nodiscard]] std::uint32_t read_bit();
  std::string_view data_;
  std::uint64_t at_ = 0;  // bit cursor
};

}  // namespace hetsim::compress
