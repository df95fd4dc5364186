#include "compress/bitio.h"

#include <algorithm>

namespace hetsim::compress {

void BitWriter::write_bits(std::uint64_t bits, std::uint32_t count) {
  common::require<common::ConfigError>(count <= 64, "BitWriter: count > 64");
  bits_written_ += count;
  // Top up the pending byte, then whole bytes, most significant first.
  // Masking each piece to `take` bits drops anything above `count`.
  while (count > 0) {
    const std::uint32_t take = std::min(8 - filled_, count);
    count -= take;
    const auto piece = static_cast<std::uint32_t>(bits >> count) & ((1U << take) - 1);
    current_ = static_cast<std::uint8_t>((current_ << take) | piece);
    filled_ += take;
    if (filled_ == 8) {
      buffer_.push_back(static_cast<char>(current_));
      current_ = 0;
      filled_ = 0;
    }
  }
}

std::string BitWriter::finish() {
  if (filled_ > 0) {
    current_ = static_cast<std::uint8_t>(current_ << (8 - filled_));
    buffer_.push_back(static_cast<char>(current_));
    current_ = 0;
    filled_ = 0;
  }
  return std::move(buffer_);
}

std::uint32_t BitReader::read_bit() {
  const std::uint64_t byte = at_ >> 3;
  common::require<common::StoreError>(byte < data_.size(),
                                      "BitReader: out of data");
  const std::uint32_t shift = 7 - static_cast<std::uint32_t>(at_ & 7);
  ++at_;
  return (static_cast<unsigned char>(data_[byte]) >> shift) & 1u;
}

std::uint64_t BitReader::read_bits(std::uint32_t count) {
  std::uint64_t v = 0;
  for (std::uint32_t i = 0; i < count; ++i) v = (v << 1) | read_bit();
  return v;
}

std::uint32_t BitReader::read_unary() {
  std::uint32_t n = 0;
  while (read_bit() == 0) ++n;
  return n;
}

std::uint64_t BitReader::read_gamma() {
  const std::uint32_t extra = read_unary();
  common::require<common::StoreError>(extra < 64,
                                      "BitReader: gamma prefix too long");
  std::uint64_t x = 1;
  if (extra > 0) x = (1ULL << extra) | read_bits(extra);
  return x;
}

std::uint64_t BitReader::read_zeta(std::uint32_t k) {
  const std::uint32_t h = read_unary();
  common::require<common::StoreError>(h < 64 && h * k < 64,
                                      "BitReader: zeta prefix too long");
  return (1ULL << (h * k)) + read_bits(h * k + k);
}

}  // namespace hetsim::compress
