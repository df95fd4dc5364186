// Little-endian byte packing helpers: the dataset serializers and the
// Huffman codec write and read them; the runtime's sketch upload, the
// mining workload's count blobs and the store's value digests only
// write. No kvstore codec decodes anything. All framing in hetsim is
// explicit little-endian so stored blobs are portable across hosts.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.h"

namespace hetsim::common {

inline void append_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  out.append(buf, 4);
}

inline std::uint32_t read_u32(std::string_view in, std::size_t at) {
  require<StoreError>(at + 4 <= in.size(), "bytes: truncated u32");
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(in[at + i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

inline void append_u64(std::string& out, std::uint64_t v) {
  append_u32(out, static_cast<std::uint32_t>(v & 0xffffffffULL));
  append_u32(out, static_cast<std::uint32_t>(v >> 32));
}

}  // namespace hetsim::common
