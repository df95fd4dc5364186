#include "kvstore/codec.h"

#include <cstring>

#include "common/error.h"

namespace hetsim::kvstore {

namespace {

void append_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  out.append(buf, 4);
}

std::uint32_t read_u32(std::string_view in, std::size_t at) {
  common::require<common::StoreError>(at + 4 <= in.size(),
                                      "codec: truncated length prefix");
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(in[at + i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

}  // namespace

std::string pack_records(std::span<const std::string> records) {
  std::size_t total = 0;
  for (const auto& r : records) total += r.size() + 4;
  std::string out;
  out.reserve(total);
  for (const auto& r : records) {
    append_u32(out, static_cast<std::uint32_t>(r.size()));
    out.append(r);
  }
  return out;
}

std::string_view RecordCursor::next() {
  const std::uint32_t len = read_u32(blob_, at_);
  at_ += 4;
  common::require<common::StoreError>(at_ + len <= blob_.size(),
                                      "codec: truncated record body");
  const std::string_view payload = blob_.substr(at_, len);
  at_ += len;
  return payload;
}

}  // namespace hetsim::kvstore
