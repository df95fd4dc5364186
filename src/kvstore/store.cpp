#include "kvstore/store.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/error.h"
#include "common/hash.h"

namespace hetsim::kvstore {
namespace {

using common::StoreError;

/// Clamp Redis-style [start, stop] (inclusive, negatives from end) to a
/// concrete [begin, end) range over a list of size n.
std::pair<std::size_t, std::size_t> clamp_range(std::size_t n,
                                                std::int64_t start,
                                                std::int64_t stop) {
  const auto sn = static_cast<std::int64_t>(n);
  if (start < 0) start = std::max<std::int64_t>(0, sn + start);
  if (stop < 0) stop = sn + stop;
  stop = std::min(stop, sn - 1);
  if (start > stop || start >= sn) return {0, 0};
  return {static_cast<std::size_t>(start), static_cast<std::size_t>(stop) + 1};
}

}  // namespace

void Store::set(std::string_view key, std::string_view value) {
  ++ops_;
  data_.insert_or_assign(std::string(key), std::string(value));
}

std::optional<std::string> Store::get(std::string_view key) const {
  ++ops_;
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  const auto* s = std::get_if<std::string>(&it->second);
  common::require<StoreError>(s != nullptr, "GET on non-string key");
  return *s;
}

std::size_t Store::rpush(std::string_view key, std::string_view element) {
  ++ops_;
  auto [it, inserted] = data_.try_emplace(std::string(key),
                                          std::vector<std::string>{});
  auto* list = std::get_if<std::vector<std::string>>(&it->second);
  common::require<StoreError>(list != nullptr, "RPUSH on non-list key");
  list->emplace_back(element);
  return list->size();
}

std::vector<std::string> Store::lrange(std::string_view key, std::int64_t start,
                                       std::int64_t stop) const {
  ++ops_;
  const auto it = data_.find(key);
  if (it == data_.end()) return {};
  const auto* list = std::get_if<std::vector<std::string>>(&it->second);
  common::require<StoreError>(list != nullptr, "LRANGE on non-list key");
  const auto [b, e] = clamp_range(list->size(), start, stop);
  return {list->begin() + static_cast<std::ptrdiff_t>(b),
          list->begin() + static_cast<std::ptrdiff_t>(e)};
}

std::size_t Store::llen(std::string_view key) const {
  ++ops_;
  const auto it = data_.find(key);
  if (it == data_.end()) return 0;
  const auto* list = std::get_if<std::vector<std::string>>(&it->second);
  common::require<StoreError>(list != nullptr, "LLEN on non-list key");
  return list->size();
}

std::optional<std::string> Store::lindex(std::string_view key,
                                         std::int64_t index) const {
  ++ops_;
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  const auto* list = std::get_if<std::vector<std::string>>(&it->second);
  common::require<StoreError>(list != nullptr, "LINDEX on non-list key");
  std::int64_t i = index;
  if (i < 0) i += static_cast<std::int64_t>(list->size());
  if (i < 0 || i >= static_cast<std::int64_t>(list->size())) return std::nullopt;
  return (*list)[static_cast<std::size_t>(i)];
}

bool Store::del(std::string_view key) {
  ++ops_;
  const auto it = data_.find(key);
  if (it == data_.end()) return false;
  data_.erase(it);
  return true;
}

void Store::flush_all() {
  ++ops_;
  data_.clear();
}

void Store::fail_stop() {
  down_ = true;
}

bool Store::is_down() const {
  return down_;
}

std::vector<std::string> Store::keys() const {
  std::vector<std::string> out;
  out.reserve(data_.size());
  for (const auto& [key, value] : data_) out.push_back(key);
  return out;
}

std::uint64_t Store::value_digest(std::string_view key) const {
  const auto it = data_.find(key);
  if (it == data_.end()) return 0;
  // The tag byte keeps a string "x" and a one-element list ["x"] apart.
  std::string out;
  if (const auto* str = std::get_if<std::string>(&it->second)) {
    out.push_back('s');
    common::append_u32(out, static_cast<std::uint32_t>(str->size()));
    out.append(*str);
  } else {
    const auto& list = std::get<std::vector<std::string>>(it->second);
    out.push_back('l');
    common::append_u32(out, static_cast<std::uint32_t>(list.size()));
    for (const std::string& e : list) {
      common::append_u32(out, static_cast<std::uint32_t>(e.size()));
      out.append(e);
    }
  }
  return common::hash_bytes(out);
}

StoreStats Store::stats() const {
  StoreStats s;
  s.keys = data_.size();
  s.ops = ops_;
  for (const auto& [key, value] : data_) {
    s.bytes += key.size();
    if (const auto* str = std::get_if<std::string>(&value)) {
      s.bytes += str->size();
    } else {
      for (const auto& e : std::get<std::vector<std::string>>(value)) {
        s.bytes += e.size();
      }
    }
  }
  return s;
}

}  // namespace hetsim::kvstore
