#include "ha/shard_map.h"

#include <algorithm>
#include <map>

#include "common/error.h"
#include "common/hash.h"

namespace hetsim::ha {

namespace {

std::uint64_t ring_point(std::uint64_t seed, HostId node, std::size_t vnode) {
  return common::hash_combine(
      common::hash_u64(seed),
      common::hash_combine(common::hash_u64(node),
                           common::hash_u64(static_cast<std::uint64_t>(vnode))));
}

}  // namespace

ShardMap::ShardMap(std::vector<HostId> nodes, ShardMapConfig config)
    : nodes_(std::move(nodes)), config_(config) {
  common::require<common::ConfigError>(!nodes_.empty(),
                                       "ShardMap: no nodes");
  common::require<common::ConfigError>(config_.virtual_nodes >= 1,
                                       "ShardMap: virtual_nodes must be >= 1");
  common::require<common::ConfigError>(config_.replication >= 1,
                                       "ShardMap: replication must be >= 1");
  std::sort(nodes_.begin(), nodes_.end());
  common::require<common::ConfigError>(
      std::adjacent_find(nodes_.begin(), nodes_.end()) == nodes_.end(),
      "ShardMap: duplicate node id");
  ring_.reserve(nodes_.size() * config_.virtual_nodes);
  for (const HostId node : nodes_) {
    for (std::size_t v = 0; v < config_.virtual_nodes; ++v) {
      ring_.emplace_back(ring_point(config_.seed, node, v), node);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::uint64_t ShardMap::key_point(std::string_view key) const {
  return common::hash_combine(common::hash_u64(config_.seed),
                              common::hash_bytes(key));
}

std::vector<HostId> ShardMap::walk(std::uint64_t point,
                                   std::size_t count) const {
  std::vector<HostId> owners;
  owners.reserve(count);
  const auto start = std::lower_bound(
      ring_.begin(), ring_.end(),
      std::make_pair(point, HostId{0}));
  const std::size_t n = ring_.size();
  const std::size_t first =
      start == ring_.end() ? 0 : static_cast<std::size_t>(start - ring_.begin());
  for (std::size_t step = 0; step < n && owners.size() < count; ++step) {
    const HostId owner = ring_[(first + step) % n].second;
    if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
      owners.push_back(owner);
    }
  }
  return owners;
}

std::vector<HostId> ShardMap::replicas(std::string_view key) const {
  return walk(key_point(key), std::min(config_.replication, nodes_.size()));
}

HostId ShardMap::primary(std::string_view key) const {
  return walk(key_point(key), 1).front();
}

std::vector<HostId> ShardMap::preference(std::string_view key) const {
  return walk(key_point(key), nodes_.size());
}

std::vector<std::vector<HostId>> ShardMap::replica_sets() const {
  const std::size_t k = std::min(config_.replication, nodes_.size());
  std::vector<std::vector<HostId>> out(nodes_.size());
  if (k <= 1) return out;
  // Walk the successors of every vnode the node owns and keep the k-1
  // most frequent backups (arc-weighted by vnode count; ties to the
  // lower id so the result is deterministic).
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::map<HostId, std::size_t> freq;
    for (std::size_t v = 0; v < config_.virtual_nodes; ++v) {
      const std::vector<HostId> owners =
          walk(ring_point(config_.seed, nodes_[i], v), k);
      for (const HostId owner : owners) {
        if (owner != nodes_[i]) ++freq[owner];
      }
    }
    std::vector<std::pair<HostId, std::size_t>> ranked(freq.begin(),
                                                       freq.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    for (std::size_t r = 0; r < ranked.size() && out[i].size() < k - 1; ++r) {
      out[i].push_back(ranked[r].first);
    }
  }
  return out;
}

}  // namespace hetsim::ha
