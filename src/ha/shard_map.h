// Consistent-hash shard map with virtual nodes.
//
// The HA layer spreads the keyspace over per-node kvstore::Stores and
// keeps k replicas of every key. Placement is classic consistent
// hashing: every node contributes `virtual_nodes` points on a 64-bit
// ring, a key hashes to a ring position, and its replicas are the first
// k *distinct* nodes encountered walking the ring clockwise. Virtual
// nodes smooth the load (the per-node share concentrates around 1/n),
// and a node's ring points depend only on (seed, node), so two maps
// whose memberships differ by one node disagree only on that node's
// arcs, i.e. an expected 1/n of the keys.
//
// Membership is fixed at construction, and everything is a pure
// function of (seed, membership, virtual_nodes): two ShardMaps built
// from the same inputs route identically on any machine at any thread
// count.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "net/fabric.h"

namespace hetsim::ha {

using HostId = net::HostId;

struct ShardMapConfig {
  /// Ring points contributed per node. More points = smoother load at
  /// linearly more ring memory; 64 keeps the max/min node share under
  /// ~1.6x for small clusters.
  std::size_t virtual_nodes = 64;
  /// Copies kept of every key (clamped to the node count at routing
  /// time). 1 disables replication.
  std::size_t replication = 2;
  /// Ring placement seed.
  std::uint64_t seed = 0;
};

class ShardMap {
 public:
  /// Throws common::ConfigError when `nodes` is empty or contains
  /// duplicates, or the config is out of range.
  ShardMap(std::vector<HostId> nodes, ShardMapConfig config);

  [[nodiscard]] const ShardMapConfig& config() const noexcept {
    return config_;
  }
  /// Membership, ascending.
  [[nodiscard]] const std::vector<HostId>& nodes() const noexcept {
    return nodes_;
  }

  /// The key's replica owners: min(replication, nodes) distinct nodes in
  /// ring order from the key's position. Element 0 is the primary.
  [[nodiscard]] std::vector<HostId> replicas(std::string_view key) const;
  [[nodiscard]] HostId primary(std::string_view key) const;
  /// Every node in ring order from the key's position (size == node
  /// count). The failover router walks this past dead entries.
  [[nodiscard]] std::vector<HostId> preference(std::string_view key) const;

  /// For each node i (by membership order): the nodes that hold the
  /// extra k-1 copies of keys primaried on i, weighted by how much of
  /// i's ring arc they back. This is the placement summary the Pareto
  /// LP prices replica energy with (optimize::ReplicaCostModel).
  [[nodiscard]] std::vector<std::vector<HostId>> replica_sets() const;

 private:
  /// First distinct owners walking the ring from `point`.
  [[nodiscard]] std::vector<HostId> walk(std::uint64_t point,
                                         std::size_t count) const;
  [[nodiscard]] std::uint64_t key_point(std::string_view key) const;

  std::vector<HostId> nodes_;
  ShardMapConfig config_;
  /// (ring position, owner), sorted; positions are unique with
  /// overwhelming probability, ties broken by owner id for determinism.
  std::vector<std::pair<std::uint64_t, HostId>> ring_;
};

}  // namespace hetsim::ha
