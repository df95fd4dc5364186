// Liveness-aware routing and seeded failover election on top of the
// consistent-hash ShardMap.
//
// The ShardMap is pure placement; the router overlays the cluster's
// *current* health. route(key) returns the first k live nodes in the
// key's ring preference order, so a dead primary transparently demotes
// to its first live successor. When the fault layer's heartbeats report
// a node loss, mark_down() runs a deterministic election for the failed
// node's shards: every live candidate draws a seeded ballot (a pure
// hash of seed, failed node, candidate and term) and the lowest ballot
// wins. No messages, no quorum — the simulation has a global view — but
// the record is byte-identical at any HETSIM_THREADS, which is what the
// determinism harness asserts.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "ha/shard_map.h"

namespace hetsim::ha {

/// One failover decision. `ballot` is the winning draw, recorded so the
/// trace pins down not only who won but why.
struct ElectionRecord {
  double at_s = 0.0;      // virtual time of the loss
  HostId failed = 0;      // node whose shards are being re-homed
  HostId promoted = 0;    // live node that now fronts them
  std::uint64_t ballot = 0;
  std::uint64_t term = 0; // 0-based election counter
};

struct RouterStats {
  std::uint64_t routed_reads = 0;
  std::uint64_t routed_writes = 0;
  /// Reads answered by a non-primary replica after fallback.
  std::uint64_t fallback_reads = 0;
  /// Per-replica write attempts that did not come back kOk (replicas
  /// left without that write).
  std::uint64_t write_failures = 0;
  /// Times a breaker-open node was shed from a route walk (its slot
  /// went to a healthy ring successor instead).
  std::uint64_t shed = 0;
  /// Transitions of any node's breaker from closed to open.
  std::uint64_t breaker_opens = 0;
  /// Half-open probes admitted into a walk after a cooldown expired.
  std::uint64_t breaker_probes = 0;

  bool operator==(const RouterStats&) const = default;
};

/// Per-node circuit breaker + load-shedding admission (DESIGN.md §13).
/// Consecutive per-replica op failures (reported by ha::Client via
/// note_op_outcome) open a node's breaker; an open node is shed from
/// route walks — its slot extends to the next healthy node in ring
/// preference order — so a flapping replica stops burning the caller's
/// deadline budget. After `cooldown_routes` walk decisions the breaker
/// goes half-open and admits the node as a probe: one success closes
/// it, one failure re-arms the cooldown. All counts are of deterministic
/// simulator events, so breaker decisions replay byte-identically.
struct BreakerConfig {
  bool enabled = true;
  /// Consecutive failed replica ops that open the breaker.
  std::size_t failure_threshold = 3;
  /// Route walks an open breaker sheds before admitting a probe.
  std::uint64_t cooldown_routes = 256;
};

class ShardRouter {
 public:
  /// `election_seed` feeds the failover ballots; keep it distinct from
  /// the shard-map seed so placement and elections are independent
  /// streams.
  ShardRouter(ShardMap map, std::uint64_t election_seed,
              BreakerConfig breaker = {});

  [[nodiscard]] const ShardMap& map() const noexcept { return map_; }

  /// The key's replica targets — first min(k, live) LIVE nodes in ring
  /// preference order; element 0 is the acting primary. Empty only when
  /// every node is down.
  [[nodiscard]] std::vector<HostId> route(std::string_view key) const;

  /// Every live node in the key's preference order (for exhaustive read
  /// fallback past the nominal replica set). With `ignore_breaker` the
  /// walk admits breaker-open nodes too — the read path's last resort
  /// when every unshed replica missed.
  [[nodiscard]] std::vector<HostId> live_preference(
      std::string_view key, bool ignore_breaker = false) const;

  /// Heartbeat loss: mark the node dead and, if any peer survives, run
  /// the seeded election promoting a successor for its shards. Returns
  /// the record (promoted == failed when no live peer remained).
  /// Idempotent: re-marking a dead node returns the original record
  /// without a new term.
  ElectionRecord mark_down(HostId node, double at_s);

  [[nodiscard]] bool is_down(HostId node) const;

  /// All elections so far, in term order.
  [[nodiscard]] std::vector<ElectionRecord> elections() const;

  [[nodiscard]] RouterStats stats() const;
  void note_read(bool fallback);
  void note_write(std::uint64_t failed_replicas);

  /// Per-replica op outcome from the serving path; drives the breaker.
  void note_op_outcome(HostId node, bool ok);
  [[nodiscard]] bool breaker_open(HostId node) const;
  [[nodiscard]] const BreakerConfig& breaker_config() const noexcept {
    return breaker_;
  }

 private:
  /// Breaker state for one node. `opened_at_walk` is the value of the
  /// walk counter when the breaker (re-)opened; cooldown is measured in
  /// walks, not wall time, so it is deterministic by construction.
  struct NodeBreaker {
    std::size_t consecutive_failures = 0;
    bool open = false;
    std::uint64_t opened_at_walk = 0;
  };

  [[nodiscard]] std::size_t index_of(HostId node) const;
  /// route()/live_preference() body. Advances the walk counter and
  /// applies breaker shedding unless `ignore_breaker`.
  [[nodiscard]] std::vector<HostId> live_walk(std::string_view key,
                                              std::size_t count,
                                              bool ignore_breaker) const;

  ShardMap map_;
  std::uint64_t election_seed_;
  BreakerConfig breaker_;
  // parallel to map_.nodes()
  std::vector<char> down_;
  mutable std::vector<NodeBreaker> breakers_;
  mutable std::uint64_t walks_ = 0;
  std::vector<ElectionRecord> elections_;
  mutable RouterStats stats_;
};

}  // namespace hetsim::ha
