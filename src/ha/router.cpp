#include "ha/router.h"

#include <algorithm>

#include "common/error.h"
#include "common/hash.h"
#include "fault/test_hooks.h"

namespace hetsim::ha {

ShardRouter::ShardRouter(ShardMap map, std::uint64_t election_seed,
                         BreakerConfig breaker)
    : map_(std::move(map)),
      election_seed_(election_seed),
      breaker_(breaker),
      down_(map_.nodes().size(), 0),
      breakers_(map_.nodes().size()) {
  common::require<common::ConfigError>(
      breaker_.failure_threshold >= 1,
      "ShardRouter: breaker failure_threshold must be >= 1");
  common::require<common::ConfigError>(
      breaker_.cooldown_routes >= 1,
      "ShardRouter: breaker cooldown_routes must be >= 1");
}

std::size_t ShardRouter::index_of(HostId node) const {
  const auto& nodes = map_.nodes();
  const auto it = std::lower_bound(nodes.begin(), nodes.end(), node);
  common::require<common::ConfigError>(it != nodes.end() && *it == node,
                                       "ShardRouter: unknown node");
  return static_cast<std::size_t>(it - nodes.begin());
}

std::vector<HostId> ShardRouter::live_walk(std::string_view key,
                                           std::size_t count,
                                           bool ignore_breaker) const {
  ++walks_;
  const bool pin_primary = fault::test_hooks().router_pin_dead_primary;
  std::vector<HostId> out;
  out.reserve(count);
  std::vector<HostId> shed_live;  // breaker-shed but otherwise live
  bool first = true;
  for (const HostId node : map_.preference(key)) {
    const std::size_t idx = index_of(node);
    const bool is_first = first;
    first = false;
    if (pin_primary && is_first) {
      // Planted bug (fault::TestHooks): the key's first preference keeps
      // its slot no matter what — a dead or flapping primary is never
      // demoted or shed, so every op burns its budget against it.
      out.push_back(node);
      if (out.size() == count) break;
      continue;
    }
    if (down_[idx]) continue;
    if (!ignore_breaker && breaker_.enabled && breakers_[idx].open) {
      if (walks_ - breakers_[idx].opened_at_walk >=
          breaker_.cooldown_routes) {
        // Half-open: cooldown expired, admit the node as a probe. One
        // success closes the breaker, one failure re-arms the cooldown
        // (note_op_outcome).
        ++stats_.breaker_probes;
      } else {
        ++stats_.shed;
        shed_live.push_back(node);
        continue;
      }
    }
    out.push_back(node);
    if (out.size() == count) break;
  }
  // Availability floor: shedding must never turn "degraded" into
  // "unavailable". If every live replica was shed, serve from the shed
  // set rather than failing the op outright.
  if (out.empty()) {
    for (const HostId node : shed_live) {
      out.push_back(node);
      if (out.size() == count) break;
    }
  }
  return out;
}

std::vector<HostId> ShardRouter::route(std::string_view key) const {
  const std::size_t k =
      std::min(map_.config().replication, map_.nodes().size());
  return live_walk(key, k, /*ignore_breaker=*/false);
}

std::vector<HostId> ShardRouter::live_preference(std::string_view key,
                                                 bool ignore_breaker) const {
  return live_walk(key, map_.nodes().size(), ignore_breaker);
}

ElectionRecord ShardRouter::mark_down(HostId node, double at_s) {
  const std::size_t idx = index_of(node);
  if (down_[idx]) {
    // Already dead: return the election that re-homed it, if any.
    for (auto it = elections_.rbegin(); it != elections_.rend(); ++it) {
      if (it->failed == node) return *it;
    }
    return ElectionRecord{at_s, node, node, 0, 0};
  }
  down_[idx] = 1;

  ElectionRecord rec;
  rec.at_s = at_s;
  rec.failed = node;
  rec.term = elections_.size();
  rec.promoted = node;  // placeholder: stays self when no peer survives
  bool first = true;
  for (std::size_t i = 0; i < map_.nodes().size(); ++i) {
    if (down_[i]) continue;
    const HostId candidate = map_.nodes()[i];
    // Ballot = pure function of (seed, failed, candidate, term): every
    // observer that replays the same loss sequence elects the same
    // successor, regardless of thread interleaving.
    const std::uint64_t ballot = common::hash_combine(
        common::hash_combine(common::hash_u64(election_seed_),
                             common::hash_u64(node)),
        common::hash_combine(common::hash_u64(candidate),
                             common::hash_u64(rec.term)));
    if (first || ballot < rec.ballot ||
        (ballot == rec.ballot && candidate < rec.promoted)) {
      rec.ballot = ballot;
      rec.promoted = candidate;
      first = false;
    }
  }
  elections_.push_back(rec);
  return rec;
}

bool ShardRouter::is_down(HostId node) const {
  const std::size_t idx = index_of(node);
  return down_[idx] != 0;
}

std::vector<ElectionRecord> ShardRouter::elections() const {
  return elections_;
}

RouterStats ShardRouter::stats() const {
  return stats_;
}

void ShardRouter::note_read(bool fallback) {
  ++stats_.routed_reads;
  if (fallback) ++stats_.fallback_reads;
}

void ShardRouter::note_write(std::uint64_t failed_replicas) {
  ++stats_.routed_writes;
  stats_.write_failures += failed_replicas;
}

void ShardRouter::note_op_outcome(HostId node, bool ok) {
  const std::size_t idx = index_of(node);
  NodeBreaker& b = breakers_[idx];
  if (ok) {
    b.consecutive_failures = 0;
    b.open = false;  // a successful probe (or plain op) closes it
    return;
  }
  ++b.consecutive_failures;
  if (!breaker_.enabled) return;
  if (b.open) {
    b.opened_at_walk = walks_;  // failed probe: re-arm the cooldown
  } else if (b.consecutive_failures >= breaker_.failure_threshold) {
    b.open = true;
    b.opened_at_walk = walks_;
    ++stats_.breaker_opens;
  }
}

bool ShardRouter::breaker_open(HostId node) const {
  const std::size_t idx = index_of(node);
  return breakers_[idx].open;
}

}  // namespace hetsim::ha
