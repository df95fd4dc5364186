// Tests for hetsim::ha — the sharded, replicated kvstore layer:
// consistent-hash shard maps (determinism + bounded churn), the
// liveness-aware router's seeded failover elections, the replicated
// client's write fan-out / read fallback for every transport status,
// and the job runtime's replicated degraded mode driven by the example
// fault plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/error.h"
#include "core/workload.h"
#include "data/generators.h"
#include "energy/estimator.h"
#include "fault/fault.h"
#include "ha/client.h"
#include "ha/group.h"
#include "ha/router.h"
#include "ha/shard_map.h"
#include "kvstore/client.h"
#include "kvstore/store.h"
#include "runtime/runtime.h"

namespace hetsim {
namespace {

using ha::HostId;
using ha::NodeGroup;
using ha::NodeGroupConfig;
using ha::ShardMap;
using ha::ShardMapConfig;
using ha::ShardRouter;

std::vector<HostId> iota_nodes(std::size_t n) {
  std::vector<HostId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), HostId{0});
  return nodes;
}

std::vector<std::string> sample_keys(std::size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back("key:" + std::to_string(i));
  return keys;
}

// ---- ShardMap --------------------------------------------------------------

TEST(ShardMap, SameInputsRouteIdentically) {
  const ShardMapConfig cfg{.virtual_nodes = 64, .replication = 3, .seed = 11};
  const ShardMap a(iota_nodes(5), cfg);
  const ShardMap b(iota_nodes(5), cfg);
  for (const std::string& key : sample_keys(500)) {
    EXPECT_EQ(a.replicas(key), b.replicas(key)) << key;
    EXPECT_EQ(a.preference(key), b.preference(key)) << key;
  }
}

TEST(ShardMap, ReplicasAreDistinctAndLedByThePrimary) {
  const ShardMap map(iota_nodes(5),
                     {.virtual_nodes = 64, .replication = 3, .seed = 1});
  for (const std::string& key : sample_keys(200)) {
    const std::vector<HostId> replicas = map.replicas(key);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_EQ(replicas[0], map.primary(key));
    std::set<HostId> distinct(replicas.begin(), replicas.end());
    EXPECT_EQ(distinct.size(), replicas.size()) << key;
    const std::vector<HostId> pref = map.preference(key);
    ASSERT_EQ(pref.size(), 5u);
    EXPECT_TRUE(std::equal(replicas.begin(), replicas.end(), pref.begin()));
  }
}

TEST(ShardMap, ReplicationClampsToTheNodeCount) {
  const ShardMap map(iota_nodes(2),
                     {.virtual_nodes = 32, .replication = 4, .seed = 3});
  EXPECT_EQ(map.replicas("k").size(), 2u);
}

TEST(ShardMap, AddNodeMovesOnlyABoundedKeyFraction) {
  const ShardMapConfig cfg{.virtual_nodes = 64, .replication = 2, .seed = 5};
  const ShardMap six(iota_nodes(6), cfg);
  const std::vector<std::string> keys = sample_keys(2000);
  std::vector<HostId> before;
  before.reserve(keys.size());
  for (const std::string& key : keys) before.push_back(six.primary(key));

  const ShardMap map(iota_nodes(7), cfg);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const HostId now = map.primary(keys[i]);
    if (now != before[i]) {
      ++moved;
      // Consistent hashing only ever moves keys TO the new node.
      EXPECT_EQ(now, 6u) << keys[i];
    }
  }
  // Expected share is 1/7 ~ 14%; allow generous variance, but well under
  // the ~6/7 a naive mod-N rehash would move.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, keys.size() / 3);
}

TEST(ShardMap, RemoveNodeOnlyRehomesItsOwnKeys) {
  const ShardMapConfig cfg{.virtual_nodes = 64, .replication = 2, .seed = 5};
  const ShardMap six(iota_nodes(6), cfg);
  const std::vector<std::string> keys = sample_keys(2000);
  std::vector<HostId> before;
  before.reserve(keys.size());
  for (const std::string& key : keys) before.push_back(six.primary(key));

  const ShardMap map({0, 1, 3, 4, 5}, cfg);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (before[i] != 2) {
      // Survivors keep their ring points, so untouched arcs stay put.
      EXPECT_EQ(map.primary(keys[i]), before[i]) << keys[i];
    } else {
      EXPECT_NE(map.primary(keys[i]), 2u) << keys[i];
    }
  }
}

TEST(ShardMap, RejectsBadMembershipAndConfig) {
  EXPECT_THROW(ShardMap({}, {}), common::ConfigError);
  EXPECT_THROW(ShardMap({1, 1}, {}), common::ConfigError);
  EXPECT_THROW(ShardMap(iota_nodes(2), {.virtual_nodes = 0}),
               common::ConfigError);
  EXPECT_THROW(ShardMap(iota_nodes(2), {.replication = 0}),
               common::ConfigError);
}

TEST(ShardMap, ReplicaSetsCoverEveryNode) {
  const ShardMap map(iota_nodes(4),
                     {.virtual_nodes = 64, .replication = 2, .seed = 2});
  const std::vector<std::vector<HostId>> sets = map.replica_sets();
  ASSERT_EQ(sets.size(), 4u);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_FALSE(sets[i].empty()) << "node " << i;
    for (const HostId backer : sets[i]) EXPECT_NE(backer, i);
  }
}

// ---- ShardRouter: liveness + elections -------------------------------------

TEST(ShardRouter, RouteSkipsDeadPrimariesTransparently) {
  ShardRouter router(ShardMap(iota_nodes(4), {.replication = 2, .seed = 4}),
                     /*election_seed=*/17);
  const std::string key = "payload:42";
  const std::vector<HostId> pref = router.map().preference(key);
  const std::vector<HostId> healthy = router.route(key);
  ASSERT_EQ(healthy.size(), 2u);
  EXPECT_EQ(healthy[0], pref[0]);

  (void)router.mark_down(pref[0], 1.0);
  const std::vector<HostId> degraded = router.route(key);
  ASSERT_EQ(degraded.size(), 2u);
  EXPECT_EQ(degraded[0], pref[1]);  // next live node in ring order
  EXPECT_EQ(degraded[1], pref[2]);
}

TEST(ShardRouter, LivePreferenceShrinksWithTheClusterAndNeverLies) {
  ShardRouter router(ShardMap(iota_nodes(4), {.replication = 2, .seed = 4}),
                     /*election_seed=*/17);
  (void)router.mark_down(1, 0.5);
  (void)router.mark_down(3, 0.6);
  for (const std::string& key : sample_keys(50)) {
    const std::vector<HostId> live = router.live_preference(key);
    ASSERT_EQ(live.size(), 2u);
    for (const HostId node : live) {
      EXPECT_FALSE(router.is_down(node));
    }
  }
}

TEST(ShardRouter, MarkDownIsIdempotentAndTermsAreDense) {
  ShardRouter router(ShardMap(iota_nodes(4), {.replication = 2, .seed = 4}),
                     /*election_seed=*/17);
  const ha::ElectionRecord first = router.mark_down(2, 1.0);
  EXPECT_EQ(first.failed, 2u);
  EXPECT_NE(first.promoted, 2u);
  EXPECT_EQ(first.term, 0u);
  const ha::ElectionRecord again = router.mark_down(2, 9.0);
  EXPECT_EQ(again.term, first.term);
  EXPECT_EQ(again.promoted, first.promoted);
  EXPECT_DOUBLE_EQ(again.at_s, first.at_s);
  ASSERT_EQ(router.elections().size(), 1u);

  const ha::ElectionRecord second = router.mark_down(0, 2.0);
  EXPECT_EQ(second.term, 1u);
  EXPECT_EQ(router.elections().size(), 2u);
}

TEST(ShardRouter, LastNodeStandingPromotesItself) {
  ShardRouter router(ShardMap(iota_nodes(2), {.replication = 2, .seed = 4}),
                     /*election_seed=*/17);
  (void)router.mark_down(0, 1.0);
  const ha::ElectionRecord record = router.mark_down(1, 2.0);
  EXPECT_EQ(record.failed, 1u);
  EXPECT_EQ(record.promoted, 1u);  // nobody left to promote
  EXPECT_TRUE(router.route("k").empty());
}

TEST(ShardRouter, SameSeedElectionsReplayIdentically) {
  const auto replay = [](std::uint64_t election_seed) {
    ShardRouter router(
        ShardMap(iota_nodes(6), {.replication = 3, .seed = 21}),
        election_seed);
    std::vector<ha::ElectionRecord> records;
    records.push_back(router.mark_down(4, 0.25));
    records.push_back(router.mark_down(1, 0.50));
    records.push_back(router.mark_down(2, 0.75));
    return records;
  };
  const std::vector<ha::ElectionRecord> a = replay(99);
  const std::vector<ha::ElectionRecord> b = replay(99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].failed, b[i].failed) << i;
    EXPECT_EQ(a[i].promoted, b[i].promoted) << i;
    EXPECT_EQ(a[i].ballot, b[i].ballot) << i;
    EXPECT_EQ(a[i].term, b[i].term) << i;
  }
  // The ballots are a function of the seed: a different stream draws
  // different numbers (the winner may coincide, the draws cannot).
  const std::vector<ha::ElectionRecord> c = replay(100);
  bool any_ballot_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_ballot_differs |= a[i].ballot != c[i].ballot;
  }
  EXPECT_TRUE(any_ballot_differs);
}

// ---- ha::Client fallback policy --------------------------------------------

TEST(HaClient, FallbackPolicyCoversEveryTransportStatus) {
  EXPECT_FALSE(ha::should_fall_back(kvstore::Status::kOk));
  EXPECT_TRUE(ha::should_fall_back(kvstore::Status::kError));
  EXPECT_TRUE(ha::should_fall_back(kvstore::Status::kTimeout));
  EXPECT_TRUE(ha::should_fall_back(kvstore::Status::kUnavailable));
}

// ---- NodeGroup: the stack end to end ---------------------------------------

// ---- circuit breaker + load shedding ---------------------------------------

TEST(Breaker, OpensAfterConsecutiveFailuresAndShedsFromWalks) {
  ShardRouter router(ShardMap(iota_nodes(4), {.replication = 2, .seed = 4}),
                     /*election_seed=*/17,
                     {.failure_threshold = 3, .cooldown_routes = 1000});
  const std::string key = "payload:42";
  const HostId primary = router.route(key)[0];
  router.note_op_outcome(primary, false);
  router.note_op_outcome(primary, false);
  EXPECT_FALSE(router.breaker_open(primary));  // threshold not reached
  router.note_op_outcome(primary, false);
  EXPECT_TRUE(router.breaker_open(primary));
  EXPECT_EQ(router.stats().breaker_opens, 1u);

  // Shed from the walk: the slot extends to a healthy successor.
  const std::vector<HostId> shed_route = router.live_preference(key);
  for (const HostId node : shed_route) EXPECT_NE(node, primary);
  EXPECT_GT(router.stats().shed, 0u);
  // ...but the last-resort walk still reaches it (sheds load, not data).
  const std::vector<HostId> all =
      router.live_preference(key, /*ignore_breaker=*/true);
  EXPECT_EQ(all[0], primary);
}

TEST(Breaker, HalfOpenProbeClosesOnSuccessAndReArmsOnFailure) {
  ShardRouter router(ShardMap(iota_nodes(4), {.replication = 2, .seed = 4}),
                     /*election_seed=*/17,
                     {.failure_threshold = 1, .cooldown_routes = 2});
  const std::string key = "payload:7";
  const HostId primary = router.route(key)[0];
  router.note_op_outcome(primary, false);
  ASSERT_TRUE(router.breaker_open(primary));

  // Burn the cooldown with walk decisions, then the next walk admits
  // the node as a probe.
  (void)router.live_preference(key);
  (void)router.live_preference(key);
  const std::vector<HostId> probe_walk = router.live_preference(key);
  EXPECT_EQ(probe_walk[0], primary);
  EXPECT_GE(router.stats().breaker_probes, 1u);

  // Probe fails: re-armed, shed again.
  router.note_op_outcome(primary, false);
  EXPECT_TRUE(router.breaker_open(primary));
  EXPECT_NE(router.live_preference(key)[0], primary);

  // Next probe succeeds: breaker closes for good.
  (void)router.live_preference(key);
  (void)router.live_preference(key);
  (void)router.live_preference(key);
  router.note_op_outcome(primary, true);
  EXPECT_FALSE(router.breaker_open(primary));
  EXPECT_EQ(router.live_preference(key)[0], primary);
}

TEST(Breaker, AvailabilityFloorKeepsServingWhenEveryReplicaIsOpen) {
  ShardRouter router(ShardMap(iota_nodes(3), {.replication = 3, .seed = 4}),
                     /*election_seed=*/17,
                     {.failure_threshold = 1, .cooldown_routes = 1000});
  for (HostId node = 0; node < 3; ++node) {
    router.note_op_outcome(node, false);
    EXPECT_TRUE(router.breaker_open(node));
  }
  // All breakers open: shedding everything would turn an overload
  // control into an outage, so the walk falls back to the shed set.
  const std::vector<HostId> route = router.live_preference("k");
  EXPECT_FALSE(route.empty());
}

TEST(Breaker, FlappingReplicaIsShedAndWritesKeepLanding) {
  // End to end through the NodeGroup: an always-erroring replica opens
  // its breaker after a few puts; later puts stop burning retry budget
  // against it (writes keep succeeding on the healthy replicas).
  NodeGroupConfig config{.nodes = 4, .shard = {.replication = 2, .seed = 31}};
  NodeGroup group(config);
  fault::FaultPlan plan;
  plan.seed = 77;
  plan.stores[1].error_prob = 1.0;
  group.set_fault(plan);
  std::size_t ok = 0;
  for (int i = 0; i < 40; ++i) {
    const ha::WriteResult res =
        group.client(0).put("k" + std::to_string(i), "v");
    EXPECT_EQ(res.attempted + res.expired, res.routed);
    if (res.status == kvstore::Status::kOk) ++ok;
  }
  EXPECT_EQ(ok, 40u);
  EXPECT_TRUE(group.router().breaker_open(1));
  EXPECT_GT(group.router().stats().breaker_opens, 0u);
  EXPECT_GT(group.router().stats().shed, 0u);
}

// ---- fan-out deadline budget -----------------------------------------------

TEST(DeadlineBudget, OneLogicalOpSharesOneDeadlineAcrossReplicas) {
  // A dead primary must not let each subsequent replica re-up a full
  // per-replica deadline: the fan-out charges everything against one
  // budget, and replicas whose turn comes too late count as expired.
  NodeGroupConfig config{.nodes = 4, .shard = {.replication = 2, .seed = 31}};
  config.retry.max_attempts = 50;
  config.retry.deadline_s = 0.3;
  config.retry.attempt_timeout_s = 0.1;
  config.breaker.enabled = false;  // isolate the budget from shedding
  NodeGroup group(config);
  const std::string key = "object:3";
  const HostId primary = group.router().route(key)[0];
  group.store(primary).fail_stop();  // dead store the router can't see

  const double before = group.consumed_time();
  const ha::WriteResult res = group.client(0).put(key, "v");
  EXPECT_EQ(res.routed, 2u);
  EXPECT_EQ(res.attempted, 1u);  // the primary burned the whole budget
  EXPECT_EQ(res.expired, 1u);    // the replica's turn came too late
  EXPECT_NE(res.status, kvstore::Status::kOk);
  // ~3 attempts x 0.1 s, nowhere near 2 deadlines.
  EXPECT_LT(group.consumed_time() - before, 0.55);
}

TEST(DeadlineBudget, WriteResultConservationHoldsUnderCrashes) {
  NodeGroup group({.nodes = 4, .shard = {.replication = 2, .seed = 31}});
  (void)group.crash(2, 0.1);
  for (int i = 0; i < 32; ++i) {
    const ha::WriteResult res =
        group.client(0).put("c" + std::to_string(i), "v");
    EXPECT_EQ(res.attempted + res.expired, res.routed) << "put " << i;
    EXPECT_EQ(res.status, kvstore::Status::kOk);
  }
}

TEST(NodeGroup, PutFansOutToEveryReplicaAndObservesExactlyTheAcks) {
  NodeGroup group({.nodes = 4, .shard = {.replication = 2, .seed = 31}});
  const std::string healthy_key = "object:7";
  const std::vector<HostId> healthy = group.router().route(healthy_key);
  ASSERT_EQ(healthy.size(), 2u);
  // An always-erroring node outside the healthy key's route, and a
  // second key whose route runs through it.
  HostId broken = 0;
  while (std::find(healthy.begin(), healthy.end(), broken) != healthy.end()) {
    ++broken;
  }
  std::string degraded_key;
  std::vector<HostId> degraded;
  for (int i = 0; degraded_key.empty(); ++i) {
    const std::string key = "object:" + std::to_string(100 + i);
    degraded = group.router().route(key);
    if (std::find(degraded.begin(), degraded.end(), broken) !=
        degraded.end()) {
      degraded_key = key;
    }
  }
  fault::FaultPlan plan;
  plan.seed = 12;
  plan.stores[broken].error_prob = 1.0;
  group.set_fault(plan);

  std::map<std::string, std::vector<HostId>> observed;
  ha::Client client(
      group.router(),
      [&group](HostId target) -> kvstore::Client& {
        return group.connection(0, target);
      },
      [&observed](HostId target, const kvstore::Command& cmd) {
        EXPECT_EQ(cmd.type, kvstore::CommandType::kSet);
        observed[cmd.key].push_back(target);
      });

  const ha::WriteResult full = client.put(healthy_key, "v0");
  EXPECT_EQ(full.status, kvstore::Status::kOk);
  EXPECT_EQ(full.attempted, 2u);
  EXPECT_EQ(full.acked, 2u);
  EXPECT_EQ(observed[healthy_key], healthy);
  for (HostId node = 0; node < 4; ++node) {
    const bool holds =
        std::find(healthy.begin(), healthy.end(), node) != healthy.end();
    EXPECT_EQ(group.store(node).get(healthy_key).has_value(), holds)
        << "node " << node;
  }

  // The erroring replica is attempted but never observed.
  const ha::WriteResult partial = client.put(degraded_key, "v1");
  EXPECT_EQ(partial.status, kvstore::Status::kOk);
  EXPECT_EQ(partial.attempted, 2u);
  EXPECT_EQ(partial.acked, 1u);
  std::vector<HostId> acked;
  for (const HostId node : degraded) {
    if (node != broken) acked.push_back(node);
  }
  EXPECT_EQ(observed[degraded_key], acked);
  EXPECT_EQ(group.store(broken).get(degraded_key), std::nullopt);
}

TEST(NodeGroup, ReadFallsBackWhenThePrimaryIsDown) {
  NodeGroup group({.nodes = 4, .shard = {.replication = 2, .seed = 31}});
  const std::string key = "object:9";
  ASSERT_EQ(group.client(0).put(key, "payload").acked, 2u);
  const std::vector<HostId> replicas = group.router().route(key);

  (void)group.crash(replicas[0], 0.5);
  EXPECT_TRUE(group.store(replicas[0]).is_down());
  EXPECT_EQ(group.store(replicas[0]).stats().keys, 0u);  // wiped
  const ha::ReadResult read = group.client(0).get(key);
  EXPECT_EQ(read.reply.status, kvstore::Status::kOk);
  EXPECT_TRUE(read.reply.ok);
  EXPECT_EQ(read.reply.blob, "payload");
  EXPECT_EQ(read.served_by, replicas[1]);
  // A crashed primary is demoted from the live preference entirely, so
  // the surviving replica answers FIRST — transparent demotion, not a
  // mid-walk fallback (those are counted when a live replica fails).
  EXPECT_FALSE(read.fallback);
}

TEST(NodeGroup, ErroringReplicaDivergesButTheWriteStillLands) {
  // Exhausted retries against the always-erroring store surface as
  // kUnavailable on that replica; the logical write succeeds on the
  // healthy one and the divergence is counted in write_failures.
  NodeGroup group({.nodes = 3, .shard = {.replication = 2, .seed = 8}});
  const std::string key = "object:3";
  const std::vector<HostId> replicas = group.router().route(key);
  fault::FaultPlan plan;
  plan.seed = 12;
  plan.stores[replicas[0]].error_prob = 1.0;
  group.set_fault(plan);

  const ha::WriteResult res = group.client(replicas[1]).put(key, "v");
  EXPECT_EQ(res.status, kvstore::Status::kOk);
  EXPECT_EQ(res.attempted, 2u);
  EXPECT_EQ(res.acked, 1u);
  EXPECT_GE(group.router().stats().write_failures, 1u);
  EXPECT_EQ(group.store(replicas[0]).get(key), std::nullopt);
  EXPECT_EQ(group.store(replicas[1]).get(key), "v");

  // Reads fall back past the erroring primary and still answer.
  const ha::ReadResult read = group.client(replicas[1]).get(key);
  EXPECT_TRUE(read.reply.ok);
  EXPECT_EQ(read.served_by, replicas[1]);
}

TEST(NodeGroup, PartitionedReplicaTimesOutWithoutFailingTheWrite) {
  NodeGroup group({.nodes = 3, .shard = {.replication = 2, .seed = 8}});
  const std::string key = "doc:1";
  const std::vector<HostId> replicas = group.router().route(key);
  const HostId self = replicas[1];
  fault::FaultPlan plan;
  plan.seed = 13;
  plan.partitions.push_back({.a = self, .b = replicas[0]});
  group.set_fault(plan);

  // Non-idempotent append through the cut: a single kTimeout, no retry
  // (the ambiguous loss could double-apply), observable on the raw
  // connection...
  const kvstore::Reply raw = group.connection(self, replicas[0])
                                 .execute({.type = kvstore::CommandType::kRPush,
                                           .key = "queue:raw",
                                           .value = "e0"});
  EXPECT_EQ(raw.status, kvstore::Status::kTimeout);

  // ...while an idempotent replicated put retries the cut replica until
  // kUnavailable and still lands on the reachable one.
  const ha::WriteResult res = group.client(self).put(key, "v");
  EXPECT_EQ(res.status, kvstore::Status::kOk);
  EXPECT_EQ(res.attempted, 2u);
  EXPECT_EQ(res.acked, 1u);
  EXPECT_EQ(group.store(self).get(key), "v");
  EXPECT_EQ(group.store(replicas[0]).get(key), std::nullopt);

  // Reads walk past the unreachable primary and answer from self.
  const ha::ReadResult read = group.client(self).get(key);
  EXPECT_EQ(read.reply.status, kvstore::Status::kOk);
  EXPECT_TRUE(read.reply.ok);
  EXPECT_EQ(read.reply.blob, "v");
  EXPECT_EQ(read.served_by, self);
  EXPECT_TRUE(read.fallback);
}

TEST(NodeGroup, AllReplicasDownMakesTheWriteUnavailable) {
  NodeGroup group({.nodes = 3, .shard = {.replication = 2, .seed = 8}});
  for (HostId node = 0; node < 3; ++node) (void)group.crash(node, 1.0);
  const ha::WriteResult res = group.client(0).put("k", "v");
  EXPECT_EQ(res.status, kvstore::Status::kUnavailable);
  EXPECT_EQ(res.attempted, 0u);
  EXPECT_EQ(res.acked, 0u);
}

TEST(NodeGroup, BatchedPutGetRoundTripsEveryKey) {
  NodeGroup group({.nodes = 4, .shard = {.replication = 2, .seed = 77}});
  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    pairs.emplace_back("rec:" + std::to_string(i), "v" + std::to_string(i));
    keys.push_back(pairs.back().first);
  }
  const std::vector<ha::WriteResult> writes = group.client(1).put_many(pairs);
  ASSERT_EQ(writes.size(), pairs.size());
  for (const ha::WriteResult& w : writes) {
    EXPECT_EQ(w.status, kvstore::Status::kOk);
    EXPECT_EQ(w.acked, 2u);
  }
  const std::vector<ha::ReadResult> reads = group.client(2).get_many(keys);
  ASSERT_EQ(reads.size(), keys.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    EXPECT_TRUE(reads[i].reply.ok) << keys[i];
    EXPECT_EQ(reads[i].reply.blob, pairs[i].second) << keys[i];
  }
}

// A store that fail-stops without the router noticing must not ack: its
// replica is still routed, so each write reaches it and times out.

/// Writes "old" under `keys`, then fail-stops the store of the first
/// key's primary; returns that node.
HostId write_then_fail_stop_a_primary(NodeGroup& group,
                                      const std::vector<std::string>& keys) {
  for (const std::string& key : keys) {
    EXPECT_EQ(group.client(0).put(key, "old").acked, 2u) << key;
  }
  const HostId dead = group.router().route(keys.front())[0];
  group.store(dead).fail_stop();
  return dead;
}

/// Replicated client from node 0 that records every acked replica.
ha::Client observed_client(NodeGroup& group,
                           std::map<std::string, std::vector<HostId>>& acks) {
  return ha::Client(
      group.router(),
      [&group](HostId target) -> kvstore::Client& {
        return group.connection(0, target);
      },
      [&acks](HostId target, const kvstore::Command& cmd) {
        acks[cmd.key].push_back(target);
      });
}

TEST(NodeGroup, FailStoppedReplicaAcksNoPutAndServesNoRead) {
  NodeGroup group({.nodes = 4, .shard = {.replication = 2, .seed = 31}});
  const std::string key = "object:5";
  const HostId dead = write_then_fail_stop_a_primary(group, {key});
  const std::uint64_t before = group.store(dead).value_digest(key);

  std::map<std::string, std::vector<HostId>> acks;
  ha::Client client = observed_client(group, acks);
  const ha::WriteResult res = client.put(key, "new");
  EXPECT_EQ(res.status, kvstore::Status::kOk);
  EXPECT_EQ(res.attempted, 2u);
  EXPECT_EQ(res.acked, 1u);
  ASSERT_EQ(acks[key].size(), 1u);
  EXPECT_NE(acks[key][0], dead);
  EXPECT_EQ(group.store(dead).value_digest(key), before);
  EXPECT_EQ(group.store(dead).get(key), "old");

  const ha::ReadResult read = client.get(key);
  EXPECT_EQ(read.reply.status, kvstore::Status::kOk);
  EXPECT_EQ(read.reply.blob, "new");
  EXPECT_NE(read.served_by, dead);
  EXPECT_TRUE(read.fallback);
}

TEST(NodeGroup, FailStoppedReplicaAcksNoBatchedPutAndServesNoBatchedRead) {
  NodeGroup group({.nodes = 4, .shard = {.replication = 2, .seed = 77}});
  std::vector<std::string> keys;
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 48; ++i) {
    keys.push_back("rec:" + std::to_string(i));
    pairs.emplace_back(keys.back(), "new" + std::to_string(i));
  }
  const HostId dead = write_then_fail_stop_a_primary(group, keys);
  const std::vector<std::string> dead_keys = group.store(dead).keys();
  std::vector<std::uint64_t> dead_digests;
  for (const std::string& k : dead_keys) {
    dead_digests.push_back(group.store(dead).value_digest(k));
  }

  std::map<std::string, std::vector<HostId>> acks;
  ha::Client client = observed_client(group, acks);
  const std::vector<ha::WriteResult> writes = client.put_many(pairs);
  ASSERT_EQ(writes.size(), keys.size());
  std::size_t through_dead = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::vector<HostId> route = group.router().route(keys[i]);
    const bool via_dead =
        std::find(route.begin(), route.end(), dead) != route.end();
    through_dead += via_dead ? 1 : 0;
    EXPECT_EQ(writes[i].status, kvstore::Status::kOk) << keys[i];
    EXPECT_EQ(writes[i].acked, via_dead ? 1u : 2u) << keys[i];
    EXPECT_EQ(std::count(acks[keys[i]].begin(), acks[keys[i]].end(), dead), 0)
        << keys[i];
  }
  EXPECT_GT(through_dead, 1u);
  EXPECT_EQ(group.store(dead).keys(), dead_keys);
  for (std::size_t k = 0; k < dead_keys.size(); ++k) {
    EXPECT_EQ(group.store(dead).value_digest(dead_keys[k]), dead_digests[k])
        << dead_keys[k];
  }

  const std::vector<ha::ReadResult> reads = client.get_many(keys);
  ASSERT_EQ(reads.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(reads[i].reply.status, kvstore::Status::kOk) << keys[i];
    EXPECT_EQ(reads[i].reply.blob, pairs[i].second) << keys[i];
    EXPECT_NE(reads[i].served_by, dead) << keys[i];
  }
}

// ---- runtime integration: replicated jobs ----------------------------------

class LinearWorkload final : public core::Workload {
 public:
  [[nodiscard]] std::string name() const override { return "linear"; }
  [[nodiscard]] partition::Layout preferred_layout() const override {
    return partition::Layout::kRepresentative;
  }
  void reset(std::size_t, std::uint32_t) override {}
  void run(cluster::NodeContext& ctx, const data::Dataset&,
           std::span<const std::uint32_t> indices) override {
    ctx.meter().add(500.0 * static_cast<double>(indices.size()));
  }
};

data::Dataset small_corpus(std::size_t docs, std::uint64_t seed = 7) {
  data::TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.seed = seed;
  return data::generate_text_corpus(cfg, "corpus");
}

runtime::JobSpec fast_spec() {
  runtime::JobSpec spec;
  spec.sampling.min_records = 20;
  spec.sampling.steps = 3;
  spec.kmodes.num_strata = 8;
  spec.kmodes.max_iterations = 4;
  spec.sketch.num_hashes = 16;
  return spec;
}

runtime::JobSummary run_job(const data::Dataset& dataset,
                            const fault::FaultPlan* plan,
                            runtime::JobSpec spec, std::size_t nodes,
                            std::string* trace_and_summary = nullptr) {
  cluster::Cluster cluster(
      cluster::standard_cluster(static_cast<std::uint32_t>(nodes)));
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  std::unique_ptr<fault::FaultInjector> inj;
  if (plan != nullptr) {
    inj = std::make_unique<fault::FaultInjector>(*plan);
    cluster.set_fault(inj.get());
  }
  LinearWorkload workload;
  runtime::JobRuntime rt(cluster, energy, std::move(spec));
  const runtime::JobSummary summary = rt.run(dataset, workload);
  if (trace_and_summary != nullptr) {
    *trace_and_summary =
        rt.trace().chrome_trace_json() + "\n" + summary_json(summary);
  }
  return summary;
}

TEST(ReplicatedJob, RejectsReplicationBeyondTheClusterSize) {
  cluster::Cluster cluster(cluster::standard_cluster(4));
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  runtime::JobSpec spec = fast_spec();
  spec.replication = 5;
  EXPECT_THROW(runtime::JobRuntime(cluster, energy, spec),
               common::ConfigError);
  spec.replication = 0;
  EXPECT_THROW(runtime::JobRuntime(cluster, energy, spec),
               common::ConfigError);
}

TEST(ReplicatedJob, FaultFreeRunStaysKOkAndWritesKCopies) {
  const data::Dataset dataset = small_corpus(200);
  runtime::JobSpec spec = fast_spec();
  spec.replication = 2;
  const runtime::JobSummary summary =
      run_job(dataset, nullptr, spec, /*nodes=*/4);
  EXPECT_EQ(summary.status, runtime::JobStatus::kOk);
  EXPECT_FALSE(summary.degraded);
  EXPECT_EQ(summary.elections, 0u);
  // Every ingested record acked on both replicas.
  EXPECT_EQ(summary.replica_writes, 2 * dataset.size());
  EXPECT_EQ(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            dataset.size());
}

TEST(ReplicatedJob, SameSeedReplicatedDegradedRunIsByteIdentical) {
  const data::Dataset dataset = small_corpus(200);
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.nodes[3].fail_stop_at_s = 0.0;
  runtime::JobSpec spec = fast_spec();
  spec.replication = 2;
  std::string a;
  std::string b;
  (void)run_job(dataset, &plan, spec, 4, &a);
  (void)run_job(dataset, &plan, spec, 4, &b);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// The checked-in example plan: correlated loss of two replicas at k=3.
// One fail-stop lands before execution, the second mid-run; with three
// copies of every record the job must degrade, not lose data.
TEST(ReplicatedJob, ExamplePlanCorrelatedTwoReplicaLossLosesNothing) {
  const std::string path =
      std::string(HETSIM_REPO_DIR) + "/examples/fault_plan_replica_loss.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const fault::FaultPlan plan = fault::FaultPlan::from_json_text(buf.str());
  ASSERT_EQ(plan.nodes.size(), 2u);

  const data::Dataset dataset = small_corpus(400);
  runtime::JobSpec spec = fast_spec();
  spec.replication = 3;
  const runtime::JobSummary summary =
      run_job(dataset, &plan, spec, /*nodes=*/6);
  EXPECT_EQ(summary.status, runtime::JobStatus::kDegraded);
  EXPECT_EQ(summary.nodes_lost.size(), 2u);
  for (const std::uint32_t node : summary.nodes_lost) {
    EXPECT_TRUE(node == 1 || node == 2) << node;
  }
  EXPECT_GE(summary.elections, 2u);
  EXPECT_GT(summary.replica_rescued_records, 0u);
  EXPECT_EQ(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            dataset.size());
}

}  // namespace
}  // namespace hetsim
