// NodeGroup: a self-contained replicated store group — the HA stack
// wired end to end (fabric + per-node stores + shard router) without
// the job runtime around it.
//
// This is the harness ha_test, bench_ha and the chaos churn victim
// drive, and the reference for how the pieces compose:
//
//   NodeGroup g({.nodes = 4, .shard = {.replication = 2}});
//   g.client(0).put("k", "v");          // fans out to k replicas
//   g.crash(2, /*at_s=*/1.0);           // election re-homes node 2's arcs
//   g.client(0).get("k");               // falls back transparently
//
// Crash semantics: the node fail-stops and its in-memory store is
// wiped. A crashed node stays down for the rest of the group's life;
// reads of its keys fall back to the surviving replicas.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "fault/fault.h"
#include "ha/client.h"
#include "ha/router.h"
#include "kvstore/client.h"
#include "kvstore/store.h"
#include "net/fabric.h"

namespace hetsim::ha {

struct NodeGroupConfig {
  std::size_t nodes = 4;
  ShardMapConfig shard{};  // replication defaults to 2
  std::uint64_t election_seed = 0x9e3779b97f4a7c15ULL;
  std::size_t pipeline_width = 64;
  kvstore::RetryPolicy retry{};
  net::LinkSpec remote{};
  BreakerConfig breaker{};
};

class NodeGroup {
 public:
  explicit NodeGroup(NodeGroupConfig config = {});

  [[nodiscard]] std::size_t nodes() const noexcept { return stores_.size(); }
  [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] ShardRouter& router() noexcept { return router_; }
  [[nodiscard]] kvstore::Store& store(HostId node);

  /// Attach fault injection (copied plan, injector owned by the group).
  void set_fault(const fault::FaultPlan& plan);
  [[nodiscard]] fault::FaultInjector* fault_injector() noexcept {
    return fault_.get();
  }

  /// The replicated client as seen from `self`. Cached.
  [[nodiscard]] Client& client(HostId self);
  /// The raw per-target connection (cached) — for tests that need to
  /// inspect a single replica.
  [[nodiscard]] kvstore::Client& connection(HostId self, HostId target);

  /// Fail-stop `node` at virtual time `at_s`: wipe its in-memory store
  /// and run the failover election.
  ElectionRecord crash(HostId node, double at_s);

  /// Simulated seconds consumed by all cached connections.
  [[nodiscard]] double consumed_time() const;

 private:
  void check_node(HostId node) const;

  NodeGroupConfig config_;
  net::Fabric fabric_;
  std::unique_ptr<fault::FaultInjector> fault_;
  std::vector<std::unique_ptr<kvstore::Store>> stores_;
  ShardRouter router_;
  std::map<std::pair<HostId, HostId>, std::unique_ptr<kvstore::Client>>
      connections_;
  std::map<HostId, std::unique_ptr<Client>> clients_;
};

}  // namespace hetsim::ha
