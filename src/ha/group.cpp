#include "ha/group.h"

#include <numeric>

#include "common/error.h"

namespace hetsim::ha {

namespace {

std::vector<HostId> make_members(std::size_t nodes) {
  std::vector<HostId> members(nodes);
  std::iota(members.begin(), members.end(), HostId{0});
  return members;
}

}  // namespace

NodeGroup::NodeGroup(NodeGroupConfig config)
    : config_(config),
      fabric_(static_cast<std::uint32_t>(config.nodes), config.remote),
      router_(ShardMap(make_members(config.nodes), config.shard),
              config.election_seed, config.breaker) {
  common::require<common::ConfigError>(config.nodes >= 1,
                                       "NodeGroup: need at least one node");
  stores_.reserve(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    stores_.push_back(std::make_unique<kvstore::Store>());
  }
}

void NodeGroup::check_node(HostId node) const {
  common::require<common::ConfigError>(node < stores_.size(),
                                       "NodeGroup: node id out of range");
}

kvstore::Store& NodeGroup::store(HostId node) {
  check_node(node);
  return *stores_[node];
}

void NodeGroup::set_fault(const fault::FaultPlan& plan) {
  fault_ = std::make_unique<fault::FaultInjector>(plan);
  fabric_.set_fault_injector(fault_.get());
}

kvstore::Client& NodeGroup::connection(HostId self, HostId target) {
  check_node(self);
  check_node(target);
  auto& slot = connections_[{self, target}];
  if (!slot) {
    slot = std::make_unique<kvstore::Client>(
        fabric_, self, target, *stores_[target], config_.pipeline_width,
        fault_.get(), config_.retry);
  }
  return *slot;
}

Client& NodeGroup::client(HostId self) {
  check_node(self);
  auto& slot = clients_[self];
  if (!slot) {
    slot = std::make_unique<Client>(
        router_,
        [this, self](HostId target) -> kvstore::Client& {
          return connection(self, target);
        });
  }
  return *slot;
}

ElectionRecord NodeGroup::crash(HostId node, double at_s) {
  check_node(node);
  // Fail-stop first, then wipe: a crashed store must refuse traffic
  // (Client::execute times out against it), not serve an empty keyspace
  // — otherwise the window between the crash and the election handing
  // its arcs away could mint zombie acks for writes that no live
  // replica holds.
  stores_[node]->fail_stop();
  stores_[node]->flush_all();
  return router_.mark_down(node, at_s);
}

double NodeGroup::consumed_time() const {
  double total = 0.0;
  for (const auto& [key, conn] : connections_) {
    (void)key;
    total += conn->consumed_time();
  }
  return total;
}

}  // namespace hetsim::ha
