#include "net/fabric.h"

#include "common/error.h"

namespace hetsim::net {

Fabric::Fabric(std::uint32_t hosts, LinkSpec remote, LinkSpec local)
    : hosts_(hosts), remote_(remote), local_(local) {
  common::require<common::ConfigError>(hosts > 0, "Fabric: need at least one host");
  common::require<common::ConfigError>(
      remote.latency_s >= 0 && remote.bandwidth_bps > 0 &&
          local.latency_s >= 0 && local.bandwidth_bps > 0,
      "Fabric: invalid link spec");
}

void Fabric::check_host(HostId h) const {
  common::require<common::ConfigError>(h < hosts_, "Fabric: host id out of range");
}

double Fabric::exchange_cost(HostId src, HostId dst, std::size_t request_bytes,
                             std::size_t response_bytes) const {
  check_host(src);
  check_host(dst);
  const LinkSpec& spec = spec_for(src, dst);
  const double payload =
      static_cast<double>(request_bytes + response_bytes) / spec.bandwidth_bps;
  // A request/response exchange pays the latency twice (there and back).
  return 2.0 * spec.latency_s + payload;
}

void Fabric::record(HostId src, HostId dst, std::uint64_t requests,
                    std::uint64_t round_trips, std::uint64_t bytes) {
  check_host(src);
  check_host(dst);
  LinkStats& s = stats_[{src, dst}];
  s.messages += requests;
  s.round_trips += round_trips;
  s.bytes += bytes;
}

LinkStats Fabric::stats(HostId src, HostId dst) const {
  const auto it = stats_.find({src, dst});
  return it == stats_.end() ? LinkStats{} : it->second;
}

LinkStats Fabric::total_stats() const {
  LinkStats total;
  for (const auto& [link, s] : stats_) {
    total.messages += s.messages;
    total.round_trips += s.round_trips;
    total.bytes += s.bytes;
  }
  return total;
}

void Fabric::reset_stats() {
  stats_.clear();
  retry_stats_ = RetryStats{};
}

}  // namespace hetsim::net
