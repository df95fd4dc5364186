#include "fault/fault.h"

#include "common/error.h"
#include "common/rng.h"
#include "fault/test_hooks.h"

namespace hetsim::fault {

TestHooks& test_hooks() noexcept {
  static TestHooks hooks;
  return hooks;
}

namespace {

// Draw-kind tags folded into the stream key so each decision at the same
// interception counter uses an independent uniform.
enum class DrawKind : std::uint64_t {
  kDrop = 1,
  kDropDirection = 2,
  kSpike = 3,
  kStoreError = 4,
  kStoreStall = 5,
};

std::uint64_t mix(std::uint64_t x) noexcept {
  // splitmix64 finalizer as a stateless mixer.
  std::uint64_t s = x;
  return common::splitmix64(s);
}

std::uint64_t stream_key(DrawKind kind, std::uint64_t a,
                         std::uint64_t b) noexcept {
  return mix((static_cast<std::uint64_t>(kind) << 56U) ^ (a << 28U) ^ b);
}

void require_prob(double p, const char* what) {
  common::require<common::ConfigError>(
      p >= 0.0 && p <= 1.0,
      std::string("FaultPlan: ") + what + " must be in [0, 1]");
}

}  // namespace

void FaultPlan::validate() const {
  require_prob(net.drop_prob, "net.drop_prob");
  require_prob(net.drop_request_lost_fraction,
               "net.drop_request_lost_fraction");
  require_prob(net.spike_prob, "net.spike_prob");
  common::require<common::ConfigError>(
      net.spike_latency_s >= 0.0,
      "FaultPlan: net.spike_latency_s must be >= 0");
  for (const LinkPartition& p : partitions) {
    common::require<common::ConfigError>(
        p.a != p.b, "FaultPlan: cannot partition a loopback link");
  }
  for (const auto& [host, s] : stores) {
    (void)host;
    require_prob(s.error_prob, "stores[].error_prob");
    require_prob(s.stall_prob, "stores[].stall_prob");
    common::require<common::ConfigError>(
        s.stall_s >= 0.0, "FaultPlan: stores[].stall_s must be >= 0");
  }
  for (const auto& [node, f] : nodes) {
    (void)node;
    common::require<common::ConfigError>(
        f.slowdown_factor >= 1.0,
        "FaultPlan: nodes[].slowdown_factor must be >= 1");
  }
}

bool FaultPlan::empty() const {
  if (net.drop_prob > 0.0 || net.spike_prob > 0.0) return false;
  if (!partitions.empty()) return false;
  for (const auto& [host, s] : stores) {
    (void)host;
    if (s.error_prob > 0.0 || s.stall_prob > 0.0 || s.crash_at_op > 0) {
      return false;
    }
  }
  for (const auto& [node, f] : nodes) {
    (void)node;
    if (f.fail_stop_at_s >= 0.0 || f.slowdown_factor != 1.0) return false;
  }
  return true;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  plan_.validate();
  enabled_ = !plan_.empty();
}

double FaultInjector::draw(std::uint64_t stream,
                           std::uint64_t counter) const noexcept {
  const std::uint64_t z = mix(plan_.seed ^ mix(stream ^ mix(counter)));
  return static_cast<double>(z >> 11U) * 0x1.0p-53;
}

RoundTripFault FaultInjector::on_round_trip(HostId src, HostId dst) {
  RoundTripFault out;
  if (!enabled_) return out;
  const std::uint64_t trip = link_trips_[{src, dst}]++;
  // Loopback never fails: it models in-process memory, not a network.
  if (src == dst) return out;
  for (const LinkPartition& p : plan_.partitions) {
    if ((p.a == src && p.b == dst) || (p.a == dst && p.b == src)) {
      // Count trips in both directions against the same budget.
      const auto it = link_trips_.find({dst, src});
      const std::uint64_t other = it == link_trips_.end() ? 0 : it->second;
      const std::uint64_t total = trip + other;
      if (total >= p.after_round_trips &&
          (p.heals_after_round_trips == 0 ||
           total < p.after_round_trips + p.heals_after_round_trips)) {
        out.partitioned = true;
        return out;
      }
    }
  }
  if (plan_.net.drop_prob > 0.0 &&
      draw(stream_key(DrawKind::kDrop, src, dst), trip) <
          plan_.net.drop_prob) {
    out.dropped = true;
    out.request_lost =
        draw(stream_key(DrawKind::kDropDirection, src, dst), trip) <
        plan_.net.drop_request_lost_fraction;
    return out;
  }
  if (plan_.net.spike_prob > 0.0 &&
      draw(stream_key(DrawKind::kSpike, src, dst), trip) <
          plan_.net.spike_prob) {
    out.extra_latency_s = plan_.net.spike_latency_s;
  }
  return out;
}

StoreFault FaultInjector::on_store_op(HostId host) {
  if (!enabled_) return StoreFault::kNone;
  const auto it = plan_.stores.find(host);
  if (it == plan_.stores.end()) return StoreFault::kNone;
  const StoreFaults& f = it->second;
  const std::uint64_t op = store_ops_[host]++;
  if (f.crash_at_op > 0 && op >= f.crash_at_op) return StoreFault::kDown;
  if (f.error_prob > 0.0 &&
      draw(stream_key(DrawKind::kStoreError, host, 0), op) < f.error_prob) {
    return StoreFault::kError;
  }
  if (f.stall_prob > 0.0 &&
      draw(stream_key(DrawKind::kStoreStall, host, 0), op) < f.stall_prob) {
    return StoreFault::kStall;
  }
  return StoreFault::kNone;
}

double FaultInjector::stall_seconds(HostId host) const {
  const auto it = plan_.stores.find(host);
  return it == plan_.stores.end() ? 0.0 : it->second.stall_s;
}

bool FaultInjector::has_fail_stop(HostId node) const {
  const auto it = plan_.nodes.find(node);
  return it != plan_.nodes.end() && it->second.fail_stop_at_s >= 0.0;
}

double FaultInjector::fail_stop_time_s(HostId node) const {
  const auto it = plan_.nodes.find(node);
  return it == plan_.nodes.end() ? -1.0 : it->second.fail_stop_at_s;
}

double FaultInjector::slowdown_factor(HostId node) const {
  const auto it = plan_.nodes.find(node);
  return it == plan_.nodes.end() ? 1.0 : it->second.slowdown_factor;
}

std::uint64_t FaultInjector::round_trips(HostId src, HostId dst) const {
  const auto it = link_trips_.find({src, dst});
  return it == link_trips_.end() ? 0 : it->second;
}

std::uint64_t FaultInjector::store_ops(HostId host) const {
  const auto it = store_ops_.find(host);
  return it == store_ops_.end() ? 0 : it->second;
}

}  // namespace hetsim::fault
