// Simulated cluster interconnect.
//
// The paper's middleware talks to one Redis instance per node; its
// performance discussion (section IV) hinges on request batching: millions
// of small get/put requests are disastrous, while list-packed blobs and
// pipelining amortize the round trip. Fabric models exactly that cost
// structure: an exchange costs one latency plus payload/bandwidth, and
// kvstore::Client sends a pipelined batch of k requests as ONE exchange
// of their summed bytes, instead of k latencies.
//
// Costs are returned as simulated seconds; the caller (usually a
// cluster::VirtualClock) decides what to do with them. Fabric also keeps
// per-link counters so tests and the pipelining ablation bench can verify
// message/byte volumes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

namespace hetsim::fault {
class FaultInjector;
}  // namespace hetsim::fault

namespace hetsim::net {

/// Identifies a simulated host; node ids are dense from 0.
using HostId = std::uint32_t;

/// Latency/bandwidth parameters of a link class.
struct LinkSpec {
  /// One-way propagation + protocol overhead per message exchange, seconds.
  double latency_s = 100e-6;  // 100 microseconds: same-rack TCP
  /// Payload throughput, bytes per second.
  double bandwidth_bps = 1.25e9;  // 10 Gbit/s
};

/// Traffic counters for one directed link.
struct LinkStats {
  std::uint64_t messages = 0;   // logical requests (pre-batching)
  std::uint64_t round_trips = 0;  // actual network exchanges (post-batching)
  std::uint64_t bytes = 0;

  bool operator==(const LinkStats&) const = default;
};

/// Fabric-wide counters of the kvstore clients' failure handling, fed by
/// the clients via the note_* hooks below so a single place (the fabric
/// both parties share) can report them to job summaries.
struct RetryStats {
  std::uint64_t attempts = 0;  // round-trip attempts, first tries included
  std::uint64_t retries = 0;   // attempts beyond the first per operation
  std::uint64_t timeouts = 0;  // operations that last failed by timeout
  std::uint64_t failures = 0;  // operations that exhausted their retries
};

/// A deterministic network cost simulator.
class Fabric {
 public:
  /// `hosts` is the number of endpoints; all pairs share `remote`, while
  /// loopback (src == dst) traffic uses `local` (memory-speed).
  explicit Fabric(std::uint32_t hosts, LinkSpec remote = {},
                  LinkSpec local = LinkSpec{.latency_s = 1e-6,
                                            .bandwidth_bps = 20e9});

  [[nodiscard]] std::uint32_t hosts() const noexcept { return hosts_; }

  /// Cost in seconds of one request/response exchange carrying
  /// `request_bytes` + `response_bytes` of payload.
  [[nodiscard]] double exchange_cost(HostId src, HostId dst,
                                     std::size_t request_bytes,
                                     std::size_t response_bytes) const;

  /// Record that an exchange of `requests` logical requests in
  /// `round_trips` actual exchanges moved `bytes` over src->dst.
  void record(HostId src, HostId dst, std::uint64_t requests,
              std::uint64_t round_trips, std::uint64_t bytes);

  [[nodiscard]] LinkStats stats(HostId src, HostId dst) const;
  [[nodiscard]] LinkStats total_stats() const;
  void reset_stats();

  /// Attach / detach the fault injector consulted by clients on this
  /// fabric. The fabric does not own the injector; null disables
  /// injection. Attach before any traffic flows — swapping injectors
  /// mid-run would change counters mid-stream.
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    fault_ = injector;
  }
  [[nodiscard]] fault::FaultInjector* fault_injector() const noexcept {
    return fault_;
  }

  // ---- client failure-handling counters ------------------------------
  void note_attempt() noexcept { ++retry_stats_.attempts; }
  void note_retry() noexcept { ++retry_stats_.retries; }
  void note_timeout() noexcept { ++retry_stats_.timeouts; }
  void note_failure() noexcept { ++retry_stats_.failures; }
  [[nodiscard]] const RetryStats& retry_stats() const noexcept {
    return retry_stats_;
  }

  [[nodiscard]] const LinkSpec& remote_spec() const noexcept { return remote_; }
  [[nodiscard]] const LinkSpec& local_spec() const noexcept { return local_; }

 private:
  [[nodiscard]] const LinkSpec& spec_for(HostId src, HostId dst) const noexcept {
    return src == dst ? local_ : remote_;
  }
  void check_host(HostId h) const;

  std::uint32_t hosts_;
  LinkSpec remote_;
  LinkSpec local_;
  std::map<std::pair<HostId, HostId>, LinkStats> stats_;
  RetryStats retry_stats_;
  fault::FaultInjector* fault_ = nullptr;
};

}  // namespace hetsim::net
