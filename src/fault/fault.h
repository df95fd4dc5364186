// hetsim::fault — seeded, deterministic fault injection.
//
// A FaultPlan describes which failures a simulation should experience;
// a FaultInjector is the runtime oracle the stack consults at three
// interception points:
//
//   net      one consult per round trip (Client::execute / pipelined
//            flush): message drop (request- or reply-lost), latency
//            spike, permanent link partition after K round trips.
//   kvstore  one consult per store interaction (the simulated
//            Client's round trip): injected error reply, stalled
//            response, crash-at-op-K (store down for every later op).
//   cluster  per-node fail-stop at virtual time T (the executor marks
//            the node dead at its first chunk boundary at/after T and
//            never schedules it again) and a multiplicative slowdown
//            factor.
//
// Determinism contract: every probabilistic decision is a pure function
// of (plan seed, interception stream, per-stream counter). Streams are
// keyed by link / host / draw kind, and counters advance only when the
// corresponding interception point is consulted — which the
// single-threaded virtual-time scheduler serializes — so a given (seed,
// plan, job) replays the exact same fault sequence on any machine at any
// HETSIM_THREADS. The counters hold no lock: only the simulator's
// driving thread consults the injector (DESIGN.md §7).
//
// The injector is consulted through a nullable pointer everywhere; a
// null injector (or an all-defaults plan, see enabled()) costs one
// branch per operation and changes no arithmetic — byte-identical
// results with fault injection compiled in but unused.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hetsim::common {
struct JsonValue;
}  // namespace hetsim::common

namespace hetsim::fault {

/// Simulated host / node id; matches net::HostId (dense from 0) without
/// making the fault layer depend on net.
using HostId = std::uint32_t;

/// Network fault knobs, applied to every remote link.
struct NetFaults {
  /// Probability a round trip is lost entirely.
  double drop_prob = 0.0;
  /// Of the dropped round trips, the fraction lost on the way *to* the
  /// server (request lost: command not applied, retry always safe). The
  /// remainder are lost on the way back (reply lost: command applied,
  /// outcome ambiguous — retry only if idempotent).
  double drop_request_lost_fraction = 0.5;
  /// Probability a delivered round trip suffers a latency spike.
  double spike_prob = 0.0;
  /// Extra seconds added by one spike.
  double spike_latency_s = 0.0;
};

/// Severs the (a, b) link (both directions) after the first
/// `after_round_trips` round trips on it have been served. The
/// partition heals after a further `heals_after_round_trips` consults
/// of the severed link (0 = never heals). Consults keep advancing the
/// link counter while the link is severed — a retry loop that keeps
/// knocking is exactly what makes healing reachable deterministically.
struct LinkPartition {
  HostId a = 0;
  HostId b = 0;
  std::uint64_t after_round_trips = 0;
  std::uint64_t heals_after_round_trips = 0;
};

/// Per-host kvstore server faults.
struct StoreFaults {
  /// Probability one interaction returns an injected "-ERR FAULT" reply
  /// (command not applied; always safe to retry).
  double error_prob = 0.0;
  /// Probability one interaction's reply is delayed by `stall_s`.
  double stall_prob = 0.0;
  double stall_s = 0.0;
  /// Store crashes after serving this many interactions; every later
  /// interaction reports kDown. 0 = never.
  std::uint64_t crash_at_op = 0;
};

/// Per-node compute faults.
struct NodeFaults {
  /// Node fail-stops at this virtual time (seconds into the execute
  /// phase); < 0 = never.
  double fail_stop_at_s = -1.0;
  /// Multiplier on the node's per-chunk compute time (>= 1 slows it).
  double slowdown_factor = 1.0;
};

/// Declarative description of every fault a run should experience.
struct FaultPlan {
  std::uint64_t seed = 0;
  NetFaults net;
  std::vector<LinkPartition> partitions;
  std::map<HostId, StoreFaults> stores;
  std::map<HostId, NodeFaults> nodes;

  /// Throws common::ConfigError when any knob is out of range.
  void validate() const;
  /// True when every knob is at its no-fault default.
  [[nodiscard]] bool empty() const;

  /// Parse from a JSON document / JSON text (see examples/fault_plan.json
  /// for the schema). Throws common::ConfigError on malformed input.
  [[nodiscard]] static FaultPlan from_json(const common::JsonValue& doc);
  [[nodiscard]] static FaultPlan from_json_text(std::string_view text);
};

/// What the injector decided for one network round trip.
struct RoundTripFault {
  /// Link currently severed (counts as a drop; heals only when the
  /// partition declares heals_after_round_trips).
  bool partitioned = false;
  /// This round trip was lost.
  bool dropped = false;
  /// Valid when dropped: lost before reaching the server.
  bool request_lost = false;
  /// Latency spike on a delivered round trip, seconds.
  double extra_latency_s = 0.0;
};

/// What the injector decided for one kvstore server interaction.
enum class StoreFault : std::uint8_t { kNone, kError, kStall, kDown };

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  /// False for an all-defaults plan: callers take their fault-free fast
  /// path, preserving byte-identical no-fault arithmetic.
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Consult (and advance) the (src, dst) link stream for one round trip.
  [[nodiscard]] RoundTripFault on_round_trip(HostId src, HostId dst);

  /// Consult (and advance) `host`'s store stream for one interaction.
  [[nodiscard]] StoreFault on_store_op(HostId host);
  /// Stall duration configured for `host` (0 when none).
  [[nodiscard]] double stall_seconds(HostId host) const;

  [[nodiscard]] bool has_fail_stop(HostId node) const;
  /// Fail-stop virtual time; only meaningful when has_fail_stop(node).
  [[nodiscard]] double fail_stop_time_s(HostId node) const;
  [[nodiscard]] double slowdown_factor(HostId node) const;

  // ---- introspection (tests, diagnostics) ----------------------------
  [[nodiscard]] std::uint64_t round_trips(HostId src, HostId dst) const;
  [[nodiscard]] std::uint64_t store_ops(HostId host) const;

 private:
  /// Uniform [0, 1) draw: pure function of (seed, stream, counter).
  [[nodiscard]] double draw(std::uint64_t stream,
                            std::uint64_t counter) const noexcept;

  FaultPlan plan_;
  bool enabled_ = false;
  std::map<std::pair<HostId, HostId>, std::uint64_t> link_trips_;
  std::map<HostId, std::uint64_t> store_ops_;
};

/// Serialize a plan to JSON text that re-parses to an equal plan via
/// FaultPlan::from_json_text. Only non-default knobs are emitted, so the
/// output never trips the parser's no-op stanza rejection.
[[nodiscard]] std::string plan_to_json(const FaultPlan& plan);

}  // namespace hetsim::fault
