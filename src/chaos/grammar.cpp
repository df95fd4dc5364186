// Event grammar: seeded draws, plan merging, event JSON round-trip.
#include <algorithm>
#include <string>

#include "chaos/chaos.h"
#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"

namespace hetsim::chaos {

namespace {

/// Stateless draw stream: every value is a pure function of
/// (seed, trial, counter) — the same contract fault::FaultInjector
/// uses, so trials replay identically on any machine.
class DrawStream {
 public:
  DrawStream(std::uint64_t seed, std::uint64_t trial)
      : seed_(seed), trial_(trial) {}

  [[nodiscard]] std::uint64_t next_u64() {
    std::uint64_t s = seed_ ^ 0x6368616f735f6472ULL;  // "chaos_dr"
    std::uint64_t x = common::splitmix64(s) ^ trial_;
    std::uint64_t y = common::splitmix64(x) ^ counter_++;
    return common::splitmix64(y);
  }

  /// Uniform [0, 1).
  [[nodiscard]] double uniform() {
    return static_cast<double>(next_u64() >> 11U) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n).
  [[nodiscard]] std::uint64_t below(std::uint64_t n) {
    return next_u64() % n;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t trial_;
  std::uint64_t counter_ = 0;
};

constexpr std::string_view kKindNames[] = {
    "net_drop",    "net_spike",   "partition",      "store_error",
    "store_stall", "store_crash", "node_fail_stop", "node_slowdown"};
constexpr std::size_t kNumKinds = 8;

}  // namespace

std::string_view event_kind_name(EventKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

void Grammar::validate() const {
  common::require<common::ConfigError>(
      nodes >= 2, "chaos::Grammar: need at least two nodes");
  common::require<common::ConfigError>(
      min_events >= 1 && max_events >= min_events,
      "chaos::Grammar: need 1 <= min_events <= max_events");
}

std::vector<Event> generate_events(std::uint64_t seed, std::uint64_t trial,
                                   const Grammar& g) {
  g.validate();
  DrawStream draw(seed, trial);
  const std::size_t n =
      g.min_events +
      static_cast<std::size_t>(draw.below(g.max_events - g.min_events + 1));
  std::vector<Event> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.kind = static_cast<EventKind>(draw.below(kNumKinds));
    e.host = static_cast<fault::HostId>(draw.below(g.nodes));
    switch (e.kind) {
      case EventKind::kNetDrop:
        e.p = draw.uniform() * g.max_prob;
        break;
      case EventKind::kNetSpike:
        e.p = draw.uniform() * g.max_prob;
        e.seconds = draw.uniform() * g.max_spike_s;
        break;
      case EventKind::kPartition:
        // peer != host, uniform over the others.
        e.peer = static_cast<fault::HostId>(draw.below(g.nodes - 1));
        if (e.peer >= e.host) ++e.peer;
        e.count = draw.below(g.max_partition_trips + 1);
        // Half the partitions heal so retry-under-deadline paths get
        // exercised; the rest stay severed for the whole trial.
        e.heal = draw.below(2) == 0 ? 0 : 1 + draw.below(g.max_partition_trips);
        break;
      case EventKind::kStoreError:
        e.p = draw.uniform() * g.max_prob;
        break;
      case EventKind::kStoreStall:
        e.p = draw.uniform() * g.max_prob;
        e.seconds = draw.uniform() * g.max_stall_s;
        break;
      case EventKind::kStoreCrash:
        e.count = 1 + draw.below(g.max_crash_op);
        break;
      case EventKind::kNodeFailStop:
        e.seconds = draw.uniform() * g.max_fail_stop_s;
        break;
      case EventKind::kNodeSlowdown:
        e.factor = 1.0 + draw.uniform() * (g.max_slowdown - 1.0);
        break;
    }
    events.push_back(e);
  }
  return events;
}

fault::FaultPlan events_to_plan(std::uint64_t seed, std::uint64_t trial,
                                const std::vector<Event>& events) {
  fault::FaultPlan plan;
  // The plan seed depends only on (seed, trial): a shrunk subset of the
  // events replays the exact same injector draw streams.
  std::uint64_t s = seed ^ (trial * 0x9e3779b97f4a7c15ULL) ^
                    0x6368616f735f706cULL;  // "chaos_pl"
  plan.seed = common::splitmix64(s);
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kNetDrop:
        plan.net.drop_prob = std::max(plan.net.drop_prob, e.p);
        break;
      case EventKind::kNetSpike:
        plan.net.spike_prob = std::max(plan.net.spike_prob, e.p);
        plan.net.spike_latency_s =
            std::max(plan.net.spike_latency_s, e.seconds);
        break;
      case EventKind::kPartition:
        plan.partitions.push_back({e.host, e.peer, e.count, e.heal});
        break;
      case EventKind::kStoreError: {
        auto& f = plan.stores[e.host];
        f.error_prob = std::max(f.error_prob, e.p);
        break;
      }
      case EventKind::kStoreStall: {
        auto& f = plan.stores[e.host];
        f.stall_prob = std::max(f.stall_prob, e.p);
        f.stall_s = std::max(f.stall_s, e.seconds);
        break;
      }
      case EventKind::kStoreCrash: {
        auto& f = plan.stores[e.host];
        f.crash_at_op = f.crash_at_op == 0
                            ? e.count
                            : std::min(f.crash_at_op, e.count);
        break;
      }
      case EventKind::kNodeFailStop: {
        auto& f = plan.nodes[e.host];
        f.fail_stop_at_s = f.fail_stop_at_s < 0.0
                               ? e.seconds
                               : std::min(f.fail_stop_at_s, e.seconds);
        break;
      }
      case EventKind::kNodeSlowdown: {
        auto& f = plan.nodes[e.host];
        f.slowdown_factor = std::max(f.slowdown_factor, e.factor);
        break;
      }
    }
  }
  plan.validate();
  return plan;
}

std::string events_json(const std::vector<Event>& events) {
  common::JsonWriter w;
  w.begin_array();
  for (const Event& e : events) {
    w.begin_object();
    w.field("kind", event_kind_name(e.kind));
    switch (e.kind) {
      case EventKind::kNetDrop:
        w.field("p", e.p);
        break;
      case EventKind::kNetSpike:
        w.field("p", e.p).field("seconds", e.seconds);
        break;
      case EventKind::kPartition:
        w.field("host", static_cast<std::uint64_t>(e.host))
            .field("peer", static_cast<std::uint64_t>(e.peer))
            .field("count", e.count);
        if (e.heal != 0) w.field("heal", e.heal);
        break;
      case EventKind::kStoreError:
        w.field("host", static_cast<std::uint64_t>(e.host)).field("p", e.p);
        break;
      case EventKind::kStoreStall:
        w.field("host", static_cast<std::uint64_t>(e.host))
            .field("p", e.p)
            .field("seconds", e.seconds);
        break;
      case EventKind::kStoreCrash:
        w.field("host", static_cast<std::uint64_t>(e.host))
            .field("count", e.count);
        break;
      case EventKind::kNodeFailStop:
        w.field("host", static_cast<std::uint64_t>(e.host))
            .field("seconds", e.seconds);
        break;
      case EventKind::kNodeSlowdown:
        w.field("host", static_cast<std::uint64_t>(e.host))
            .field("factor", e.factor);
        break;
    }
    w.end_object();
  }
  w.end_array();
  return w.str();
}

std::vector<Event> events_from_json(const common::JsonValue& arr) {
  std::vector<Event> events;
  for (const common::JsonValue& v : arr.as_array("events")) {
    common::require<common::ConfigError>(
        v.is_object(), "chaos repro: each event must be an object");
    const common::JsonValue* kind = v.find("kind");
    common::require<common::ConfigError>(
        kind != nullptr, "chaos repro: event missing 'kind'");
    const std::string& name = kind->as_string("kind");
    Event e;
    bool known = false;
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      if (name == kKindNames[k]) {
        e.kind = static_cast<EventKind>(k);
        known = true;
        break;
      }
    }
    common::require<common::ConfigError>(
        known, "chaos repro: unknown event kind '" + name + "'");
    if (const common::JsonValue* f = v.find("host")) {
      e.host = static_cast<fault::HostId>(repro_count(*f, "event ", "host"));
    }
    if (const common::JsonValue* f = v.find("peer")) {
      e.peer = static_cast<fault::HostId>(repro_count(*f, "event ", "peer"));
    }
    if (const common::JsonValue* f = v.find("p")) e.p = f->as_double("p");
    if (const common::JsonValue* f = v.find("seconds")) {
      e.seconds = f->as_double("seconds");
    }
    if (const common::JsonValue* f = v.find("factor")) {
      e.factor = f->as_double("factor");
    }
    if (const common::JsonValue* f = v.find("count")) {
      e.count = repro_count(*f, "event ", "count");
    }
    if (const common::JsonValue* f = v.find("heal")) {
      e.heal = repro_count(*f, "event ", "heal");
    }
    events.push_back(e);
  }
  return events;
}

std::uint64_t repro_count(const common::JsonValue& v, std::string_view part,
                          std::string_view key) {
  const std::int64_t i = v.as_int(key);
  common::require<common::ConfigError>(
      i >= 0, "chaos repro: " + std::string(part) + "'" + std::string(key) +
                  "' must be >= 0");
  return static_cast<std::uint64_t>(i);
}

std::string_view victim_name(Victim v) {
  switch (v) {
    case Victim::kChurn:
      return "churn";
    case Victim::kJob:
      return "job";
  }
  return "?";
}

}  // namespace hetsim::chaos
