// hetsim::chaos — seeded chaos search with plan shrinking (DESIGN.md
// §13).
//
// The harness explores the fault space PR 4's hand-written FaultPlans
// did not imagine: every trial draws a random-but-reproducible list of
// fault Events from a budget grammar (a pure function of (seed, trial)
// — no global RNG state), merges them into a fault::FaultPlan, runs a
// matrix of victims under the plan, and checks global invariants that
// must hold under ANY plan the grammar can produce:
//
//   churn     ha::NodeGroup put/get churn with mid-trial crashes.
//             * acked-write-lost: every acknowledged replica write is
//               still byte-exact on every surviving replica that acked.
//             * replica-conservation: attempted + expired == routed for
//               every fan-out (a silently skipped replica is how
//               under-replication hides).
//             * routes-dead-node: a route never contains a node the
//               router has marked down.
//             * stale-read: a successful replicated read returns the
//               exact acknowledged value.
//   job       a small replicated runtime::JobRuntime run (every
//             job_cadence-th trial; it is the expensive victim). The
//             victim takes the generated plan verbatim — the full fault
//             grammar, not a node-faults-only subset.
//             * no-escaping-error: JobRuntime::run never lets an
//               exception escape for a well-formed plan; every fault
//               lands as a typed JobStatus instead.
//             * work-lost: unless the run reports kDataUnavailable,
//               every ingested record was processed or accounted as
//               dropped.
//             * negative-energy: dirty/green energy tallies are >= 0.
//
// On a violation the search delta-debug-shrinks the event list to a
// minimal reproducer (greedy event removal to a fixed point — event
// lists are short, so this is ddmin's limit case) and emits it as a
// committable repro JSON plus a one-line `hetsim_cli chaos --replay`
// command. Every artifact round-trips: the embedded plan parses with
// fault::FaultPlan::from_json, so a repro is also a plain fault plan.
//
// Determinism contract: trials, victims and the trial log are pure
// functions of (seed, config); the same seed produces a byte-identical
// trial log on every run, which is itself one of the invariants the
// tests assert.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.h"

namespace hetsim::common {
struct JsonValue;
}  // namespace hetsim::common

namespace hetsim::chaos {

/// One atomic fault the grammar can draw. Which fields matter depends
/// on the kind; the rest stay at their defaults.
enum class EventKind : std::uint8_t {
  kNetDrop,       // p: round-trip drop probability
  kNetSpike,      // p: spike probability, seconds: spike latency
  kPartition,     // host<->peer severed after `count` round trips,
                  // healing after `heal` further consults (0 = never)
  kStoreError,    // p: injected error-reply probability on `host`
  kStoreStall,    // p: stall probability, seconds: stall on `host`
  kStoreCrash,    // `host` down after `count` interactions (count >= 1)
  kNodeFailStop,  // `host` fail-stops at `seconds` virtual time
  kNodeSlowdown,  // `host` compute slowed by `factor` (>= 1)
};

[[nodiscard]] std::string_view event_kind_name(EventKind kind);

struct Event {
  EventKind kind{};
  fault::HostId host = 0;
  fault::HostId peer = 0;   // kPartition only
  double p = 0.0;
  double seconds = 0.0;
  double factor = 1.0;      // kNodeSlowdown only
  std::uint64_t count = 0;  // kPartition / kStoreCrash
  std::uint64_t heal = 0;   // kPartition: heals after this many further
                            // consults of the severed link (0 = never)
};

/// Bounds of the event draws — the fault "budget" a trial may spend.
/// Defaults are tuned so faults land mid-trial on the default victims.
struct Grammar {
  std::size_t nodes = 4;       // victim cluster size
  std::size_t min_events = 1;
  std::size_t max_events = 4;
  double max_prob = 0.12;      // drop/spike/error/stall probability cap
  double max_spike_s = 0.01;
  double max_stall_s = 0.15;
  double max_fail_stop_s = 0.02;
  double max_slowdown = 3.0;
  std::uint64_t max_crash_op = 64;
  std::uint64_t max_partition_trips = 32;
  std::size_t churn_ops = 160;  // puts per churn trial

  /// Throws common::ConfigError unless nodes >= 2 and
  /// 1 <= min_events <= max_events. generate_events and
  /// repro_from_json_text both apply it, so a replay never hands a
  /// victim a grammar the search could not have drawn from.
  void validate() const;
};

/// The trial's event list: a pure function of (seed, trial, grammar).
[[nodiscard]] std::vector<Event> generate_events(std::uint64_t seed,
                                                 std::uint64_t trial,
                                                 const Grammar& grammar);

/// Merge events into a replayable FaultPlan (probabilities combine by
/// max, crash/fail-stop points by min — the union of the faults). The
/// plan seed is a pure function of (seed, trial), so a shrunk subset
/// replays the same draw streams as the full list.
[[nodiscard]] fault::FaultPlan events_to_plan(
    std::uint64_t seed, std::uint64_t trial,
    const std::vector<Event>& events);

/// JSON array of events; parse back with events_from_json.
[[nodiscard]] std::string events_json(const std::vector<Event>& events);
[[nodiscard]] std::vector<Event> events_from_json(
    const common::JsonValue& arr);

/// A repro's integer field `key`, held in `v`. A negative value throws
/// ConfigError "chaos repro: <part>'<key>' must be >= 0" rather than
/// wrapping to a huge unsigned one; `part` is "grammar ", "event " or ""
/// (a top-level key).
[[nodiscard]] std::uint64_t repro_count(const common::JsonValue& v,
                                        std::string_view part,
                                        std::string_view key);

enum class Victim : std::uint8_t { kChurn, kJob };
[[nodiscard]] std::string_view victim_name(Victim v);

/// One invariant violation (empty `invariant` / violated=false when the
/// victim passed).
struct Violation {
  bool violated = false;
  Victim victim = Victim::kChurn;
  std::string invariant;  // stable slug, e.g. "acked-write-lost"
  std::string detail;     // human-readable specifics
};

/// Run one victim under one plan. `digest` (optional out) receives a
/// deterministic one-line fingerprint of the victim's observable
/// outcome — what the byte-identical trial log is built from.
Violation run_victim(Victim victim, const fault::FaultPlan& plan,
                     const Grammar& grammar, std::uint64_t seed,
                     std::uint64_t trial, std::string* digest = nullptr);

/// A committed reproducer: enough to re-run one victim under one shrunk
/// plan and expect the same invariant violation.
struct ReproCase {
  std::uint64_t chaos_seed = 0;
  std::uint64_t trial = 0;
  Victim victim = Victim::kChurn;
  std::string invariant;
  Grammar grammar{};
  std::vector<Event> events;
};

[[nodiscard]] std::string repro_json(const ReproCase& repro);
[[nodiscard]] ReproCase repro_from_json_text(std::string_view text);

/// What a replay produced, judged against what the repro recorded.
struct ReplayOutcome {
  /// The violation the shrunk plan produces now (violated=false when
  /// nothing fires).
  Violation fired;
  /// True only when the recorded victim broke the recorded invariant
  /// again; a different violation firing is a different finding.
  bool reproduced = false;
};

/// Replay a repro against the current code.
ReplayOutcome replay(const ReproCase& repro);
ReplayOutcome replay_file(const std::string& path);

struct SearchConfig {
  std::uint64_t seed = 1;
  std::uint64_t trials = 200;
  Grammar grammar{};
  /// Run the job victim on every Nth trial (0 = never). It dominates
  /// the wall clock, so it rides a cadence instead of every trial.
  std::uint64_t job_cadence = 8;
  /// Stop at (and shrink) the first violation instead of scanning on.
  bool stop_at_first = true;
  /// Where repro_*.json files go; empty disables writing.
  std::string out_dir = "examples";
};

struct SearchReport {
  std::uint64_t trials_run = 0;
  bool violated = false;
  Violation violation;           // the first one, pre-shrink detail
  std::vector<Event> shrunk;     // minimal event list reproducing it
  std::string repro_path;        // written file ("" when not written)
  std::string replay_command;    // one-liner for the commit message
  /// One line per trial; byte-identical for the same (seed, config).
  std::string trial_log;
};

/// Greedy delta-debugging shrink: repeatedly drop single events while
/// the violation (same victim + invariant) still reproduces, to a fixed
/// point. Exposed for the determinism tests.
[[nodiscard]] std::vector<Event> shrink_events(
    const std::vector<Event>& events, const Violation& target,
    const Grammar& grammar, std::uint64_t seed, std::uint64_t trial);

SearchReport run_search(const SearchConfig& config);

}  // namespace hetsim::chaos
