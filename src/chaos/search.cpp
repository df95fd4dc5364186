// Chaos search driver: trial loop, greedy shrinking, repro round-trip.
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/chaos.h"
#include "common/error.h"
#include "common/json.h"

namespace hetsim::chaos {

namespace {

std::string grammar_json(const Grammar& g) {
  common::JsonWriter w;
  w.begin_object()
      .field("nodes", static_cast<std::uint64_t>(g.nodes))
      .field("min_events", static_cast<std::uint64_t>(g.min_events))
      .field("max_events", static_cast<std::uint64_t>(g.max_events))
      .field("max_prob", g.max_prob)
      .field("max_spike_s", g.max_spike_s)
      .field("max_stall_s", g.max_stall_s)
      .field("max_fail_stop_s", g.max_fail_stop_s)
      .field("max_slowdown", g.max_slowdown)
      .field("max_crash_op", g.max_crash_op)
      .field("max_partition_trips", g.max_partition_trips)
      .field("churn_ops", static_cast<std::uint64_t>(g.churn_ops))
      .end_object();
  return w.str();
}

/// A grammar count: absent keeps `fallback`; a negative value is
/// rejected rather than wrapped to a huge unsigned bound.
std::uint64_t get_count(const common::JsonValue& doc, std::string_view key,
                        std::uint64_t fallback) {
  const common::JsonValue* v = doc.find(key);
  return v == nullptr ? fallback : repro_count(*v, "grammar ", key);
}

double get_double(const common::JsonValue& doc, std::string_view key,
                  double fallback) {
  const common::JsonValue* v = doc.find(key);
  return v == nullptr ? fallback : v->as_double(key);
}

Grammar grammar_from_json(const common::JsonValue& doc) {
  Grammar g;
  g.nodes = get_count(doc, "nodes", g.nodes);
  g.min_events = get_count(doc, "min_events", g.min_events);
  g.max_events = get_count(doc, "max_events", g.max_events);
  g.max_prob = get_double(doc, "max_prob", g.max_prob);
  g.max_spike_s = get_double(doc, "max_spike_s", g.max_spike_s);
  g.max_stall_s = get_double(doc, "max_stall_s", g.max_stall_s);
  g.max_fail_stop_s = get_double(doc, "max_fail_stop_s", g.max_fail_stop_s);
  g.max_slowdown = get_double(doc, "max_slowdown", g.max_slowdown);
  g.max_crash_op = get_count(doc, "max_crash_op", g.max_crash_op);
  g.max_partition_trips =
      get_count(doc, "max_partition_trips", g.max_partition_trips);
  g.churn_ops = get_count(doc, "churn_ops", g.churn_ops);
  return g;
}

/// The finding a repro records: the same victim breaking the same
/// invariant. Any other violation is a different bug.
bool same_finding(const Violation& v, Victim victim,
                  std::string_view invariant) {
  return v.violated && v.victim == victim && v.invariant == invariant;
}

Victim victim_from_name(std::string_view name) {
  if (name == "churn") return Victim::kChurn;
  if (name == "job") return Victim::kJob;
  throw common::ConfigError("chaos repro: unknown victim '" +
                            std::string(name) + "'");
}

}  // namespace

std::string repro_json(const ReproCase& repro) {
  // The events drive the replay; the merged plan rides along so the
  // artifact doubles as a plain fault plan for the fault tooling.
  const fault::FaultPlan plan =
      events_to_plan(repro.chaos_seed, repro.trial, repro.events);
  std::ostringstream os;
  os << "{\n"
     << "  \"chaos_seed\": " << repro.chaos_seed << ",\n"
     << "  \"trial\": " << repro.trial << ",\n"
     << "  \"victim\": \"" << common::json_escape(victim_name(repro.victim))
     << "\",\n"
     << "  \"invariant\": \"" << common::json_escape(repro.invariant)
     << "\",\n"
     << "  \"grammar\": " << grammar_json(repro.grammar) << ",\n"
     << "  \"events\": " << events_json(repro.events) << ",\n"
     << "  \"plan\": " << fault::plan_to_json(plan) << "\n"
     << "}\n";
  return os.str();
}

ReproCase repro_from_json_text(std::string_view text) {
  const common::JsonValue doc = common::parse_json(text);
  common::require<common::ConfigError>(
      doc.is_object(), "chaos repro: top level must be an object");
  ReproCase repro;
  const auto* seed = doc.find("chaos_seed");
  const auto* trial = doc.find("trial");
  const auto* victim = doc.find("victim");
  const auto* invariant = doc.find("invariant");
  const auto* events = doc.find("events");
  common::require<common::ConfigError>(
      seed != nullptr && trial != nullptr && victim != nullptr &&
          invariant != nullptr && events != nullptr,
      "chaos repro: required keys are chaos_seed, trial, victim, "
      "invariant, events");
  repro.chaos_seed = repro_count(*seed, "", "chaos_seed");
  repro.trial = repro_count(*trial, "", "trial");
  repro.victim = victim_from_name(victim->as_string("victim"));
  repro.invariant = invariant->as_string("invariant");
  if (const auto* g = doc.find("grammar")) {
    repro.grammar = grammar_from_json(*g);
  }
  repro.grammar.validate();
  repro.events = events_from_json(*events);
  if (const auto* plan = doc.find("plan")) {
    // Not used for the replay (the events are canonical) but must be a
    // valid plan — the artifact promises to double as one.
    (void)fault::FaultPlan::from_json(*plan);
  }
  return repro;
}

ReplayOutcome replay(const ReproCase& repro) {
  const fault::FaultPlan plan =
      events_to_plan(repro.chaos_seed, repro.trial, repro.events);
  ReplayOutcome out;
  out.fired = run_victim(repro.victim, plan, repro.grammar, repro.chaos_seed,
                         repro.trial);
  out.reproduced = same_finding(out.fired, repro.victim, repro.invariant);
  return out;
}

ReplayOutcome replay_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  common::require<common::ConfigError>(
      in.good(), "chaos replay: cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return replay(repro_from_json_text(buf.str()));
}

std::vector<Event> shrink_events(const std::vector<Event>& events,
                                 const Violation& target,
                                 const Grammar& grammar, std::uint64_t seed,
                                 std::uint64_t trial) {
  const auto reproduces = [&](const std::vector<Event>& subset) {
    return same_finding(
        run_victim(target.victim, events_to_plan(seed, trial, subset),
                   grammar, seed, trial),
        target.victim, target.invariant);
  };
  // Hook-planted bugs often need no events at all — test that first.
  if (reproduces({})) return {};
  std::vector<Event> current = events;
  bool changed = true;
  while (changed && current.size() > 1) {
    changed = false;
    for (std::size_t i = 0; i < current.size(); ++i) {
      std::vector<Event> candidate;
      candidate.reserve(current.size() - 1);
      for (std::size_t j = 0; j < current.size(); ++j) {
        if (j != i) candidate.push_back(current[j]);
      }
      if (reproduces(candidate)) {
        current = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return current;
}

SearchReport run_search(const SearchConfig& config) {
  common::require<common::ConfigError>(config.trials >= 1,
                                       "chaos: need at least one trial");
  SearchReport report;
  std::ostringstream log;
  for (std::uint64_t trial = 0; trial < config.trials; ++trial) {
    const std::vector<Event> events =
        generate_events(config.seed, trial, config.grammar);
    const fault::FaultPlan plan =
        events_to_plan(config.seed, trial, events);
    ++report.trials_run;

    Violation first;
    std::ostringstream line;
    line << "trial=" << trial << " events=" << events.size();
    const bool run_job =
        config.job_cadence != 0 && trial % config.job_cadence == 0;
    const Victim order[] = {Victim::kChurn, Victim::kJob};
    for (const Victim victim : order) {
      if (victim == Victim::kJob && !run_job) continue;
      std::string digest;
      const Violation v = run_victim(victim, plan, config.grammar,
                                     config.seed, trial, &digest);
      if (v.violated) {
        first = v;
        line << ' ' << victim_name(victim) << "=[VIOLATION " << v.invariant
             << ']';
        break;
      }
      line << ' ' << victim_name(victim) << "=[" << digest << ']';
    }
    log << line.str() << '\n';

    if (first.violated) {
      report.violated = true;
      report.violation = first;
      report.shrunk = shrink_events(events, first, config.grammar,
                                    config.seed, trial);
      ReproCase repro;
      repro.chaos_seed = config.seed;
      repro.trial = trial;
      repro.victim = first.victim;
      repro.invariant = first.invariant;
      repro.grammar = config.grammar;
      repro.events = report.shrunk;
      if (!config.out_dir.empty()) {
        const std::string path =
            config.out_dir + "/repro_" + std::to_string(config.seed) + "_" +
            std::to_string(trial) + "_" + first.invariant + ".json";
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        common::require<common::ConfigError>(
            out.good(), "chaos: cannot write repro to '" + path + "'");
        out << repro_json(repro);
        report.repro_path = path;
        report.replay_command = "hetsim_cli chaos --replay " + path;
      }
      if (config.stop_at_first) break;
    }
  }
  report.trial_log = log.str();
  return report;
}

}  // namespace hetsim::chaos
