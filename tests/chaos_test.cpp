// hetsim::chaos — determinism of the search, and the mutation-style
// self-test: the harness must FIND each seeded bug fixture
// (fault::TestHooks), shrink it to a <= 2-event reproducer, and the
// reproducer must replay to the same violation (and pass once the bug
// is gone).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/json.h"
#include "fault/fault.h"
#include "fault/test_hooks.h"

namespace {

using namespace hetsim;

chaos::SearchConfig quick_config(std::uint64_t seed = 1,
                                 std::uint64_t trials = 200) {
  chaos::SearchConfig config;
  config.seed = seed;
  config.trials = trials;
  config.out_dir = "";  // tests write repros explicitly where they want them
  return config;
}

// ---- grammar ---------------------------------------------------------------

TEST(ChaosGrammar, EventDrawsArePureFunctionsOfSeedAndTrial) {
  const chaos::Grammar g;
  for (std::uint64_t trial = 0; trial < 32; ++trial) {
    const auto a = chaos::generate_events(7, trial, g);
    const auto b = chaos::generate_events(7, trial, g);
    EXPECT_EQ(chaos::events_json(a), chaos::events_json(b));
    EXPECT_GE(a.size(), g.min_events);
    EXPECT_LE(a.size(), g.max_events);
  }
  // Different seeds explore different plans.
  EXPECT_NE(chaos::events_json(chaos::generate_events(7, 0, g)),
            chaos::events_json(chaos::generate_events(8, 0, g)));
}

TEST(ChaosGrammar, EventsStayInsideTheBudget) {
  const chaos::Grammar g;
  for (std::uint64_t trial = 0; trial < 64; ++trial) {
    for (const chaos::Event& e : chaos::generate_events(3, trial, g)) {
      EXPECT_LT(e.host, g.nodes);
      EXPECT_LE(e.p, g.max_prob);
      EXPECT_LE(e.factor, g.max_slowdown);
      if (e.kind == chaos::EventKind::kPartition) {
        EXPECT_NE(e.host, e.peer);
        EXPECT_LT(e.peer, g.nodes);
      }
      if (e.kind == chaos::EventKind::kStoreCrash) {
        EXPECT_GE(e.count, 1u);
      }
    }
  }
}

TEST(ChaosGrammar, EventJsonRoundTrips) {
  const chaos::Grammar g;
  const auto events = chaos::generate_events(11, 5, g);
  const std::string json = chaos::events_json(events);
  const auto parsed = chaos::events_from_json(common::parse_json(json));
  EXPECT_EQ(chaos::events_json(parsed), json);
}

TEST(ChaosGrammar, PlanSeedIgnoresTheEventList) {
  // A shrunk subset must replay the same injector streams: the plan
  // seed depends only on (seed, trial).
  const chaos::Grammar g;
  const auto events = chaos::generate_events(9, 3, g);
  const auto full = chaos::events_to_plan(9, 3, events);
  const auto empty = chaos::events_to_plan(9, 3, {});
  EXPECT_EQ(full.seed, empty.seed);
  EXPECT_NE(full.seed, chaos::events_to_plan(9, 4, events).seed);
}

TEST(ChaosGrammar, PlanMergeTakesTheUnionOfFaults) {
  chaos::Event a;
  a.kind = chaos::EventKind::kStoreError;
  a.host = 1;
  a.p = 0.05;
  chaos::Event b = a;
  b.p = 0.09;
  chaos::Event crash1;
  crash1.kind = chaos::EventKind::kStoreCrash;
  crash1.host = 1;
  crash1.count = 20;
  chaos::Event crash2 = crash1;
  crash2.count = 7;
  const auto plan = chaos::events_to_plan(1, 0, {a, b, crash1, crash2});
  EXPECT_DOUBLE_EQ(plan.stores.at(1).error_prob, 0.09);  // max survives
  EXPECT_EQ(plan.stores.at(1).crash_at_op, 7u);          // earliest crash
}

// ---- clean search ----------------------------------------------------------

TEST(ChaosSearch, CleanStackPassesAndTheTrialLogIsByteIdentical) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const chaos::SearchReport a = chaos::run_search(quick_config(seed));
    const chaos::SearchReport b = chaos::run_search(quick_config(seed));
    EXPECT_FALSE(a.violated) << a.violation.invariant << ": "
                             << a.violation.detail;
    EXPECT_EQ(a.trials_run, 200u);
    EXPECT_FALSE(a.trial_log.empty());
    EXPECT_EQ(a.trial_log, b.trial_log);
  }
}

TEST(ChaosSearch, TrialLogPinnedAcrossRecoveryDeletion) {
  // Run-against-run identity cannot see a change to churn or job
  // behaviour, so pin the logs themselves: the constants are the hash
  // and length of the trial logs produced when the snapshot/op-log
  // recovery victim was deleted. They equal the earlier logs with each
  // line's ` recovery=[...]` segment removed, byte for byte.
  struct Pinned {
    std::uint64_t seed;
    std::uint64_t trials;
    std::uint64_t job_cadence;
    std::uint64_t log_hash;
    std::size_t log_size;
  };
  for (const Pinned& p : {Pinned{1, 200, 8, 0xf6ba8edcae19cf1cULL, 21066},
                          Pinned{3, 60, 1, 0x00e1f1ec02cb847cULL, 9837}}) {
    chaos::SearchConfig config = quick_config(p.seed, p.trials);
    config.job_cadence = p.job_cadence;
    const chaos::SearchReport report = chaos::run_search(config);
    EXPECT_FALSE(report.violated) << report.violation.invariant;
    EXPECT_EQ(common::hash_bytes(report.trial_log), p.log_hash)
        << "seed " << p.seed;
    EXPECT_EQ(report.trial_log.size(), p.log_size) << "seed " << p.seed;
  }
}

// ---- repro round-trip ------------------------------------------------------

TEST(ChaosRepro, JsonRoundTripsAndEmbedsAValidFaultPlan) {
  chaos::ReproCase repro;
  repro.chaos_seed = 5;
  repro.trial = 17;
  repro.victim = chaos::Victim::kChurn;
  repro.invariant = "replica-conservation";
  repro.events = chaos::generate_events(5, 17, repro.grammar);
  const std::string json = chaos::repro_json(repro);
  const chaos::ReproCase back = chaos::repro_from_json_text(json);
  EXPECT_EQ(back.chaos_seed, repro.chaos_seed);
  EXPECT_EQ(back.trial, repro.trial);
  EXPECT_EQ(back.victim, repro.victim);
  EXPECT_EQ(back.invariant, repro.invariant);
  EXPECT_EQ(back.grammar.nodes, repro.grammar.nodes);
  EXPECT_EQ(chaos::events_json(back.events),
            chaos::events_json(repro.events));
  // The embedded plan is itself a parseable fault plan.
  const common::JsonValue doc = common::parse_json(json);
  ASSERT_NE(doc.find("plan"), nullptr);
  EXPECT_NO_THROW((void)fault::FaultPlan::from_json(*doc.find("plan")));
}

TEST(ChaosRepro, RejectsUnknownVictimAndMissingKeys) {
  EXPECT_THROW((void)chaos::repro_from_json_text("{}"),
               common::ConfigError);
  const auto repro_text = [](const std::string& victim,
                             const std::string& grammar) {
    return R"({"chaos_seed": 1, "trial": 0, "victim": ")" + victim +
           R"(", "invariant": "x", "events": [], "grammar": )" + grammar +
           "}";
  };
  EXPECT_NO_THROW((void)chaos::repro_from_json_text(repro_text("churn", "{}")));
  for (const char* victim : {"toaster", "recovery"}) {
    EXPECT_THROW((void)chaos::repro_from_json_text(repro_text(victim, "{}")),
                 common::ConfigError)
        << victim;
  }
  // A grammar the search could never have drawn from is rejected while
  // parsing, before any victim runs: too few nodes, an empty or
  // inverted event range, and negative counts (which would otherwise
  // wrap to huge unsigned bounds).
  for (const char* grammar :
       {R"({"nodes": 0})", R"({"nodes": 1})", R"({"nodes": -2})",
        R"({"min_events": 0})", R"({"min_events": 3, "max_events": 2})",
        R"({"max_events": -1})", R"({"churn_ops": -1})",
        R"({"max_crash_op": -1})"}) {
    EXPECT_THROW(
        (void)chaos::repro_from_json_text(repro_text("churn", grammar)),
        common::ConfigError)
        << grammar;
  }
}

TEST(ChaosRepro, RejectsNegativeEventFields) {
  // A negative host, peer, count or heal would wrap to a host no plan
  // names or a count no run reaches, and the replay would read as a
  // healed bug. The parser rejects it by name instead.
  const auto repro_text = [](const std::string& event) {
    return R"({"chaos_seed": 1, "trial": 0, "victim": "churn", )"
           R"("invariant": "x", "events": [)" +
           event + "]}";
  };
  EXPECT_NO_THROW((void)chaos::repro_from_json_text(
      repro_text(R"({"kind":"store_crash","host":7,"count":3})")));
  const std::pair<const char*, const char*> cases[] = {
      {R"({"kind":"store_crash","host":-1,"count":3})", "'host'"},
      {R"({"kind":"store_crash","host":7,"count":-3})", "'count'"},
      {R"({"kind":"partition","host":1,"peer":-2,"count":1})", "'peer'"},
      {R"({"kind":"partition","host":1,"peer":2,"heal":-1})", "'heal'"},
  };
  for (const auto& [event, field] : cases) {
    try {
      (void)chaos::repro_from_json_text(repro_text(event));
      ADD_FAILURE() << "accepted " << event;
    } catch (const common::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("must be >= 0"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ChaosRepro, RejectsNegativeSeedAndTrial) {
  // A negative chaos_seed or trial would wrap to a trial no search ran
  // (2^64 - 1 for -1), and the replay would read as a healed bug.
  const auto repro_text = [](const std::string& seed, const std::string& trial) {
    return R"({"chaos_seed": )" + seed + R"(, "trial": )" + trial +
           R"(, "victim": "churn", "invariant": "x", "events": [)"
           R"({"kind":"store_crash","host":7,"count":3}]})";
  };
  EXPECT_NO_THROW((void)chaos::repro_from_json_text(repro_text("0", "0")));
  struct Case {
    const char* seed;
    const char* trial;
    const char* message;
  };
  for (const Case& c : {Case{"1", "-1", "'trial' must be >= 0"},
                        Case{"-5", "0", "'chaos_seed' must be >= 0"}}) {
    try {
      (void)chaos::repro_from_json_text(repro_text(c.seed, c.trial));
      ADD_FAILURE() << "accepted seed " << c.seed << " trial " << c.trial;
    } catch (const common::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << e.what();
    }
  }
}

TEST(ChaosRepro, ADifferentViolationIsNotAReproduction) {
  // The planted fan-out bug breaks replica-conservation on the churn
  // victim under any plan. A repro recording another invariant, or the
  // same invariant on another victim, must not count it as reproduced.
  fault::TestHooks hooks;
  hooks.fanout_skip_last_replica = true;
  fault::ScopedTestHooks guard(hooks);
  chaos::ReproCase repro;
  repro.chaos_seed = 1;
  repro.victim = chaos::Victim::kChurn;
  repro.invariant = "replica-conservation";
  EXPECT_TRUE(chaos::replay(repro).reproduced);

  repro.invariant = "acked-write-lost";
  const chaos::ReplayOutcome other = chaos::replay(repro);
  EXPECT_TRUE(other.fired.violated);
  EXPECT_EQ(other.fired.invariant, "replica-conservation");
  EXPECT_FALSE(other.reproduced);

  repro.victim = chaos::Victim::kJob;
  repro.invariant = "replica-conservation";
  EXPECT_FALSE(chaos::replay(repro).reproduced);
}

// ---- mutation self-test ----------------------------------------------------

struct Fixture {
  const char* name;
  fault::TestHooks hooks;
  chaos::Victim victim;
  const char* invariant;
};

std::vector<Fixture> fixtures() {
  std::vector<Fixture> out;
  {
    Fixture f{};
    f.name = "router_pin_dead_primary";
    f.hooks.router_pin_dead_primary = true;
    f.victim = chaos::Victim::kChurn;
    f.invariant = "routes-dead-node";
    out.push_back(f);
  }
  {
    Fixture f{};
    f.name = "fanout_skip_last_replica";
    f.hooks.fanout_skip_last_replica = true;
    f.victim = chaos::Victim::kChurn;
    f.invariant = "replica-conservation";
    out.push_back(f);
  }
  return out;
}

TEST(ChaosMutation, FindsAndShrinksEverySeededBugFixture) {
  for (const Fixture& fixture : fixtures()) {
    SCOPED_TRACE(fixture.name);
    fault::ScopedTestHooks guard(fixture.hooks);
    chaos::SearchConfig config = quick_config();
    config.out_dir = ::testing::TempDir();
    const chaos::SearchReport report = chaos::run_search(config);
    ASSERT_TRUE(report.violated) << "fixture not found in "
                                 << report.trials_run << " trials";
    EXPECT_EQ(report.violation.victim, fixture.victim);
    EXPECT_EQ(report.violation.invariant, fixture.invariant);
    // The whole point of shrinking: a minimal, committable reproducer.
    EXPECT_LE(report.shrunk.size(), 2u);
    ASSERT_FALSE(report.repro_path.empty());
    EXPECT_NE(report.replay_command.find("chaos --replay"),
              std::string::npos);

    // The written artifact replays to the same violation while the bug
    // is in...
    const chaos::ReplayOutcome again = chaos::replay_file(report.repro_path);
    EXPECT_TRUE(again.reproduced);
    EXPECT_EQ(again.fired.invariant, fixture.invariant);
    {
      // ...and passes once it is fixed (hooks off).
      fault::ScopedTestHooks fixed(fault::TestHooks{});
      const chaos::ReplayOutcome healthy =
          chaos::replay_file(report.repro_path);
      EXPECT_FALSE(healthy.fired.violated) << healthy.fired.detail;
      EXPECT_FALSE(healthy.reproduced);
    }
    std::remove(report.repro_path.c_str());
  }
}

TEST(ChaosMutation, ShrinkingIsDeterministic) {
  fault::TestHooks hooks;
  hooks.router_pin_dead_primary = true;
  fault::ScopedTestHooks guard(hooks);
  const chaos::SearchConfig config = quick_config();
  const chaos::SearchReport report = chaos::run_search(config);
  ASSERT_TRUE(report.violated);
  // Re-deriving the shrink from the same trial yields the same minimum.
  const auto events = chaos::generate_events(
      config.seed, report.trials_run - 1, config.grammar);
  const auto a = chaos::shrink_events(events, report.violation,
                                      config.grammar, config.seed,
                                      report.trials_run - 1);
  const auto b = chaos::shrink_events(events, report.violation,
                                      config.grammar, config.seed,
                                      report.trials_run - 1);
  EXPECT_EQ(chaos::events_json(a), chaos::events_json(b));
  EXPECT_EQ(chaos::events_json(a), chaos::events_json(report.shrunk));
}

TEST(ChaosMutation, MutationRunsAreByteIdenticalToo) {
  fault::TestHooks hooks;
  hooks.fanout_skip_last_replica = true;
  fault::ScopedTestHooks guard(hooks);
  const chaos::SearchReport a = chaos::run_search(quick_config());
  const chaos::SearchReport b = chaos::run_search(quick_config());
  EXPECT_EQ(a.trial_log, b.trial_log);
  EXPECT_EQ(chaos::events_json(a.shrunk), chaos::events_json(b.shrunk));
}

}  // namespace
