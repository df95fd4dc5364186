// Tests for hetsim::fault and the failure handling built on it:
// deterministic seeded fault draws, FaultPlan JSON IO, the kvstore
// client's retry/timeout/backoff loop (including a crashed store), and
// the runtime's node-loss graceful degradation (fail-stop -> missed
// heartbeats -> survivor re-plan).
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/workload.h"
#include "data/generators.h"
#include "energy/estimator.h"
#include "fault/fault.h"
#include "kvstore/client.h"
#include "kvstore/store.h"
#include "net/fabric.h"
#include "runtime/executor.h"
#include "runtime/runtime.h"

namespace hetsim {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;

// ---- FaultPlan JSON --------------------------------------------------------

constexpr const char* kFullPlanJson = R"({
  "seed": 42,
  "net": {"drop_prob": 0.02, "drop_request_lost_fraction": 0.5,
          "spike_prob": 0.01, "spike_latency_s": 0.005,
          "partitions": [{"a": 0, "b": 2, "after_round_trips": 100}]},
  "stores": [{"host": 1, "error_prob": 0.01, "stall_prob": 0.01,
              "stall_s": 0.2, "crash_at_op": 7}],
  "nodes": [{"node": 3, "fail_stop_at_s": 12.5},
            {"node": 5, "slowdown_factor": 1.5}]
})";

TEST(FaultPlanJson, ParsesFullSchema) {
  const FaultPlan plan = FaultPlan::from_json_text(kFullPlanJson);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.net.drop_prob, 0.02);
  EXPECT_DOUBLE_EQ(plan.net.spike_latency_s, 0.005);
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_EQ(plan.partitions[0].a, 0u);
  EXPECT_EQ(plan.partitions[0].b, 2u);
  EXPECT_EQ(plan.partitions[0].after_round_trips, 100u);
  ASSERT_EQ(plan.stores.count(1), 1u);
  EXPECT_DOUBLE_EQ(plan.stores.at(1).stall_s, 0.2);
  EXPECT_EQ(plan.stores.at(1).crash_at_op, 7u);
  ASSERT_EQ(plan.nodes.count(3), 1u);
  EXPECT_DOUBLE_EQ(plan.nodes.at(3).fail_stop_at_s, 12.5);
  EXPECT_DOUBLE_EQ(plan.nodes.at(5).slowdown_factor, 1.5);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanJson, RejectsUnknownKeysSoTyposFailLoudly) {
  EXPECT_THROW((void)FaultPlan::from_json_text(R"({"net": {"drop_pr0b": 1}})"),
               common::ConfigError);
  EXPECT_THROW((void)FaultPlan::from_json_text(R"({"sedes": 1})"),
               common::ConfigError);
}

TEST(FaultPlanJson, RejectsOutOfRangeKnobs) {
  EXPECT_THROW((void)FaultPlan::from_json_text(R"({"net": {"drop_prob": 2}})"),
               common::ConfigError);
  EXPECT_THROW((void)FaultPlan::from_json_text(
                   R"({"nodes": [{"node": 0, "slowdown_factor": 0.5}]})"),
               common::ConfigError);
  EXPECT_THROW(
      (void)FaultPlan::from_json_text(
          R"({"net": {"partitions": [{"a": 1, "b": 1}]}})"),
      common::ConfigError);
}

TEST(FaultPlanJson, RejectsNoOpStanzasThatWouldSilentlyInjectNothing) {
  // An empty 'net' object, an empty array, or an entry with no fault
  // knob is almost always a typo'd plan; all of them fail loudly.
  EXPECT_THROW((void)FaultPlan::from_json_text(R"({"net": {}})"),
               common::ConfigError);
  EXPECT_THROW(
      (void)FaultPlan::from_json_text(R"({"net": {"partitions": []}})"),
      common::ConfigError);
  EXPECT_THROW((void)FaultPlan::from_json_text(R"({"stores": []})"),
               common::ConfigError);
  EXPECT_THROW((void)FaultPlan::from_json_text(R"({"nodes": []})"),
               common::ConfigError);
  EXPECT_THROW((void)FaultPlan::from_json_text(R"({"stores": [{"host": 1}]})"),
               common::ConfigError);
  EXPECT_THROW((void)FaultPlan::from_json_text(R"({"nodes": [{"node": 2}]})"),
               common::ConfigError);
}

TEST(FaultPlanJson, RejectsExplicitCrashAtOpZero) {
  // crash_at_op counts interactions 1-based; 0 is the "disabled"
  // sentinel, so writing it explicitly is a contradiction.
  EXPECT_THROW((void)FaultPlan::from_json_text(
                   R"({"stores": [{"host": 1, "crash_at_op": 0}]})"),
               common::ConfigError);
}

TEST(FaultPlanJson, PartitionHealRoundTrips) {
  const FaultPlan plan = FaultPlan::from_json_text(
      R"({"net": {"partitions": [{"a": 1, "b": 3, "after_round_trips": 10,
                                  "heals_after_round_trips": 25}]}})");
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_EQ(plan.partitions[0].after_round_trips, 10u);
  EXPECT_EQ(plan.partitions[0].heals_after_round_trips, 25u);
  const FaultPlan back = FaultPlan::from_json_text(fault::plan_to_json(plan));
  ASSERT_EQ(back.partitions.size(), 1u);
  EXPECT_EQ(back.partitions[0].heals_after_round_trips, 25u);
  // A permanent partition omits the heal key entirely.
  FaultPlan forever;
  forever.partitions.push_back({0, 2, 4});
  EXPECT_EQ(fault::plan_to_json(forever).find("heals_after_round_trips"),
            std::string::npos);
}

TEST(FaultPlanJson, ZeroDurationPartitionSeversTheLinkFromTheFirstTrip) {
  const FaultPlan plan = FaultPlan::from_json_text(
      R"({"net": {"partitions": [{"a": 0, "b": 2}]}})");
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_EQ(plan.partitions[0].after_round_trips, 0u);
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.on_round_trip(0, 2).partitioned);
}

TEST(FaultPlanJson, PlanToJsonRoundTripsThroughTheStrictParser) {
  const FaultPlan plan = FaultPlan::from_json_text(kFullPlanJson);
  const std::string json = fault::plan_to_json(plan);
  const FaultPlan back = FaultPlan::from_json_text(json);
  EXPECT_EQ(back.seed, plan.seed);
  EXPECT_DOUBLE_EQ(back.net.drop_prob, plan.net.drop_prob);
  EXPECT_DOUBLE_EQ(back.net.spike_latency_s, plan.net.spike_latency_s);
  ASSERT_EQ(back.partitions.size(), plan.partitions.size());
  EXPECT_EQ(back.partitions[0].after_round_trips,
            plan.partitions[0].after_round_trips);
  ASSERT_EQ(back.stores.count(1), 1u);
  EXPECT_EQ(back.stores.at(1).crash_at_op, plan.stores.at(1).crash_at_op);
  EXPECT_DOUBLE_EQ(back.stores.at(1).stall_s, plan.stores.at(1).stall_s);
  ASSERT_EQ(back.nodes.size(), plan.nodes.size());
  EXPECT_DOUBLE_EQ(back.nodes.at(3).fail_stop_at_s, 12.5);
  EXPECT_DOUBLE_EQ(back.nodes.at(5).slowdown_factor, 1.5);
  // Serializing again is a fixed point.
  EXPECT_EQ(fault::plan_to_json(back), json);
}

TEST(FaultPlanJson, EmptyPlanSerializesToJustTheSeed) {
  FaultPlan plan;
  plan.seed = 9;
  // Only non-default knobs are emitted, so even a fault-free plan's
  // output re-parses under the no-op stanza rejection above.
  const FaultPlan back = FaultPlan::from_json_text(fault::plan_to_json(plan));
  EXPECT_EQ(back.seed, 9u);
  EXPECT_TRUE(back.empty());
}

// ---- FaultInjector determinism ---------------------------------------------

TEST(FaultInjector, EmptyPlanIsDisabled) {
  FaultInjector inj{FaultPlan{}};
  EXPECT_FALSE(inj.enabled());
  const fault::RoundTripFault f = inj.on_round_trip(0, 1);
  EXPECT_FALSE(f.dropped);
  EXPECT_FALSE(f.partitioned);
  EXPECT_DOUBLE_EQ(f.extra_latency_s, 0.0);
  // Disabled injectors don't even count: zero bookkeeping overhead.
  EXPECT_EQ(inj.round_trips(0, 1), 0u);
}

TEST(FaultInjector, SameSeedReplaysTheExactSameFaultSequence) {
  FaultPlan plan;
  plan.seed = 7;
  plan.net.drop_prob = 0.3;
  plan.net.spike_prob = 0.2;
  plan.net.spike_latency_s = 0.004;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 300; ++i) {
    const fault::RoundTripFault fa = a.on_round_trip(0, 1);
    const fault::RoundTripFault fb = b.on_round_trip(0, 1);
    EXPECT_EQ(fa.dropped, fb.dropped) << "trip " << i;
    EXPECT_EQ(fa.request_lost, fb.request_lost) << "trip " << i;
    EXPECT_DOUBLE_EQ(fa.extra_latency_s, fb.extra_latency_s) << "trip " << i;
  }
}

TEST(FaultInjector, DifferentSeedsGiveDifferentSequences) {
  FaultPlan plan;
  plan.net.drop_prob = 0.5;
  plan.seed = 1;
  FaultInjector a(plan);
  plan.seed = 2;
  FaultInjector b(plan);
  int differing = 0;
  for (int i = 0; i < 200; ++i) {
    if (a.on_round_trip(0, 1).dropped != b.on_round_trip(0, 1).dropped) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, LoopbackNeverFails) {
  FaultPlan plan;
  plan.net.drop_prob = 1.0;
  FaultInjector inj(plan);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(inj.on_round_trip(2, 2).dropped);
  }
}

TEST(FaultInjector, PartitionSeversLinkAfterBudgetBothDirectionsCounted) {
  FaultPlan plan;
  plan.partitions.push_back({0, 1, 4});
  FaultInjector inj(plan);
  // Trips alternate directions; both count against the shared budget.
  EXPECT_FALSE(inj.on_round_trip(0, 1).partitioned);  // total served: 1
  EXPECT_FALSE(inj.on_round_trip(1, 0).partitioned);  // 2
  EXPECT_FALSE(inj.on_round_trip(0, 1).partitioned);  // 3
  EXPECT_FALSE(inj.on_round_trip(1, 0).partitioned);  // 4
  EXPECT_TRUE(inj.on_round_trip(0, 1).partitioned);   // budget spent
  EXPECT_TRUE(inj.on_round_trip(1, 0).partitioned);   // never heals
  // Unrelated links are unaffected.
  EXPECT_FALSE(inj.on_round_trip(0, 2).partitioned);
}

TEST(FaultInjector, PartitionHealsAfterTheConfiguredConsults) {
  FaultPlan plan;
  plan.partitions.push_back({0, 1, 2, 3});  // sever after 2, heal 3 later
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.on_round_trip(0, 1).partitioned);  // total served: 1
  EXPECT_FALSE(inj.on_round_trip(1, 0).partitioned);  // 2
  // Severed: consults keep advancing the counter while the link is
  // down — a retry loop that keeps knocking reaches the heal point.
  EXPECT_TRUE(inj.on_round_trip(0, 1).partitioned);
  EXPECT_TRUE(inj.on_round_trip(0, 1).partitioned);
  EXPECT_TRUE(inj.on_round_trip(1, 0).partitioned);
  // Healed, both directions, and it stays healed.
  EXPECT_FALSE(inj.on_round_trip(0, 1).partitioned);
  EXPECT_FALSE(inj.on_round_trip(1, 0).partitioned);
}

TEST(FaultInjector, CrashAtOpTakesTheStoreDownForever) {
  FaultPlan plan;
  plan.stores[1].crash_at_op = 2;
  FaultInjector inj(plan);
  EXPECT_EQ(inj.on_store_op(1), fault::StoreFault::kNone);
  EXPECT_EQ(inj.on_store_op(1), fault::StoreFault::kNone);
  EXPECT_EQ(inj.on_store_op(1), fault::StoreFault::kDown);
  EXPECT_EQ(inj.on_store_op(1), fault::StoreFault::kDown);
  // Other hosts are unaffected.
  EXPECT_EQ(inj.on_store_op(0), fault::StoreFault::kNone);
}

// ---- kvstore client retries ------------------------------------------------

struct ClientRig {
  net::Fabric fabric{2};
  kvstore::Store store;

  kvstore::Client client(FaultInjector* inj,
                         kvstore::RetryPolicy retry = {}) {
    return kvstore::Client(fabric, 0, 1, store, 8, inj, retry);
  }
};

TEST(ClientRetry, OccasionalInjectedErrorsAreRetriedTransparently) {
  // 10% error rate: retries are certain over 80 interactions, while
  // exhausting all 4 attempts (p = 1e-4 per op) stays out of reach.
  FaultPlan plan;
  plan.stores[1].error_prob = 0.1;
  FaultInjector inj(plan);
  ClientRig rig;
  kvstore::Client c = rig.client(&inj);
  for (int i = 0; i < 40; ++i) {
    const std::string key = "k" + std::to_string(i);
    c.set(key, "v");
    EXPECT_EQ(kvstore::expect_ok(
                  c.execute({.type = kvstore::CommandType::kGet, .key = key}))
                  .blob,
              "v");
  }
  EXPECT_GT(rig.fabric.retry_stats().retries, 0u);
  EXPECT_EQ(rig.fabric.retry_stats().failures, 0u);
}

TEST(ClientRetry, ExhaustedRetriesSurfaceUnavailable) {
  FaultPlan plan;
  plan.stores[1].error_prob = 1.0;
  FaultInjector inj(plan);
  ClientRig rig;
  kvstore::Client c = rig.client(&inj);
  const kvstore::Reply r =
      c.execute({.type = kvstore::CommandType::kGet, .key = "k"});
  EXPECT_EQ(r.status, kvstore::Status::kUnavailable);
  EXPECT_EQ(rig.fabric.retry_stats().attempts,
            kvstore::RetryPolicy{}.max_attempts);
  EXPECT_EQ(rig.fabric.retry_stats().failures, 1u);
  // The typed wrappers turn the status into an exception.
  EXPECT_THROW(c.set("k", "v"), kvstore::UnavailableError);
  EXPECT_THROW(kvstore::expect_ok(
                   c.execute({.type = kvstore::CommandType::kGet, .key = "k"})),
               kvstore::UnavailableError);
}

TEST(ClientRetry, DroppedLinkTimesOutIdempotentReadsToUnavailable) {
  FaultPlan plan;
  plan.net.drop_prob = 1.0;
  plan.net.drop_request_lost_fraction = 1.0;
  FaultInjector inj(plan);
  ClientRig rig;
  kvstore::Client c = rig.client(&inj);
  const kvstore::Reply r =
      c.execute({.type = kvstore::CommandType::kGet, .key = "k"});
  EXPECT_EQ(r.status, kvstore::Status::kUnavailable);
  EXPECT_GT(rig.fabric.retry_stats().timeouts, 0u);
}

TEST(ClientRetry, TimeoutNeverRetriesNonIdempotentCommands) {
  // Reply-lost drop: the server applies the RPUSH but the client cannot
  // know. Retrying could double-append, so the client must surface
  // kTimeout after ONE attempt.
  FaultPlan plan;
  plan.net.drop_prob = 1.0;
  plan.net.drop_request_lost_fraction = 0.0;
  FaultInjector inj(plan);
  ClientRig rig;
  kvstore::Client c = rig.client(&inj);
  const kvstore::Reply r = c.execute(
      {.type = kvstore::CommandType::kRPush, .key = "l", .value = "x"});
  EXPECT_EQ(r.status, kvstore::Status::kTimeout);
  EXPECT_EQ(rig.fabric.retry_stats().attempts, 1u);
  EXPECT_EQ(rig.fabric.retry_stats().retries, 0u);
  // Applied exactly once on the server side — no double-apply.
  EXPECT_EQ(rig.store.llen("l"), 1u);
}

TEST(ClientRetry, StalledStoreReadsAsTimeout) {
  FaultPlan plan;
  plan.stores[1].stall_prob = 1.0;
  plan.stores[1].stall_s = 1.0;  // >= attempt_timeout_s => reply too late
  FaultInjector inj(plan);
  ClientRig rig;
  kvstore::Client c = rig.client(&inj);
  const kvstore::Reply r =
      c.execute({.type = kvstore::CommandType::kGet, .key = "k"});
  EXPECT_EQ(r.status, kvstore::Status::kUnavailable);
  EXPECT_GT(rig.fabric.retry_stats().timeouts, 0u);
}

TEST(ClientRetry, SubTimeoutStallOnlyAddsLatency) {
  FaultPlan plan;
  plan.stores[1].stall_prob = 1.0;
  plan.stores[1].stall_s = 0.01;  // < attempt_timeout_s: slow, not lost
  FaultInjector inj(plan);
  ClientRig rig;
  kvstore::Client slow = rig.client(&inj);
  slow.set("k", "v");
  net::Fabric fabric2{2};
  kvstore::Store store2;
  kvstore::Client fast(fabric2, 0, 1, store2, 8, nullptr);
  fast.set("k", "v");
  EXPECT_GT(slow.consumed_time(), fast.consumed_time());
  EXPECT_EQ(rig.fabric.retry_stats().failures, 0u);
}

TEST(ClientRetry, PipelinedBatchFailsAsAUnit) {
  FaultPlan plan;
  plan.stores[1].error_prob = 1.0;
  FaultInjector inj(plan);
  ClientRig rig;
  kvstore::Client c = rig.client(&inj);
  for (int i = 0; i < 3; ++i) {
    c.enqueue({.type = kvstore::CommandType::kSet,
               .key = "k" + std::to_string(i),
               .value = "v"});
  }
  const std::vector<kvstore::Reply> replies = c.drain();
  ASSERT_EQ(replies.size(), 3u);
  for (const kvstore::Reply& r : replies) {
    EXPECT_EQ(r.status, kvstore::Status::kUnavailable);
  }
  EXPECT_THROW(kvstore::expect_ok(replies), kvstore::UnavailableError);
}

TEST(ClientRetry, BatchWithNonIdempotentCommandStopsAtFirstTimeout) {
  FaultPlan plan;
  plan.net.drop_prob = 1.0;
  plan.net.drop_request_lost_fraction = 0.0;
  FaultInjector inj(plan);
  ClientRig rig;
  kvstore::Client c = rig.client(&inj);
  c.enqueue({.type = kvstore::CommandType::kSet, .key = "a", .value = "1"});
  c.enqueue({.type = kvstore::CommandType::kRPush, .key = "l", .value = "x"});
  const std::vector<kvstore::Reply> replies = c.drain();
  ASSERT_EQ(replies.size(), 2u);
  for (const kvstore::Reply& r : replies) {
    EXPECT_EQ(r.status, kvstore::Status::kTimeout);
  }
  EXPECT_EQ(rig.fabric.retry_stats().attempts, 1u);
}

TEST(ClientRetry, RetryTimingIsDeterministic) {
  FaultPlan plan;
  plan.seed = 11;
  plan.stores[1].error_prob = 0.5;
  const auto run_once = [&] {
    FaultInjector inj(plan);
    ClientRig rig;
    kvstore::Client c = rig.client(&inj);
    for (int i = 0; i < 30; ++i) {
      (void)c.execute({.type = kvstore::CommandType::kGet,
                       .key = "k" + std::to_string(i)});
    }
    return c.consumed_time();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(ClientRetry, CrashAtOpServesThenRefusesEveryLaterOp) {
  FaultPlan plan;
  plan.stores[1].crash_at_op = 1;
  FaultInjector inj(plan);
  ClientRig rig;
  kvstore::Client c = rig.client(&inj);
  // First interaction is served, every later one hits the crash: the
  // store answers the down reply, retried to exhaustion, never applied.
  EXPECT_EQ(c.execute({.type = kvstore::CommandType::kSet,
                       .key = "k",
                       .value = "v"})
                .status,
            kvstore::Status::kOk);
  EXPECT_EQ(c.execute({.type = kvstore::CommandType::kSet,
                       .key = "late",
                       .value = "v"})
                .status,
            kvstore::Status::kUnavailable);
  const std::size_t attempts = kvstore::RetryPolicy{}.max_attempts;
  EXPECT_EQ(inj.store_ops(1), 1 + attempts);
  EXPECT_EQ(rig.fabric.retry_stats().failures, 1u);
  EXPECT_EQ(rig.store.get("k"), "v");  // the pre-crash write landed
  EXPECT_EQ(rig.store.get("late"), std::nullopt);
}

// ---- a command is a pipeline of one ----------------------------------------

kvstore::Command random_command(common::Rng& rng) {
  using kvstore::CommandType;
  // One key family per value type, so no command meets a wrong type.
  const std::string n = std::to_string(rng.bounded(3));
  const std::string v = "v" + std::to_string(rng.bounded(1000));
  switch (rng.bounded(8)) {
    case 0:
      return {.type = CommandType::kSet, .key = "s" + n, .value = v};
    case 1:
      return {.type = CommandType::kGet, .key = "s" + n};
    case 2:
      return {.type = CommandType::kDel, .key = "s" + n};
    case 3:
      return {.type = CommandType::kRPush, .key = "l" + n, .value = v};
    case 4:
      return {.type = CommandType::kLRange, .key = "l" + n, .arg0 = 0,
              .arg1 = -1};
    case 5:
      return {.type = CommandType::kLLen, .key = "l" + n};
    case 6:
      return {.type = CommandType::kLIndex, .key = "l" + n,
              .arg0 = static_cast<std::int64_t>(rng.bounded(3))};
    default:
      return {.type = CommandType::kRPush, .key = "l" + n, .value = v};
  }
}

FaultPlan random_client_plan(common::Rng& rng) {
  FaultPlan plan;
  plan.seed = rng();
  if (rng.bounded(2) == 0) {
    plan.net.drop_prob = rng.uniform(0.0, 0.4);
    plan.net.drop_request_lost_fraction = rng.uniform();
  }
  if (rng.bounded(2) == 0) {
    plan.net.spike_prob = rng.uniform(0.0, 0.5);
    plan.net.spike_latency_s = rng.uniform(0.0, 0.01);
  }
  if (rng.bounded(3) == 0) {
    plan.partitions.push_back(
        {0, 1, rng.bounded(6), rng.bounded(2) == 0 ? 0 : rng.bounded(8) + 1});
  }
  if (rng.bounded(2) == 0) {
    fault::StoreFaults& store = plan.stores[1];
    store.error_prob = rng.uniform(0.0, 0.4);
    store.stall_prob = rng.uniform(0.0, 0.4);
    // Either side of the default 0.1 s attempt timeout.
    store.stall_s = rng.uniform(0.0, 0.2);
    if (rng.bounded(3) == 0) store.crash_at_op = rng.bounded(20) + 1;
  }
  return plan;  // sometimes empty: the fault-free fast path
}

// execute(cmd, budget) must be exactly a one-command enqueue + drain(budget):
// same replies, same simulated time, same link and retry counters, the
// same injector draws and the same store contents — over random fault
// plans and a fail-stopped store. The pipeline is wider than one so
// enqueue never auto-flushes under the policy deadline instead of the
// budget.
TEST(ClientRoundTrip, ExecuteEqualsAOneCommandPipeline) {
  common::Rng rng(2024);
  net::RetryStats seen;  // summed over trials: every arm was exercised
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const FaultPlan plan = random_client_plan(rng);
    const bool store_down = rng.bounded(8) == 0;
    kvstore::RetryPolicy retry;
    retry.jitter_seed = rng();
    FaultInjector inj_a(plan);
    FaultInjector inj_b(plan);
    ClientRig rig_a;
    ClientRig rig_b;
    if (store_down) {
      rig_a.store.fail_stop();
      rig_b.store.fail_stop();
    }
    kvstore::Client single = rig_a.client(&inj_a, retry);
    kvstore::Client piped = rig_b.client(&inj_b, retry);
    for (int op = 0; op < 24; ++op) {
      const kvstore::Command cmd = random_command(rng);
      // Mostly a full budget; sometimes one that runs out mid-retry,
      // none at all, or an overdrawn one.
      const double budgets[] = {retry.deadline_s, 0.15, 0.0, -1.0};
      const double budget = budgets[rng.bounded(8) < 5 ? 0 : rng.bounded(4)];
      const kvstore::Reply a = single.execute(cmd, budget);
      piped.enqueue(cmd);
      const std::vector<kvstore::Reply> b = piped.drain(budget);
      ASSERT_EQ(b.size(), 1u);
      EXPECT_EQ(a.status, b[0].status);
      EXPECT_EQ(a.ok, b[0].ok);
      EXPECT_EQ(a.blob, b[0].blob);
      EXPECT_EQ(a.list, b[0].list);
      EXPECT_EQ(a.integer, b[0].integer);
      ASSERT_EQ(single.consumed_time(), piped.consumed_time()) << "op " << op;
    }
    const net::LinkStats la = rig_a.fabric.stats(0, 1);
    const net::LinkStats lb = rig_b.fabric.stats(0, 1);
    EXPECT_EQ(la.messages, lb.messages);
    EXPECT_EQ(la.round_trips, lb.round_trips);
    EXPECT_EQ(la.bytes, lb.bytes);
    const net::RetryStats ra = rig_a.fabric.retry_stats();
    const net::RetryStats rb = rig_b.fabric.retry_stats();
    EXPECT_EQ(ra.attempts, rb.attempts);
    EXPECT_EQ(ra.retries, rb.retries);
    EXPECT_EQ(ra.timeouts, rb.timeouts);
    EXPECT_EQ(ra.failures, rb.failures);
    seen.retries += ra.retries;
    seen.timeouts += ra.timeouts;
    seen.failures += ra.failures;
    EXPECT_EQ(inj_a.round_trips(0, 1), inj_b.round_trips(0, 1));
    EXPECT_EQ(inj_a.store_ops(1), inj_b.store_ops(1));
    ASSERT_EQ(rig_a.store.keys(), rig_b.store.keys());
    for (const std::string& key : rig_a.store.keys()) {
      EXPECT_EQ(rig_a.store.value_digest(key), rig_b.store.value_digest(key))
          << key;
    }
  }
  EXPECT_GT(seen.retries, 0u);
  EXPECT_GT(seen.timeouts, 0u);
  EXPECT_GT(seen.failures, 0u);
}

// ---- executor fail-stop + rescue -------------------------------------------

TEST(PhaseExecutorFaults, FailStopOrphansAreRescuedThroughCheckpoint) {
  cluster::Cluster cluster(cluster::standard_cluster(2));
  FaultPlan plan;
  plan.nodes[1].fail_stop_at_s = 0.0;  // dies at its first admission
  FaultInjector inj(plan);
  cluster.set_fault(&inj);

  std::vector<std::vector<std::uint32_t>> queues(2);
  for (std::uint32_t i = 0; i < 10; ++i) queues[0].push_back(i);
  for (std::uint32_t i = 10; i < 20; ++i) queues[1].push_back(i);
  runtime::ExecutorOptions opts;
  opts.chunk_records = 4;
  opts.fault = &inj;
  runtime::PhaseExecutor executor(
      cluster, queues,
      [](cluster::NodeContext& ctx, std::span<const std::uint32_t> indices) {
        ctx.meter().add(100.0 * static_cast<double>(indices.size()));
      },
      opts);
  std::size_t rescued = 0;
  executor.set_checkpoint([&](std::uint32_t node) {
    const double now = executor.node_time(node);
    for (std::uint32_t d = 0; d < 2; ++d) {
      if (d == node || executor.remaining(d) == 0) continue;
      if (now - executor.heartbeat(d) <=
          executor.heartbeat_timeout(node)) {
        continue;
      }
      const std::vector<std::uint32_t> orphans = executor.take_all(d);
      rescued += orphans.size();
      executor.give(node, orphans);
    }
  });
  const runtime::ExecutorReport report = executor.run();
  EXPECT_EQ(report.unprocessed, 0u);
  EXPECT_EQ(rescued, 10u);
  EXPECT_EQ(report.per_node[1].records_done, 0u);
  EXPECT_EQ(report.per_node[0].records_done, 20u);
}

// ---- runtime node-loss degraded mode ---------------------------------------

/// Linear-cost workload (same shape as the runtime tests' helper): the
/// estimator's fit is exact, so faults are the only surprise.
class LinearWorkload final : public core::Workload {
 public:
  [[nodiscard]] std::string name() const override { return "linear"; }
  [[nodiscard]] partition::Layout preferred_layout() const override {
    return partition::Layout::kRepresentative;
  }
  void reset(std::size_t, std::uint32_t) override {}
  void run(cluster::NodeContext& ctx, const data::Dataset&,
           std::span<const std::uint32_t> indices) override {
    ctx.meter().add(500.0 * static_cast<double>(indices.size()));
  }
};

data::Dataset small_corpus(std::size_t docs = 400, std::uint64_t seed = 7) {
  data::TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.seed = seed;
  return data::generate_text_corpus(cfg, "corpus");
}

runtime::JobSpec fast_spec() {
  runtime::JobSpec spec;
  spec.sampling.min_records = 20;
  spec.sampling.steps = 3;
  spec.kmodes.num_strata = 8;
  spec.kmodes.max_iterations = 4;
  spec.sketch.num_hashes = 16;
  return spec;
}

runtime::JobSummary run_job(const data::Dataset& dataset, const FaultPlan* plan,
                            std::string* trace_and_summary = nullptr,
                            runtime::JobSpec spec = fast_spec()) {
  cluster::Cluster cluster(cluster::standard_cluster(4));
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  std::unique_ptr<FaultInjector> inj;
  if (plan != nullptr) {
    inj = std::make_unique<FaultInjector>(*plan);
    cluster.set_fault(inj.get());
  }
  LinearWorkload workload;
  runtime::JobRuntime rt(cluster, energy, std::move(spec));
  const runtime::JobSummary summary = rt.run(dataset, workload);
  if (trace_and_summary != nullptr) {
    *trace_and_summary =
        rt.trace().chrome_trace_json() + "\n" + summary_json(summary);
  }
  return summary;
}

TEST(NodeLoss, SingleFailStopCompletesDegradedWithZeroLostRecords) {
  const data::Dataset dataset = small_corpus();
  FaultPlan plan;
  plan.nodes[3].fail_stop_at_s = 0.0;  // node 3 never runs a chunk
  const runtime::JobSummary summary = run_job(dataset, &plan);
  EXPECT_TRUE(summary.degraded);
  ASSERT_EQ(summary.nodes_lost, (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(summary.node_loss_replans, 1u);
  EXPECT_GT(summary.replanned_records, 0u);
  EXPECT_GT(summary.replanned_bytes, 0.0);
  EXPECT_EQ(summary.processed[3], 0u);
  EXPECT_EQ(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            dataset.size());
}

TEST(NodeLoss, MidRunFailStopKeepsCompletedWorkAndConserves) {
  const data::Dataset dataset = small_corpus();
  // Let node 3 finish part of its partition first, then die.
  const runtime::JobSummary clean = run_job(dataset, nullptr);
  FaultPlan plan;
  plan.nodes[3].fail_stop_at_s = clean.makespan_s * 0.3;
  const runtime::JobSummary summary = run_job(dataset, &plan);
  EXPECT_TRUE(summary.degraded);
  ASSERT_EQ(summary.nodes_lost, (std::vector<std::uint32_t>{3}));
  EXPECT_GT(summary.processed[3], 0u);  // pre-failure chunks kept
  EXPECT_EQ(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            dataset.size());
  // Strictly better than detecting the loss and restarting the whole job
  // on the degraded cluster: a restart pays the failure time AND a full
  // run with node 3 gone from the outset.
  FaultPlan from_start = plan;
  from_start.nodes[3].fail_stop_at_s = 0.0;
  const runtime::JobSummary rerun = run_job(dataset, &from_start);
  EXPECT_LT(summary.makespan_s,
            plan.nodes[3].fail_stop_at_s + rerun.makespan_s);
}

TEST(NodeLoss, TwoFailStopsStillConserveEveryRecord) {
  const data::Dataset dataset = small_corpus();
  FaultPlan plan;
  plan.nodes[2].fail_stop_at_s = 0.0;
  plan.nodes[3].fail_stop_at_s = 0.0;
  const runtime::JobSummary summary = run_job(dataset, &plan);
  EXPECT_TRUE(summary.degraded);
  EXPECT_EQ(summary.nodes_lost.size(), 2u);
  EXPECT_EQ(summary.node_loss_replans, 2u);
  EXPECT_EQ(summary.processed[2] + summary.processed[3], 0u);
  EXPECT_EQ(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            dataset.size());
}

TEST(NodeLoss, MasterFailStopReportsDataUnavailableInsteadOfThrowing) {
  const data::Dataset dataset = small_corpus(200);
  FaultPlan plan;
  plan.nodes[0].fail_stop_at_s = 0.0;  // node 0 is the data master
  // Unreplicated master loss used to throw mid-run; it now finishes the
  // survivors' work and reports the typed outcome.
  const runtime::JobSummary summary = run_job(dataset, &plan);
  EXPECT_EQ(summary.status, runtime::JobStatus::kDataUnavailable);
  EXPECT_TRUE(summary.degraded);
  ASSERT_EQ(summary.nodes_lost, (std::vector<std::uint32_t>{0}));
  // The master's queued records are gone — strictly fewer processed
  // than ingested, which is exactly what the status encodes.
  EXPECT_LT(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            dataset.size());
}

TEST(NodeLoss, MasterFailStopWithReplicationLosesNothing) {
  const data::Dataset dataset = small_corpus(200);
  FaultPlan plan;
  plan.nodes[0].fail_stop_at_s = 0.0;  // node 0 is the data master
  runtime::JobSpec spec = fast_spec();
  spec.replication = 2;
  const runtime::JobSummary summary =
      run_job(dataset, &plan, nullptr, spec);
  EXPECT_EQ(summary.status, runtime::JobStatus::kDegraded);
  ASSERT_EQ(summary.nodes_lost, (std::vector<std::uint32_t>{0}));
  EXPECT_GE(summary.elections, 1u);
  EXPECT_GT(summary.replica_rescued_records, 0u);
  EXPECT_EQ(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            dataset.size());
}

TEST(NodeLoss, DegradedRunIsByteIdenticalForTheSameSeedAndPlan) {
  const data::Dataset dataset = small_corpus(300);
  FaultPlan plan;
  plan.seed = 5;
  plan.nodes[3].fail_stop_at_s = 0.0;
  plan.net.drop_prob = 0.01;
  plan.stores[2].error_prob = 0.01;
  std::string a;
  std::string b;
  (void)run_job(dataset, &plan, &a);
  (void)run_job(dataset, &plan, &b);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(NodeLoss, EmptyPlanMatchesNoInjectorByteForByte) {
  const data::Dataset dataset = small_corpus(300);
  const FaultPlan empty;
  std::string without;
  std::string with;
  (void)run_job(dataset, nullptr, &without);
  (void)run_job(dataset, &empty, &with);
  EXPECT_EQ(without, with);
}

TEST(FaultyFabricJob, RetriesAreAccountedInTheSummary) {
  const data::Dataset dataset = small_corpus(300);
  // Pipelining collapses a whole batch into ONE fault draw, so the
  // error rate must be high enough that some batch somewhere fails
  // (retriable error replies — never applied, so always safe).
  FaultPlan plan;
  plan.stores[1].error_prob = 0.2;
  plan.stores[2].error_prob = 0.2;
  plan.stores[3].error_prob = 0.2;
  const runtime::JobSummary summary = run_job(dataset, &plan);
  EXPECT_GT(summary.kv_retries, 0u);
  EXPECT_EQ(summary.kv_failures, 0u);
  EXPECT_FALSE(summary.degraded);
  EXPECT_EQ(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            dataset.size());
}

// ---- byzantine store/net faults through the phase DAG ----------------------

TEST(ByzantineJob, StoreErrorDuringIngestReportsDataUnavailable) {
  const data::Dataset dataset = small_corpus();
  // The master's store rejects every interaction. Without replication
  // there is nowhere else to put the data: ingest exhausts its phase
  // attempts and the job finishes with a typed status — no exception
  // escapes JobRuntime::run.
  FaultPlan plan;
  plan.stores[0].error_prob = 1.0;
  runtime::JobSummary summary;
  EXPECT_NO_THROW(summary = run_job(dataset, &plan));
  EXPECT_EQ(summary.status, runtime::JobStatus::kDataUnavailable);
  EXPECT_EQ(summary.failed_phase, "ingest");
  EXPECT_FALSE(summary.failure_detail.empty());
  EXPECT_GT(summary.phase_retries, 0u);
  // The summary is still clean and serializable: nothing was processed,
  // nothing pretends to have been.
  EXPECT_EQ(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            0u);
  EXPECT_FALSE(summary_json(summary).empty());
}

TEST(ByzantineJob, StoreStallWithReplicationServesFromReplicas) {
  const data::Dataset dataset = small_corpus();
  // Every op on the master's store stalls past the attempt timeout:
  // the canonical list never completes, but replicated writes acked on
  // the survivors let the partition phase re-pull every shard through
  // the replica walk. Degraded, with zero records lost.
  FaultPlan plan;
  plan.stores[0].stall_prob = 1.0;
  plan.stores[0].stall_s = 1.0;
  runtime::JobSpec spec = fast_spec();
  spec.replication = 2;
  runtime::JobSummary summary;
  EXPECT_NO_THROW(summary = run_job(dataset, &plan, nullptr, spec));
  EXPECT_EQ(summary.status, runtime::JobStatus::kDegraded);
  EXPECT_GT(summary.replica_rescued_records, 0u);
  EXPECT_EQ(summary.records_dropped, 0u);
  EXPECT_EQ(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            dataset.size());
}

TEST(ByzantineJob, HealingPartitionLetsAPhaseRetrySucceed) {
  const data::Dataset dataset = small_corpus();
  // The 0<->2 link is severed from the first trip and heals after a
  // window sized to outlast the kv client's in-attempt retries — the
  // PHASE has to fail once and come back before traffic flows again.
  FaultPlan plan;
  plan.partitions.push_back({0, 2, 0, 10});
  runtime::JobSummary summary;
  EXPECT_NO_THROW(summary = run_job(dataset, &plan));
  EXPECT_GT(summary.phase_retries, 0u);
  EXPECT_EQ(summary.status, runtime::JobStatus::kOk);
  EXPECT_EQ(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            dataset.size());
}

TEST(ByzantineJob, DegradedStoreFaultTracesAreByteIdentical) {
  const data::Dataset dataset = small_corpus();
  FaultPlan plan;
  plan.seed = 9;
  plan.stores[0].stall_prob = 1.0;
  plan.stores[0].stall_s = 1.0;
  plan.net.drop_prob = 0.01;
  runtime::JobSpec spec = fast_spec();
  spec.replication = 2;
  std::string a;
  std::string b;
  const runtime::JobSummary first = run_job(dataset, &plan, &a, spec);
  (void)run_job(dataset, &plan, &b, spec);
  EXPECT_EQ(first.status, runtime::JobStatus::kDegraded);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// ---- no-work-lost invariant (death tests) ----------------------------------

using NoWorkLostDeathTest = ::testing::Test;

TEST(NoWorkLostDeathTest, FiresWhenProcessedRecordsGoMissing) {
  runtime::JobSummary summary;
  summary.records = 10;
  summary.processed = {4, 5};  // one record vanished
  EXPECT_DEATH(runtime::verify_no_work_lost(summary),
               "HETSIM CHECK failed: processed == summary.records");
}

TEST(NoWorkLostDeathTest, PassesWhenEveryRecordIsAccountedFor) {
  runtime::JobSummary summary;
  summary.records = 10;
  summary.processed = {4, 6};
  runtime::verify_no_work_lost(summary);  // must not abort
}

}  // namespace
}  // namespace hetsim
