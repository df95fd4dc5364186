// Unit tests for the kvstore substrate: store semantics, pipelined
// client cost accounting and fail-stopped stores.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "kvstore/client.h"
#include "kvstore/resp.h"
#include "kvstore/store.h"
#include "net/fabric.h"

namespace hetsim::kvstore {
namespace {

TEST(Store, SetGetRoundTrip) {
  Store s;
  s.set("k", "value");
  EXPECT_EQ(s.get("k"), "value");
  EXPECT_EQ(s.get("missing"), std::nullopt);
}

TEST(Store, OverwriteReplaces) {
  Store s;
  s.set("k", "a");
  s.set("k", "b");
  EXPECT_EQ(s.get("k"), "b");
}

TEST(Store, TypeMismatchThrows) {
  Store s;
  s.set("str", "x");
  EXPECT_THROW((void)s.rpush("str", "y"), common::StoreError);
  (void)s.rpush("list", "y");
  EXPECT_THROW((void)s.get("list"), common::StoreError);
  EXPECT_THROW((void)s.lrange("str", 0, -1), common::StoreError);
}

TEST(Store, RPushGrowsAndLLenCounts) {
  Store s;
  EXPECT_EQ(s.rpush("l", "a"), 1u);
  EXPECT_EQ(s.rpush("l", "b"), 2u);
  EXPECT_EQ(s.llen("l"), 2u);
  EXPECT_EQ(s.llen("nope"), 0u);
}

TEST(Store, LRangeRedisSemantics) {
  Store s;
  for (const char* e : {"a", "b", "c", "d"}) (void)s.rpush("l", e);
  EXPECT_EQ(s.lrange("l", 0, -1), (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_EQ(s.lrange("l", 1, 2), (std::vector<std::string>{"b", "c"}));
  EXPECT_EQ(s.lrange("l", -2, -1), (std::vector<std::string>{"c", "d"}));
  EXPECT_TRUE(s.lrange("l", 3, 1).empty());
  EXPECT_TRUE(s.lrange("l", 10, 20).empty());
  EXPECT_TRUE(s.lrange("missing", 0, -1).empty());
}

TEST(Store, LIndexBothEnds) {
  Store s;
  for (const char* e : {"a", "b", "c"}) (void)s.rpush("l", e);
  EXPECT_EQ(s.lindex("l", 0), "a");
  EXPECT_EQ(s.lindex("l", -1), "c");
  EXPECT_EQ(s.lindex("l", 3), std::nullopt);
  EXPECT_EQ(s.lindex("l", -4), std::nullopt);
}

TEST(Store, DelAndExists) {
  Store s;
  s.set("k", "v");
  EXPECT_EQ(s.keys(), std::vector<std::string>{"k"});
  EXPECT_TRUE(s.del("k"));
  EXPECT_TRUE(s.keys().empty());
  EXPECT_EQ(s.get("k"), std::nullopt);
  EXPECT_FALSE(s.del("k"));
}

TEST(Store, StatsTrackKeysAndBytes) {
  Store s;
  s.set("key", "12345");
  (void)s.rpush("list", "abc");
  const StoreStats st = s.stats();
  EXPECT_EQ(st.keys, 2u);
  EXPECT_EQ(st.bytes, 3 + 5 + 4 + 3u);  // "key"+"12345"+"list"+"abc"
}

class ClientTest : public ::testing::Test {
 protected:
  net::Fabric fabric_{2};
  Store store_;
};

TEST_F(ClientTest, ImmediateOpsWork) {
  Client c(fabric_, 0, 1, store_);
  c.set("k", "v");
  const auto run = [&c](Command cmd) { return expect_ok(c.execute(cmd)); };
  EXPECT_EQ(run({.type = CommandType::kGet, .key = "k"}).blob, "v");
  EXPECT_FALSE(run({.type = CommandType::kGet, .key = "missing"}).ok);
  EXPECT_EQ(run({.type = CommandType::kRPush, .key = "l", .value = "a"}).integer,
            1);
  EXPECT_EQ(run({.type = CommandType::kLLen, .key = "l"}).integer, 1);
  EXPECT_EQ(run({.type = CommandType::kLRange, .key = "l", .arg0 = 0, .arg1 = -1})
                .list,
            std::vector<std::string>{"a"});
  EXPECT_EQ(run({.type = CommandType::kLIndex, .key = "l", .arg0 = -1}).blob,
            "a");
  EXPECT_TRUE(run({.type = CommandType::kDel, .key = "k"}).ok);
  EXPECT_FALSE(run({.type = CommandType::kDel, .key = "k"}).ok);
  EXPECT_FALSE(run({.type = CommandType::kGet, .key = "k"}).ok);
}

TEST_F(ClientTest, EveryImmediateOpCostsARoundTrip) {
  Client c(fabric_, 0, 1, store_);
  c.set("a", "1");
  c.set("b", "2");
  const net::LinkStats st = fabric_.stats(0, 1);
  EXPECT_EQ(st.round_trips, 2u);
  EXPECT_EQ(st.messages, 2u);
  EXPECT_GT(c.consumed_time(), 0.0);
}

TEST_F(ClientTest, PipelineBatchesIntoOneRoundTrip) {
  Client c(fabric_, 0, 1, store_, /*pipeline_width=*/100);
  for (int i = 0; i < 50; ++i) {
    c.enqueue({.type = CommandType::kSet,
               .key = "k" + std::to_string(i),
               .value = "v"});
  }
  const auto replies = c.drain();
  EXPECT_EQ(replies.size(), 50u);
  const net::LinkStats st = fabric_.stats(0, 1);
  EXPECT_EQ(st.round_trips, 1u);
  EXPECT_EQ(st.messages, 50u);
}

TEST_F(ClientTest, DrainedBatchCostsOneExchange) {
  // k pipelined commands pay the link latency once: the whole batch is
  // one exchange of the summed request and reply wire bytes.
  net::Fabric fabric(2, net::LinkSpec{.latency_s = 1e-3, .bandwidth_bps = 1e9});
  Client c(fabric, 0, 1, store_, /*pipeline_width=*/64);
  std::size_t req = 0;
  std::size_t rsp = 0;
  for (int i = 0; i < 10; ++i) {
    const Command cmd{.type = CommandType::kRPush,
                      .key = "l",
                      .value = std::string(100, 'x')};
    req += resp::command_wire_size(cmd);
    c.enqueue(cmd);
  }
  for (const Reply& r : expect_ok(c.drain())) {
    rsp += resp::reply_wire_size(CommandType::kRPush, r);
  }
  EXPECT_DOUBLE_EQ(c.consumed_time(), fabric.exchange_cost(0, 1, req, rsp));
  EXPECT_NEAR(c.consumed_time(), 2e-3 + static_cast<double>(req + rsp) / 1e9,
              1e-12);
  EXPECT_EQ(fabric.stats(0, 1).round_trips, 1u);
  EXPECT_EQ(fabric.stats(0, 1).messages, 10u);
}

TEST_F(ClientTest, DrainingAnEmptyQueueIsFree) {
  Client c(fabric_, 0, 1, store_);
  EXPECT_TRUE(c.drain().empty());
  EXPECT_EQ(c.consumed_time(), 0.0);
  EXPECT_EQ(fabric_.stats(0, 1).round_trips, 0u);
  EXPECT_EQ(fabric_.stats(0, 1).messages, 0u);
}

TEST_F(ClientTest, PipelineAutoFlushesAtWidth) {
  Client c(fabric_, 0, 1, store_, /*pipeline_width=*/10);
  for (int i = 0; i < 25; ++i) {
    c.enqueue({.type = CommandType::kSet,
               .key = "k" + std::to_string(i),
               .value = "v"});
  }
  const auto replies = c.drain();
  EXPECT_EQ(replies.size(), 25u);
  // 10 + 10 auto-flushed, 5 in the final drain.
  EXPECT_EQ(fabric_.stats(0, 1).round_trips, 3u);
}

TEST_F(ClientTest, PipeliningIsCheaperThanImmediate) {
  Client imm(fabric_, 0, 1, store_);
  for (int i = 0; i < 20; ++i) imm.set("a" + std::to_string(i), "v");
  Client pipe(fabric_, 0, 1, store_, 64);
  for (int i = 0; i < 20; ++i) {
    pipe.enqueue({.type = CommandType::kSet,
                  .key = "b" + std::to_string(i),
                  .value = "v"});
  }
  (void)pipe.drain();
  EXPECT_LT(pipe.consumed_time(), imm.consumed_time() / 5.0);
}

TEST_F(ClientTest, PipelinedRepliesPreserveOrder) {
  Client c(fabric_, 0, 1, store_, 4);
  store_.set("x", "X");
  c.enqueue({.type = CommandType::kGet, .key = "x"});
  c.enqueue({.type = CommandType::kGet, .key = "missing"});
  c.enqueue({.type = CommandType::kRPush, .key = "n", .value = "a"});
  const auto replies = c.drain();
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].blob, "X");
  EXPECT_FALSE(replies[1].ok);
  EXPECT_EQ(replies[2].integer, 1);
}

// ---- RetryPolicy JSON ------------------------------------------------------

TEST(RetryPolicyJson, ParsesAllKnobsAndKeepsDefaultsForAbsentOnes) {
  const RetryPolicy full = RetryPolicy::from_json_text(
      R"({"max_attempts": 6, "base_backoff_s": 0.001, "max_backoff_s": 0.5,
          "attempt_timeout_s": 0.05, "deadline_s": 1.5, "jitter_seed": 3})");
  EXPECT_EQ(full.max_attempts, 6u);
  EXPECT_DOUBLE_EQ(full.base_backoff_s, 0.001);
  EXPECT_DOUBLE_EQ(full.max_backoff_s, 0.5);
  EXPECT_DOUBLE_EQ(full.attempt_timeout_s, 0.05);
  EXPECT_DOUBLE_EQ(full.deadline_s, 1.5);
  EXPECT_EQ(full.jitter_seed, 3u);

  const RetryPolicy partial =
      RetryPolicy::from_json_text(R"({"deadline_s": 0.25})");
  EXPECT_DOUBLE_EQ(partial.deadline_s, 0.25);
  EXPECT_EQ(partial.max_attempts, RetryPolicy{}.max_attempts);
  EXPECT_DOUBLE_EQ(partial.attempt_timeout_s, RetryPolicy{}.attempt_timeout_s);
}

TEST(RetryPolicyJson, RejectsUnknownKeysAndEmptyObjects) {
  EXPECT_THROW((void)RetryPolicy::from_json_text(R"({"deadline": 1})"),
               common::ConfigError);
  EXPECT_THROW((void)RetryPolicy::from_json_text(R"({})"),
               common::ConfigError);
  EXPECT_THROW((void)RetryPolicy::from_json_text("[]"), common::ConfigError);
}

TEST(RetryPolicyJson, RejectsOutOfRangeKnobs) {
  EXPECT_THROW((void)RetryPolicy::from_json_text(R"({"max_attempts": 0})"),
               common::ConfigError);
  EXPECT_THROW((void)RetryPolicy::from_json_text(R"({"deadline_s": 0})"),
               common::ConfigError);
  EXPECT_THROW(
      (void)RetryPolicy::from_json_text(R"({"attempt_timeout_s": -1})"),
      common::ConfigError);
  EXPECT_THROW((void)RetryPolicy::from_json_text(R"({"base_backoff_s": -0.1})"),
               common::ConfigError);
  RetryPolicy bad;
  bad.max_attempts = 0;
  EXPECT_THROW(bad.validate(), common::ConfigError);
}

// ---- fail-stop stores and deadline budgets ---------------------------------

TEST_F(ClientTest, FailStoppedStoreTimesOutInsteadOfServing) {
  Client c(fabric_, 0, 1, store_);
  c.set("before", "v");
  store_.fail_stop();
  EXPECT_TRUE(store_.is_down());
  // Idempotent command: retried to exhaustion, never applied.
  const Reply set = c.execute(
      {.type = CommandType::kSet, .key = "after", .value = "v"});
  EXPECT_EQ(set.status, Status::kUnavailable);
  // Non-idempotent command: ambiguous loss, no retry — one timeout.
  const Reply push = c.execute(
      {.type = CommandType::kRPush, .key = "l", .value = "e"});
  EXPECT_EQ(push.status, Status::kTimeout);
  // Nothing leaked through while the store was down; control-plane data
  // survives a fail-stop (the wipe is the HA layer's crash semantics).
  EXPECT_EQ(store_.keys(), std::vector<std::string>{"before"});
  EXPECT_EQ(store_.get("before"), "v");
}

TEST_F(ClientTest, EveryDownStoreAttemptBurnsTheAttemptTimeout) {
  RetryPolicy retry;
  retry.max_attempts = 3;
  Client c(fabric_, 0, 1, store_, 64, nullptr, retry);
  store_.fail_stop();
  const double before = c.consumed_time();
  (void)c.execute({.type = CommandType::kSet, .key = "k", .value = "v"});
  // Three attempts, each a full attempt timeout against the corpse.
  EXPECT_GE(c.consumed_time() - before, 3 * retry.attempt_timeout_s);
}

TEST_F(ClientTest, BudgetedExecuteCapsTheDeadline) {
  RetryPolicy retry;
  retry.max_attempts = 100;
  retry.deadline_s = 2.0;
  retry.attempt_timeout_s = 0.1;
  Client c(fabric_, 0, 1, store_, 64, nullptr, retry);
  store_.fail_stop();
  const Reply r = c.execute(
      {.type = CommandType::kSet, .key = "k", .value = "v"}, /*budget_s=*/0.35);
  EXPECT_EQ(r.status, Status::kUnavailable);
  // The op respected the caller's budget, not the policy's 2 s deadline.
  EXPECT_LT(c.consumed_time(), 0.8);
}

TEST_F(ClientTest, NonPositiveBudgetFailsImmediatelyAtZeroCost) {
  Client c(fabric_, 0, 1, store_);
  const Reply r = c.execute(
      {.type = CommandType::kSet, .key = "k", .value = "v"}, /*budget_s=*/0.0);
  EXPECT_EQ(r.status, Status::kUnavailable);
  EXPECT_DOUBLE_EQ(c.consumed_time(), 0.0);
  EXPECT_EQ(store_.get("k"), std::nullopt);

  c.enqueue({.type = CommandType::kSet, .key = "q", .value = "v"});
  const auto replies = c.drain(/*budget_s=*/-1.0);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].status, Status::kUnavailable);
  EXPECT_TRUE(store_.keys().empty());
}

}  // namespace
}  // namespace hetsim::kvstore
