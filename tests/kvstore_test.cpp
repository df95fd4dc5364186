// Unit tests for the kvstore substrate: store semantics, codec framing,
// pipelined client cost accounting and fail-stopped stores.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "kvstore/client.h"
#include "kvstore/codec.h"
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
  (void)s.incrby("ctr", 1);
  EXPECT_THROW((void)s.lrange("ctr", 0, -1), common::StoreError);
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

TEST(Store, IncrByIsFetchAndAdd) {
  Store s;
  EXPECT_EQ(s.incrby("c", 1), 1);
  EXPECT_EQ(s.incrby("c", 5), 6);
  EXPECT_EQ(s.incrby("c", -2), 4);
  EXPECT_EQ(s.incrby("c", 0), 4);
  EXPECT_EQ(s.incrby("fresh", 0), 0);  // created at 0
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

/// Every record a cursor yields over `blob`, in order.
std::vector<std::string> read_all(std::string_view blob) {
  std::vector<std::string> out;
  RecordCursor cursor{blob};
  while (!cursor.done()) out.emplace_back(cursor.next());
  return out;
}

TEST(Codec, FrameAndUnpackRoundTrip) {
  std::vector<std::string> records{"", "a", "hello world", std::string(1000, 'x')};
  const std::string blob = pack_records(records);
  EXPECT_EQ(read_all(blob), records);
}

TEST(Codec, FrameRecordPrefixesLength) {
  const std::string framed = pack_records(std::vector<std::string>{"abc"});
  ASSERT_EQ(framed.size(), 7u);
  EXPECT_EQ(framed.substr(0, 4), std::string("\x03\x00\x00\x00", 4));
  EXPECT_EQ(framed.substr(4), "abc");
}

TEST(Codec, TruncatedBlobThrows) {
  // Cut a packed blob at every length: the cursor yields the records
  // that fit whole, then throws on the one the cut went through.
  const std::vector<std::string> records{"abcdef", "", "gh"};
  const std::string blob = pack_records(records);
  for (std::size_t cut = 0; cut <= blob.size(); ++cut) {
    if (cut == 0 || cut == 10 || cut == 14 || cut == 20) {  // record ends
      EXPECT_NO_THROW((void)read_all(blob.substr(0, cut))) << "cut " << cut;
    } else {
      EXPECT_THROW((void)read_all(blob.substr(0, cut)), common::StoreError)
          << "cut " << cut;
    }
  }
}

TEST(Codec, CursorOverEmptyBlobIsImmediatelyDone) {
  RecordCursor cursor{std::string_view{}};
  EXPECT_TRUE(cursor.done());
}

TEST(Codec, CursorYieldsZeroLengthRecords) {
  const std::vector<std::string> records{"", "mid", ""};
  const std::string blob = pack_records(records);
  RecordCursor cursor{blob};
  EXPECT_EQ(cursor.next(), "");
  EXPECT_EQ(cursor.next(), "mid");
  EXPECT_EQ(cursor.next(), "");
  EXPECT_TRUE(cursor.done());
}

TEST(Codec, CursorThrowsOnTruncatedLengthPrefix) {
  // Two bytes cannot hold the 4-byte length prefix.
  const std::string blob{"\x05\x00", 2};
  RecordCursor cursor{blob};
  EXPECT_FALSE(cursor.done());
  EXPECT_THROW((void)cursor.next(), common::StoreError);
}

TEST(Codec, CursorThrowsOnTruncatedBody) {
  std::string blob = pack_records(std::vector<std::string>{"abcdef"});
  blob.resize(blob.size() - 2);
  RecordCursor cursor{blob};
  EXPECT_THROW((void)cursor.next(), common::StoreError);
}

TEST(Codec, CursorViewsAliasTheBlob) {
  const std::string blob = pack_records(std::vector<std::string>{"abc", "de"});
  RecordCursor cursor{blob};
  const std::string_view first = cursor.next();
  EXPECT_GE(first.data(), blob.data());
  EXPECT_LE(first.data() + first.size(), blob.data() + blob.size());
}

TEST(Codec, PackCursorUnpackPropertyOnRandomRecords) {
  common::Rng rng(2026);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::string> records(rng.bounded(20));
    for (std::string& r : records) {
      r.resize(rng.bounded(200));
      for (char& c : r) c = static_cast<char>(rng.bounded(256));
    }
    const std::string blob = pack_records(records);
    EXPECT_EQ(read_all(blob), records);
  }
}

TEST(Store, VisitGetObservesValueWithoutCopy) {
  Store s;
  s.set("k", "payload");
  std::string seen;
  EXPECT_TRUE(s.visit_get("k", [&](std::string_view v) { seen = v; }));
  EXPECT_EQ(seen, "payload");
  bool called = false;
  EXPECT_FALSE(s.visit_get("missing", [&](std::string_view) { called = true; }));
  EXPECT_FALSE(called);
}

TEST(Store, VisitGetTypeMismatchThrows) {
  Store s;
  (void)s.rpush("list", "x");
  EXPECT_THROW((void)s.visit_get("list", [](std::string_view) {}),
               common::StoreError);
}

class ClientTest : public ::testing::Test {
 protected:
  net::Fabric fabric_{2};
  Store store_;
};

TEST_F(ClientTest, ImmediateOpsWork) {
  Client c(fabric_, 0, 1, store_);
  c.set("k", "v");
  EXPECT_EQ(c.get("k"), "v");
  EXPECT_EQ(c.get("missing"), std::nullopt);
  const auto run = [&c](Command cmd) { return expect_ok(c.execute(cmd)); };
  EXPECT_EQ(run({.type = CommandType::kRPush, .key = "l", .value = "a"}).integer,
            1);
  EXPECT_EQ(run({.type = CommandType::kLLen, .key = "l"}).integer, 1);
  EXPECT_EQ(run({.type = CommandType::kLRange, .key = "l", .arg0 = 0, .arg1 = -1})
                .list,
            std::vector<std::string>{"a"});
  EXPECT_EQ(run({.type = CommandType::kLIndex, .key = "l", .arg0 = -1}).blob,
            "a");
  EXPECT_EQ(run({.type = CommandType::kIncrBy, .key = "c", .arg0 = 7}).integer,
            7);
  EXPECT_TRUE(run({.type = CommandType::kDel, .key = "k"}).ok);
  EXPECT_FALSE(run({.type = CommandType::kDel, .key = "k"}).ok);
  EXPECT_EQ(c.get("k"), std::nullopt);
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

TEST_F(ClientTest, GetViewChargesExactlyWhatGetWould) {
  store_.set("k", std::string(4096, 'x'));
  Client copying(fabric_, 0, 1, store_);
  (void)copying.get("k");
  Client viewing(fabric_, 0, 1, store_);
  std::size_t seen = 0;
  const Client::ViewResult view =
      viewing.get_view("k", [&](std::string_view v) { seen = v.size(); });
  EXPECT_EQ(view.status, Status::kOk);
  EXPECT_TRUE(view.found);
  EXPECT_EQ(seen, 4096u);
  // Zero-copy is a memory optimization, not a simulated-network one:
  // the charged wire time must match the materializing GET to the bit.
  EXPECT_DOUBLE_EQ(viewing.consumed_time(), copying.consumed_time());
}

TEST_F(ClientTest, GetViewMissingKeyReportsNotFound) {
  Client c(fabric_, 0, 1, store_);
  bool called = false;
  const Client::ViewResult view =
      c.get_view("missing", [&](std::string_view) { called = true; });
  EXPECT_EQ(view.status, Status::kOk);
  EXPECT_FALSE(view.found);
  EXPECT_FALSE(called);
  // The null bulk reply still crosses the simulated wire.
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
  c.enqueue({.type = CommandType::kIncrBy, .key = "n", .arg0 = 3});
  const auto replies = c.drain();
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].blob, "X");
  EXPECT_FALSE(replies[1].ok);
  EXPECT_EQ(replies[2].integer, 3);
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
