// Pipelined client to a (possibly remote) Store, charging simulated
// network time through net::Fabric.
//
// Mirrors the hiredis usage pattern in the paper: a client either issues
// a command immediately (one round trip) or appends it to a pipeline that
// is flushed when it reaches the configured width — one round trip for
// the whole batch (section IV: "requests are batched up to the preset
// pipeline width and then sent out").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "kvstore/store.h"
#include "net/fabric.h"

namespace hetsim::common {
struct JsonValue;
}  // namespace hetsim::common

namespace hetsim::fault {
class FaultInjector;
}  // namespace hetsim::fault

namespace hetsim::kvstore {

enum class CommandType : std::uint8_t {
  kSet,
  kGet,
  kDel,
  kRPush,
  kLRange,
  kLLen,
  kLIndex,
};

struct Command {
  CommandType type{};
  std::string key;
  std::string value;       // kSet / kRPush payload
  std::int64_t arg0 = 0;   // kLRange start, kLIndex index
  std::int64_t arg1 = 0;   // kLRange stop
};

/// Transport-level outcome of an operation, orthogonal to Reply::ok
/// (which is protocol-level: key found / applied). Anything but kOk
/// means the operation's reply never reached the caller.
enum class Status : std::uint8_t {
  kOk = 0,
  /// Server answered with an error reply; the command was NOT applied,
  /// so a retry is always safe.
  kError,
  /// No reply within the attempt timeout. Ambiguous: the command may or
  /// may not have been applied, so only idempotent commands are retried.
  kTimeout,
  /// Retries exhausted (attempt cap or deadline) without a reply.
  kUnavailable,
};

[[nodiscard]] std::string_view status_name(Status s);

/// The more severe of two transport statuses, for aggregating a fan-out
/// (replicated write) into one outcome: kOk < kError < kTimeout <
/// kUnavailable.
[[nodiscard]] Status worse_status(Status a, Status b);

/// True when re-applying the command cannot change the outcome beyond
/// the first application (reads, kSet, kDel). kRPush appends, so a
/// retry after an ambiguous loss could double-apply it.
[[nodiscard]] bool idempotent(CommandType type);

struct Reply {
  bool ok = false;                 // key found / operation applied
  std::string blob;                // kGet / kLIndex
  std::vector<std::string> list;   // kLRange
  std::int64_t integer = 0;        // kLLen / kRPush
  Status status = Status::kOk;     // transport outcome
};

/// Client-side failure handling: per-attempt timeout, capped exponential
/// backoff with deterministic seeded jitter, an overall deadline and an
/// attempt cap. Defaults are tuned for the simulated fabric's 100 us
/// links: a stalled store (stall_s >= attempt_timeout_s) reads as a
/// timeout rather than wedging the job.
struct RetryPolicy {
  std::size_t max_attempts = 4;
  double base_backoff_s = 2e-3;
  double max_backoff_s = 0.25;
  double attempt_timeout_s = 0.1;
  double deadline_s = 2.0;
  std::uint64_t jitter_seed = 9177;

  /// Throws common::ConfigError when any knob is out of range (same
  /// checks the Client constructor applies).
  void validate() const;

  /// Parse from a JSON object / JSON text. Absent keys keep their
  /// defaults; unknown keys and an empty object are rejected (typos
  /// fail loudly, like fault::FaultPlan::from_json). Throws
  /// common::ConfigError on malformed input.
  [[nodiscard]] static RetryPolicy from_json(const common::JsonValue& doc);
  [[nodiscard]] static RetryPolicy from_json_text(std::string_view text);
};

/// Thrown by expect_ok() and the typed convenience wrappers when an
/// operation's transport status is not kOk.
class UnavailableError : public common::Error {
 public:
  using common::Error::Error;
};

/// Pass-through status check: returns the reply (or batch) unchanged
/// when every status is kOk, throws UnavailableError otherwise. Raw
/// execute()/drain() call sites must either inspect Reply::status or
/// wrap the call in expect_ok (enforced by hetsim_analyze status-flow).
/// Deliberately not [[nodiscard]]: a bare `expect_ok(c.drain());` is the
/// idiom for "I only care that it succeeded".
Reply expect_ok(Reply reply);
std::vector<Reply> expect_ok(std::vector<Reply> replies);

/// A connection from host `self` to the store hosted on `target`.
class Client {
 public:
  /// `pipeline_width` caps the number of queued commands before an
  /// automatic flush (must be >= 1). `fault` (nullable, not owned) makes
  /// round trips fallible; `retry` governs the recovery loop.
  Client(net::Fabric& fabric, net::HostId self, net::HostId target,
         Store& store, std::size_t pipeline_width = 64,
         fault::FaultInjector* fault = nullptr, RetryPolicy retry = {});

  // ---- immediate (one round trip each) -------------------------------
  /// Executes with retries when faults are active; check Reply::status
  /// (or wrap in expect_ok) — a non-kOk reply carries no payload.
  [[nodiscard]] Reply execute(const Command& cmd);
  /// Deadline-budgeted execute: retries stop once `budget_s` simulated
  /// seconds have been consumed by this call, so a nested retry loop
  /// (ha::Client fan-out, runtime ingest) respects its caller's
  /// remaining budget instead of the fixed policy deadline. The
  /// effective wall is min(budget_s, retry.deadline_s); a non-positive
  /// budget fails immediately with kUnavailable at zero cost.
  [[nodiscard]] Reply execute(const Command& cmd, double budget_s);

  /// Typed SET: checks status internally and throws UnavailableError
  /// when the operation ultimately failed.
  void set(std::string_view key, std::string_view value);

  // ---- pipelined ------------------------------------------------------
  /// Queue a command; auto-flushes when the pipeline is full. Replies for
  /// auto-flushed commands are appended to the pending reply buffer.
  void enqueue(Command cmd);
  /// Flush the queue; returns replies for ALL commands enqueued since the
  /// last drain (including auto-flushed ones), in order. Under faults a
  /// failed batch yields one reply per command with the failure status.
  [[nodiscard]] std::vector<Reply> drain();
  /// Deadline-budgeted drain: the final flush respects `budget_s` like
  /// execute(cmd, budget_s). Replies already buffered by auto-flushes
  /// are returned regardless.
  [[nodiscard]] std::vector<Reply> drain(double budget_s);

  /// Simulated seconds consumed by this client's traffic so far.
  [[nodiscard]] double consumed_time() const noexcept { return sim_time_; }
  void reset_time() noexcept { sim_time_ = 0.0; }

  [[nodiscard]] net::HostId self() const noexcept { return self_; }
  [[nodiscard]] net::HostId target() const noexcept { return target_; }

  [[nodiscard]] const RetryPolicy& retry_policy() const noexcept {
    return retry_;
  }

 private:
  [[nodiscard]] static std::size_t request_bytes(const Command& cmd);
  [[nodiscard]] static std::size_t response_bytes(const Command& cmd,
                                                  const Reply& reply);
  [[nodiscard]] bool faults_active() const noexcept;
  /// The client's one round trip: `cmds` go out as a single pipelined
  /// batch and `out` (same length) receives one reply per command.
  /// execute() is a batch of one over a stack slot; flush_queue() sends
  /// queue_. Without faults the batch is applied and charged once. With
  /// faults each attempt draws the injector once for the link and once
  /// for the store; a fail-stopped store skips both draws and counts as
  /// a lost request. Failures retry under retry_ within `deadline_s`,
  /// and a failed batch fails as a unit.
  void round_trip(std::span<const Command> cmds, double deadline_s,
                  std::span<Reply> out);
  void flush_queue(double deadline_s);
  /// Backoff before retry number `retry` (1-based), jittered.
  [[nodiscard]] double backoff_s(std::size_t retry);

  net::Fabric& fabric_;
  net::HostId self_;
  net::HostId target_;
  Store& store_;
  std::size_t pipeline_width_;
  fault::FaultInjector* fault_;
  RetryPolicy retry_;
  common::Rng jitter_rng_;
  std::vector<Command> queue_;
  std::vector<Reply> pending_replies_;
  double sim_time_ = 0.0;
};

}  // namespace hetsim::kvstore
