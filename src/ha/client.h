// Replicated key-value client: one logical put/get over k physical
// kvstore::Clients, routed by a ShardRouter.
//
// Writes fan out to every live replica of the key (element 0 of the
// route is the acting primary). The logical write succeeds when at
// least one replica acknowledged; replicas that failed are counted in
// the router's write_failures and are not retried later.
// Reads walk the key's live preference order and fall back to the next
// replica whenever the current one cannot answer — transport failure
// (kError / kTimeout / kUnavailable) or a missing key (a replica that
// missed the write).
//
// The client does not own connections: a ClientProvider maps a HostId
// to the per-target kvstore::Client to use, so the same code runs over
// cluster::NodeContext connections inside the runtime and over a
// self-contained NodeGroup in tests. All per-replica retry/backoff
// stays inside kvstore::Client; this layer only sequences replicas.
//
// Deadline budget: one logical op gets ONE deadline (the connection
// policy's deadline_s), shared across its whole replica sequence — each
// replica op is charged against the remaining budget (via the budgeted
// kvstore::Client::execute overload), and replicas whose turn comes
// after the budget is spent are counted as `expired` instead of
// silently burning another full per-replica deadline. Every per-replica
// outcome is also reported to the router's circuit breaker
// (note_op_outcome), which sheds flapping replicas from future routes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ha/router.h"
#include "kvstore/client.h"

namespace hetsim::ha {

/// Maps a replica HostId to the connection to use for it.
using ClientProvider = std::function<kvstore::Client&(HostId)>;

/// Observes every replica write that was acknowledged (status kOk), in
/// issue order. The chaos churn victim hooks this to record which
/// replicas acked each key.
using WriteObserver =
    std::function<void(HostId target, const kvstore::Command& cmd)>;

/// True when a read served with transport status `s` should be retried
/// on the next replica. Everything but kOk qualifies: kError replies
/// were not applied, kTimeout/kUnavailable never answered.
[[nodiscard]] bool should_fall_back(kvstore::Status s);

/// Aggregated outcome of a replicated write.
///
/// Replica conservation: every replica the router returned is accounted
/// for exactly once — `attempted + expired == routed` — which is one of
/// the chaos harness's global invariants (a silently skipped replica is
/// how under-replication bugs hide).
struct WriteResult {
  /// kOk when >= 1 replica acked; otherwise the least severe failure
  /// observed (the closest the write came to landing).
  kvstore::Status status = kvstore::Status::kUnavailable;
  std::size_t acked = 0;      // replicas that returned kOk
  std::size_t attempted = 0;  // replicas the write was actually sent to
  std::size_t routed = 0;     // replicas the router returned for the key
  /// Replicas skipped because the fan-out's deadline budget was already
  /// exhausted when their turn came.
  std::size_t expired = 0;
};

/// Outcome of a replicated read.
struct ReadResult {
  kvstore::Reply reply;
  HostId served_by = 0;
  /// True when a non-primary replica answered.
  bool fallback = false;
};

class Client {
 public:
  Client(ShardRouter& router, ClientProvider provider,
         WriteObserver observer = nullptr);

  // ---- single-key -----------------------------------------------------
  WriteResult put(std::string_view key, std::string_view value);
  [[nodiscard]] ReadResult get(std::string_view key);

  // ---- batched --------------------------------------------------------
  /// Pipelined replicated kSet of all pairs: commands are grouped per
  /// replica target and drained in one batch per target (ascending
  /// HostId, so fabric charging is deterministic). Returns one
  /// WriteResult per input pair, in order.
  std::vector<WriteResult> put_many(
      const std::vector<std::pair<std::string, std::string>>& pairs);

  /// Pipelined replicated kGet: keys are batched to their acting
  /// primaries first; misses and failures retry individually down the
  /// preference order. One ReadResult per key, in order.
  [[nodiscard]] std::vector<ReadResult> get_many(
      const std::vector<std::string>& keys);

  [[nodiscard]] ShardRouter& router() noexcept { return router_; }

 private:
  /// The budgeted replica step every fan-out and read walk shares:
  /// opens the op's shared `budget` from the first connection's policy
  /// (a negative budget is the not-yet-opened sentinel), sends `cmd` to
  /// `target` within what is left, charges the time it took and reports
  /// the outcome to the breaker. nullopt = budget spent, nothing sent.
  [[nodiscard]] std::optional<kvstore::Reply> budgeted_execute(
      HostId target, const kvstore::Command& cmd, double& budget);
  enum class ReadStep : std::uint8_t { kSpent, kServed, kMissed };
  /// One replica of a read walk: budgeted_execute, recorded into `out`
  /// (served_by, fallback). kServed = found with transport kOk.
  ReadStep read_replica(HostId target, const kvstore::Command& cmd,
                        double& budget, bool fallback, ReadResult& out);
  WriteResult fan_out(std::string_view key, const kvstore::Command& cmd);
  [[nodiscard]] ReadResult read_with_fallback(std::string_view key,
                                              const kvstore::Command& cmd);

  ShardRouter& router_;
  ClientProvider provider_;
  WriteObserver observer_;
};

}  // namespace hetsim::ha
