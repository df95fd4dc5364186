#include "kvstore/client.h"

#include <algorithm>

#include "common/error.h"
#include "fault/fault.h"
#include "kvstore/resp.h"

namespace hetsim::kvstore {

namespace {

// The RESP2 error replies a store answers for an injected fault; their
// lengths price the reply's bytes on the simulated wire.
constexpr std::string_view kInjectedErrorReply = "-ERR FAULT injected error\r\n";
constexpr std::string_view kStoreDownReply = "-ERR FAULT store down\r\n";

/// Execute a command against a store, producing its reply.
Reply apply_command(Store& store, const Command& cmd) {
  Reply r;
  switch (cmd.type) {
    case CommandType::kSet:
      store.set(cmd.key, cmd.value);
      r.ok = true;
      break;
    case CommandType::kGet: {
      auto v = store.get(cmd.key);
      r.ok = v.has_value();
      if (v) r.blob = std::move(*v);
      break;
    }
    case CommandType::kDel:
      r.ok = store.del(cmd.key);
      break;
    case CommandType::kRPush:
      r.integer = static_cast<std::int64_t>(store.rpush(cmd.key, cmd.value));
      r.ok = true;
      break;
    case CommandType::kLRange:
      r.list = store.lrange(cmd.key, cmd.arg0, cmd.arg1);
      r.ok = true;
      break;
    case CommandType::kLLen:
      r.integer = static_cast<std::int64_t>(store.llen(cmd.key));
      r.ok = true;
      break;
    case CommandType::kLIndex: {
      auto v = store.lindex(cmd.key, cmd.arg0);
      r.ok = v.has_value();
      if (v) r.blob = std::move(*v);
      break;
    }
  }
  return r;
}

}  // namespace

std::string_view status_name(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kError:
      return "error";
    case Status::kTimeout:
      return "timeout";
    case Status::kUnavailable:
      return "unavailable";
  }
  return "?";
}

Status worse_status(Status a, Status b) {
  return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b) ? a : b;
}

bool idempotent(CommandType type) {
  switch (type) {
    case CommandType::kSet:
    case CommandType::kGet:
    case CommandType::kDel:
    case CommandType::kLRange:
    case CommandType::kLLen:
    case CommandType::kLIndex:
      return true;
    case CommandType::kRPush:
      return false;
  }
  return false;
}

Reply expect_ok(Reply reply) {
  if (reply.status != Status::kOk) {
    throw UnavailableError(std::string("kvstore operation failed: status=") +
                           std::string(status_name(reply.status)));
  }
  return reply;
}

std::vector<Reply> expect_ok(std::vector<Reply> replies) {
  for (const Reply& r : replies) {
    if (r.status != Status::kOk) {
      throw UnavailableError(
          std::string("kvstore batch operation failed: status=") +
          std::string(status_name(r.status)));
    }
  }
  return replies;
}

Client::Client(net::Fabric& fabric, net::HostId self, net::HostId target,
               Store& store, std::size_t pipeline_width,
               fault::FaultInjector* fault, RetryPolicy retry)
    : fabric_(fabric),
      self_(self),
      target_(target),
      store_(store),
      pipeline_width_(pipeline_width),
      fault_(fault),
      retry_(retry),
      jitter_rng_(retry.jitter_seed ^
                  (static_cast<std::uint64_t>(self) << 32U) ^ target) {
  common::require<common::ConfigError>(pipeline_width >= 1,
                                       "Client: pipeline width must be >= 1");
  retry_.validate();
}

bool Client::faults_active() const noexcept {
  return fault_ != nullptr && fault_->enabled();
}

double Client::backoff_s(std::size_t retry) {
  double wait = retry_.base_backoff_s;
  for (std::size_t i = 1; i < retry && wait < retry_.max_backoff_s; ++i) {
    wait *= 2.0;
  }
  wait = std::min(wait, retry_.max_backoff_s);
  // Deterministic jitter in [1.0, 1.5): de-synchronizes retry storms
  // without breaking reproducibility (seeded per client).
  return wait * (1.0 + 0.5 * jitter_rng_.uniform());
}

std::size_t Client::request_bytes(const Command& cmd) {
  // Exact RESP2 wire size (what hiredis would put on the socket).
  return resp::command_wire_size(cmd);
}

std::size_t Client::response_bytes(const Command& cmd, const Reply& reply) {
  return resp::reply_wire_size(cmd.type, reply);
}

Reply Client::execute(const Command& cmd) {
  return execute(cmd, retry_.deadline_s);
}

Reply Client::execute(const Command& cmd, double budget_s) {
  Reply reply;
  round_trip({&cmd, 1}, std::min(budget_s, retry_.deadline_s), {&reply, 1});
  return reply;
}

void Client::round_trip(std::span<const Command> cmds, double deadline_s,
                        std::span<Reply> out) {
  const auto fail = [&](Status status) {
    for (Reply& r : out) r = Reply{.status = status};
    fabric_.note_failure();
  };
  if (deadline_s <= 0.0) {
    // Caller's budget already spent: fail without touching the wire so
    // the exhausted deadline is not overdrawn.
    fail(Status::kUnavailable);
    return;
  }
  const std::size_t n = cmds.size();
  const bool down = store_.is_down();
  if (!down && !faults_active()) {
    // Fault-free fast path: unchanged arithmetic, so runs without an
    // injector (or with an empty plan) stay byte-identical to the
    // pre-fault-injection simulator.
    std::size_t req = 0;
    std::size_t rsp = 0;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = apply_command(store_, cmds[i]);
      req += request_bytes(cmds[i]);
      rsp += response_bytes(cmds[i], out[i]);
    }
    sim_time_ += fabric_.exchange_cost(self_, target_, req, rsp);
    fabric_.record(self_, target_, n, /*round_trips=*/1, req + rsp);
    return;
  }
  // A batch is ONE round trip (that is the point of pipelining), so it
  // gets one network draw and one store-interaction draw per attempt,
  // and fails or succeeds as a unit.
  bool batch_idempotent = true;
  std::size_t req = 0;
  for (const Command& cmd : cmds) {
    batch_idempotent = batch_idempotent && idempotent(cmd.type);
    req += request_bytes(cmd);
  }
  // The server applied the batch but the client never sees the reply,
  // so its status is unobservable by design.
  const auto apply_unobserved = [&] {
    for (const Command& cmd : cmds) {
      (void)apply_command(store_, cmd);  // hetsim-analyze: allow(status-flow)
    }
  };
  double elapsed = 0.0;
  for (std::size_t attempt = 1;; ++attempt) {
    fabric_.note_attempt();
    // Lost request or reply: the client waits out the full attempt
    // timeout for a reply that never comes, and only the request's
    // bytes ever hit the wire. A fail-stopped store is exactly this arm,
    // chosen before any injector draw: it never answers and never
    // applies (no zombie acks from a crashed replica).
    Status last = Status::kTimeout;
    double cost = retry_.attempt_timeout_s;
    std::size_t rsp = 0;
    if (!down) {
      const fault::RoundTripFault net = fault_->on_round_trip(self_, target_);
      if (net.partitioned || net.dropped) {
        // A reply lost in flight: the request reached the server.
        if (net.dropped && !net.request_lost) apply_unobserved();
      } else {
        const fault::StoreFault sf = fault_->on_store_op(target_);
        if (sf == fault::StoreFault::kError || sf == fault::StoreFault::kDown) {
          rsp = sf == fault::StoreFault::kDown ? kStoreDownReply.size()
                                               : kInjectedErrorReply.size();
          cost = fabric_.exchange_cost(self_, target_, req, rsp) +
                 net.extra_latency_s;
          last = Status::kError;
        } else {
          const double stall = sf == fault::StoreFault::kStall
                                   ? fault_->stall_seconds(target_)
                                   : 0.0;
          if (stall >= retry_.attempt_timeout_s) {
            // The reply arrives after the client gave up: a lost reply.
            apply_unobserved();
          } else {
            for (std::size_t i = 0; i < n; ++i) {
              out[i] = apply_command(store_, cmds[i]);
              rsp += response_bytes(cmds[i], out[i]);
            }
            sim_time_ += fabric_.exchange_cost(self_, target_, req, rsp) +
                         net.extra_latency_s + stall;
            fabric_.record(self_, target_, n, 1, req + rsp);
            return;
          }
        }
      }
    }
    sim_time_ += cost;
    elapsed += cost;
    fabric_.record(self_, target_, n, 1, req + rsp);
    // A timeout is ambiguous — the batch may have been applied — so one
    // holding a non-idempotent command must not be retried (double-apply
    // risk).
    if (last == Status::kTimeout && !batch_idempotent) {
      fabric_.note_timeout();
      fail(Status::kTimeout);
      return;
    }
    if (attempt >= retry_.max_attempts || elapsed >= deadline_s) {
      if (last == Status::kTimeout) fabric_.note_timeout();
      fail(Status::kUnavailable);
      return;
    }
    fabric_.note_retry();
    const double wait = backoff_s(attempt);
    sim_time_ += wait;
    elapsed += wait;
  }
}

void Client::set(std::string_view key, std::string_view value) {
  expect_ok(execute({.type = CommandType::kSet,
                     .key = std::string(key),
                     .value = std::string(value)}));
}

void Client::enqueue(Command cmd) {
  queue_.push_back(std::move(cmd));
  if (queue_.size() >= pipeline_width_) flush_queue(retry_.deadline_s);
}

void Client::flush_queue(double deadline_s) {
  if (queue_.empty()) return;
  const std::size_t first = pending_replies_.size();
  pending_replies_.resize(first + queue_.size());
  round_trip(queue_, deadline_s, std::span(pending_replies_).subspan(first));
  queue_.clear();
}

std::vector<Reply> Client::drain() { return drain(retry_.deadline_s); }

std::vector<Reply> Client::drain(double budget_s) {
  flush_queue(std::min(budget_s, retry_.deadline_s));
  std::vector<Reply> out = std::move(pending_replies_);
  pending_replies_.clear();
  return out;
}

}  // namespace hetsim::kvstore
