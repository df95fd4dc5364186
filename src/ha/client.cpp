#include "ha/client.h"

#include <algorithm>
#include <map>
#include <optional>

#include "fault/test_hooks.h"

namespace hetsim::ha {

using kvstore::Command;
using kvstore::CommandType;
using kvstore::Reply;
using kvstore::Status;

bool should_fall_back(Status s) { return s != Status::kOk; }

namespace {

/// Least severe of two statuses — the aggregate failure of a fan-out
/// where nothing acked is the best outcome any replica produced.
Status better_status(Status a, Status b) {
  return kvstore::worse_status(a, b) == a ? b : a;
}

}  // namespace

Client::Client(ShardRouter& router, ClientProvider provider,
               WriteObserver observer)
    : router_(router),
      provider_(std::move(provider)),
      observer_(std::move(observer)) {}

WriteResult Client::fan_out(std::string_view key, const Command& cmd) {
  const bool skip_last = fault::test_hooks().fanout_skip_last_replica;
  const std::vector<HostId> route = router_.route(key);
  WriteResult out;
  out.routed = route.size();
  // One deadline for the whole logical write, shared across replicas:
  // initialized lazily from the first replica connection's policy.
  double budget = -1.0;
  for (std::size_t i = 0; i < route.size(); ++i) {
    const HostId target = route[i];
    if (skip_last && route.size() > 1 && i + 1 == route.size()) {
      // Planted bug (fault::TestHooks): quietly under-replicate by one
      // copy — neither attempted nor expired, breaking conservation.
      continue;
    }
    const std::optional<Reply> reply = budgeted_execute(target, cmd, budget);
    if (!reply) {
      ++out.expired;
      continue;
    }
    ++out.attempted;
    if (reply->status == Status::kOk) {
      ++out.acked;
      if (observer_) observer_(target, cmd);
    }
    out.status = out.acked > 0 ? Status::kOk
                               : better_status(out.status, reply->status);
  }
  router_.note_write(out.attempted - out.acked);
  return out;
}

std::optional<Reply> Client::budgeted_execute(HostId target,
                                              const Command& cmd,
                                              double& budget) {
  kvstore::Client& conn = provider_(target);
  if (budget < 0.0) budget = conn.retry_policy().deadline_s;
  if (budget <= 0.0) return std::nullopt;
  const double before = conn.consumed_time();
  Reply reply = conn.execute(cmd, budget);
  // Clamp at zero: an overdrawn budget must read as exhausted, not as
  // the lazy-init sentinel (which would grant a fresh deadline to the
  // next replica).
  budget = std::max(0.0, budget - (conn.consumed_time() - before));
  router_.note_op_outcome(target, reply.status == Status::kOk);
  return reply;
}

Client::ReadStep Client::read_replica(HostId target, const Command& cmd,
                                      double& budget, bool fallback,
                                      ReadResult& out) {
  std::optional<Reply> reply = budgeted_execute(target, cmd, budget);
  if (!reply) return ReadStep::kSpent;
  out.reply = std::move(*reply);
  out.served_by = target;
  out.fallback = fallback;
  return !should_fall_back(out.reply.status) && out.reply.ok
             ? ReadStep::kServed
             : ReadStep::kMissed;
}

ReadResult Client::read_with_fallback(std::string_view key,
                                      const Command& cmd) {
  ReadResult out;
  ReadStep step = ReadStep::kMissed;
  double budget = -1.0;
  std::vector<HostId> tried;
  for (const HostId target : router_.live_preference(key)) {
    step = read_replica(target, cmd, budget, !tried.empty(), out);
    if (step == ReadStep::kSpent) break;
    tried.push_back(target);
    if (step == ReadStep::kServed) break;
  }
  if (step != ReadStep::kServed) {
    // Last resort: replicas the breaker shed out of the walk. A key
    // whose only surviving copy sits on a flapping node must still be
    // readable — shedding sheds load, not data.
    for (const HostId target :
         router_.live_preference(key, /*ignore_breaker=*/true)) {
      if (std::find(tried.begin(), tried.end(), target) != tried.end()) {
        continue;
      }
      if (read_replica(target, cmd, budget, true, out) != ReadStep::kMissed) {
        break;
      }
    }
  }
  router_.note_read(out.fallback);
  return out;
}

WriteResult Client::put(std::string_view key, std::string_view value) {
  return fan_out(key, Command{CommandType::kSet, std::string(key),
                              std::string(value), 0, 0});
}

ReadResult Client::get(std::string_view key) {
  return read_with_fallback(
      key, Command{CommandType::kGet, std::string(key), "", 0, 0});
}

std::vector<WriteResult> Client::put_many(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  const bool skip_last = fault::test_hooks().fanout_skip_last_replica;
  std::vector<WriteResult> results(pairs.size());
  // Group (pair index, command) per replica target; std::map iterates
  // targets in ascending order so every run charges the fabric in the
  // same sequence.
  std::map<HostId, std::vector<std::size_t>> per_target;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::vector<HostId> route = router_.route(pairs[i].first);
    results[i].routed = route.size();
    for (std::size_t r = 0; r < route.size(); ++r) {
      if (skip_last && route.size() > 1 && r + 1 == route.size()) {
        // Planted bug (fault::TestHooks): last replica silently dropped.
        continue;
      }
      per_target[route[r]].push_back(i);
    }
  }
  // One deadline budget for the whole batched fan-out, spent target by
  // target in ascending HostId order; targets whose turn comes after
  // the budget is gone count every grouped write as expired.
  double budget = -1.0;
  for (const auto& [target, indices] : per_target) {
    kvstore::Client& client = provider_(target);
    if (budget < 0.0) budget = client.retry_policy().deadline_s;
    if (budget <= 0.0) {
      for (const std::size_t i : indices) ++results[i].expired;
      continue;
    }
    const double before = client.consumed_time();
    for (const std::size_t i : indices) {
      ++results[i].attempted;
      client.enqueue(Command{CommandType::kSet, pairs[i].first,
                             pairs[i].second, 0, 0});
    }
    const std::vector<Reply> replies = client.drain(budget);
    budget = std::max(0.0, budget - (client.consumed_time() - before));
    bool all_ok = true;
    for (std::size_t r = 0; r < indices.size(); ++r) {
      const std::size_t i = indices[r];
      const Status s = replies[r].status;
      all_ok = all_ok && s == Status::kOk;
      if (s == Status::kOk) {
        ++results[i].acked;
        if (observer_) {
          observer_(target, Command{CommandType::kSet, pairs[i].first,
                                    pairs[i].second, 0, 0});
        }
      } else {
        results[i].status = better_status(results[i].status, s);
      }
    }
    router_.note_op_outcome(target, all_ok);
  }
  for (WriteResult& res : results) {
    if (res.acked > 0) res.status = Status::kOk;
    router_.note_write(res.attempted - res.acked);
  }
  return results;
}

std::vector<ReadResult> Client::get_many(
    const std::vector<std::string>& keys) {
  std::vector<ReadResult> results(keys.size());
  // Round 0: batch each key to its acting primary.
  std::map<HostId, std::vector<std::size_t>> per_target;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::vector<HostId> route = router_.route(keys[i]);
    if (route.empty()) {
      results[i].reply.status = Status::kUnavailable;
      continue;
    }
    per_target[route.front()].push_back(i);
  }
  for (const auto& [target, indices] : per_target) {
    kvstore::Client& client = provider_(target);
    for (const std::size_t i : indices) {
      client.enqueue(Command{CommandType::kGet, keys[i], "", 0, 0});
    }
    const std::vector<Reply> replies = client.drain();
    bool all_ok = true;
    for (std::size_t r = 0; r < indices.size(); ++r) {
      all_ok = all_ok && replies[r].status == Status::kOk;
      results[indices[r]].reply = replies[r];
      results[indices[r]].served_by = target;
    }
    router_.note_op_outcome(target, all_ok);
  }
  // Fallback rounds: any key its primary could not serve walks the rest
  // of its preference order individually — ignoring the breaker, since
  // by now we are hunting for the data wherever it survives.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ReadResult& res = results[i];
    const bool primary_ok =
        !should_fall_back(res.reply.status) && res.reply.ok;
    if (primary_ok) {
      router_.note_read(false);
      continue;
    }
    const Command cmd{CommandType::kGet, keys[i], "", 0, 0};
    double budget = -1.0;
    for (const HostId target :
         router_.live_preference(keys[i], /*ignore_breaker=*/true)) {
      if (target == res.served_by) continue;  // primary already failed
      if (read_replica(target, cmd, budget, true, res) != ReadStep::kMissed) {
        break;
      }
    }
    router_.note_read(res.fallback);
  }
  return results;
}

}  // namespace hetsim::ha
