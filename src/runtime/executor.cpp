#include "runtime/executor.h"

#include <algorithm>
#include <cstddef>

#include "check/check.h"
#include "common/error.h"
#include "common/rng.h"
#include "fault/fault.h"

namespace hetsim::runtime {

double ExecutorReport::total_work_units() const noexcept {
  double total = 0.0;
  for (const auto& p : per_node) total += p.work_units;
  return total;
}

PhaseExecutor::PhaseExecutor(cluster::Cluster& cluster,
                             std::vector<std::vector<std::uint32_t>> queues,
                             ChunkRunner runner, ExecutorOptions options)
    : cluster_(cluster),
      options_(std::move(options)),
      runner_(std::move(runner)) {
  const std::size_t p = cluster_.size();
  common::require<common::ConfigError>(queues.size() == p,
                                       "PhaseExecutor: one queue per node");
  common::require<common::ConfigError>(options_.chunk_records >= 1,
                                       "PhaseExecutor: chunk_records >= 1");
  common::require<common::ConfigError>(
      options_.per_node_slowdown.empty() ||
          options_.per_node_slowdown.size() == p,
      "PhaseExecutor: per_node_slowdown size mismatch");
  common::require<common::ConfigError>(static_cast<bool>(runner_),
                                       "PhaseExecutor: null chunk runner");
  queues_.resize(p);
  for (std::size_t i = 0; i < p; ++i) {
    queues_[i].assign(queues[i].begin(), queues[i].end());
  }
  clock_.assign(p, 0.0);
  progress_.assign(p, NodeProgress{});
  units_seen_.assign(p, 0.0);
  network_seen_.assign(p, 0.0);
  slowdown_ = options_.per_node_slowdown;
  if (slowdown_.empty()) slowdown_.assign(p, 1.0);
  if (options_.fault != nullptr && options_.fault->enabled()) {
    for (std::size_t i = 0; i < p; ++i) {
      slowdown_[i] *=
          options_.fault->slowdown_factor(static_cast<std::uint32_t>(i));
    }
  }
  for (const double s : slowdown_) {
    common::require<common::ConfigError>(s > 0.0,
                                         "PhaseExecutor: slowdown must be > 0");
  }
  common::require<common::ConfigError>(options_.heartbeat_timeout_s >= 0.0,
                                       "PhaseExecutor: heartbeat timeout < 0");
  dead_.assign(p, 0);
  heartbeat_.assign(p, 0.0);
  max_chunk_s_.assign(p, 0.0);
  common::Rng rng(options_.seed);
  priority_.resize(p);
  for (auto& pr : priority_) pr = rng();
  contexts_.reserve(p);
  speed_.reserve(p);
  for (std::size_t i = 0; i < p; ++i) {
    contexts_.push_back(std::make_unique<cluster::NodeContext>(
        cluster_, cluster_.nodes()[i]));
    // The phase is one cluster phase: one jitter draw per node.
    speed_.push_back(cluster_.phase_speed(static_cast<std::uint32_t>(i)));
  }
}

std::uint32_t PhaseExecutor::pick_next() const {
  const std::size_t p = queues_.size();
  std::uint32_t best = static_cast<std::uint32_t>(p);
  for (std::uint32_t i = 0; i < p; ++i) {
    if (dead_[i] != 0) continue;
    if (queues_[i].empty()) continue;
    if (best == p) {
      best = i;
      continue;
    }
    const double tb = clock_[best];
    const double ti = clock_[i];
    if (ti < tb || (ti == tb && priority_[i] < priority_[best])) best = i;
  }
  return best;
}

double PhaseExecutor::sync_network(std::uint32_t node) {
  const double now = contexts_[node]->network_time();
  const double delta = now - network_seen_[node];
  network_seen_[node] = now;
  clock_[node] += delta;
  progress_[node].network_s += delta;
  // Settled traffic counts as a sign of life: a node charged for
  // migration transfers inside a checkpoint must not look silent just
  // because it hasn't run a chunk of its own since.
  heartbeat_[node] = clock_[node];
  return delta;
}

void PhaseExecutor::step(std::uint32_t node) {
  // Fail-stop fires at the chunk boundary: the node is picked, finds its
  // planned death time has arrived, and vanishes without processing or
  // announcing anything. Its queue stays as-is — the orphaned records
  // are only recoverable through a checkpoint callback noticing the
  // missed heartbeats.
  if (options_.fault != nullptr && options_.fault->enabled() &&
      options_.fault->has_fail_stop(node) &&
      clock_[node] >= options_.fault->fail_stop_time_s(node)) {
    dead_[node] = 1;
    return;  // dead nodes are never picked again
  }
  auto& queue = queues_[node];
  // Tail absorption: a sub-chunk remainder would hand the workload a
  // degenerate unit of work (for SON mining, a tiny transaction set
  // collapses the local support threshold to ~1 and the candidate
  // space explodes). If what's left fits in 1.5 chunks, take it all.
  const std::size_t take =
      queue.size() <= options_.chunk_records + options_.chunk_records / 2
          ? queue.size()
          : options_.chunk_records;
  const auto chunk_end = queue.begin() + static_cast<std::ptrdiff_t>(take);
  std::vector<std::uint32_t> chunk(queue.begin(), chunk_end);
  queue.erase(queue.begin(), chunk_end);
  const double before = clock_[node];
  cluster::NodeContext& ctx = *contexts_[node];
  bool failed = false;
  try {
    runner_(ctx, chunk);
  } catch (const common::ConfigError&) {
    throw;  // a caller's mistake, not a node fault
  } catch (const common::Error&) {
    // A typed fault inside the chunk body (workload kvstore traffic that
    // exhausted its retries) is contained to this node; see below.
    // Anything not typed (logic errors) propagates out of run() and
    // fails the phase loudly.
    failed = true;
  }
  const double units = ctx.meter().units() - units_seen_[node];
  units_seen_[node] = ctx.meter().units();
  const double compute =
      cluster_.options().work_rate.seconds(units, speed_[node]) *
      slowdown_[node];
  clock_[node] += compute;
  if (failed) {
    // The chunk goes back to the queue in order, the partial compute
    // and network time it burned are charged, and the node fail-stops —
    // the heartbeat machinery then rescues its queue exactly like an
    // injected fail-stop.
    queue.insert(queue.begin(), chunk.begin(), chunk.end());
    sync_network(node);
    dead_[node] = 1;
    return;
  }
  NodeProgress& prog = progress_[node];
  prog.records_done += chunk.size();
  prog.work_units += units;
  prog.compute_s += compute;
  prog.chunks += 1;
  sync_network(node);
  // Update the detection threshold before the checkpoint runs so the
  // auto heartbeat timeout already covers this chunk's duration.
  max_chunk_s_[node] = std::max(max_chunk_s_[node], clock_[node] - before);
  heartbeat_[node] = clock_[node];
  if (checkpoint_) checkpoint_(node);
}

std::uint32_t PhaseExecutor::rescue() {
  const std::size_t p = queues_.size();
  const auto none = static_cast<std::uint32_t>(p);
  if (!checkpoint_) return none;
  for (;;) {
    std::uint32_t rescuer = none;
    for (std::uint32_t i = 0; i < p; ++i) {
      if (dead_[i] != 0) continue;
      if (rescuer == none || clock_[i] < clock_[rescuer]) rescuer = i;
    }
    if (rescuer == none) return none;  // everyone is dead
    // Records stranded on dead nodes? Without this path the phase would
    // end (no live node is runnable) and silently lose them.
    double horizon = -1.0;
    for (std::uint32_t d = 0; d < p; ++d) {
      if (dead_[d] == 0 || queues_[d].empty()) continue;
      // Push the rescuer's clock far enough past the dead node's last
      // heartbeat that detection's strict `>` comparison cannot sit on
      // the boundary: 1.125 is exact in binary, so the margin survives
      // rounding.
      horizon = std::max(horizon,
                         heartbeat_[d] + 1.125 * heartbeat_timeout(rescuer));
    }
    if (horizon < 0.0) return none;
    const std::uint64_t before = mutations_;
    clock_[rescuer] = std::max(clock_[rescuer], horizon);
    heartbeat_[rescuer] = clock_[rescuer];
    checkpoint_(rescuer);
    if (mutations_ == before) return none;  // callback won't reassign
    const std::uint32_t next = pick_next();
    if (next != none) return next;
  }
}

ExecutorReport PhaseExecutor::run() {
  const auto none = static_cast<std::uint32_t>(queues_.size());
  for (;;) {
    std::uint32_t node = pick_next();
    if (node == none) node = rescue();
    if (node == none) break;
    step(node);
  }
  // No work lost in transit: every record a checkpoint callback took out
  // of a queue must have been put back into one.
  HETSIM_CHECK_EQ(taken_, given_);
  ExecutorReport report;
  report.per_node = progress_;
  for (const double t : clock_) {
    report.makespan_s = std::max(report.makespan_s, t);
  }
  for (const auto& q : queues_) report.unprocessed += q.size();
  return report;
}

const NodeProgress& PhaseExecutor::progress(std::uint32_t node) const {
  return progress_.at(node);
}

double PhaseExecutor::node_time(std::uint32_t node) const {
  return clock_.at(node);
}

std::size_t PhaseExecutor::remaining(std::uint32_t node) const {
  return queues_.at(node).size();
}

std::size_t PhaseExecutor::total_remaining() const {
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.size();
  return total;
}

std::vector<std::uint32_t> PhaseExecutor::take_from_tail(std::uint32_t node,
                                                         std::size_t count) {
  auto& queue = queues_.at(node);
  std::vector<std::uint32_t> taken;
  taken.reserve(std::min(count, queue.size()));
  while (!queue.empty() && taken.size() < count) {
    taken.push_back(queue.back());
    queue.pop_back();
  }
  if (!taken.empty()) {
    taken_ += taken.size();
    ++mutations_;
  }
  return taken;
}

std::vector<std::uint32_t> PhaseExecutor::take_all(std::uint32_t node) {
  auto& queue = queues_.at(node);
  std::vector<std::uint32_t> taken(queue.begin(), queue.end());
  queue.clear();
  if (!taken.empty()) {
    taken_ += taken.size();
    ++mutations_;
  }
  return taken;
}

void PhaseExecutor::give(std::uint32_t node,
                         std::span<const std::uint32_t> records) {
  auto& queue = queues_.at(node);
  queue.insert(queue.end(), records.begin(), records.end());
  if (!records.empty()) {
    given_ += records.size();
    ++mutations_;
  }
}

double PhaseExecutor::heartbeat(std::uint32_t node) const {
  return heartbeat_.at(node);
}

double PhaseExecutor::heartbeat_timeout(std::uint32_t observer) const {
  if (options_.heartbeat_timeout_s > 0.0) return options_.heartbeat_timeout_s;
  // Auto rule: when `observer` checkpoints, every live node with work
  // had a clock at least as large as the observer's pre-chunk clock
  // (the min-clock pick would have run it first), so a live node's
  // heartbeat lags by at most the observer's own chunk duration. 3x
  // that cannot produce a false positive — and deliberately excludes
  // OTHER nodes' chunk durations, so one slow node's long chunks do
  // not delay every survivor's detection of a fast node's death. The
  // floor covers the degenerate case where the observer has not
  // completed a chunk yet (only reachable through the rescue path,
  // where every remaining record provably belongs to a dead node).
  return std::max(3.0 * max_chunk_s_.at(observer), 1e-3);
}

cluster::NodeContext& PhaseExecutor::context(std::uint32_t node) {
  return *contexts_.at(node);
}

}  // namespace hetsim::runtime
