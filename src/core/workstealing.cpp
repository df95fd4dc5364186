#include "core/workstealing.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "common/error.h"

namespace hetsim::core {

WorkStealingReport simulate_work_stealing(const cluster::Cluster& cluster,
                                          std::span<const ChunkCost> chunks,
                                          const WorkStealingOptions& options) {
  common::require<common::ConfigError>(options.chunks_per_node >= 1,
                                       "work stealing: chunks_per_node >= 1");
  const std::size_t p = cluster.size();
  WorkStealingReport report;
  report.node_busy_s.assign(p, 0.0);
  if (chunks.empty()) return report;

  // Deal chunks round-robin (the de-facto initial partitioning).
  std::vector<std::deque<std::size_t>> queues(p);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    queues[c % p].push_back(c);
  }
  std::vector<double> queued_work(p, 0.0);
  for (std::size_t n = 0; n < p; ++n) {
    for (const std::size_t c : queues[n]) queued_work[n] += chunks[c].work_units;
  }

  const auto process_seconds = [&](std::size_t node, const ChunkCost& chunk) {
    return cluster.options().work_rate.seconds(chunk.work_units,
                                               cluster.node(static_cast<std::uint32_t>(node)).speed);
  };
  const net::LinkSpec& link = cluster.options().remote_link;
  const auto transfer_seconds = [&](const ChunkCost& chunk) {
    return 2.0 * link.latency_s + chunk.payload_bytes / link.bandwidth_bps;
  };

  // Event loop: repeatedly advance the node that frees up earliest.
  std::vector<double> free_at(p, 0.0);
  for (;;) {
    // Pick the node with the smallest free time that can still do work.
    std::size_t node = p;
    for (std::size_t n = 0; n < p; ++n) {
      if (node == p || free_at[n] < free_at[node]) node = n;
    }
    // Node has local work?
    if (!queues[node].empty()) {
      const std::size_t c = queues[node].front();
      queues[node].pop_front();
      queued_work[node] -= chunks[c].work_units;
      const double dt = process_seconds(node, chunks[c]);
      free_at[node] += dt;
      report.node_busy_s[node] += dt;
      continue;
    }
    // The victim is the node with the most queued work.
    std::size_t victim = p;
    for (std::size_t v = 0; v < p; ++v) {
      if (queues[v].empty()) continue;
      if (victim == p || queued_work[v] > queued_work[victim]) victim = v;
    }
    if (victim == p) {
      // No work anywhere: this node is done. Remove it from consideration
      // by pushing its free time to +inf; stop when all are done.
      free_at[node] = std::numeric_limits<double>::infinity();
      bool any_finite = false;
      for (const double t : free_at) {
        any_finite |= t != std::numeric_limits<double>::infinity();
      }
      if (!any_finite) break;
      continue;
    }
    // Steal the tail chunk (cold end of the victim's queue).
    const std::size_t c = queues[victim].back();
    queues[victim].pop_back();
    queued_work[victim] -= chunks[c].work_units;
    const double move = transfer_seconds(chunks[c]);
    const double dt = move + process_seconds(node, chunks[c]);
    // The steal can only start once the victim's queue state is visible;
    // model it as starting at the thief's free time (optimistic for the
    // baseline).
    free_at[node] += dt;
    report.node_busy_s[node] += dt;
    ++report.steals;
    report.migrated_bytes += chunks[c].payload_bytes;
    report.migration_time_s += move;
  }

  for (const double t : report.node_busy_s) {
    report.makespan_s = std::max(report.makespan_s, t);
  }
  return report;
}

}  // namespace hetsim::core
