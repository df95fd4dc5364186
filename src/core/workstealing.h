// Work-stealing baseline.
//
// The paper's introduction names work stealing [Blumofe & Leiserson] as
// the typical load-balancing answer and argues it does not fit
// distributed analytics: stealing balances *size* but analytics
// workloads are sensitive to *payload* — a stolen chunk is processed as
// its own unit, so a pattern-mining job ends up mining many small
// fragments whose locally-frequent sets inflate the global candidate
// scan, and chunks migrate over the network.
//
// This module provides a deterministic virtual-time simulation of greedy
// work stealing over pre-costed chunks, so benches can put the baseline
// on the same axes as the Pareto framework: comparable makespan, but
// extra migration traffic and (for SON) a larger candidate union.
#pragma once

#include <span>
#include <vector>

#include "cluster/cluster.h"

namespace hetsim::core {

/// One unit of stealable work.
struct ChunkCost {
  /// Abstract work units to process the chunk (speed-independent).
  double work_units = 0.0;
  /// Bytes that move if the chunk is stolen.
  double payload_bytes = 0.0;
};

struct WorkStealingOptions {
  /// Initial chunks dealt to each node (round-robin).
  std::size_t chunks_per_node = 4;
};

struct WorkStealingReport {
  double makespan_s = 0.0;
  std::vector<double> node_busy_s;  // processing + transfer, per node
  std::size_t steals = 0;
  double migrated_bytes = 0.0;
  double migration_time_s = 0.0;  // summed transfer time across steals
};

/// Simulate greedy work stealing of `chunks` over the cluster's nodes in
/// virtual time. Chunks are dealt round-robin; an idle node steals the
/// last queued chunk of the most-loaded victim, paying the chunk's
/// transfer cost over the cluster fabric's remote link. Deterministic.
[[nodiscard]] WorkStealingReport simulate_work_stealing(
    const cluster::Cluster& cluster, std::span<const ChunkCost> chunks,
    const WorkStealingOptions& options = {});

}  // namespace hetsim::core
