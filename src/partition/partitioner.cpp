#include "partition/partitioner.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "check/check.h"
#include "common/allocation.h"
#include "common/error.h"
#include "common/rng.h"
#include "stratify/sampler.h"

namespace hetsim::partition {

std::size_t PartitionAssignment::total_records() const noexcept {
  std::size_t n = 0;
  for (const auto& p : partitions) n += p.size();
  return n;
}

std::vector<std::size_t> PartitionAssignment::stratum_histogram(
    std::size_t p, const stratify::Stratification& strat) const {
  common::require<common::ConfigError>(p < partitions.size(),
                                       "stratum_histogram: bad partition");
  std::vector<std::size_t> hist(strat.num_strata, 0);
  for (const std::uint32_t i : partitions[p]) ++hist[strat.assignment[i]];
  return hist;
}

namespace {

void check_sizes(std::size_t num_records, std::span<const std::size_t> sizes) {
  common::require<common::ConfigError>(!sizes.empty(),
                                       "make_partitions: no partitions");
  const std::size_t total = std::accumulate(sizes.begin(), sizes.end(),
                                            std::size_t{0});
  common::require<common::ConfigError>(
      total == num_records,
      "make_partitions: sizes must sum to the record count");
}

/// Sort every partition's record list, fanned out one partition per
/// chunk unit (partitions are disjoint, so the fan-out is free of
/// thread-count effects).
void sort_partitions(PartitionAssignment& out, const par::Options& par) {
  par::resolve(par).parallel_for(
      out.partitions.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
          std::sort(out.partitions[p].begin(), out.partitions[p].end());
        }
      });
}

/// Representative layout: walk strata; split each stratum across
/// partitions proportionally to each partition's REMAINING capacity, so
/// every partition ends with (a) its exact prescribed size and (b) a
/// stratum mix tracking the global mix.
PartitionAssignment representative(const stratify::Stratification& strat,
                                   std::span<const std::size_t> sizes,
                                   common::Rng& rng, const par::Options& par) {
  PartitionAssignment out;
  out.partitions.resize(sizes.size());
  std::vector<std::size_t> remaining(sizes.begin(), sizes.end());
  auto members = stratify::strata_members(strat);
  // Shuffle within each stratum so consecutive partitions get i.i.d.
  // subsets rather than index-correlated ones. Per-stratum child
  // generators (forked in stratum order) keep the shuffles independent
  // of how the parallel_for chunks land on threads.
  std::vector<common::Rng> stratum_rng;
  stratum_rng.reserve(members.size());
  for (std::size_t s = 0; s < members.size(); ++s) {
    stratum_rng.push_back(rng.fork());
  }
  par::resolve(par).parallel_for(
      members.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          auto& pool = members[s];
          for (std::size_t i = 0; i + 1 < pool.size(); ++i) {
            std::swap(pool[i],
                      pool[i + stratum_rng[s].bounded(pool.size() - i)]);
          }
        }
      });
  for (auto& pool : members) {
    std::vector<double> weights(remaining.begin(), remaining.end());
    const std::vector<std::size_t> quota =
        common::proportional_allocation(weights, pool.size());
    std::size_t at = 0;
    for (std::size_t p = 0; p < sizes.size(); ++p) {
      std::size_t take = std::min(quota[p], remaining[p]);
      for (std::size_t k = 0; k < take; ++k) {
        out.partitions[p].push_back(pool[at++]);
      }
      remaining[p] -= take;
    }
    // Rounding vs. capacity clamps can leave a tail; drain it into any
    // partition that still has room.
    for (std::size_t p = 0; at < pool.size() && p < sizes.size(); ++p) {
      while (remaining[p] > 0 && at < pool.size()) {
        out.partitions[p].push_back(pool[at++]);
        --remaining[p];
      }
    }
  }
  // Every partition must land on its exact prescribed size: proportional
  // quotas, capacity clamps and the tail drain conspire to guarantee it,
  // and the LP's makespan prediction is meaningless if they don't.
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    HETSIM_INVARIANT(out.partitions[p].size() == sizes[p])
        << ": representative layout gave partition " << p << " "
        << out.partitions[p].size() << " records, prescribed " << sizes[p];
  }
  sort_partitions(out, par);
  return out;
}

/// Cut a precomputed record order into consecutive partitions of the
/// prescribed sizes; each partition assembles and sorts independently.
PartitionAssignment cut_order(const std::vector<std::uint32_t>& order,
                              std::span<const std::size_t> sizes,
                              const par::Options& par) {
  PartitionAssignment out;
  out.partitions.resize(sizes.size());
  std::vector<std::size_t> start(sizes.size());
  std::size_t at = 0;
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    start[p] = at;
    at += sizes[p];
  }
  par::resolve(par).parallel_for(
      sizes.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
          out.partitions[p].assign(
              order.begin() + static_cast<long>(start[p]),
              order.begin() + static_cast<long>(start[p] + sizes[p]));
          std::sort(out.partitions[p].begin(), out.partitions[p].end());
        }
      });
  return out;
}

PartitionAssignment similar_together(const stratify::Stratification& strat,
                                     std::span<const std::size_t> sizes,
                                     const par::Options& par) {
  return cut_order(stratify::strata_order(strat), sizes, par);
}

}  // namespace

PartitionAssignment make_partitions(const stratify::Stratification& strat,
                                    std::span<const std::size_t> sizes,
                                    Layout layout, std::uint64_t seed,
                                    const par::Options& par) {
  check_sizes(strat.assignment.size(), sizes);
  common::Rng rng(seed);
  switch (layout) {
    case Layout::kRepresentative:
      return representative(strat, sizes, rng, par);
    case Layout::kSimilarTogether:
      return similar_together(strat, sizes, par);
  }
  throw common::ConfigError("make_partitions: unknown layout");
}

PartitionAssignment random_partitions(std::size_t num_records,
                                      std::span<const std::size_t> sizes,
                                      std::uint64_t seed,
                                      const par::Options& par) {
  check_sizes(num_records, sizes);
  std::vector<std::uint32_t> order(num_records);
  std::iota(order.begin(), order.end(), 0u);
  common::Rng rng(seed);
  // The global shuffle is one sequential pass over a single stream —
  // kept serial; the per-partition cut + sort below is the parallel
  // part.
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    std::swap(order[i], order[i + rng.bounded(order.size() - i)]);
  }
  return cut_order(order, sizes, par);
}

double representativeness_l1(const PartitionAssignment& assignment,
                             std::size_t p,
                             const stratify::Stratification& strat) {
  const std::vector<std::size_t> hist = assignment.stratum_histogram(p, strat);
  const double part_n = static_cast<double>(assignment.partitions[p].size());
  const double total_n = static_cast<double>(strat.assignment.size());
  if (part_n == 0.0 || total_n == 0.0) return 0.0;
  double l1 = 0.0;
  for (std::uint32_t c = 0; c < strat.num_strata; ++c) {
    const double part_frac = static_cast<double>(hist[c]) / part_n;
    const double global_frac =
        static_cast<double>(strat.stratum_sizes[c]) / total_n;
    l1 += std::abs(part_frac - global_frac);
  }
  return l1;
}

}  // namespace hetsim::partition
