#include "stratify/sampler.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "check/check.h"
#include "common/allocation.h"
#include "common/error.h"

namespace hetsim::stratify {

std::vector<std::vector<std::uint32_t>> strata_members(
    const Stratification& strat) {
  std::vector<std::vector<std::uint32_t>> members(strat.num_strata);
  for (std::uint32_t c = 0; c < strat.num_strata; ++c) {
    members[c].reserve(strat.stratum_sizes[c]);
  }
  for (std::uint32_t i = 0; i < strat.assignment.size(); ++i) {
    members[strat.assignment[i]].push_back(i);
  }
  return members;
}

std::vector<std::uint32_t> stratified_sample(const Stratification& strat,
                                             std::size_t count,
                                             common::Rng& rng,
                                             const par::Options& par) {
  const std::size_t n = strat.assignment.size();
  count = std::min(count, n);
  std::vector<double> weights(strat.stratum_sizes.begin(),
                              strat.stratum_sizes.end());
  std::vector<std::size_t> take =
      common::proportional_allocation(weights, count);
  auto members = strata_members(strat);
  // Fork one child generator per stratum up front (fixed stratum order,
  // fixed draw count from `rng`), then run every stratum's partial
  // Fisher-Yates independently — chunks only touch their own strata, so
  // the fan-out cannot change the sample.
  std::vector<common::Rng> stratum_rng;
  stratum_rng.reserve(strat.num_strata);
  for (std::uint32_t c = 0; c < strat.num_strata; ++c) {
    stratum_rng.push_back(rng.fork());
  }
  par::resolve(par).parallel_for(
      strat.num_strata, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t c = begin; c < end; ++c) {
          auto& pool = members[c];
          const std::size_t want = std::min(take[c], pool.size());
          // Partial Fisher-Yates: the first `want` entries become the
          // sample.
          for (std::size_t i = 0; i < want; ++i) {
            std::swap(pool[i],
                      pool[i + stratum_rng[c].bounded(pool.size() - i)]);
          }
        }
      });
  std::vector<std::uint32_t> sample;
  sample.reserve(count);
  for (std::uint32_t c = 0; c < strat.num_strata; ++c) {
    const auto& pool = members[c];
    const std::size_t want = std::min(take[c], pool.size());
    sample.insert(sample.end(), pool.begin(),
                  pool.begin() + static_cast<long>(want));
  }
  // Rounding against small strata may leave a shortfall; top up from the
  // strata's unsampled tails in ascending stratum id order.
  for (std::uint32_t c = 0; sample.size() < count && c < strat.num_strata; ++c) {
    auto& pool = members[c];
    for (std::size_t i = std::min(take[c], pool.size());
         i < pool.size() && sample.size() < count; ++i) {
      sample.push_back(pool[i]);
    }
  }
  // The per-stratum quotas plus the top-up must deliver the full sample:
  // a short sample would bias every progressive estimate fit on it.
  HETSIM_INVARIANT(sample.size() == count)
      << ": stratified sample drew " << sample.size() << " of " << count;
  std::sort(sample.begin(), sample.end());
  return sample;
}

std::vector<std::uint32_t> strata_order(const Stratification& strat) {
  std::vector<std::uint32_t> order;
  order.reserve(strat.assignment.size());
  for (const auto& members : strata_members(strat)) {
    order.insert(order.end(), members.begin(), members.end());
  }
  return order;
}

}  // namespace hetsim::stratify
