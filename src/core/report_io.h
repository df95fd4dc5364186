// JSON export of framework reports, for plotting and regression tracking
// of the experiment outputs outside the C++ toolchain.
#pragma once

#include <string>

#include "core/framework.h"
#include "optimize/pareto.h"

namespace hetsim::core {

/// One JobReport as a JSON object (strategy, sizes, times, energy,
/// quality, per-node execution seconds).
[[nodiscard]] std::string to_json(const JobReport& report);

/// A frontier sweep as a JSON array of {alpha, makespan_s, dirty_joules}.
[[nodiscard]] std::string frontier_to_json(
    const std::vector<optimize::FrontierPoint>& frontier);

}  // namespace hetsim::core
