// hetsim_analyze — checker entry points and the Finding model shared by
// the driver, the baseline store and the SARIF writer.
#pragma once

#include <string>
#include <vector>

#include "analyze/index.h"

namespace hetsim::analyze {

struct Finding {
  std::string rule;  // "status-flow", "naked-mutex", ...
  std::string rel;   // root-relative path
  int line = 0;
  std::string message;
};

/// status-flow: kvstore::Status / Reply / WriteResult / ReadResult
/// values must be consumed — discarded producer calls and locals that
/// reach end of scope untouched are reported.
void check_status(const Index& index, std::vector<Finding>& out);

/// determinism-taint: wall-clock / rand / pointer-hash / thread-id /
/// unordered-iteration values must not reach trace events, bench JSON
/// or common::hash inputs (sorting sanitizes).
void check_taint(const Index& index, std::vector<Finding>& out);

/// Token-level rules (naked-mutex, raw-thread, nondeterminism,
/// float-accounting, direct-store, phase-throw, pragma-once) — applied
/// to src/ (pragma-once also to tools/ headers).
void check_lint_rules(const Index& index, std::vector<Finding>& out);

}  // namespace hetsim::analyze
