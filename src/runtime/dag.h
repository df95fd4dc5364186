// Typed phase DAG for analytics jobs.
//
// A job is declared as named phases (stratify, estimate, optimize,
// partition, execute, ...) with explicit dependencies and run in the
// order they were declared, each after every phase it depends on. The
// DAG form buys two things over hand-wired sequential code: one place
// to record per-phase spans into the trace, and the dependency edges
// that tell which phases a failed one poisons.
//
// Fault domains (DESIGN.md §14): each phase body returns a typed
// PhaseResult instead of throwing, so a store/net/node fault inside a
// phase is contained to that phase. The DAG retries transient failures
// under a per-phase attempt cap and virtual-time budget, skips the
// dependents of an exhausted phase, and folds every phase's status
// floor into one JobStatus for the job — an exception never escapes a
// well-formed plan.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/trace.h"

namespace hetsim::runtime {

/// Typed job outcome, replacing the old throw-on-fault behaviour.
/// Ordered by severity so outcomes aggregate with worse_job_status().
enum class JobStatus : std::uint8_t {
  /// Every record was processed on the planned path.
  kOk,
  /// Every record was still processed, but only by surviving a fault:
  /// node loss rescues, replica-fallback reads, phase retries.
  kDegraded,
  /// Records were provably lost (canonical copies unreachable with no
  /// replica to fall back to); the job finished what it could.
  kDataUnavailable,
};

[[nodiscard]] std::string_view job_status_name(JobStatus s);

/// The more severe of two job outcomes: kOk < kDegraded <
/// kDataUnavailable. Folds per-phase floors into the job's status.
[[nodiscard]] JobStatus worse_job_status(JobStatus a, JobStatus b);

/// What a phase body learns about the attempt it is running.
struct PhaseAttempt {
  /// 0-based attempt number (0 = first run, >= 1 = retry).
  std::size_t attempt = 0;
  /// True when no further retry remains (attempt cap or budget): the
  /// body must resolve to a terminal outcome — degrade, drop, or fall
  /// back — because returning transient() fails the phase.
  bool last = false;
};

/// Typed outcome of one phase attempt. Phase bodies return this
/// instead of throwing: faults propagate as data, not control flow.
struct PhaseResult {
  /// The phase reached a usable end state (its outputs are valid for
  /// dependent phases).
  bool completed = true;
  /// Transient failure: re-run the phase if attempts/budget remain.
  bool retry = false;
  /// Floor this attempt imposes on the job's final status.
  JobStatus floor = JobStatus::kOk;
  /// Human-readable failure/degradation cause (trace + summary).
  std::string detail;

  [[nodiscard]] static PhaseResult ok() { return {}; }
  [[nodiscard]] static PhaseResult degraded(std::string detail) {
    return {.completed = true,
            .retry = false,
            .floor = JobStatus::kDegraded,
            .detail = std::move(detail)};
  }
  [[nodiscard]] static PhaseResult data_unavailable(std::string detail) {
    return {.completed = true,
            .retry = false,
            .floor = JobStatus::kDataUnavailable,
            .detail = std::move(detail)};
  }
  [[nodiscard]] static PhaseResult transient(std::string detail) {
    return {.completed = false,
            .retry = true,
            .floor = JobStatus::kOk,
            .detail = std::move(detail)};
  }
};

struct Phase {
  /// Also the trace category's suffix: spans read "phase.<name>".
  std::string name;
  /// Names of phases that must complete before this one starts: each
  /// declared earlier in the same DAG or walked by the `before` report.
  std::vector<std::string> deps;
  /// Phase body (required). Must not throw for any well-formed input —
  /// faults come back as PhaseResult. (A common::Error other than
  /// ConfigError that does escape is contained by the DAG and treated as
  /// a transient failure, but that path is a backstop, not the contract.)
  std::function<PhaseResult(const PhaseAttempt&)> body;
  /// Attempts allowed before the phase is exhausted (>= 1).
  std::size_t max_attempts = 1;
  /// Status floor applied when the phase exhausts its attempts (its
  /// dependents are skipped either way).
  JobStatus on_exhausted = JobStatus::kDataUnavailable;
};

/// What PhaseDag::run learned about the job.
struct DagReport {
  /// Worst floor across completed phases and exhausted phases.
  JobStatus status = JobStatus::kOk;
  /// Attempt re-runs granted across all phases.
  std::size_t phase_retries = 0;
  /// First phase that exhausted its attempts ("" = none).
  std::string failed_phase;
  /// Detail of that phase's final attempt.
  std::string failure_detail;
  /// Every phase walked so far, in walk order, with whether it failed
  /// (exhausted its attempts or was skipped).
  struct Walked {
    std::string name;
    bool failed = false;
  };
  std::vector<Walked> walked;

  /// True when `phase` was walked and failed.
  [[nodiscard]] bool phase_failed(std::string_view phase) const;
};

class PhaseDag {
 public:
  /// Add a phase. Throws ConfigError on a duplicate name or a null body.
  void add(Phase phase);

  /// Run every phase body in declaration order. Before any body runs,
  /// every dependency must name a phase declared earlier in this DAG or
  /// walked by `before`; anything else (a later phase, the phase itself,
  /// an undeclared name) throws ConfigError. Each phase is recorded
  /// as a span on the runtime lane, with start/end read from `clock`
  /// (virtual seconds). Transient failures retry within the phase's
  /// attempt cap and budget ("phase-retry" instants); an exhausted
  /// phase fails ("phase-failed"), its transitive dependents are
  /// skipped ("phase-skipped"), and the walk continues with the
  /// independent remainder of the DAG. The walk continues the report
  /// `before` of an earlier DAG's run: a phase that depends on one of
  /// its failed phases is skipped, and the returned report folds both.
  /// A ConfigError from a body is a caller's mistake, not a fault, and
  /// propagates.
  DagReport run(TraceRecorder& trace, const std::function<double()>& clock,
                DagReport before = {}) const;

 private:
  std::vector<Phase> phases_;
};

}  // namespace hetsim::runtime
