#include "runtime/dag.h"

#include <algorithm>

#include "common/error.h"

namespace hetsim::runtime {

std::string_view job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kDegraded:
      return "degraded";
    case JobStatus::kDataUnavailable:
      return "data-unavailable";
  }
  return "?";
}

JobStatus worse_job_status(JobStatus a, JobStatus b) {
  return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b) ? a : b;
}

void PhaseDag::add(Phase phase) {
  for (const Phase& existing : phases_) {
    common::require<common::ConfigError>(
        existing.name != phase.name,
        "PhaseDag: duplicate phase name '" + phase.name + "'");
  }
  common::require<common::ConfigError>(
      phase.max_attempts >= 1,
      "PhaseDag: phase '" + phase.name + "' needs max_attempts >= 1");
  common::require<common::ConfigError>(
      static_cast<bool>(phase.body),
      "PhaseDag: phase '" + phase.name + "' has no body");
  phases_.push_back(std::move(phase));
}

bool DagReport::phase_failed(std::string_view phase) const {
  for (const Walked& w : walked) {
    if (w.name == phase) return w.failed;
  }
  return false;
}

DagReport PhaseDag::run(TraceRecorder& trace,
                        const std::function<double()>& clock,
                        DagReport before) const {
  // Validate every edge before any body runs: a dependency must name a
  // phase declared earlier here or walked by `before`.
  for (auto p = phases_.begin(); p != phases_.end(); ++p) {
    for (const std::string& dep : p->deps) {
      const auto named = [&dep](const auto& x) { return x.name == dep; };
      common::require<common::ConfigError>(
          std::any_of(phases_.begin(), p, named) ||
              std::any_of(before.walked.begin(), before.walked.end(), named),
          "PhaseDag: phase '" + p->name + "' depends on '" + dep +
              "', which is neither declared before it nor walked");
    }
  }

  DagReport report = std::move(before);
  for (const Phase& p : phases_) {
    const std::string category = "phase." + p.name;

    bool dep_failed = false;
    for (const std::string& dep : p.deps) {
      if (report.phase_failed(dep)) dep_failed = true;
    }
    if (dep_failed) {
      // A failed phase poisons its transitive dependents: their inputs
      // never materialized. Skipping (instead of aborting the walk)
      // lets independent branches still run to completion.
      report.walked.push_back({p.name, true});
      trace.add_instant("phase-skipped", category, TraceRecorder::kRuntimeLane,
                        clock());
      continue;
    }

    const double start = clock();
    PhaseResult result = PhaseResult::ok();
    std::size_t attempt = 0;
    for (;;) {
      PhaseAttempt at;
      at.attempt = attempt;
      at.last = attempt + 1 >= p.max_attempts;
      // Backstop only: the contract is that bodies return their faults.
      // Anything typed that still escapes (a helper deep in the phase) is
      // folded into the same retry/exhaust machinery instead of unwinding
      // out of the job.
      try {
        result = p.body(at);
      } catch (const common::ConfigError&) {
        throw;  // no retry mends a caller's mistake
      } catch (const common::Error& e) {
        result = PhaseResult::transient(e.what());
      }
      if (result.completed && !result.retry) break;
      if (++attempt >= p.max_attempts) {
        result.completed = false;
        break;
      }
      ++report.phase_retries;
      trace.add_instant("phase-retry", category, TraceRecorder::kRuntimeLane,
                        clock(), {{"attempt", static_cast<double>(attempt)}});
    }

    report.walked.push_back({p.name, !result.completed});
    if (result.completed) {
      report.status = worse_job_status(report.status, result.floor);
      // Fault-free phases keep the historical arg-free span shape, so
      // clean traces stay byte-identical with pre-PhaseResult runs.
      if (attempt == 0 && result.floor == JobStatus::kOk) {
        trace.add_span(p.name, category, TraceRecorder::kRuntimeLane, start,
                       clock() - start);
      } else {
        trace.add_span(
            p.name, category, TraceRecorder::kRuntimeLane, start,
            clock() - start,
            {{"attempts", static_cast<double>(attempt + 1)},
             {"status", static_cast<double>(result.floor)}});
      }
    } else {
      report.status = worse_job_status(report.status, p.on_exhausted);
      if (report.failed_phase.empty()) {
        report.failed_phase = p.name;
        report.failure_detail = result.detail;
      }
      trace.add_instant("phase-failed", category, TraceRecorder::kRuntimeLane,
                        clock(),
                        {{"attempts", static_cast<double>(attempt)}});
      trace.add_span(p.name, category, TraceRecorder::kRuntimeLane, start,
                     clock() - start,
                     {{"attempts", static_cast<double>(attempt)},
                      {"failed", 1.0}});
    }
  }
  return report;
}

}  // namespace hetsim::runtime
