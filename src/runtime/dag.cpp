#include "runtime/dag.h"

#include "common/error.h"

namespace hetsim::runtime {

std::string phase_kind_name(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::kIngest:
      return "ingest";
    case PhaseKind::kStratify:
      return "stratify";
    case PhaseKind::kEstimate:
      return "estimate";
    case PhaseKind::kForecast:
      return "forecast";
    case PhaseKind::kOptimize:
      return "optimize";
    case PhaseKind::kPartition:
      return "partition";
    case PhaseKind::kExecute:
      return "execute";
    case PhaseKind::kGlobal:
      return "global";
  }
  return "?";
}

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
  phases_.push_back(std::move(phase));
}

bool DagReport::phase_failed(std::string_view phase) const {
  for (const Walked& w : walked) {
    if (w.name == phase) return w.failed;
  }
  return false;
}

std::vector<std::size_t> PhaseDag::topological_order(
    const DagReport& before) const {
  const std::size_t n = phases_.size();
  // Index of a declared phase, n for one `before` walked.
  const auto index_of = [&](const std::string& name) {
    for (std::size_t i = 0; i < n; ++i) {
      if (phases_[i].name == name) return i;
    }
    for (const DagReport::Walked& w : before.walked) {
      if (w.name == name) return n;
    }
    throw common::ConfigError("PhaseDag: dependency on undeclared phase '" +
                              name + "'");
  };
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::vector<std::size_t>> out_edges(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::string& dep : phases_[i].deps) {
      const std::size_t d = index_of(dep);
      if (d == n) continue;  // walked by an earlier DAG
      common::require<common::ConfigError>(
          d != i, "PhaseDag: phase '" + phases_[i].name + "' depends on itself");
      out_edges[d].push_back(i);
      ++indegree[i];
    }
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<bool> emitted(n, false);
  // Kahn with declaration-order priority: scan for the first ready phase
  // each round. O(n^2) on a handful of phases is irrelevant, and the
  // order is independent of container internals.
  for (std::size_t round = 0; round < n; ++round) {
    std::size_t pick = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!emitted[i] && indegree[i] == 0) {
        pick = i;
        break;
      }
    }
    common::require<common::ConfigError>(pick != n,
                                         "PhaseDag: dependency cycle");
    emitted[pick] = true;
    order.push_back(pick);
    for (const std::size_t succ : out_edges[pick]) --indegree[succ];
  }
  return order;
}

DagReport PhaseDag::run(TraceRecorder& trace,
                        const std::function<double()>& clock,
                        DagReport before) const {
  DagReport report = std::move(before);
  for (const std::size_t i : topological_order(report)) {
    const Phase& p = phases_[i];
    const std::string category = "phase." + phase_kind_name(p.kind);

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
      if (p.body) {
        // Backstop only: the contract is that bodies return their
        // faults. Anything typed that still escapes (a helper deep in
        // the phase) is folded into the same retry/exhaust machinery
        // instead of unwinding out of the job.
        try {
          result = p.body(at);
        } catch (const common::ConfigError&) {
          throw;  // no retry mends a caller's mistake
        } catch (const common::Error& e) {
          result = PhaseResult::transient(e.what());
        }
      } else {
        result = PhaseResult::ok();
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
