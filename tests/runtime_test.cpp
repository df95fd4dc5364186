// Tests for the hetsim::runtime subsystem: phase DAG validation, the
// discrete-event virtual-time executor, straggler detection / re-planning
// math, end-to-end jobs, and trace determinism.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>

#include "common/error.h"
#include "core/compression_workload.h"
#include "core/framework.h"
#include "core/mining_workload.h"
#include "core/report_io.h"
#include "core/subtree_workload.h"
#include "data/generators.h"
#include "energy/estimator.h"
#include "fault/fault.h"
#include "runtime/dag.h"
#include "runtime/executor.h"
#include "runtime/replan.h"
#include "runtime/runtime.h"
#include "runtime/trace.h"

namespace hetsim::runtime {
namespace {

// ---- helpers ---------------------------------------------------------------

/// Workload with exactly linear cost: `units_per_record` metered work per
/// record, no kvstore traffic. The estimator's fit is exact, so any
/// straggler the runtime sees is the one a test injected.
class LinearWorkload final : public core::Workload {
 public:
  explicit LinearWorkload(double units_per_record = 500.0)
      : units_per_record_(units_per_record) {}

  [[nodiscard]] std::string name() const override { return "linear"; }
  [[nodiscard]] partition::Layout preferred_layout() const override {
    return partition::Layout::kRepresentative;
  }
  void reset(std::size_t, std::uint32_t) override {}
  void run(cluster::NodeContext& ctx, const data::Dataset&,
           std::span<const std::uint32_t> indices) override {
    ctx.meter().add(units_per_record_ * static_cast<double>(indices.size()));
  }

 private:
  double units_per_record_;
};

data::Dataset small_corpus(std::size_t docs = 400, std::uint64_t seed = 7) {
  data::TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.seed = seed;
  return data::generate_text_corpus(cfg, "corpus");
}

JobSpec fast_spec() {
  JobSpec spec;
  spec.sampling.min_records = 20;
  spec.sampling.steps = 3;
  spec.kmodes.num_strata = 8;
  spec.kmodes.max_iterations = 4;
  spec.sketch.num_hashes = 16;
  return spec;
}

// ---- PhaseDag --------------------------------------------------------------

/// Phase body that completes cleanly, for wiring-shape tests.
std::function<PhaseResult(const PhaseAttempt&)> counting_body(int& slot,
                                                              int& ran) {
  return [&slot, &ran](const PhaseAttempt&) {
    slot = ran++;
    return PhaseResult::ok();
  };
}

TEST(PhaseDag, RunsInDeclarationOrder) {
  PhaseDag dag;
  int ran = 0;
  int a_at = -1, b_at = -1, c_at = -1;
  dag.add({"ingest", {}, counting_body(a_at, ran)});
  dag.add({"forecast", {}, counting_body(b_at, ran)});
  dag.add({"execute", {"ingest"}, counting_body(c_at, ran)});
  TraceRecorder trace;
  const DagReport report = dag.run(trace, [] { return 0.0; });
  EXPECT_EQ(a_at, 0);
  EXPECT_EQ(b_at, 1);
  EXPECT_EQ(c_at, 2);
  EXPECT_EQ(report.status, JobStatus::kOk);
  EXPECT_EQ(report.phase_retries, 0u);
  EXPECT_TRUE(report.failed_phase.empty());
  // One span per phase, categorized "phase.<name>"; clean phases carry
  // no args (byte-compatible with pre-PhaseResult traces).
  ASSERT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.events()[0].category, "phase.ingest");
  EXPECT_EQ(trace.events()[1].category, "phase.forecast");
  EXPECT_EQ(trace.events()[2].category, "phase.execute");
  EXPECT_TRUE(trace.events()[0].args.empty());
}

TEST(PhaseDag, RejectsDependencyNotYetWalked) {
  int ran = 0;
  int slot = -1;
  TraceRecorder trace;
  const auto rejects = [&](std::vector<Phase> phases,
                           const DagReport& before = {}) {
    PhaseDag dag;
    for (Phase& ph : phases) dag.add(std::move(ph));
    EXPECT_THROW((void)dag.run(trace, [] { return 0.0; }, before),
                 common::ConfigError);
  };
  // A later phase, the phase itself, and a name declared nowhere.
  rejects({{"a", {"b"}, counting_body(slot, ran)},
           {"b", {}, counting_body(slot, ran)}});
  rejects({{"a", {}, counting_body(slot, ran)},
           {"b", {"b"}, counting_body(slot, ran)}});
  rejects({{"a", {"ghost"}, counting_body(slot, ran)}});
  // A continued walk run without the report it continues; the same DAG
  // runs once that report is passed.
  DagReport before;
  before.walked.push_back({"earlier"});
  rejects({{"a", {"earlier"}, counting_body(slot, ran)}});
  EXPECT_EQ(ran, 0);
  EXPECT_TRUE(trace.events().empty());
  PhaseDag continued;
  continued.add({"a", {"earlier"}, counting_body(slot, ran)});
  (void)continued.run(trace, [] { return 0.0; }, before);
  EXPECT_EQ(ran, 1);
}

TEST(PhaseDag, TransientFailureRetriesUpToAttemptCap) {
  PhaseDag dag;
  std::vector<std::size_t> attempts_seen;
  std::vector<bool> last_seen;
  Phase ph;
  ph.name = "flaky";
  ph.max_attempts = 3;
  ph.body = [&](const PhaseAttempt& at) {
    attempts_seen.push_back(at.attempt);
    last_seen.push_back(at.last);
    return at.attempt < 2 ? PhaseResult::transient("not yet")
                          : PhaseResult::ok();
  };
  dag.add(std::move(ph));
  TraceRecorder trace;
  const DagReport report = dag.run(trace, [] { return 0.0; });
  EXPECT_EQ(report.status, JobStatus::kOk);
  EXPECT_EQ(report.phase_retries, 2u);
  EXPECT_TRUE(report.failed_phase.empty());
  EXPECT_EQ(attempts_seen, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(last_seen, (std::vector<bool>{false, false, true}));
  EXPECT_EQ(trace.count("phase-retry"), 2u);
}

TEST(PhaseDag, ExhaustedPhaseSkipsDependentsAndFloorsStatus) {
  PhaseDag dag;
  int downstream_runs = 0;
  int independent_runs = 0;
  Phase doomed;
  doomed.name = "doomed";
  doomed.max_attempts = 2;
  doomed.on_exhausted = JobStatus::kDataUnavailable;
  doomed.body = [](const PhaseAttempt&) {
    return PhaseResult::transient("store down");
  };
  dag.add(std::move(doomed));
  dag.add({"dependent", {"doomed"},
           [&](const PhaseAttempt&) {
             ++downstream_runs;
             return PhaseResult::ok();
           }});
  dag.add({"independent", {},
           [&](const PhaseAttempt&) {
             ++independent_runs;
             return PhaseResult::ok();
           }});
  TraceRecorder trace;
  const DagReport report = dag.run(trace, [] { return 0.0; });
  EXPECT_EQ(report.status, JobStatus::kDataUnavailable);
  EXPECT_EQ(report.failed_phase, "doomed");
  EXPECT_EQ(report.failure_detail, "store down");
  EXPECT_EQ(downstream_runs, 0);
  EXPECT_EQ(independent_runs, 1);
  EXPECT_EQ(trace.count("phase-failed"), 1u);
  EXPECT_EQ(trace.count("phase-skipped"), 1u);
}

TEST(PhaseDag, DegradedFloorAggregatesAcrossPhases) {
  PhaseDag dag;
  dag.add({"a", {}, [](const PhaseAttempt&) {
             return PhaseResult::degraded("replica fallback");
           }});
  dag.add({"b", {"a"}, [](const PhaseAttempt&) {
             return PhaseResult::ok();
           }});
  TraceRecorder trace;
  const DagReport report = dag.run(trace, [] { return 0.0; });
  EXPECT_EQ(report.status, JobStatus::kDegraded);
  EXPECT_TRUE(report.failed_phase.empty());
}

TEST(PhaseDag, EscapedTypedExceptionIsContainedAsTransient) {
  PhaseDag dag;
  std::size_t runs = 0;
  Phase ph;
  ph.name = "thrower";
  ph.max_attempts = 2;
  ph.on_exhausted = JobStatus::kDataUnavailable;
  ph.body = [&](const PhaseAttempt&) -> PhaseResult {
    ++runs;
    throw common::Error("helper deep in the phase threw");
  };
  dag.add(std::move(ph));
  TraceRecorder trace;
  DagReport report;
  EXPECT_NO_THROW(report = dag.run(trace, [] { return 0.0; }));
  EXPECT_EQ(runs, 2u);
  EXPECT_EQ(report.status, JobStatus::kDataUnavailable);
  EXPECT_EQ(report.failed_phase, "thrower");
}

TEST(PhaseDag, WorseJobStatusIsMaxBySeverity) {
  EXPECT_EQ(worse_job_status(JobStatus::kOk, JobStatus::kDegraded),
            JobStatus::kDegraded);
  EXPECT_EQ(worse_job_status(JobStatus::kDataUnavailable, JobStatus::kOk),
            JobStatus::kDataUnavailable);
  EXPECT_EQ(worse_job_status(JobStatus::kDegraded, JobStatus::kDegraded),
            JobStatus::kDegraded);
}

TEST(PhaseDag, RejectsDuplicateName) {
  PhaseDag dag;
  const auto ok = [](const PhaseAttempt&) { return PhaseResult::ok(); };
  dag.add({"a", {}, ok});
  EXPECT_THROW(dag.add({"a", {}, ok}), common::ConfigError);
}

TEST(PhaseDag, RejectsPhaseWithoutBody) {
  PhaseDag dag;
  EXPECT_THROW(dag.add({"a", {}, nullptr}), common::ConfigError);
}

TEST(PhaseDag, ContinuesAnEarlierWalk) {
  // The second DAG's phases depend on the first's by name: a dependent of
  // a failed phase is skipped, and the report folds both walks.
  PhaseDag first;
  first.add({"ok", {}, [](const PhaseAttempt&) { return PhaseResult::ok(); }});
  Phase broken;
  broken.name = "broken";
  broken.max_attempts = 2;
  broken.body = [](const PhaseAttempt&) {
    return PhaseResult::transient("never heals");
  };
  first.add(std::move(broken));
  TraceRecorder trace;
  const DagReport before = first.run(trace, [] { return 0.0; });
  EXPECT_TRUE(before.phase_failed("broken"));
  EXPECT_FALSE(before.phase_failed("ok"));

  PhaseDag second;
  int ran = 0;
  int slot = -1;
  Phase after_ok;
  after_ok.name = "after-ok";
  after_ok.deps = {"ok"};
  after_ok.body = counting_body(slot, ran);
  second.add(std::move(after_ok));
  Phase after_broken;
  after_broken.name = "after-broken";
  after_broken.deps = {"broken"};
  after_broken.body = counting_body(slot, ran);
  second.add(std::move(after_broken));
  const DagReport report = second.run(trace, [] { return 0.0; }, before);
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(report.phase_failed("after-broken"));
  EXPECT_EQ(report.failed_phase, "broken");
  EXPECT_EQ(report.phase_retries, 1u);
  EXPECT_EQ(report.status, JobStatus::kDataUnavailable);
  EXPECT_EQ(trace.count("phase-skipped"), 1u);
}

TEST(PhaseDag, ConfigErrorPropagates) {
  PhaseDag dag;
  Phase ph;
  ph.name = "misconfigured";
  ph.max_attempts = 3;
  int runs = 0;
  ph.body = [&runs](const PhaseAttempt&) -> PhaseResult {
    ++runs;
    throw common::ConfigError("no retry mends this");
  };
  dag.add(std::move(ph));
  TraceRecorder trace;
  EXPECT_THROW((void)dag.run(trace, [] { return 0.0; }), common::ConfigError);
  EXPECT_EQ(runs, 1);
}

// ---- TraceRecorder ---------------------------------------------------------

TEST(TraceRecorder, ChromeTraceShapeAndCounts) {
  TraceRecorder trace;
  trace.name_lane(0, "node 0");
  trace.add_span("work", "exec", 0, 1.0, 0.5, {{"records", 10.0}});
  trace.add_instant("straggler", "replan", 0, 1.5);
  trace.add_counter("remaining", TraceRecorder::kRuntimeLane, 1.5, 42.0);
  EXPECT_EQ(trace.count("work"), 1u);
  EXPECT_EQ(trace.count("straggler"), 1u);
  const std::string doc = trace.chrome_trace_json();
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  // Span timestamps are microseconds (1.0 s -> 1000000 us).
  EXPECT_NE(doc.find("\"ts\":1000000"), std::string::npos);
}

// ---- PhaseExecutor ---------------------------------------------------------

TEST(PhaseExecutor, ZeroSizeQueueNodeFinishesIdle) {
  cluster::Cluster cluster(cluster::standard_cluster(2));
  std::vector<std::uint32_t> work(100);
  std::iota(work.begin(), work.end(), 0u);
  PhaseExecutor executor(
      cluster, {work, {}},
      [](cluster::NodeContext& ctx, std::span<const std::uint32_t> indices) {
        ctx.meter().add(1e4 * static_cast<double>(indices.size()));
      },
      {.chunk_records = 16});
  const ExecutorReport report = executor.run();
  EXPECT_EQ(report.per_node[0].records_done, 100u);
  EXPECT_EQ(report.per_node[1].records_done, 0u);
  EXPECT_EQ(report.per_node[1].busy_s(), 0.0);
  // 100 * 1e4 units at speed 4, base rate 1e6 -> 0.25 s.
  EXPECT_NEAR(report.makespan_s, 0.25, 1e-9);
}

TEST(PhaseExecutor, EmptyEverythingCompletes) {
  cluster::Cluster cluster(cluster::standard_cluster(3));
  PhaseExecutor executor(
      cluster, {{}, {}, {}},
      [](cluster::NodeContext&, std::span<const std::uint32_t>) {},
      {.chunk_records = 8});
  const ExecutorReport report = executor.run();
  EXPECT_EQ(report.makespan_s, 0.0);
}

TEST(PhaseExecutor, DeterministicAcrossRunsAndProcessesEverything) {
  const auto run_once = [] {
    cluster::Cluster cluster(cluster::standard_cluster(4));
    std::vector<std::vector<std::uint32_t>> queues(4);
    for (std::uint32_t i = 0; i < 200; ++i) queues[i % 4].push_back(i);
    PhaseExecutor executor(
        cluster, queues,
        [](cluster::NodeContext& ctx, std::span<const std::uint32_t> indices) {
          ctx.meter().add(5e3 * static_cast<double>(indices.size()));
        },
        {.chunk_records = 10, .seed = 33});
    return executor.run();
  };
  const ExecutorReport a = run_once();
  const ExecutorReport b = run_once();
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  std::size_t total = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a.per_node[i].records_done, b.per_node[i].records_done);
    EXPECT_DOUBLE_EQ(a.per_node[i].compute_s, b.per_node[i].compute_s);
    total += a.per_node[i].records_done;
  }
  EXPECT_EQ(total, 200u);
}

TEST(PhaseExecutor, SlowdownInflatesOnlyThatNode) {
  cluster::Cluster cluster(cluster::standard_cluster(2));
  std::vector<std::uint32_t> work(64);
  std::iota(work.begin(), work.end(), 0u);
  const auto runner = [](cluster::NodeContext& ctx,
                         std::span<const std::uint32_t> indices) {
    ctx.meter().add(1e4 * static_cast<double>(indices.size()));
  };
  PhaseExecutor plain(cluster, {work, work}, runner, {.chunk_records = 16});
  const ExecutorReport base = plain.run();
  cluster::Cluster cluster2(cluster::standard_cluster(2));
  PhaseExecutor slowed(cluster2, {work, work}, runner,
                       {.chunk_records = 16, .per_node_slowdown = {3.0, 1.0}});
  const ExecutorReport slow = slowed.run();
  EXPECT_NEAR(slow.per_node[0].compute_s, 3.0 * base.per_node[0].compute_s,
              1e-12);
  EXPECT_NEAR(slow.per_node[1].compute_s, base.per_node[1].compute_s, 1e-12);
}

TEST(PhaseExecutor, CheckpointMigrationIsHonored) {
  cluster::Cluster cluster(cluster::standard_cluster(2));
  std::vector<std::uint32_t> work(90);
  std::iota(work.begin(), work.end(), 0u);
  bool moved = false;
  PhaseExecutor executor(
      cluster, {work, {}},
      [](cluster::NodeContext& ctx, std::span<const std::uint32_t> indices) {
        ctx.meter().add(1e4 * static_cast<double>(indices.size()));
      },
      {.chunk_records = 10});
  executor.set_checkpoint([&](std::uint32_t) {
    if (moved) return;
    moved = true;
    const std::vector<std::uint32_t> taken = executor.take_from_tail(0, 40);
    EXPECT_EQ(taken.size(), 40u);
    executor.give(1, taken);
  });
  const ExecutorReport report = executor.run();
  EXPECT_EQ(report.per_node[0].records_done, 50u);
  EXPECT_EQ(report.per_node[1].records_done, 40u);
}

TEST(PhaseExecutor, ChunkAndCheckpointCallbacksFireOncePerChunk) {
  // Two nodes of 60 records in 10-record chunks: the body runs once per
  // chunk, the checkpoint once after each, and every record is done.
  cluster::Cluster cluster(cluster::standard_cluster(2));
  std::vector<std::uint32_t> work(60);
  std::iota(work.begin(), work.end(), 0u);
  std::size_t chunks_seen = 0;
  std::size_t checkpoints_seen = 0;
  PhaseExecutor executor(
      cluster, {work, work},
      [&](cluster::NodeContext& ctx, std::span<const std::uint32_t> indices) {
        ++chunks_seen;
        ctx.meter().add(1e4 * static_cast<double>(indices.size()));
      },
      {.chunk_records = 10});
  executor.set_checkpoint([&](std::uint32_t) { ++checkpoints_seen; });
  const ExecutorReport report = executor.run();
  EXPECT_EQ(report.per_node[0].records_done, 60u);
  EXPECT_EQ(report.per_node[1].records_done, 60u);
  EXPECT_EQ(chunks_seen, 12u);
  EXPECT_EQ(checkpoints_seen, 12u);
}

TEST(PhaseExecutor, ScheduleIsPinnedAcrossSlowdownMigrationAndRescue) {
  // Golden schedule: the (node, clock) of every checkpoint call and the
  // final report, captured from the earlier thread-per-node executor
  // and pinned so the discrete-event loop provably picks the same nodes
  // in the same order. Node 0 is a 2.5x straggler, the first checkpoint
  // of another node migrates one chunk off node 0's tail, and node 3
  // fail-stops mid-phase late enough that no survivor's own checkpoints
  // notice it before they run dry, so only the rescue path (a checkpoint
  // without a chunk) can reassign its queue.
  cluster::Cluster cluster(cluster::standard_cluster(4));
  fault::FaultPlan plan;
  plan.nodes[3].fail_stop_at_s = 0.15;
  fault::FaultInjector inj(plan);
  cluster.set_fault(&inj);
  std::vector<std::vector<std::uint32_t>> queues(4);
  for (std::uint32_t i = 0; i < 160; ++i) queues[i % 4].push_back(i);
  PhaseExecutor executor(
      cluster, queues,
      [](cluster::NodeContext& ctx, std::span<const std::uint32_t> indices) {
        ctx.meter().add(1e4 * static_cast<double>(indices.size()));
      },
      {.chunk_records = 8,
       .per_node_slowdown = {2.5, 1.0, 1.0, 1.0},
       .seed = 9,
       .fault = &inj});
  std::vector<std::pair<std::uint32_t, double>> visits;
  bool migrated = false;
  std::size_t rescued = 0;
  executor.set_checkpoint([&](std::uint32_t node) {
    const double now = executor.node_time(node);
    visits.emplace_back(node, now);
    if (!migrated && node != 0) {
      migrated = true;
      executor.give(node, executor.take_from_tail(0, 8));
    }
    for (std::uint32_t d = 0; d < 4; ++d) {
      if (d == node || executor.remaining(d) == 0) continue;
      if (now - executor.heartbeat(d) <= executor.heartbeat_timeout(node)) {
        continue;
      }
      const std::vector<std::uint32_t> orphans = executor.take_all(d);
      rescued += orphans.size();
      executor.give(node, orphans);
    }
  });
  const ExecutorReport report = executor.run();

  const std::vector<std::pair<std::uint32_t, double>> expected_visits = {
      {0, 0.050000000000000003},  {2, 0.040000000000000001},
      {1, 0.026666666666666668},  {3, 0.080000000000000002},
      {1, 0.053333333333333337},  {2, 0.080000000000000002},
      {0, 0.10000000000000001},   {1, 0.080000000000000002},
      {2, 0.12},                  {1, 0.10666666666666667},
      {3, 0.16},                  {0, 0.15000000000000002},
      {1, 0.13333333333333333},   {2, 0.16},
      {0, 0.20000000000000001},   {2, 0.20000000000000001},
      {2, 0.24000000000000002},
      {1, 0.25},  // rescue: node 1 at heartbeat(3) + 1.125 * 3 * its chunk
      {1, 0.27666666666666667},   {1, 0.30333333333333334},
      {1, 0.33000000000000002},
  };
  ASSERT_EQ(visits.size(), expected_visits.size());
  for (std::size_t k = 0; k < visits.size(); ++k) {
    EXPECT_EQ(visits[k].first, expected_visits[k].first) << "visit " << k;
    EXPECT_EQ(visits[k].second, expected_visits[k].second) << "visit " << k;
  }
  EXPECT_EQ(rescued, 24u);
  EXPECT_EQ(report.unprocessed, 0u);
  EXPECT_EQ(report.makespan_s, 0.33000000000000002);
  struct NodeRow {
    std::size_t records_done;
    std::size_t chunks;
    double work_units;
    double compute_s;
  };
  const std::vector<NodeRow> expected_nodes = {
      {32, 4, 320000.0, 0.20000000000000001},
      {64, 8, 640000.0, 0.21333333333333335},
      {48, 6, 480000.0, 0.24000000000000002},
      {16, 2, 160000.0, 0.16},
  };
  ASSERT_EQ(report.per_node.size(), expected_nodes.size());
  for (std::size_t i = 0; i < expected_nodes.size(); ++i) {
    const NodeProgress& got = report.per_node[i];
    EXPECT_EQ(got.records_done, expected_nodes[i].records_done) << i;
    EXPECT_EQ(got.chunks, expected_nodes[i].chunks) << i;
    EXPECT_EQ(got.work_units, expected_nodes[i].work_units) << i;
    EXPECT_EQ(got.compute_s, expected_nodes[i].compute_s) << i;
    EXPECT_EQ(got.network_s, 0.0) << i;
  }
}

TEST(PhaseExecutor, ChargesTheJitteredPhaseSpeed) {
  // The executor's phase is one cluster phase: each node's compute is
  // charged at the speed Cluster::phase_speed draws for it, the same
  // draw run_phase would make.
  cluster::ClusterOptions opts;
  opts.speed_jitter = 0.3;
  opts.jitter_seed = 777;
  cluster::Cluster cluster(cluster::standard_cluster(4), opts);
  cluster::Cluster twin(cluster::standard_cluster(4), opts);
  std::vector<double> speeds;
  for (std::uint32_t i = 0; i < 4; ++i) speeds.push_back(twin.phase_speed(i));
  constexpr double kUnits = 1e6;
  std::vector<std::vector<std::uint32_t>> queues(4, {0u});
  PhaseExecutor executor(
      cluster, queues,
      [](cluster::NodeContext& ctx, std::span<const std::uint32_t>) {
        ctx.meter().add(kUnits);
      },
      {.chunk_records = 1});
  const ExecutorReport report = executor.run();
  const cluster::WorkRate& rate = cluster.options().work_rate;
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(report.per_node[i].compute_s, rate.seconds(kUnits, speeds[i]))
        << "node " << i;
    EXPECT_NE(speeds[i], cluster.node(i).speed) << "node " << i;
  }
}

// ---- straggler / re-plan math ----------------------------------------------

TEST(Replan, DetectsOnlyDeviatingNodes) {
  std::vector<optimize::NodeModel> models{{.slope = 1e-3, .intercept = 0.0},
                                          {.slope = 1e-3, .intercept = 0.0}};
  std::vector<NodeObservation> obs{{100, 0.25, 100},   // 2.5e-3 s/rec
                                   {100, 0.11, 100}};  // 1.1e-3 s/rec
  StragglerPolicy policy;
  policy.deviation_factor = 1.5;
  policy.min_observed_records = 16;
  const auto stragglers = detect_stragglers(models, obs, policy);
  ASSERT_EQ(stragglers.size(), 1u);
  EXPECT_EQ(stragglers[0], 0u);
}

TEST(Replan, TooFewObservedRecordsIsNotFlagged) {
  std::vector<optimize::NodeModel> models{{.slope = 1e-3}};
  std::vector<NodeObservation> obs{{4, 4.0, 100}};  // wildly slow but 4 recs
  StragglerPolicy policy;
  policy.min_observed_records = 16;
  EXPECT_TRUE(detect_stragglers(models, obs, policy).empty());
}

TEST(Replan, RefitUsesObservedSlopeAndDropsIntercept) {
  std::vector<optimize::NodeModel> models{
      {.slope = 1e-3, .intercept = 0.5, .dirty_rate = 80.0},
      {.slope = 2e-3, .intercept = 0.1, .dirty_rate = -5.0}};
  std::vector<NodeObservation> obs{{200, 0.5, 100},  // observed 2.5e-3
                                   {2, 1.0, 100}};   // too few: keep 2e-3
  const auto refit = refit_models(models, obs, 16);
  EXPECT_NEAR(refit[0].slope, 2.5e-3, 1e-12);
  EXPECT_EQ(refit[0].intercept, 0.0);
  EXPECT_EQ(refit[0].dirty_rate, 80.0);
  EXPECT_NEAR(refit[1].slope, 2e-3, 1e-12);
}

TEST(Replan, RemainingConservedAndShiftedOffStraggler) {
  std::vector<optimize::NodeModel> refit{{.slope = 4e-3},  // straggler
                                         {.slope = 1e-3},
                                         {.slope = 1e-3}};
  std::vector<NodeObservation> obs{{50, 0.2, 300}, {50, 0.05, 300},
                                   {50, 0.05, 300}};
  const auto target = replan_remaining(refit, obs, 1.0);
  EXPECT_EQ(std::accumulate(target.begin(), target.end(), std::size_t{0}),
            900u);
  // The slow node should end up with well under an equal share.
  EXPECT_LT(target[0], 200u);
}

TEST(Replan, MigrationPlanMatchesDeltasExactly) {
  const std::vector<std::size_t> current{300, 300, 300};
  const std::vector<std::size_t> target{100, 450, 350};
  const auto steps = plan_migrations(current, target);
  std::vector<std::size_t> after = current;
  for (const auto& s : steps) {
    ASSERT_GE(after[s.from], s.count);
    after[s.from] -= s.count;
    after[s.to] += s.count;
  }
  EXPECT_EQ(after, target);
}

TEST(Replan, NoOpWhenTargetsMatch) {
  const std::vector<std::size_t> sizes{10, 20, 30};
  EXPECT_TRUE(plan_migrations(sizes, sizes).empty());
}

// ---- JobRuntime end to end -------------------------------------------------

TEST(JobRuntime, ProcessesEveryRecordWithoutReplanWhenModelsHold) {
  cluster::Cluster cluster(cluster::standard_cluster(4));
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  LinearWorkload workload;
  const data::Dataset dataset = small_corpus();
  JobRuntime runtime(cluster, energy, fast_spec());
  const JobSummary summary = runtime.run(dataset, workload);
  EXPECT_EQ(summary.records, dataset.size());
  EXPECT_EQ(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            dataset.size());
  EXPECT_EQ(summary.replans, 0u);
  EXPECT_EQ(summary.migrated_records, 0u);
  EXPECT_GT(summary.makespan_s, 0.0);
  EXPECT_GT(summary.setup_time_s, 0.0);
  EXPECT_GT(summary.total_energy_j(), 0.0);
  // Phase spans present in the trace, in pipeline order.
  for (const char* phase :
       {"ingest", "stratify", "estimate", "optimize", "partition", "execute"}) {
    EXPECT_EQ(runtime.trace().count(phase), 1u) << phase;
  }
}

TEST(JobRuntime, SingleNodeClusterCannotReplan) {
  cluster::Cluster cluster(cluster::standard_cluster(1));
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  LinearWorkload workload;
  const data::Dataset dataset = small_corpus(200);
  JobSpec spec = fast_spec();
  spec.per_node_slowdown = {3.0};  // badly wrong model, nowhere to shed load
  JobRuntime runtime(cluster, energy, spec);
  const JobSummary summary = runtime.run(dataset, workload);
  EXPECT_EQ(summary.replans, 0u);
  EXPECT_EQ(summary.migrated_records, 0u);
  EXPECT_EQ(summary.processed[0], dataset.size());
}

TEST(JobRuntime, InjectedStragglerTriggersReplanAndConservesRecords) {
  cluster::Cluster cluster(cluster::standard_cluster(4));
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  LinearWorkload workload;
  const data::Dataset dataset = small_corpus();
  JobSpec spec = fast_spec();
  spec.per_node_slowdown = {2.5, 1.0, 1.0, 1.0};
  JobRuntime runtime(cluster, energy, spec);
  const JobSummary summary = runtime.run(dataset, workload);
  EXPECT_GE(summary.replans, 1u);
  EXPECT_GE(summary.stragglers_detected, 1u);
  EXPECT_GT(summary.migrated_records, 0u);
  EXPECT_GT(summary.migrated_bytes, 0.0);
  EXPECT_EQ(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            dataset.size());
  EXPECT_GE(runtime.trace().count("straggler"), 1u);
  EXPECT_GE(runtime.trace().count("replan"), 1u);
  EXPECT_GE(runtime.trace().count("migrate"), 1u);
}

TEST(JobRuntime, ReplanningBeatsStaticPlanUnderTwoXSlopeError) {
  const data::Dataset dataset = small_corpus();
  const auto run_with = [&](bool enable_replan) {
    cluster::Cluster cluster(cluster::standard_cluster(4));
    const auto energy = energy::GreenEnergyEstimator::standard(72);
    LinearWorkload workload;
    JobSpec spec = fast_spec();
    spec.enable_replan = enable_replan;
    spec.per_node_slowdown = {2.5, 1.0, 1.0, 1.0};
    JobRuntime runtime(cluster, energy, spec);
    return runtime.run(dataset, workload);
  };
  const JobSummary fixed = run_with(false);
  const JobSummary replanned = run_with(true);
  EXPECT_EQ(fixed.replans, 0u);
  EXPECT_GE(replanned.replans, 1u);
  EXPECT_LT(replanned.makespan_s, fixed.makespan_s);
}

TEST(JobRuntime, TraceIsByteIdenticalAcrossSameSeedRuns) {
  const data::Dataset dataset = small_corpus(300);
  const auto trace_once = [&] {
    cluster::Cluster cluster(cluster::standard_cluster(4));
    const auto energy = energy::GreenEnergyEstimator::standard(72);
    LinearWorkload workload;
    JobSpec spec = fast_spec();
    spec.per_node_slowdown = {2.0, 1.0, 1.0, 1.0};
    spec.seed = 99;
    JobRuntime runtime(cluster, energy, spec);
    const JobSummary summary = runtime.run(dataset, workload);
    return runtime.trace().chrome_trace_json() + "\n" + summary_json(summary);
  };
  const std::string a = trace_once();
  const std::string b = trace_once();
  EXPECT_EQ(a, b);
}

TEST(JobRuntime, MiningJobKeepsSonQualityUnderChunkedExecution) {
  // SON completeness holds for any partitioning, including the runtime's
  // chunked execution: the candidate union over chunks is a superset of
  // the globally frequent patterns, and the global count phase is exact.
  const data::Dataset dataset = small_corpus(300, 21);
  const mining::AprioriConfig cfg{.min_support = 0.1, .max_pattern_length = 2};

  cluster::Cluster cluster(cluster::standard_cluster(4));
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  core::PatternMiningWorkload workload(cfg);
  JobRuntime runtime(cluster, energy, fast_spec());
  const JobSummary summary = runtime.run(dataset, workload);

  std::vector<data::ItemSet> txns;
  for (const auto& r : dataset.records) txns.push_back(r.items);
  const mining::MiningResult direct = mining::apriori(txns, cfg);
  EXPECT_EQ(static_cast<std::size_t>(summary.quality),
            direct.frequent.size());
  EXPECT_EQ(runtime.trace().count("global"), 1u);
}

TEST(JobRuntime, SummaryJsonIsWellFormedEnough) {
  JobSummary s;
  s.job = "j";
  s.workload = "w";
  s.initial_sizes = {1, 2};
  s.processed = {2, 1};
  const std::string doc = summary_json(s);
  EXPECT_NE(doc.find("\"job\":\"j\""), std::string::npos);
  EXPECT_NE(doc.find("\"initial_sizes\":[1,2]"), std::string::npos);
  EXPECT_NE(doc.find("\"processed\":[2,1]"), std::string::npos);
}

TEST(JobRuntime, RejectsBadSpecs) {
  cluster::Cluster cluster(cluster::standard_cluster(2));
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  JobSpec bad_alpha;
  bad_alpha.alpha = 1.5;
  EXPECT_THROW(JobRuntime(cluster, energy, bad_alpha), common::ConfigError);
  JobSpec bad_slowdown;
  bad_slowdown.per_node_slowdown = {1.0};  // 1 entry, 2 nodes
  EXPECT_THROW(JobRuntime(cluster, energy, bad_slowdown), common::ConfigError);
}

TEST(JobRuntime, ExecuteBeforePrepareThrows) {
  cluster::Cluster cluster(cluster::standard_cluster(2));
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  JobRuntime rt(cluster, energy, fast_spec());
  EXPECT_THROW((void)rt.execute(core::Strategy::kHetAware),
               common::ConfigError);
}

TEST(JobRuntime, WorkloadConfigErrorPropagates) {
  // A subtree miner given text records is a caller's mistake: the job
  // throws instead of reporting the records as lost to faults.
  cluster::Cluster cluster(cluster::standard_cluster(4));
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  JobRuntime rt(cluster, energy, fast_spec());
  core::SubtreeMiningWorkload workload(
      {.min_support = 0.1, .max_pattern_nodes = 2});
  EXPECT_THROW((void)rt.run(small_corpus(300), workload), common::ConfigError);
}

TEST(JobRuntime, RunIsPrepareThenExecute) {
  const data::Dataset ds = small_corpus();
  LinearWorkload workload;
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  cluster::Cluster whole(cluster::standard_cluster(4));
  JobRuntime one(whole, energy, fast_spec());
  const std::string summary = summary_json(one.run(ds, workload));
  const std::string trace = one.trace().chrome_trace_json();

  cluster::Cluster halves(cluster::standard_cluster(4));
  JobRuntime two(halves, energy, fast_spec());
  two.prepare(ds, workload);
  EXPECT_GT(two.prepare_time_s(), 0.0);
  EXPECT_EQ(two.strata().assignment.size(), ds.size());
  EXPECT_EQ(two.plan_sizes(core::Strategy::kHetAware, ds.size()),
            optimize::solve_partition_sizes(two.node_models(), ds.size(), 1.0)
                .sizes);
  EXPECT_EQ(summary_json(two.execute(fast_spec().strategy)), summary);
  EXPECT_EQ(two.trace().chrome_trace_json(), trace);

  // One prepare, every strategy in turn (`run-job --strategy all`): each
  // execution equals a lone run(), even after the one before it
  // re-planned and refit the node models.
  JobSpec replanning = fast_spec();
  replanning.per_node_slowdown = {2.5, 1.0, 1.0, 1.0};
  cluster::Cluster shared(cluster::standard_cluster(4));
  JobRuntime all(shared, energy, replanning);
  all.prepare(ds, workload);
  std::size_t replans_before_last = 0;
  for (const core::Strategy s :
       {core::Strategy::kRandom, core::Strategy::kStratified,
        core::Strategy::kHetAware, core::Strategy::kHetEnergyAware}) {
    JobSpec lone_spec = replanning;
    lone_spec.strategy = s;
    cluster::Cluster fresh(cluster::standard_cluster(4));
    JobRuntime lone(fresh, energy, lone_spec);
    const std::string expected = summary_json(lone.run(ds, workload));
    const JobSummary got = all.execute(s);
    EXPECT_EQ(summary_json(got), expected) << core::strategy_name(s);
    if (s != core::Strategy::kHetEnergyAware) {
      replans_before_last += got.replans;
    }
  }
  all.release();
  EXPECT_GE(replans_before_last, 1u);
}

// ---- work stealing (Strategy::kWorkStealing) -------------------------------

struct LinearJob {
  JobSummary summary;
  std::vector<TraceEvent> events;
  std::string trace;
};

/// One LinearWorkload job under `spec` with re-planning off, on a fresh
/// standard cluster of `nodes` nodes, under `plan` when given.
LinearJob run_linear(std::uint32_t nodes, const data::Dataset& dataset,
                     JobSpec spec, const fault::FaultPlan* plan = nullptr) {
  cluster::Cluster cluster(cluster::standard_cluster(nodes));
  std::unique_ptr<fault::FaultInjector> inj;
  if (plan != nullptr) {
    inj = std::make_unique<fault::FaultInjector>(*plan);
    cluster.set_fault(inj.get());
  }
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  LinearWorkload workload;
  spec.enable_replan = false;
  JobRuntime runtime(cluster, energy, spec);
  LinearJob job{.summary = runtime.run(dataset, workload)};
  job.events = runtime.trace().events();
  job.trace = runtime.trace().chrome_trace_json();
  return job;
}

JobSpec stealing_spec(std::size_t checkpoint_records = 0) {
  JobSpec spec = fast_spec();
  spec.strategy = core::Strategy::kWorkStealing;
  spec.checkpoint_records = checkpoint_records;
  return spec;
}

std::size_t total_processed(const JobSummary& summary) {
  return std::accumulate(summary.processed.begin(), summary.processed.end(),
                         std::size_t{0});
}

TEST(WorkStealing, StealsBalanceHeterogeneousNodes) {
  // Speeds 4/3/2/1 twice over: equal Random partitions leave the slow
  // nodes with the tail, which the fast nodes steal through the fabric.
  const data::Dataset dataset = small_corpus();
  const JobSummary stealing = run_linear(8, dataset, stealing_spec()).summary;
  JobSpec random_spec = fast_spec();
  random_spec.strategy = core::Strategy::kRandom;
  const JobSummary random = run_linear(8, dataset, random_spec).summary;
  EXPECT_EQ(stealing.initial_sizes, random.initial_sizes);
  EXPECT_GT(stealing.migration_steps, 0u);
  EXPECT_EQ(stealing.replans, 0u);
  EXPECT_EQ(random.migration_steps, 0u);
  verify_no_work_lost(stealing);
  EXPECT_LT(stealing.makespan_s, random.makespan_s);
}

TEST(WorkStealing, MigrationAccounted) {
  // Every steal is one "steal" span on the thief's lane, and the summary's
  // migrated_* fields are exactly the sums over those spans.
  const LinearJob job = run_linear(4, small_corpus(), stealing_spec());
  std::size_t steals = 0;
  double records = 0.0;
  double bytes = 0.0;
  for (const TraceEvent& e : job.events) {
    if (e.name != "steal") continue;
    ++steals;
    for (const auto& [key, value] : e.args) {
      if (key == "records") records += value;
      if (key == "bytes") bytes += value;
    }
  }
  EXPECT_GT(steals, 0u);
  EXPECT_EQ(job.summary.migration_steps, steals);
  EXPECT_EQ(static_cast<double>(job.summary.migrated_records), records);
  EXPECT_GT(job.summary.migrated_bytes, 0.0);
  EXPECT_DOUBLE_EQ(job.summary.migrated_bytes, bytes);
}

TEST(WorkStealing, SingleNodeProcessesEverything) {
  const data::Dataset dataset = small_corpus(200);
  const JobSummary summary = run_linear(1, dataset, stealing_spec()).summary;
  EXPECT_EQ(summary.migration_steps, 0u);
  EXPECT_EQ(summary.migrated_records, 0u);
  EXPECT_EQ(summary.migrated_bytes, 0.0);
  EXPECT_EQ(summary.processed[0], dataset.size());
}

TEST(WorkStealing, DeterministicAcrossRuns) {
  const data::Dataset dataset = small_corpus(300);
  const LinearJob a = run_linear(4, dataset, stealing_spec());
  const LinearJob b = run_linear(4, dataset, stealing_spec());
  EXPECT_GT(a.summary.migration_steps, 0u);
  EXPECT_EQ(summary_json(a.summary), summary_json(b.summary));
  EXPECT_TRUE(a.trace == b.trace) << "same-seed work-stealing traces differ";
}

TEST(WorkStealing, SkewedChunksStillComplete) {
  // A node three times slower than its model is stolen from more, and
  // every record is still processed exactly once.
  const data::Dataset dataset = small_corpus();
  JobSpec spec = stealing_spec();
  spec.per_node_slowdown = {1.0, 1.0, 1.0, 3.0};
  const JobSummary summary = run_linear(4, dataset, spec).summary;
  EXPECT_GT(summary.migration_steps, 0u);
  EXPECT_EQ(total_processed(summary), dataset.size());
  EXPECT_DOUBLE_EQ(summary.total_work_units,
                   500.0 * static_cast<double>(dataset.size()));
}

TEST(WorkStealing, MoreChunksImproveBalance) {
  const data::Dataset dataset = small_corpus();
  const JobSummary coarse = run_linear(4, dataset, stealing_spec(50)).summary;
  const JobSummary fine = run_linear(4, dataset, stealing_spec(6)).summary;
  EXPECT_GT(coarse.migration_steps, 0u);
  EXPECT_GE(fine.migration_steps, coarse.migration_steps);
  EXPECT_LE(fine.makespan_s, coarse.makespan_s);
}

TEST(WorkStealing, FailStopStillAccountsForEveryRecord) {
  const data::Dataset dataset = small_corpus();
  for (const double at : {0.0, 1e-3}) {
    SCOPED_TRACE(at);
    fault::FaultPlan plan;
    plan.nodes[3].fail_stop_at_s = at;
    const JobSummary summary =
        run_linear(4, dataset, stealing_spec(), &plan).summary;
    EXPECT_EQ(summary.nodes_lost, (std::vector<std::uint32_t>{3}));
    EXPECT_NE(summary.status, JobStatus::kDataUnavailable);
    EXPECT_GT(summary.migration_steps, 0u);
    EXPECT_EQ(total_processed(summary), dataset.size());
    verify_no_work_lost(summary);
  }
}

// ---- JobRuntime and core::ParetoFramework on one cluster ------------------

core::FrameworkConfig planning_config() {
  core::FrameworkConfig cfg;
  cfg.sampling.min_records = 40;
  return cfg;
}

JobSpec planning_spec() {
  JobSpec spec;
  spec.sampling.min_records = 40;
  spec.enable_replan = false;
  return spec;
}

TEST(JobRuntime, RepeatedJobsOnOneClusterStartClean) {
  // Every job appends to the master's sketch lists and data list; a job
  // that left them behind made the next job's setup read them back.
  // Rewinding the clock between jobs keeps float rounding of the
  // absolute time out of the comparison.
  const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(0.25));
  core::PatternMiningWorkload workload(
      {.min_support = 0.08, .max_pattern_length = 3});
  const auto energy = energy::GreenEnergyEstimator::standard(72);

  cluster::Cluster fw_cluster(cluster::standard_cluster(8));
  core::ParetoFramework framework(fw_cluster, energy, planning_config());
  std::vector<double> fw_setup;
  std::vector<std::string> reports;
  for (int job = 0; job < 3; ++job) {
    fw_cluster.reset_clock();
    framework.prepare(ds, workload);
    fw_setup.push_back(framework.setup_time_s());
    reports.push_back(core::to_json(
        framework.run(core::Strategy::kHetAware, ds, workload)));
  }
  EXPECT_EQ(fw_setup[1], fw_setup[0]);
  EXPECT_EQ(fw_setup[2], fw_setup[0]);
  EXPECT_EQ(reports[2], reports[0]);

  cluster::Cluster rt_cluster(cluster::standard_cluster(8));
  JobRuntime rt(rt_cluster, energy, planning_spec());
  std::vector<double> rt_setup;
  std::vector<std::string> summaries;
  std::vector<std::string> traces;
  for (int job = 0; job < 3; ++job) {
    rt_cluster.reset_clock();
    const JobSummary summary = rt.run(ds, workload);
    rt_setup.push_back(summary.setup_time_s);
    summaries.push_back(summary_json(summary));
    traces.push_back(rt.trace().chrome_trace_json());
  }
  EXPECT_EQ(rt_setup[1], rt_setup[0]);
  EXPECT_EQ(rt_setup[2], rt_setup[0]);
  EXPECT_EQ(summaries[2], summaries[0]);
  EXPECT_TRUE(traces[2] == traces[0]) << "trace of job 3 differs from job 1";
}

}  // namespace
}  // namespace hetsim::runtime
