// perfbench_e2e — hetsim's end-to-end benchmark program.
//
// One process runs one workload. It generates the corpus (the program's
// only input), then times jobs through the public entry points —
// runtime::JobRuntime::run, or
// core::ParetoFramework::prepare/run/predicted_frontier — cycling through
// job seeds derived from --seed for at least --seconds. Once the timed
// jobs are done it computes a mining oracle or a codec round trip and
// checks every job's output. It prints a metadata line and then one JSON
// result line.
//
// With --trace 1 it alternates untraced and traced jobs and reports
// per-layer numbers instead: host spans around the public calls and
// around every core::Workload call (through a forwarding wrapper),
// standalone replays of the sketch/stratify/optimize/partition entry
// points on the job's own inputs, and counters read from the cluster's
// public stats. README.md beside this file maps every metric to the
// layer it measures and the workload it should move on.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/check.h"
#include "common/allocation.h"
#include "common/args.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/rng.h"
#include "compress/webgraph.h"
#include "core/compression_workload.h"
#include "core/framework.h"
#include "core/mining_workload.h"
#include "core/report_io.h"
#include "core/subtree_workload.h"
#include "data/generators.h"
#include "mining/apriori.h"
#include "mining/treeminer.h"
#include "optimize/pareto.h"
#include "par/pool.h"
#include "partition/partitioner.h"
#include "runtime/runtime.h"
#include "simd/simd.h"

namespace {

using namespace hetsim;

constexpr std::uint32_t kNodes = 8;
/// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupReps = 11;
/// Fig. 5 alpha list (raw scalarization), swept by text-frontier.
const std::vector<double> kFrontierAlphas{
    1.0,   0.9999, 0.9995, 0.999, 0.998, 0.997, 0.996, 0.995, 0.994,
    0.993, 0.992,  0.991,  0.99,  0.95,  0.9,   0.5,   0.0};

// ---- clocks ----------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// calibration_kernel()'s duration on the host the benchmark landed on
/// (README.md). Host times are reported in seconds of that host.
constexpr double kCalibrationRefS = 0.048;

/// Times fixed integer, sort and std::map work, the mix of the workloads'
/// hot paths.
double calibration_kernel() {
  static volatile std::uint64_t sink = 0;
  const double t0 = wall_now();
  std::uint64_t state = 0x243f6a8885a308d3ULL;
  std::vector<std::uint64_t> v(1 << 18);
  for (std::uint64_t& x : v) x = common::splitmix64(state);
  std::sort(v.begin(), v.end());
  std::map<std::uint64_t, std::uint64_t> m;
  for (std::size_t i = 0; i < v.size(); i += 2) m[v[i] % 8192] += i;
  sink = sink + v[v.size() / 2] + m.size();
  return wall_now() - t0;
}

/// Reads the speed a shared host is giving the benchmark at a moment, by
/// timing calibration_kernel() in a child process. The child is forked
/// before the benchmark starts any thread and has its own heap, so
/// nothing the measured program does to its heap, allocator or threads
/// reaches the kernel and is divided out. The parent blocks while the
/// child works, so the kernel never overlaps a job. Closing the pipe ends
/// the child.
class Calibrator {
 public:
  Calibrator() {
    int request[2];
    int reply[2];
    common::require(pipe(request) == 0 && pipe(reply) == 0,
                    "calibrator: pipe() failed");
    std::signal(SIGPIPE, SIG_IGN);
    pid_ = fork();
    common::require(pid_ >= 0, "calibrator: fork() failed");
    if (pid_ == 0) {
      close(request[1]);
      close(reply[0]);
      char c = 0;
      while (read(request[0], &c, 1) == 1) {
        const double t = calibration_kernel();
        if (write(reply[1], &t, sizeof t) != sizeof t) break;
      }
      _exit(0);
    }
    close(request[0]);
    close(reply[1]);
    request_ = request[1];
    reply_ = reply[0];
  }
  ~Calibrator() {
    close(request_);
    close(reply_);
    waitpid(pid_, nullptr, 0);
  }
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  /// Seconds of calibration_kernel() in the child, now.
  double time_kernel() const {
    const char c = 1;
    double t = 0.0;
    common::require(write(request_, &c, 1) == 1 &&
                        read(reply_, &t, sizeof t) == sizeof t,
                    "calibrator: the child process did not answer");
    return t;
  }

 private:
  pid_t pid_ = -1;
  int request_ = -1;
  int reply_ = -1;
};

// ---- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::uint64_t job = 0;
};

/// In-memory span log, written out when the run ends. Workload calls
/// arrive on the runtime executor's per-node threads, so every access
/// is locked.
class SpanLog {
 public:
  int open(std::string name, int parent, std::uint64_t job) {
    const double t = wall_now();
    const std::lock_guard lock(mu_);
    spans_.push_back({std::move(name), t, t, parent, job});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    const double t = wall_now();
    const std::lock_guard lock(mu_);
    spans_.at(static_cast<std::size_t>(id)).end_s = t;
  }
  [[nodiscard]] std::vector<Span> snapshot() const {
    const std::lock_guard lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// A span over a scope; a no-op when the log is null (untraced jobs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent, std::uint64_t job)
      : log_(log),
        id_(log != nullptr ? log->open(std::move(name), parent, job) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Forwarding core::Workload that spans every run() and every global
/// task and meters their work units. run() calls before the first
/// reset() are the estimator's progressive sample runs; later ones
/// execute partitions.
class TracedWorkload final : public core::Workload {
 public:
  TracedWorkload(core::Workload& inner, std::string layer, SpanLog& log,
                 std::uint64_t job)
      : inner_(inner), layer_(std::move(layer)), log_(log), job_(job) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] partition::Layout preferred_layout() const override {
    return inner_.preferred_layout();
  }
  void reset(std::size_t num_partitions, std::uint32_t coordinator) override {
    executing_ = true;
    inner_.reset(num_partitions, coordinator);
  }
  void run(cluster::NodeContext& ctx, const data::Dataset& dataset,
           std::span<const std::uint32_t> indices) override {
    const bool executing = executing_.load();
    if (!executing) ++sample_runs_;
    const double before = ctx.meter().units();
    {
      const ScopedSpan span(&log_, layer_ + (executing ? ".run" : ".estimate"),
                            parent_.load(), job_);
      inner_.run(ctx, dataset, indices);
    }
    add_units(ctx.meter().units() - before);
  }
  [[nodiscard]] std::vector<cluster::NodeTask> make_global_tasks(
      const data::Dataset& dataset,
      const partition::PartitionAssignment& assignment) override {
    std::vector<cluster::NodeTask> tasks =
        inner_.make_global_tasks(dataset, assignment);
    for (cluster::NodeTask& task : tasks) {
      task = [this, inner = std::move(task)](cluster::NodeContext& ctx) {
        const double before = ctx.meter().units();
        {
          const ScopedSpan span(&log_, layer_ + ".global", parent_.load(),
                                job_);
          inner(ctx);
        }
        add_units(ctx.meter().units() - before);
      };
    }
    return tasks;
  }
  [[nodiscard]] double quality() const override { return inner_.quality(); }

  /// Span that the wrapper's spans hang under (the public call in flight).
  void set_parent(int id) noexcept { parent_ = id; }
  [[nodiscard]] std::uint64_t sample_runs() const noexcept {
    return sample_runs_.load();
  }
  [[nodiscard]] double work_units() const {
    const std::lock_guard lock(mu_);
    return units_;
  }

 private:
  void add_units(double units) {
    const std::lock_guard lock(mu_);
    units_ += units;
  }

  core::Workload& inner_;
  const std::string layer_;
  SpanLog& log_;
  const std::uint64_t job_;
  std::atomic<bool> executing_{false};
  std::atomic<int> parent_{-1};
  std::atomic<std::uint64_t> sample_runs_{0};
  mutable std::mutex mu_;
  double units_ = 0.0;
};

// ---- workloads -------------------------------------------------------------

enum class Kind : std::uint8_t { kTreeSon, kGraphReplicated, kTextFrontier };

Kind parse_kind(const std::string& name) {
  if (name == "tree-son") return Kind::kTreeSon;
  if (name == "graph-replicated") return Kind::kGraphReplicated;
  if (name == "text-frontier") return Kind::kTextFrontier;
  throw common::ConfigError(
      "unknown workload: " + name +
      " (expected tree-son | graph-replicated | text-frontier)");
}

/// The workload's corpus: the paper-analogue preset, generated with the
/// preset's own seed. The corpus is deliberately the same for every
/// workload seed: its latent topics and compositeKModes's convergence
/// (5 to 20 iterations over reshuffled or regenerated corpora) move a
/// job's cost by up to 3x, far beyond any usable run-to-run bound. The
/// workload seed instead drives the job: the estimator's progressive
/// samples, hence the fitted models, the LP plan and every partition's
/// contents, plus the runtime's scheduler and shard-map seed.
data::Dataset generate(Kind kind, double scale) {
  switch (kind) {
    case Kind::kTreeSon:
      return data::generate_tree_corpus(data::swissprot_like(0.5 * scale),
                                        "trees");
    case Kind::kGraphReplicated:
      return data::generate_graph_corpus(data::uk_like(1.0 * scale),
                                         "webgraph");
    case Kind::kTextFrontier:
      return data::generate_text_corpus(data::rcv1_like(1.0 * scale), "rcv1");
  }
  throw common::ConfigError("generate: unknown workload");
}

constexpr mining::TreeMinerConfig kTreeMining{.min_support = 0.08,
                                              .max_pattern_nodes = 3};
constexpr mining::AprioriConfig kTextMining{.min_support = 0.08,
                                            .max_pattern_length = 3};

std::unique_ptr<core::Workload> make_workload(Kind kind) {
  switch (kind) {
    case Kind::kTreeSon:
      return std::make_unique<core::SubtreeMiningWorkload>(kTreeMining);
    case Kind::kGraphReplicated:
      return std::make_unique<core::CompressionWorkload>(
          core::CompressionWorkload::Algorithm::kWebGraph);
    case Kind::kTextFrontier:
      return std::make_unique<core::PatternMiningWorkload>(kTextMining);
  }
  throw common::ConfigError("make_workload: unknown workload");
}

const char* layer_of(Kind kind) {
  return kind == Kind::kGraphReplicated ? "compress" : "mining";
}

/// tree-son samples 6-25% of the corpus (45-188 trees): the default
/// 0.05-2% of 750 trees falls below the 40-record floor at every step, so
/// all five samples have the same size, the fitted slopes are noise and
/// the plan, hence SON's candidate union and a job's host cost, swings by
/// 4x from one job seed to the next.
runtime::JobSpec job_spec(Kind kind, std::uint64_t seed) {
  runtime::JobSpec spec;
  spec.name = kind == Kind::kTreeSon ? "tree-son" : "graph-replicated";
  spec.strategy = core::Strategy::kHetAware;
  spec.sampling.min_records = 40;
  if (kind == Kind::kTreeSon) {
    spec.sampling.min_fraction = 0.06;
    spec.sampling.max_fraction = 0.25;
  }
  spec.sampling.seed = seed;
  spec.seed = seed;
  if (kind == Kind::kGraphReplicated) {
    spec.replication = 2;
    spec.per_node_slowdown.assign(kNodes, 1.0);
    spec.per_node_slowdown[0] = 2.5;
  }
  return spec;
}

/// Progressive samples of 2-10% (120-600 documents) rather than the
/// default 0.05-2%: the smaller the samples, the more often the fitted
/// models hand the slowest nodes a sliver of the corpus (see
/// kMinFrontierShare).
core::FrameworkConfig framework_config(std::uint64_t seed) {
  core::FrameworkConfig cfg;
  cfg.sampling.min_records = 40;
  cfg.sampling.min_fraction = 0.02;
  cfg.sampling.max_fraction = 0.10;
  cfg.sampling.seed = seed;
  cfg.energy_alpha = 0.75;
  cfg.normalized_alpha = true;
  return cfg;
}

/// Smallest non-empty partition a text-frontier plan may give a node, as
/// a share of the corpus (100 of 6,000 documents; the slowest nodes'
/// usual share is 300). Now and then a job seed's samples fit models that
/// hand those nodes a sliver (46 documents in one job seed in a hundred
/// at 2-10% sampling; 12 at 1-5%). At 8% support every itemset of such a
/// sliver is locally frequent, and SON's global phase then runs for
/// minutes. A job seed whose Het-Aware or Het-Energy-Aware plan has such a
/// partition is replaced by the next one derived from --seed.
constexpr double kMinFrontierShare = 1.0 / 60.0;
/// Refusals after which a run gives up rather than search on.
constexpr std::size_t kMaxRefusedSeeds = 64;

// ---- per-layer metric table ------------------------------------------------

/// Every per-layer metric with its unit. Each traced job reports all of
/// them; a layer a workload does not cross reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> table{
      {"data.generate_s", "s"},
      {"sketch.host_s", "s"},
      {"stratify.host_s", "s"},
      {"stratify.iterations", "count"},
      {"stratify.work_ops", "count"},
      {"estimator.sample_runs", "count"},
      {"mining.estimate_host_s", "s"},
      {"mining.run_host_s", "s"},
      {"mining.global_host_s", "s"},
      {"mining.work_units", "count"},
      {"compress.estimate_host_s", "s"},
      {"compress.run_host_s", "s"},
      {"compress.work_units", "count"},
      {"compress.ratio", "ratio"},
      {"optimize.host_s", "s"},
      {"partition.host_s", "s"},
      {"partition.representativeness_l1", "ratio"},
      {"kvstore.ops", "count"},
      {"kvstore.retries", "count"},
      {"net.messages", "count"},
      {"net.round_trips", "count"},
      {"net.bytes", "bytes"},
      {"ha.routed_writes", "count"},
      {"ha.routed_reads", "count"},
      {"ha.fallback_reads", "count"},
      {"runtime.host_s", "s"},
      {"runtime.self_host_s", "s"},
      {"runtime.ingest.virtual_s", "s"},
      {"runtime.stratify.virtual_s", "s"},
      {"runtime.estimate.virtual_s", "s"},
      {"runtime.partition.virtual_s", "s"},
      {"runtime.execute.virtual_s", "s"},
      {"runtime.global.virtual_s", "s"},
      {"runtime.replans", "count"},
      {"runtime.migrated_bytes", "bytes"},
      {"core.prepare_host_s", "s"},
      {"core.run_host_s", "s"},
      {"core.self_host_s", "s"},
      {"cluster.work_units", "count"},
      {"cluster.busy_virtual_s", "s"},
      {"trace.job_wall_s", "s"},
      {"trace.untraced_job_wall_s", "s"},
      {"trace.overhead_s", "s"},
      {"trace.mining_share", "ratio"},
      {"trace.sketch_stratify_share", "ratio"},
  };
  return table;
}

using Layers = std::map<std::string, double>;

// ---- one job ---------------------------------------------------------------

struct Bench {
  Kind kind = Kind::kTreeSon;
  data::Dataset dataset;
  std::optional<energy::GreenEnergyEstimator> energy;
};

struct JobResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Mean calibration kernel time just before and just after the job.
  double calibration_s = 0.0;
  // Virtual (simulated) outcome: deterministic per seed.
  double makespan_s = 0.0;
  double setup_s = 0.0;
  double dirty_j = 0.0;
  /// Pattern count (mining) or compression ratio (graph).
  double quality = 0.0;
  /// Hash of chrome_trace_json() (runtime jobs) or of the four reports
  /// plus the frontier (text-frontier).
  std::uint64_t digest = 0;
  /// Failed output checks that need no reference (status, no work lost,
  /// strategies agreeing).
  std::vector<std::string> problems;
  /// Per-layer numbers of a traced job.
  Layers layers;
  /// False when the job seed's plan was refused (kMinFrontierShare)
  /// and nothing past prepare() ran.
  bool admitted = true;
};

/// Counters from the cluster's public stats (fresh cluster per job, so
/// totals are the job's own).
void read_cluster_counters(cluster::Cluster& cluster, Layers& l) {
  const net::LinkStats link = cluster.fabric().total_stats();
  l["net.messages"] = static_cast<double>(link.messages);
  l["net.round_trips"] = static_cast<double>(link.round_trips);
  l["net.bytes"] = static_cast<double>(link.bytes);
  l["kvstore.retries"] =
      static_cast<double>(cluster.fabric().retry_stats().retries);
  double ops = 0.0;
  for (std::uint32_t i = 0; i < cluster.size(); ++i) {
    ops += static_cast<double>(cluster.store(i).stats().ops);
  }
  l["kvstore.ops"] = ops;
  double units = 0.0;
  double busy = 0.0;
  for (const cluster::PhaseReport& phase : cluster.history()) {
    for (const cluster::NodePhaseResult& r : phase.per_node) {
      units += r.work_units;
    }
    busy += phase.total_busy_s();
  }
  l["cluster.work_units"] = units;
  l["cluster.busy_virtual_s"] = busy;
}

/// Standalone replays of the sketch and stratify entry points on the
/// job's own inputs and config. Sketching runs on one thread, as the
/// job's per-node sketch tasks do; compositeKModes uses the global pool,
/// as the job does.
stratify::Stratification replay_stratify(
    const data::Dataset& dataset, const sketch::SketchConfig& sketch_cfg,
    const stratify::KModesConfig& kmodes_cfg, SpanLog& log, int parent,
    std::uint64_t job, Layers& l) {
  const sketch::MinHasher hasher(sketch_cfg);
  par::ThreadPool serial(1);
  std::vector<sketch::Sketch> sketches;
  {
    const ScopedSpan span(&log, "sketch.replay", parent, job);
    sketches = hasher.sketch_all(dataset.records, {.pool = &serial});
  }
  stratify::Stratification strata;
  {
    const ScopedSpan span(&log, "stratify.replay", parent, job);
    strata = stratify::composite_kmodes(sketches, kmodes_cfg);
  }
  l["stratify.iterations"] = strata.iterations;
  l["stratify.work_ops"] = static_cast<double>(strata.work_ops);
  return strata;
}

void replay_partition(const stratify::Stratification& strata,
                      const std::vector<std::size_t>& sizes,
                      partition::Layout layout, SpanLog& log, int parent,
                      std::uint64_t job, Layers& l) {
  partition::PartitionAssignment assignment;
  {
    const ScopedSpan span(&log, "partition.replay", parent, job);
    assignment = partition::make_partitions(strata, sizes, layout);
  }
  // Mean over partitions of the L1 distance between a partition's stratum
  // mix and the corpus's.
  double l1 = 0.0;
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    l1 += partition::representativeness_l1(assignment, p, strata);
  }
  l["partition.representativeness_l1"] = l1 / static_cast<double>(sizes.size());
}

/// Host-time split of a traced job, from its spans. `wall_s` is the
/// job's timed wall clock (the replays run after it).
void fill_span_metrics(const SpanLog& log, std::uint64_t job, int root,
                       const std::string& layer, double wall_s, Layers& l) {
  const std::vector<Span> spans = log.snapshot();
  std::map<std::string, double> by_name;
  std::map<std::size_t, double> child_time;
  for (const Span& s : spans) {
    if (s.job != job) continue;
    by_name[s.name] += s.end_s - s.start_s;
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  const auto total = [&](const std::string& name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second;
  };
  l[layer + ".estimate_host_s"] = total(layer + ".estimate");
  l[layer + ".run_host_s"] = total(layer + ".run");
  if (layer == "mining") l["mining.global_host_s"] = total("mining.global");
  l["sketch.host_s"] = total("sketch.replay");
  l["stratify.host_s"] = total("stratify.replay");
  l["optimize.host_s"] = total("optimize.replay");
  l["partition.host_s"] = total("partition.replay");
  l["runtime.host_s"] = total("runtime.run");
  l["core.prepare_host_s"] = total("core.prepare");
  l["core.run_host_s"] = total("core.run");
  // Self time of the public calls: their spans minus the workload spans
  // nested under them.
  double self = 0.0;
  bool framework = false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.job != job || s.parent != root) continue;
    const bool core_call = s.name.rfind("core.", 0) == 0;
    if (s.name != "runtime.run" && !core_call) continue;
    framework = framework || core_call;
    const auto it = child_time.find(i);
    self += (s.end_s - s.start_s) -
            (it == child_time.end() ? 0.0 : it->second);
  }
  l[framework ? "core.self_host_s" : "runtime.self_host_s"] = self;
  l["trace.mining_share"] =
      (total("mining.estimate") + total("mining.global")) / wall_s;
  l["trace.sketch_stratify_share"] =
      (total("sketch.replay") + total("stratify.replay")) / wall_s;
}

JobResult run_runtime_job(const Bench& b, std::uint64_t seed, SpanLog* log,
                          std::uint64_t job) {
  const runtime::JobSpec spec = job_spec(b.kind, seed);
  std::unique_ptr<core::Workload> inner = make_workload(b.kind);
  std::optional<TracedWorkload> traced;
  if (log != nullptr) traced.emplace(*inner, layer_of(b.kind), *log, job);
  core::Workload& workload = traced ? *traced : *inner;

  JobResult r;
  runtime::JobSummary summary;
  const double w0 = wall_now();
  const double c0 = cpu_now();
  std::optional<ScopedSpan> root;
  root.emplace(log, "job", -1, job);
  cluster::Cluster cluster(cluster::standard_cluster(kNodes));
  runtime::JobRuntime job_runtime(cluster, *b.energy, spec);
  {
    const ScopedSpan span(log, "runtime.run", root->id(), job);
    if (traced) traced->set_parent(span.id());
    summary = job_runtime.run(b.dataset, workload);
  }
  const int root_id = root->id();
  root.reset();
  r.wall_s = wall_now() - w0;
  r.cpu_s = cpu_now() - c0;

  r.makespan_s = summary.makespan_s;
  r.setup_s = summary.setup_time_s;
  r.dirty_j = summary.dirty_energy_j;
  r.quality = summary.quality;
  r.digest = common::hash_bytes(job_runtime.trace().chrome_trace_json());
  if (summary.status != runtime::JobStatus::kOk) {
    r.problems.push_back("status " +
                         std::string(runtime::job_status_name(summary.status)));
  }
  std::size_t processed = 0;
  for (const std::size_t v : summary.processed) processed += v;
  if (processed != b.dataset.size()) {
    r.problems.push_back("processed " + std::to_string(processed) + " of " +
                         std::to_string(b.dataset.size()) + " records");
  }
  if (log == nullptr) return r;

  // ---- traced job: counters, replays, span totals ----
  Layers& l = r.layers;
  read_cluster_counters(cluster, l);
  if (const ha::ShardRouter* router = job_runtime.router()) {
    const ha::RouterStats rs = router->stats();
    l["ha.routed_writes"] = static_cast<double>(rs.routed_writes);
    l["ha.routed_reads"] = static_cast<double>(rs.routed_reads);
    l["ha.fallback_reads"] = static_cast<double>(rs.fallback_reads);
  }
  // Phase spans (virtual seconds) from the job's own trace.
  for (const runtime::TraceEvent& e : job_runtime.trace().events()) {
    if (e.kind != runtime::TraceEventKind::kComplete ||
        e.lane != runtime::TraceRecorder::kRuntimeLane ||
        e.category.rfind("phase.", 0) != 0) {
      continue;
    }
    l["runtime." + e.category.substr(6) + ".virtual_s"] += e.duration_s;
  }
  l["runtime.replans"] = static_cast<double>(summary.replans);
  l["runtime.migrated_bytes"] = summary.migrated_bytes;
  l["estimator.sample_runs"] = static_cast<double>(traced->sample_runs());
  l[std::string(layer_of(b.kind)) + ".work_units"] = traced->work_units();
  if (b.kind == Kind::kGraphReplicated) l["compress.ratio"] = summary.quality;

  const stratify::Stratification strata = replay_stratify(
      b.dataset, spec.sketch, spec.kmodes, *log, root_id, job, l);
  {
    const ScopedSpan span(log, "optimize.replay", root_id, job);
    (void)optimize::solve_partition_sizes(job_runtime.node_models(),
                                          b.dataset.size(), 1.0);
  }
  replay_partition(strata, summary.initial_sizes, workload.preferred_layout(),
                   *log, root_id, job, l);
  fill_span_metrics(*log, job, root_id, layer_of(b.kind), r.wall_s, l);
  return r;
}

const std::vector<core::Strategy>& all_strategies() {
  static const std::vector<core::Strategy> s{
      core::Strategy::kRandom, core::Strategy::kStratified,
      core::Strategy::kHetAware, core::Strategy::kHetEnergyAware};
  return s;
}

JobResult run_frontier_job(const Bench& b, std::uint64_t seed, SpanLog* log,
                           std::uint64_t job) {
  const core::FrameworkConfig cfg = framework_config(seed);
  std::unique_ptr<core::Workload> inner = make_workload(b.kind);
  std::optional<TracedWorkload> traced;
  if (log != nullptr) traced.emplace(*inner, layer_of(b.kind), *log, job);
  core::Workload& workload = traced ? *traced : *inner;

  JobResult r;
  std::vector<core::JobReport> reports;
  std::vector<optimize::FrontierPoint> frontier;
  const double w0 = wall_now();
  const double c0 = cpu_now();
  std::optional<ScopedSpan> root;
  root.emplace(log, "job", -1, job);
  cluster::Cluster cluster(cluster::standard_cluster(kNodes));
  core::ParetoFramework framework(cluster, *b.energy, cfg);
  {
    const ScopedSpan span(log, "core.prepare", root->id(), job);
    if (traced) traced->set_parent(span.id());
    framework.prepare(b.dataset, workload);
  }
  for (const core::Strategy s :
       {core::Strategy::kHetAware, core::Strategy::kHetEnergyAware}) {
    const std::size_t n = b.dataset.size();
    for (const std::size_t v : framework.plan_sizes(s, n)) {
      if (v > 0 && static_cast<double>(v) <
                       kMinFrontierShare * static_cast<double>(n)) {
        r.admitted = false;
        return r;
      }
    }
  }
  for (const core::Strategy s : all_strategies()) {
    const ScopedSpan span(log, "core.run", root->id(), job);
    if (traced) traced->set_parent(span.id());
    reports.push_back(framework.run(s, b.dataset, workload));
  }
  {
    const ScopedSpan span(log, "core.frontier", root->id(), job);
    frontier = framework.predicted_frontier(kFrontierAlphas);
  }
  const int root_id = root->id();
  root.reset();
  r.wall_s = wall_now() - w0;
  r.cpu_s = cpu_now() - c0;

  const core::JobReport& het = reports[2];
  const core::JobReport& energy_aware = reports[3];
  r.makespan_s = het.exec_time_s;
  r.setup_s = framework.setup_time_s();
  r.dirty_j = energy_aware.dirty_energy_j;
  r.quality = het.quality;
  std::string blob;
  for (const core::JobReport& rep : reports) blob += core::to_json(rep);
  blob += core::frontier_to_json(frontier);
  r.digest = common::hash_bytes(blob);
  for (const core::JobReport& rep : reports) {
    if (rep.quality != het.quality) {
      r.problems.push_back(core::strategy_name(rep.strategy) + " found " +
                           std::to_string(rep.quality) + " patterns, " +
                           "Het-Aware " + std::to_string(het.quality));
    }
    std::size_t sized = 0;
    for (const std::size_t v : rep.partition_sizes) sized += v;
    if (sized != b.dataset.size()) {
      r.problems.push_back(core::strategy_name(rep.strategy) + " planned " +
                           std::to_string(sized) + " records");
    }
  }
  if (frontier.size() != kFrontierAlphas.size()) {
    r.problems.push_back("frontier has " + std::to_string(frontier.size()) +
                         " points");
  }
  if (log == nullptr) return r;

  Layers& l = r.layers;
  read_cluster_counters(cluster, l);
  l["estimator.sample_runs"] = static_cast<double>(traced->sample_runs());
  l["mining.work_units"] = traced->work_units();
  const stratify::Stratification strata = replay_stratify(
      b.dataset, cfg.sketch, cfg.kmodes, *log, root_id, job, l);
  {
    const ScopedSpan span(log, "optimize.replay", root_id, job);
    const std::span<const optimize::NodeModel> models = framework.node_models();
    const std::size_t n = b.dataset.size();
    (void)optimize::solve_partition_sizes(models, n, 1.0);
    (void)optimize::solve_partition_sizes_normalized(models, n,
                                                     cfg.energy_alpha);
    (void)optimize::sweep_frontier(models, n, kFrontierAlphas);
  }
  replay_partition(strata, het.partition_sizes, workload.preferred_layout(),
                   *log, root_id, job, l);
  fill_span_metrics(*log, job, root_id, layer_of(b.kind), r.wall_s, l);
  return r;
}

/// One job with job seed `seed`; `log` is null for an untraced job.
JobResult run_job(const Bench& b, std::uint64_t seed, SpanLog* log,
                  std::uint64_t job) {
  return b.kind == Kind::kTextFrontier ? run_frontier_job(b, seed, log, job)
                                       : run_runtime_job(b, seed, log, job);
}

// ---- the once-per-run oracle -------------------------------------------------

/// Expected pattern count from direct mining of the whole corpus (SON is
/// exact), or -1 when the workload mines nothing. For graph-replicated,
/// instead round-trips one stratified partition through the codec.
double oracle(const Bench& b, std::vector<std::string>& problems) {
  switch (b.kind) {
    case Kind::kTreeSon: {
      std::vector<data::LabeledTree> trees;
      trees.reserve(b.dataset.size());
      for (const data::Record& r : b.dataset.records) {
        trees.push_back(data::decode_tree(r.payload));
      }
      return static_cast<double>(
          mining::mine_subtrees(trees, kTreeMining).frequent.size());
    }
    case Kind::kTextFrontier: {
      std::vector<data::ItemSet> docs;
      docs.reserve(b.dataset.size());
      for (const data::Record& r : b.dataset.records) docs.push_back(r.items);
      return static_cast<double>(
          mining::apriori(docs, kTextMining).frequent.size());
    }
    case Kind::kGraphReplicated: {
      const runtime::JobSpec spec = job_spec(b.kind, 0);
      const sketch::MinHasher hasher(spec.sketch);
      const stratify::Stratification strata = stratify::composite_kmodes(
          hasher.sketch_all(b.dataset.records), spec.kmodes);
      const std::vector<std::size_t> sizes = common::proportional_allocation(
          std::vector<double>(kNodes, 1.0), b.dataset.size());
      const partition::PartitionAssignment assignment =
          partition::make_partitions(strata, sizes,
                                     partition::Layout::kSimilarTogether);
      std::vector<std::vector<std::uint32_t>> lists;
      for (const std::uint32_t idx : assignment.partitions.at(0)) {
        lists.push_back(data::decode_items(b.dataset.records[idx].payload));
      }
      const std::string blob = compress::compress_adjacency(lists);
      if (compress::decompress_adjacency(blob, lists.size()) != lists) {
        problems.push_back("webgraph round trip of partition 0 differs");
      }
      if (lists.empty() ||
          blob.size() >= compress::raw_adjacency_bytes(lists)) {
        problems.push_back("webgraph did not compress partition 0");
      }
      return -1.0;
    }
  }
  return -1.0;
}

/// Failed checks of one job against the first job of the same job seed
/// (`ref` is null for that first job itself).
std::vector<std::string> check_job(const JobResult& r, const JobResult* ref) {
  std::vector<std::string> out = r.problems;
  if (ref == nullptr) return out;
  if (r.makespan_s != ref->makespan_s || r.setup_s != ref->setup_s ||
      r.dirty_j != ref->dirty_j) {
    out.push_back("virtual metrics differ from the first job of the same seed");
  }
  if (r.quality != ref->quality) {
    out.push_back("quality differs from the first job of the same seed");
  }
  if (r.digest != ref->digest) {
    out.push_back("trace hash differs from the first job of the same seed");
  }
  return out;
}

// ---- output ----------------------------------------------------------------

void write_spans(const std::string& path, const SpanLog& log, double t0,
                 const std::string& workload, std::uint64_t seed) {
  common::JsonWriter w;
  w.begin_object();
  w.field("workload", workload);
  w.field("seed", seed);
  w.key("spans");
  w.begin_array();
  for (const Span& s : log.snapshot()) {
    w.begin_object();
    w.field("name", s.name);
    w.field("start_s", s.start_s - t0);
    w.field("end_s", s.end_s - t0);
    w.field("parent", static_cast<std::int64_t>(s.parent));
    w.field("job", s.job);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  if (!out) throw common::Error("cannot write spans to " + path);
}

void metric(common::JsonWriter& w, const std::string& name, double value,
            const std::string& unit) {
  w.key(name);
  w.begin_object();
  w.field("value", value);
  w.field("unit", unit);
  w.end_object();
}

/// Job seeds per run. Each job seed moves the estimator's samples and
/// the runtime's scheduler and shard map, and with them the plan: a
/// single job's virtual makespan swings by up to 2x across job seeds, so
/// a run reports virtual metrics over a fixed set of job seeds derived
/// from the workload seed. tree-son's plan barely moves (its cost sits in
/// the global phase) and its jobs are long, so it uses fewer.
std::size_t job_seed_count(Kind kind) {
  return kind == Kind::kTreeSon ? 4 : 16;
}

/// Job seeds a traced run cycles through (each untraced, then traced).
/// Odd, so a median over whole cycles is one job seed's exact count.
constexpr std::size_t kTracedJobSeeds = 3;

/// Mean of the middle half: robust to the occasional job seed whose
/// sampled models skew the plan, and to the occasional stalled job.
double interquartile_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

int bench_main(int argc, const char* const* argv) {
  common::ArgParser args("perfbench_e2e",
                         "time hetsim jobs end to end on one workload");
  args.add_string("workload", "tree-son | graph-replicated | text-frontier",
                  "tree-son");
  args.add_int("seed", "workload seed (derives the run's job seeds)", 1);
  args.add_double("seconds",
                  "timed seconds (a run always completes its job seeds)",
                  10.0);
  args.add_int("trace", "1 = per-layer traced run, 0 = end-to-end run", 0);
  args.add_double("scale", "corpus scale multiplier (1 = benchmark size)",
                  1.0);
  args.add_string("spans_out", "write the traced run's spans here", "");
  args.add_flag("corrupt",
                "tamper with the quality of every job but the first\n"
                "      (self-check: the run must report failed jobs)");
  if (!args.parse(argc, argv, std::cerr)) return 2;

  const std::string workload_name = args.get_string("workload");
  const Kind kind = parse_kind(workload_name);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const double seconds = args.get_double("seconds");
  const bool traced = args.get_int("trace") != 0;
  const double scale = args.get_double("scale");
  const bool corrupt = args.get_flag("corrupt");
  common::require<common::ConfigError>(scale > 0.0, "--scale must be > 0");
  const double t_start = wall_now();
  const Calibrator calibrator;

  // ---- set-up: corpus generation, estimator and cluster construction,
  // repeated and reported as a median ----
  Bench bench;
  bench.kind = kind;
  std::vector<double> setup_times;
  std::vector<double> generate_times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    bench.dataset = {};  // hold one corpus at a time
    const double speed = kCalibrationRefS / calibrator.time_kernel();
    const double t0 = wall_now();
    bench.dataset = generate(kind, scale);
    const double t1 = wall_now();
    bench.energy.emplace(energy::GreenEnergyEstimator::standard(72));
    const cluster::Cluster probe(cluster::standard_cluster(kNodes));
    const double t2 = wall_now();
    generate_times.push_back(t1 - t0);
    setup_times.push_back((t2 - t0) * speed);
  }

  // ---- timed jobs: cycle through the job seeds; the first job of each
  // seed is the reference its repeats must match exactly ----
  const std::size_t seeds = traced ? kTracedJobSeeds : job_seed_count(kind);
  std::vector<std::uint64_t> job_seeds(seeds);
  for (std::size_t i = 0; i < seeds; ++i) {
    job_seeds[i] = common::hash_combine(common::hash_u64(seed), i);
  }
  std::uint64_t next_candidate = seeds;
  std::size_t refused_seeds = 0;
  std::vector<std::optional<JobResult>> refs(seeds);
  SpanLog log;
  std::vector<JobResult> plain;
  std::vector<JobResult> spanned;
  // Every job's quality and failed checks, in run order.
  std::vector<double> qualities;
  std::vector<std::vector<std::string>> job_problems;
  const auto job = [&](std::size_t i, SpanLog* span_log) {
    double before = calibrator.time_kernel();
    JobResult r = run_job(bench, job_seeds[i], span_log, qualities.size());
    // Only a job seed's first job can be refused, and in a traced run
    // that one is untraced, so a refused job leaves no spans behind.
    while (!r.admitted) {
      common::require(++refused_seeds <= kMaxRefusedSeeds,
                      "every job seed tried gives a node a sliver partition");
      job_seeds[i] =
          common::hash_combine(common::hash_u64(seed), next_candidate++);
      before = calibrator.time_kernel();
      r = run_job(bench, job_seeds[i], span_log, qualities.size());
    }
    r.calibration_s = 0.5 * (before + calibrator.time_kernel());
    if (corrupt && !qualities.empty()) r.quality += 1.0;
    qualities.push_back(r.quality);
    job_problems.push_back(check_job(r, refs[i] ? &*refs[i] : nullptr));
    if (!refs[i]) refs[i] = r;
    return r;
  };
  const double loop_start = wall_now();
  if (traced) {
    // Whole cycles, so every job seed weighs the same in the medians.
    do {
      for (std::size_t i = 0; i < seeds; ++i) {
        plain.push_back(job(i, nullptr));
        spanned.push_back(job(i, &log));
      }
    } while (wall_now() - loop_start < seconds);
  } else {
    // Every job seed once plus one repeat, then on until time is up.
    for (std::size_t k = 0; k <= seeds || wall_now() - loop_start < seconds;
         ++k) {
      plain.push_back(job(k % seeds, nullptr));
    }
  }
  // Read before the oracle, whose whole-corpus mining would otherwise set
  // the high-water mark.
  const double peak_rss = peak_rss_mb();

  // ---- once-per-run oracle (untimed), then the tally ----
  std::vector<std::string> oracle_problems;
  const double expected_quality = oracle(bench, oracle_problems);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  for (std::size_t k = 0; k < job_problems.size(); ++k) {
    std::vector<std::string>& found = job_problems[k];
    if (expected_quality >= 0.0 && qualities[k] != expected_quality) {
      found.push_back("pattern count " + std::to_string(qualities[k]) +
                      ", oracle " + std::to_string(expected_quality));
    }
    if (k == 0) {
      found.insert(found.end(), oracle_problems.begin(),
                   oracle_problems.end());
    }
    ++attempted;
    if (found.empty()) continue;
    ++failed;
    for (const std::string& p : found) {
      if (problems.size() < 8) problems.push_back(p);
    }
  }

  std::vector<double> walls;
  std::vector<double> calibrations;
  std::vector<double> scaled_walls;
  std::vector<double> scaled_cpus;
  for (const JobResult& r : plain) {
    walls.push_back(r.wall_s);
    calibrations.push_back(r.calibration_s);
    const double speed = kCalibrationRefS / r.calibration_s;
    scaled_walls.push_back(r.wall_s * speed);
    scaled_cpus.push_back(r.cpu_s * speed);
  }
  const double job_wall = median(walls);

  common::JsonWriter meta;
  meta.begin_object();
  meta.key("meta");
  meta.begin_object();
  meta.field("workload", workload_name);
  meta.field("seed", seed);
  meta.field("job_seeds", static_cast<std::uint64_t>(seeds));
  meta.field("scale", scale);
  meta.field("records", static_cast<std::uint64_t>(bench.dataset.size()));
  meta.field("refused_job_seeds", static_cast<std::uint64_t>(refused_seeds));
  meta.field("timed_jobs", static_cast<std::uint64_t>(plain.size()));
  meta.field("traced_jobs", static_cast<std::uint64_t>(spanned.size()));
  meta.key("job_walls_s");
  meta.begin_array();
  for (const double v : walls) meta.value(v);
  meta.end_array();
  meta.key("calibrations_s");
  meta.begin_array();
  for (const double v : calibrations) meta.value(v);
  meta.end_array();
  meta.field("git_sha", std::string(HETSIM_GIT_SHA));
  meta.field("simd_isa", std::string(simd::isa_name(simd::active_isa())));
  meta.field("hetsim_threads",
             static_cast<std::uint64_t>(par::default_threads()));
  meta.field("nproc", static_cast<std::uint64_t>(
                          std::max(1U, std::thread::hardware_concurrency())));
  meta.field("build_type", std::string(PERFBENCH_BUILD_TYPE));
  meta.field("dchecks", HETSIM_DCHECK_ENABLED != 0);
  meta.field("run_host_s", wall_now() - t_start);
  meta.end_object();
  meta.end_object();
  std::cout << meta.str() << '\n';

  for (const std::string& p : problems) {
    std::cerr << "perfbench_e2e: FAILED CHECK: " << p << '\n';
  }

  common::JsonWriter w;
  w.begin_object();
  w.field("correct", failed == 0);
  w.field("attempted", static_cast<std::uint64_t>(attempted));
  w.field("failed", static_cast<std::uint64_t>(failed));
  w.key("metrics");
  w.begin_object();
  if (!traced) {
    std::vector<double> makespans;
    std::vector<double> setups;
    std::vector<double> dirty;
    for (const std::optional<JobResult>& ref : refs) {
      makespans.push_back(ref->makespan_s);
      setups.push_back(ref->setup_s);
      dirty.push_back(ref->dirty_j);
    }
    metric(w, "job_wall_s", median(scaled_walls), "s");
    // Records x jobs / their host seconds, over the middle half of the
    // jobs: a shared host's stalls land on a few jobs.
    metric(w, "records_per_s",
           static_cast<double>(bench.dataset.size()) /
               interquartile_mean(scaled_walls),
           "1/s");
    metric(w, "cpu_s", median(scaled_cpus), "s");
    metric(w, "peak_rss_mb", peak_rss, "MB");
    metric(w, "setup_s", median(setup_times), "s");
    metric(w, "virtual_makespan_s", interquartile_mean(makespans), "s");
    metric(w, "virtual_setup_s", interquartile_mean(setups), "s");
    metric(w, "dirty_energy_j", interquartile_mean(dirty), "J");
  } else {
    Layers out;
    for (const auto& [name, unit] : layer_metrics()) {
      std::vector<double> values;
      for (const JobResult& t : spanned) {
        const auto it = t.layers.find(name);
        values.push_back(it == t.layers.end() ? 0.0 : it->second);
      }
      out[name] = median(values);
    }
    std::vector<double> traced_walls;
    for (const JobResult& t : spanned) traced_walls.push_back(t.wall_s);
    out["data.generate_s"] = median(generate_times);
    out["trace.job_wall_s"] = median(traced_walls);
    out["trace.untraced_job_wall_s"] = job_wall;
    out["trace.overhead_s"] = median(traced_walls) - job_wall;
    for (const auto& [name, unit] : layer_metrics()) {
      metric(w, name, out[name], unit);
    }
    const std::string spans_out = args.get_string("spans_out");
    if (!spans_out.empty()) {
      write_spans(spans_out, log, t_start, workload_name, seed);
    }
  }
  w.end_object();
  w.end_object();
  std::cout << w.str() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench_e2e: refusing to time an assertion-enabled "
               "(Debug) build; configure with -DCMAKE_BUILD_TYPE=Release\n";
  return 2;
#endif
  if (std::string_view(PERFBENCH_BUILD_TYPE) == "Debug") {
    std::cerr << "perfbench_e2e: refusing to time a Debug build\n";
    return 2;
  }
  try {
    return bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_e2e: " << e.what() << '\n';
    return 1;
  }
}
