// hetsim_cli — run any paper experiment from the command line.
//
//   ./build/examples/hetsim_cli run-job --workload text --partitions 8
//   ./build/examples/hetsim_cli run-job --workload tree --strategy all
//   ./build/examples/hetsim_cli run-job --workload text
//       --slowdown 2.5,1,1,1 --trace_out job.trace.json  (one line)
//   ./build/examples/hetsim_cli run-job --workload text
//       --fault_plan examples/fault_plan.json             (one line)
//   ./build/examples/hetsim_cli chaos --seed 1 --trials 200
//   ./build/examples/hetsim_cli chaos --replay examples/repro_1_0_x.json
//
// Workloads: text (SON+Apriori on the RCV1 analogue), tree (FREQT
// subtree mining on the SwissProt analogue), graph (BV webgraph
// compression on the UK analogue), lz77 / deflate (byte compression of
// the UK analogue payloads).
//
// The run-job subcommand runs a job through hetsim::runtime (phase DAG +
// straggler-triggered re-planning): it prepares the dataset and workload
// once, executes each requested strategy (`--strategy all` runs Random,
// Stratified, Het-Aware and Het-Energy-Aware, the paper's Figs. 2-6
// comparison) and prints one job summary JSON line per strategy. It
// optionally writes a Chrome-trace file viewable in chrome://tracing or
// https://ui.perfetto.dev.
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "chaos/chaos.h"
#include "common/args.h"
#include "common/error.h"
#include "fault/fault.h"
#include "kvstore/client.h"
#include "core/compression_workload.h"
#include "core/mining_workload.h"
#include "core/subtree_workload.h"
#include "data/generators.h"
#include "runtime/runtime.h"

namespace {

using namespace hetsim;

struct Job {
  data::Dataset dataset;
  std::unique_ptr<core::Workload> workload;
};

Job make_job(const std::string& name, double scale, double support) {
  if (name == "text") {
    return {data::generate_text_corpus(data::rcv1_like(scale), "rcv1"),
            std::make_unique<core::PatternMiningWorkload>(mining::AprioriConfig{
                .min_support = support, .max_pattern_length = 3})};
  }
  if (name == "tree") {
    return {data::generate_tree_corpus(data::swissprot_like(scale), "trees"),
            std::make_unique<core::SubtreeMiningWorkload>(
                mining::TreeMinerConfig{.min_support = support,
                                        .max_pattern_nodes = 3})};
  }
  if (name == "graph") {
    return {data::generate_graph_corpus(data::uk_like(scale), "webgraph"),
            std::make_unique<core::CompressionWorkload>(
                core::CompressionWorkload::Algorithm::kWebGraph)};
  }
  if (name == "lz77") {
    return {data::generate_graph_corpus(data::uk_like(scale), "webgraph"),
            std::make_unique<core::CompressionWorkload>(
                core::CompressionWorkload::Algorithm::kLz77)};
  }
  if (name == "deflate") {
    return {data::generate_graph_corpus(data::uk_like(scale), "webgraph"),
            std::make_unique<core::CompressionWorkload>(
                core::CompressionWorkload::Algorithm::kDeflate)};
  }
  throw common::ConfigError("unknown workload: " + name +
                            " (expected text|tree|graph|lz77|deflate)");
}

std::vector<core::Strategy> parse_strategies(const std::string& name) {
  if (name == "all") {
    return {core::Strategy::kRandom, core::Strategy::kStratified,
            core::Strategy::kHetAware, core::Strategy::kHetEnergyAware};
  }
  if (name == "random") return {core::Strategy::kRandom};
  if (name == "stratified") return {core::Strategy::kStratified};
  if (name == "het") return {core::Strategy::kHetAware};
  if (name == "energy") return {core::Strategy::kHetEnergyAware};
  throw common::ConfigError("unknown strategy: " + name +
                            " (expected all|random|stratified|het|energy)");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  common::require<common::ConfigError>(static_cast<bool>(in),
                                       "cannot read file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<double> parse_slowdown(const std::string& csv) {
  std::vector<double> out;
  if (csv.empty()) return out;
  std::istringstream in(csv);
  std::string part;
  while (std::getline(in, part, ',')) {
    try {
      out.push_back(std::stod(part));
    } catch (const std::exception&) {
      throw common::ConfigError("bad --slowdown entry: " + part);
    }
  }
  return out;
}

int run_job_main(int argc, const char* const* argv) {
  common::ArgParser args(
      "hetsim_cli run-job",
      "run one job through the runtime (phase DAG, re-planning, trace);\n"
      "--strategy all prepares once, then executes the four strategies");
  args.add_string("workload", "text | tree | graph | lz77 | deflate", "text");
  args.add_string("strategy", "all | random | stratified | het | energy",
                  "het");
  args.add_int("partitions", "cluster size / partition count", 8);
  args.add_double("scale", "dataset scale multiplier", 0.5);
  args.add_double("support", "mining support fraction", 0.08);
  args.add_double("alpha", "Het-Energy-Aware tradeoff weight", 0.75);
  args.add_string("slowdown",
                  "comma-separated per-node execution-cost multipliers the\n"
                  "      estimator does not see (injected model error), e.g.\n"
                  "      2.5,1,1,1", "");
  args.add_int("checkpoint", "records per chunk/checkpoint (0 = auto)", 0);
  args.add_int("seed", "scheduler seed (same seed => identical trace)", 171);
  args.add_flag("no_replan", "disable straggler-triggered re-planning");
  args.add_string("trace_out", "write Chrome-trace JSON to this path", "");
  args.add_string("fault_plan",
                  "JSON fault plan (see examples/fault_plan.json): seeded\n"
                  "      drops/spikes/partitions, store errors/stalls/crashes,\n"
                  "      node fail-stops and slowdowns", "");
  args.add_double("heartbeat",
                  "node-loss detection timeout in virtual seconds (0 = the\n"
                  "      executor's auto rule)", 0.0);
  args.add_int("replication",
               "record copies kept via the HA shard router (1 = single\n"
               "      master; >= 2 survives node loss incl. the master)", 1);
  args.add_string("retry_policy",
                  "JSON kvstore retry policy for every node connection\n"
                  "      (keys: max_attempts, base_backoff_s, max_backoff_s,\n"
                  "      attempt_timeout_s, deadline_s, jitter_seed)", "");
  if (!args.parse(argc, argv, std::cerr)) return 2;

  const std::vector<core::Strategy> strategies =
      parse_strategies(args.get_string("strategy"));
  const std::string plan_path = args.get_string("fault_plan");
  // The injector's state carries from one execution to the next, so
  // strategies after the first would not see the plan a lone run sees.
  common::require<common::ConfigError>(
      strategies.size() == 1 || plan_path.empty(),
      "--strategy all cannot be combined with --fault_plan");

  Job job = make_job(args.get_string("workload"), args.get_double("scale"),
                     args.get_double("support"));
  const auto partitions =
      static_cast<std::uint32_t>(args.get_int("partitions"));
  cluster::ClusterOptions options;
  const std::string retry_path = args.get_string("retry_policy");
  if (!retry_path.empty()) {
    options.retry = kvstore::RetryPolicy::from_json_text(read_file(retry_path));
  }
  cluster::Cluster cluster(cluster::standard_cluster(partitions), options);
  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);

  // The injector must outlive every phase the cluster runs.
  std::unique_ptr<fault::FaultInjector> injector;
  if (!plan_path.empty()) {
    injector = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::from_json_text(read_file(plan_path)));
    cluster.set_fault(injector.get());
  }

  runtime::JobSpec spec;
  spec.name = args.get_string("workload") + "-job";
  spec.alpha = args.get_double("alpha");
  spec.sampling.min_records = 40;
  spec.checkpoint_records = static_cast<std::size_t>(args.get_int("checkpoint"));
  spec.enable_replan = !args.get_flag("no_replan");
  spec.per_node_slowdown = parse_slowdown(args.get_string("slowdown"));
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  spec.heartbeat_timeout_s = args.get_double("heartbeat");
  spec.replication = static_cast<std::size_t>(args.get_int("replication"));

  runtime::JobRuntime job_runtime(cluster, energy, spec);
  job_runtime.prepare(job.dataset, *job.workload);
  for (const core::Strategy strategy : strategies) {
    std::cout << runtime::summary_json(job_runtime.execute(strategy)) << '\n';
  }
  job_runtime.release();

  const std::string trace_path = args.get_string("trace_out");
  if (!trace_path.empty()) {
    if (!job_runtime.trace().write_chrome_trace(trace_path)) {
      std::cerr << "hetsim_cli: cannot write trace to " << trace_path << '\n';
      return 1;
    }
    std::cerr << "trace: " << trace_path
              << " (open in chrome://tracing or https://ui.perfetto.dev)\n";
  }
  return 0;
}

int chaos_main(int argc, const char* const* argv) {
  common::ArgParser args(
      "hetsim_cli chaos",
      "seeded chaos search over the HA/runtime stack; on a violation,\n"
      "shrinks the fault plan to a minimal committable reproducer");
  args.add_int("seed", "chaos seed (same seed => byte-identical trials)", 1);
  args.add_int("trials", "trials to run", 200);
  args.add_int("nodes", "victim cluster size", 4);
  args.add_int("job_cadence",
               "run the (expensive) runtime job victim every Nth trial\n"
               "      (0 = never)", 8);
  args.add_string("out", "directory for repro_*.json (empty = don't write)",
                  "examples");
  args.add_flag("log", "print the per-trial log (byte-identical per seed)");
  args.add_string("replay",
                  "replay a repro_*.json instead of searching; exits 0 iff\n"
                  "      the recorded violation still reproduces", "");
  if (!args.parse(argc, argv, std::cerr)) return 2;

  const std::string replay_path = args.get_string("replay");
  if (!replay_path.empty()) {
    const chaos::ReplayOutcome r = chaos::replay_file(replay_path);
    const chaos::Violation& v = r.fired;
    if (v.violated) {
      // A different violation is a different finding, not this repro.
      std::cout << (r.reproduced ? "reproduced: "
                                 : "did not reproduce; fired instead: ")
                << chaos::victim_name(v.victim) << " " << v.invariant
                << " — " << v.detail << '\n';
      return r.reproduced ? 0 : 1;
    }
    std::cout << "did not reproduce (fixed, or a stale repro)\n";
    return 1;
  }

  chaos::SearchConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  config.trials = static_cast<std::uint64_t>(args.get_int("trials"));
  config.grammar.nodes = static_cast<std::size_t>(args.get_int("nodes"));
  config.job_cadence = static_cast<std::uint64_t>(args.get_int("job_cadence"));
  config.out_dir = args.get_string("out");
  const chaos::SearchReport report = chaos::run_search(config);
  if (args.get_flag("log")) std::cout << report.trial_log;
  std::cout << "trials: " << report.trials_run << "/" << config.trials << '\n';
  if (!report.violated) {
    std::cout << "no invariant violation found\n";
    return 0;
  }
  std::cout << "VIOLATION: " << chaos::victim_name(report.violation.victim)
            << " " << report.violation.invariant << " — "
            << report.violation.detail << '\n'
            << "shrunk to " << report.shrunk.size() << " event(s)\n";
  if (!report.repro_path.empty()) {
    std::cout << "repro: " << report.repro_path << '\n'
              << "replay: " << report.replay_command << '\n';
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "chaos") == 0) {
    try {
      return chaos_main(argc - 1, argv + 1);
    } catch (const std::exception& e) {
      std::cerr << "hetsim_cli chaos: " << e.what() << '\n';
      return 2;
    }
  }
  if (argc > 1 && std::strcmp(argv[1], "run-job") == 0) {
    try {
      return run_job_main(argc - 1, argv + 1);
    } catch (const std::exception& e) {
      std::cerr << "hetsim_cli run-job: " << e.what() << '\n';
      return 1;
    }
  }
  std::cerr << "usage: hetsim_cli run-job [flags]  run one job, or all four\n"
               "                                   strategies on one prepare\n"
               "       hetsim_cli chaos [flags]    seeded chaos search\n"
               "(--help after a subcommand lists its flags)\n";
  return 2;
}
