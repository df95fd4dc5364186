// bench_fault_overhead — cost of compiling fault injection in but not
// using it, plus a degraded-mode demonstration.
//
// The fault layer's contract (src/fault/fault.h) is that a null
// injector or an all-defaults plan costs one branch per interception
// point and changes no arithmetic. This bench enforces both halves:
//
//   1. byte-identity — the same job run with no injector and with an
//      empty-plan injector attached must produce byte-identical
//      summary JSON and Chrome-trace JSON (virtual time unchanged);
//   2. zero consults — under the empty plan no round trip or store
//      interaction reaches the injector (its round_trips and store_ops
//      sum to 0 over every link and host) and the kvstore clients
//      never enter their fault loop (zero retry-loop attempts), i.e.
//      every operation took the fault-free fast path.
//
// The wall-clock cost of the empty plan is printed as the median and
// IQR of interleaved A/B trials, but not gated: a single host's CPU
// share swings by more than the effect being measured.
//
// It then runs the same job with an active plan (store errors plus one
// node fail-stop) and reports the degraded-mode outcome: retries,
// makespan inflation, and records rescued — the robustness story in
// one table.
//
// A second section covers the serving path (DESIGN.md §13): the
// deadline-budget + circuit-breaker machinery must be free when
// nothing fails, and under a flapping replica the breaker's shedding
// must keep the per-op p99 within 3x the fault-free baseline with zero
// records lost. "Free" is gated deterministically: with the breaker on,
// a fault-free run opens, probes and sheds nothing, and its virtual
// time, router counters and per-link counters equal the breaker-off
// run's. Its wall-clock cost is printed as the median and IQR of
// interleaved A/B pairs, not gated (a ~2 ms reading swings by more than
// the effect). Counters and the survival table land in
// BENCH_chaos.json.
//
// Exit status is non-zero when byte-identity, zero consults or any
// serving-path identity/survival gate fails, so CI can run the bench
// as an acceptance check.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/table.h"
#include "fault/fault.h"
#include "ha/group.h"
#include "runtime/runtime.h"

namespace {

using namespace hetsim;

/// Fixed metered cost per record: keeps the execute phase dominated by
/// simulator bookkeeping (the thing fault interception could slow
/// down), not by workload-specific compute.
class LinearWorkload final : public core::Workload {
 public:
  [[nodiscard]] std::string name() const override { return "linear-scan"; }
  [[nodiscard]] partition::Layout preferred_layout() const override {
    return partition::Layout::kRepresentative;
  }
  void reset(std::size_t, std::uint32_t) override {}
  void run(cluster::NodeContext& ctx, const data::Dataset&,
           std::span<const std::uint32_t> indices) override {
    ctx.meter().add(2e4 * static_cast<double>(indices.size()));
  }
};

struct RunResult {
  runtime::JobSummary summary;
  std::string fingerprint;  // summary JSON + trace JSON
  double wall_s = 0.0;
  /// Injector round_trips + store_ops summed over every link and host.
  std::uint64_t injector_consults = 0;
  /// Attempts the kvstore clients' fault loop made (the fault-free fast
  /// path counts none).
  std::uint64_t fault_loop_attempts = 0;
};

RunResult run_once(const data::Dataset& dataset, std::uint32_t partitions,
                   const fault::FaultPlan* plan, std::uint64_t seed) {
  cluster::Cluster cluster(cluster::standard_cluster(partitions));
  const energy::GreenEnergyEstimator energy =
      energy::GreenEnergyEstimator::standard(72);
  std::unique_ptr<fault::FaultInjector> injector;
  if (plan != nullptr) {
    injector = std::make_unique<fault::FaultInjector>(*plan);
    cluster.set_fault(injector.get());
  }
  LinearWorkload workload;

  runtime::JobSpec spec;
  spec.name = "fault-overhead-bench";
  spec.strategy = core::Strategy::kHetAware;
  spec.sampling.min_records = 40;
  spec.seed = seed;

  runtime::JobRuntime rt(cluster, energy, spec);
  const auto t0 = std::chrono::steady_clock::now();
  RunResult result;
  result.summary = rt.run(dataset, workload);
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_s = std::chrono::duration<double>(t1 - t0).count();
  result.fingerprint =
      runtime::summary_json(result.summary) + "\n" +
      rt.trace().chrome_trace_json();
  if (injector) {
    for (fault::HostId a = 0; a < partitions; ++a) {
      result.injector_consults += injector->store_ops(a);
      for (fault::HostId b = 0; b < partitions; ++b) {
        result.injector_consults += injector->round_trips(a, b);
      }
    }
  }
  result.fault_loop_attempts = cluster.fabric().retry_stats().attempts;
  return result;
}

/// Median and interquartile range of a sample.
struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};

Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return {v[n / 2], v[(3 * n) / 4] - v[n / 4]};
}

// ---- serving path: deadline budget + breaker ---------------------------

struct ServeResult {
  std::vector<double> latencies;  // virtual seconds per put
  std::size_t ok_puts = 0;
  std::size_t lost = 0;  // acked keys the read path cannot produce
  double virtual_s = 0.0;
  double wall_s = 0.0;
  ha::RouterStats stats;
  std::vector<net::LinkStats> links;  // every (src, dst) pair, row-major
};

/// Drive `ops` replicated puts (then read every key back) through a
/// 4-node group. Per-op latency is the group's virtual-time delta, so
/// the p99 is deterministic and host-speed independent.
ServeResult serve_once(const fault::FaultPlan* plan, bool breaker_on,
                       std::size_t ops) {
  ha::NodeGroupConfig cfg;
  cfg.nodes = 4;
  cfg.breaker.enabled = breaker_on;
  ha::NodeGroup group(cfg);
  if (plan != nullptr) group.set_fault(*plan);
  ha::Client& client = group.client(0);

  ServeResult r;
  r.latencies.reserve(ops);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const std::string key = "bk" + std::to_string(i);
    const std::string value = "v" + std::to_string(i * 2654435761ULL);
    const double before = group.consumed_time();
    const ha::WriteResult wr = client.put(key, value);
    r.latencies.push_back(group.consumed_time() - before);
    if (wr.status == kvstore::Status::kOk) ++r.ok_puts;
  }
  // Zero-records-lost sweep: every acknowledged key must still be
  // readable with the acknowledged bytes through the replicated read
  // path (shedding sheds load, not data).
  for (std::size_t i = 0; i < ops; ++i) {
    const std::string key = "bk" + std::to_string(i);
    const std::string value = "v" + std::to_string(i * 2654435761ULL);
    const ha::ReadResult rr = client.get(key);
    if (rr.reply.status != kvstore::Status::kOk || !rr.reply.ok ||
        rr.reply.blob != value) {
      ++r.lost;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.virtual_s = group.consumed_time();
  r.stats = group.router().stats();
  const net::Fabric& fabric = group.fabric();
  for (net::HostId a = 0; a < fabric.hosts(); ++a) {
    for (net::HostId b = 0; b < fabric.hosts(); ++b) {
      r.links.push_back(fabric.stats(a, b));
    }
  }
  return r;
}

double p99_of(std::vector<double> lat) {
  std::sort(lat.begin(), lat.end());
  const std::size_t idx = (lat.size() * 99) / 100;
  return lat[std::min(idx, lat.size() - 1)];
}

}  // namespace

int main() {
  const std::uint32_t partitions = 8;
  const std::uint64_t seed = 171;
  const int reps = 7;
  const data::Dataset dataset =
      data::generate_text_corpus(data::rcv1_like(0.5), "rcv1");

  std::cout << "fault-injection overhead — " << dataset.name << " ("
            << dataset.size() << " records), " << partitions << " nodes\n\n";

  bool ok = true;
  std::vector<bench::BenchMetric> metrics;

  // ---- byte-identity: empty plan must change nothing -----------------
  const RunResult bare = run_once(dataset, partitions, nullptr, seed);
  const fault::FaultPlan empty_plan;
  const RunResult gated = run_once(dataset, partitions, &empty_plan, seed);
  const bool identical = bare.fingerprint == gated.fingerprint;
  std::cout << "empty-plan byte-identity (summary + trace): "
            << (identical ? "byte-identical" : "MISMATCH") << " ("
            << bare.fingerprint.size() << " bytes)\n";
  metrics.push_back({"empty_plan_identical", identical ? 1.0 : 0.0, "bool"});
  if (!identical) ok = false;

  // ---- zero consults: the empty plan never reaches the fault path ---
  const bool untouched =
      gated.injector_consults == 0 && gated.fault_loop_attempts == 0;
  std::cout << "empty-plan injector consults: " << gated.injector_consults
            << ", fault-loop attempts: " << gated.fault_loop_attempts
            << " (gate: both 0)\n";
  metrics.push_back({"empty_plan_injector_consults",
                     static_cast<double>(gated.injector_consults), "count"});
  metrics.push_back({"empty_plan_fault_loop_attempts",
                     static_cast<double>(gated.fault_loop_attempts),
                     "count"});
  if (!untouched) {
    std::cout << "FAIL: the empty plan reached the fault path\n";
    ok = false;
  }

  // ---- wall-clock overhead, reported only ----------------------------
  // Interleaved A/B pairs (alternating which runs first) so drift in
  // the CPU the process gets lands on both arms alike.
  const int pairs = 2 * reps + 1;
  std::vector<double> walls_bare;
  std::vector<double> walls_gated;
  std::vector<double> overheads;
  for (int i = 0; i < pairs; ++i) {
    double b = 0.0;
    double g = 0.0;
    if (i % 2 == 0) {
      b = run_once(dataset, partitions, nullptr, seed).wall_s;
      g = run_once(dataset, partitions, &empty_plan, seed).wall_s;
    } else {
      g = run_once(dataset, partitions, &empty_plan, seed).wall_s;
      b = run_once(dataset, partitions, nullptr, seed).wall_s;
    }
    walls_bare.push_back(b);
    walls_gated.push_back(g);
    overheads.push_back(100.0 * (g - b) / b);
  }
  const Spread wall_bare = spread_of(walls_bare);
  const Spread wall_gated = spread_of(walls_gated);
  const Spread overhead = spread_of(overheads);
  std::cout << "wall time over " << pairs << " interleaved pairs: no injector "
            << common::format_double(wall_bare.median, 4) << " s, empty plan "
            << common::format_double(wall_gated.median, 4)
            << " s, overhead median "
            << common::format_double(overhead.median, 2) << "% (IQR "
            << common::format_double(overhead.iqr, 2) << " pts; not gated)\n";
  metrics.push_back({"wall_bare", wall_bare.median, "s"});
  metrics.push_back({"wall_empty_plan", wall_gated.median, "s"});
  metrics.push_back({"empty_plan_overhead", overhead.median, "%"});
  metrics.push_back({"empty_plan_overhead_iqr", overhead.iqr, "%"});

  // ---- degraded mode under an active plan ----------------------------
  fault::FaultPlan active;
  active.seed = 7;
  active.stores[1].error_prob = 0.05;
  active.nodes[partitions - 1].fail_stop_at_s = bare.summary.makespan_s * 0.3;
  const RunResult faulty = run_once(dataset, partitions, &active, seed);

  common::Table table({"configuration", "makespan (s)", "degraded",
                       "records rescued", "kv retries", "kv failures"});
  const auto row = [&](const char* name, const RunResult& r) {
    table.add_row({name, common::format_double(r.summary.makespan_s, 4),
                   r.summary.degraded ? "yes" : "no",
                   std::to_string(r.summary.replanned_records),
                   std::to_string(r.summary.kv_retries),
                   std::to_string(r.summary.kv_failures)});
  };
  row("no injector", bare);
  row("empty plan", gated);
  row("store errors + fail-stop", faulty);
  std::cout << '\n';
  table.print(std::cout, "job outcome by fault configuration");

  const std::size_t processed = std::accumulate(
      faulty.summary.processed.begin(), faulty.summary.processed.end(),
      std::size_t{0});
  if (processed != faulty.summary.records) {
    std::cout << "FAIL: degraded run lost records (" << processed << " of "
              << faulty.summary.records << ")\n";
    ok = false;
  }
  metrics.push_back({"degraded_makespan", faulty.summary.makespan_s, "s"});
  metrics.push_back({"makespan", bare.summary.makespan_s, "s"});
  metrics.push_back(
      {"rescued_records",
       static_cast<double>(faulty.summary.replanned_records), "count"});
  metrics.push_back({"kv_retries",
                     static_cast<double>(faulty.summary.kv_retries), "count"});

  bench::write_bench_json("fault", metrics);

  // ---- serving path: breaker must be free when nothing fails ---------
  std::vector<bench::BenchMetric> chaos_metrics;
  const std::size_t serve_ops = 800;
  std::cout << "\nserving path — 4-node group, replication 2, " << serve_ops
            << " puts + full read-back\n\n";

  const ServeResult plain = serve_once(nullptr, /*breaker_on=*/false,
                                       serve_ops);
  const ServeResult armed = serve_once(nullptr, /*breaker_on=*/true,
                                       serve_ops);
  const bool virt_identical = plain.virtual_s == armed.virtual_s;
  std::cout << "fault-free virtual time, breaker off vs on: "
            << (virt_identical ? "identical" : "MISMATCH") << " ("
            << common::format_double(armed.virtual_s, 6) << " s)\n";
  chaos_metrics.push_back(
      {"breaker_virtual_identical", virt_identical ? 1.0 : 0.0, "bool"});
  if (!virt_identical) ok = false;

  const bool breaker_idle = armed.stats.breaker_opens == 0 &&
                            armed.stats.breaker_probes == 0 &&
                            armed.stats.shed == 0;
  const bool same_traffic =
      armed.stats == plain.stats && armed.links == plain.links;
  std::cout << "fault-free breaker: opens " << armed.stats.breaker_opens
            << ", probes " << armed.stats.breaker_probes << ", shed "
            << armed.stats.shed << " (gate: all 0); router and link "
            << "counters, breaker off vs on: "
            << (same_traffic ? "identical" : "MISMATCH") << '\n';
  chaos_metrics.push_back(
      {"breaker_fault_free_idle", breaker_idle ? 1.0 : 0.0, "bool"});
  chaos_metrics.push_back(
      {"breaker_counters_identical", same_traffic ? 1.0 : 0.0, "bool"});
  if (!breaker_idle || !same_traffic) {
    std::cout << "FAIL: the breaker acted on a fault-free run\n";
    ok = false;
  }

  // Wall-clock cost, reported only: interleaved A/B pairs, as above.
  std::vector<double> serve_overheads;
  for (int i = 0; i < pairs; ++i) {
    const bool off_first = i % 2 == 0;
    const double first =
        serve_once(nullptr, /*breaker_on=*/!off_first, serve_ops).wall_s;
    const double second =
        serve_once(nullptr, /*breaker_on=*/off_first, serve_ops).wall_s;
    const double off = off_first ? first : second;
    const double on = off_first ? second : first;
    serve_overheads.push_back(100.0 * (on - off) / off);
  }
  const Spread serve_overhead = spread_of(serve_overheads);
  std::cout << "fault-free wall time over " << pairs
            << " interleaved pairs: breaker overhead median "
            << common::format_double(serve_overhead.median, 2) << "% (IQR "
            << common::format_double(serve_overhead.iqr, 2)
            << " pts; not gated)\n";
  chaos_metrics.push_back(
      {"breaker_overhead_pct", serve_overhead.median, "%"});
  chaos_metrics.push_back(
      {"breaker_overhead_iqr", serve_overhead.iqr, "%"});

  // ---- chaos survival: flapping replica, breaker shedding ------------
  fault::FaultPlan flapping;
  flapping.seed = 29;
  flapping.stores[1].error_prob = 1.0;
  const ServeResult shed = serve_once(&flapping, /*breaker_on=*/true,
                                      serve_ops);

  const double p99_clean = p99_of(armed.latencies);
  const double p99_shed = p99_of(shed.latencies);
  const double p99_ratio = p99_shed / p99_clean;

  common::Table survival({"configuration", "ok puts", "p99 (virtual s)",
                          "lost", "shed", "opens", "probes"});
  const auto srow = [&](const char* name, const ServeResult& r) {
    survival.add_row({name, std::to_string(r.ok_puts),
                      common::format_double(p99_of(r.latencies), 6),
                      std::to_string(r.lost), std::to_string(r.stats.shed),
                      std::to_string(r.stats.breaker_opens),
                      std::to_string(r.stats.breaker_probes)});
  };
  srow("fault-free", armed);
  srow("flapping replica (store 1 errors)", shed);
  std::cout << '\n';
  survival.print(std::cout, "chaos survival on the serving path");
  std::cout << "p99 inflation under flapping replica: "
            << common::format_double(p99_ratio, 2) << "x (gate: < 3x)\n";

  if (shed.lost != 0) {
    std::cout << "FAIL: flapping-replica run lost " << shed.lost
              << " record(s)\n";
    ok = false;
  }
  if (p99_ratio >= 3.0) {
    std::cout << "FAIL: p99 inflation " << p99_ratio
              << "x breaches the 3x gate\n";
    ok = false;
  }

  chaos_metrics.push_back({"p99_fault_free", p99_clean, "s"});
  chaos_metrics.push_back({"p99_flapping", p99_shed, "s"});
  chaos_metrics.push_back({"p99_inflation", p99_ratio, "x"});
  chaos_metrics.push_back(
      {"records_lost", static_cast<double>(shed.lost), "count"});
  chaos_metrics.push_back(
      {"ok_puts_flapping", static_cast<double>(shed.ok_puts), "count"});
  chaos_metrics.push_back(
      {"shed", static_cast<double>(shed.stats.shed), "count"});
  chaos_metrics.push_back(
      {"breaker_opens", static_cast<double>(shed.stats.breaker_opens),
       "count"});
  chaos_metrics.push_back(
      {"breaker_probes", static_cast<double>(shed.stats.breaker_probes),
       "count"});
  bench::write_bench_json("chaos", chaos_metrics);
  return ok ? 0 : 1;
}
