// Chaos victims: the two workloads every trial's plan is thrown at,
// plus the global invariants they must keep (chaos.h lists them).
//
// Everything here is a pure function of (plan, grammar, seed, trial):
// no wall clock, no global RNG — the digest a victim emits is what the
// search's byte-identical trial log is built from.
#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos.h"
#include "cluster/cluster.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/workload.h"
#include "data/generators.h"
#include "energy/estimator.h"
#include "ha/group.h"
#include "kvstore/client.h"
#include "kvstore/store.h"
#include "runtime/runtime.h"

namespace hetsim::chaos {

namespace {

/// Pure mix for the churn victim's value draws, independent of the
/// plan's injector streams.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t trial,
                                std::uint64_t tag, std::uint64_t i) {
  std::uint64_t s = seed ^ (trial * 0x9e3779b97f4a7c15ULL) ^ tag;
  std::uint64_t x = common::splitmix64(s) ^ i;
  return common::splitmix64(x);
}

Violation pass(Victim victim) {
  Violation v;
  v.victim = victim;
  return v;
}

Violation fail(Victim victim, std::string invariant, std::string detail) {
  Violation v;
  v.violated = true;
  v.victim = victim;
  v.invariant = std::move(invariant);
  v.detail = std::move(detail);
  return v;
}

// ---- churn ------------------------------------------------------------

Violation run_churn(const fault::FaultPlan& plan, const Grammar& g,
                    std::uint64_t seed, std::uint64_t trial,
                    std::string* digest) {
  constexpr std::uint64_t kTag = 0x6368616f735f6368ULL;  // "chaos_ch"
  ha::NodeGroupConfig cfg;
  cfg.nodes = g.nodes;
  ha::NodeGroup group(cfg);
  group.set_fault(plan);  // before any connection is cached

  // NodeFailStop events, ordered by virtual fail time.
  std::vector<std::pair<double, ha::HostId>> fail_stops;
  for (const auto& [host, faults] : plan.nodes) {
    if (faults.fail_stop_at_s >= 0.0 && host < g.nodes) {
      fail_stops.emplace_back(faults.fail_stop_at_s, host);
    }
  }
  std::sort(fail_stops.begin(), fail_stops.end());

  // Every ack the observer sees must still be byte-exact on that
  // replica at end of trial (unless the whole node was crashed).
  std::map<std::string, std::vector<ha::HostId>> acks;
  std::map<std::string, std::string> expected;
  ha::Client client(
      group.router(),
      [&group](ha::HostId target) -> kvstore::Client& {
        return group.connection(0, target);
      },
      [&acks](ha::HostId target, const kvstore::Command& cmd) {
        if (cmd.type == kvstore::CommandType::kSet) {
          acks[cmd.key].push_back(target);
        }
      });

  std::set<ha::HostId> crashed;
  std::size_t next_fail = 0;
  std::size_t ok_puts = 0;
  std::size_t reads_ok = 0;
  for (std::size_t i = 0; i < g.churn_ops; ++i) {
    while (next_fail < fail_stops.size() &&
           fail_stops[next_fail].first <= group.consumed_time()) {
      const auto [at_s, host] = fail_stops[next_fail++];
      if (crashed.insert(host).second) group.crash(host, at_s);
    }

    const std::string key = "c" + std::to_string(i);
    const std::string value = "v" + std::to_string(mix(seed, trial, kTag, i));

    // routes-dead-node: the serving path must never be handed a node
    // the router itself has marked down.
    for (const ha::HostId host : group.router().route(key)) {
      if (group.router().is_down(host)) {
        return fail(Victim::kChurn, "routes-dead-node",
                    "route for '" + key + "' contains down node " +
                        std::to_string(host));
      }
    }

    const ha::WriteResult res = client.put(key, value);
    expected[key] = value;
    if (res.attempted + res.expired != res.routed) {
      return fail(Victim::kChurn, "replica-conservation",
                  "put '" + key + "': attempted=" +
                      std::to_string(res.attempted) +
                      " expired=" + std::to_string(res.expired) +
                      " routed=" + std::to_string(res.routed));
    }
    if (res.status == kvstore::Status::kOk) ++ok_puts;

    // stale-read: when a replicated read answers, it must answer with
    // the acknowledged bytes. A transport failure or a missing key is
    // availability, not staleness — the direct-store sweep below owns
    // durability.
    if (i % 5 == 4) {
      const std::string probe = "c" + std::to_string(i / 2);
      const ha::ReadResult r = client.get(probe);
      if (r.reply.status == kvstore::Status::kOk && r.reply.ok) {
        ++reads_ok;
        if (r.reply.blob != expected[probe]) {
          return fail(Victim::kChurn, "stale-read",
                      "get '" + probe + "' returned stale bytes");
        }
      }
    }
  }

  // acked-write-lost: control-plane inspection of every acked replica.
  // Replicas the trial crashed are exempt (their loss is what the
  // election and read fallback exist for); everything else must hold
  // the exact acknowledged value.
  std::size_t live_acks = 0;
  for (const auto& [key, targets] : acks) {
    for (const ha::HostId target : targets) {
      if (crashed.count(target) != 0) continue;
      ++live_acks;
      // Control-plane inspection on purpose: the durability check must
      // see the replica's raw bytes, not a transport that faults or a
      // router that fell back.  // hetsim-analyze: allow(direct-store)
      const std::optional<std::string> got =
          group.store(target).get(key);  // hetsim-analyze: allow(direct-store)
      if (!got || *got != expected[key]) {
        return fail(Victim::kChurn, "acked-write-lost",
                    "node " + std::to_string(target) + " acked '" + key +
                        "' but now holds " + (got ? "different bytes" : "nothing"));
      }
    }
  }

  if (digest != nullptr) {
    const ha::RouterStats st = group.router().stats();
    std::ostringstream os;
    os << "ok=" << ok_puts << " reads=" << reads_ok << " acks=" << live_acks
       << " crashes=" << crashed.size() << " shed=" << st.shed
       << " opens=" << st.breaker_opens << " probes=" << st.breaker_probes
       << " t=" << group.consumed_time();
    *digest = os.str();
  }
  return pass(Victim::kChurn);
}

// ---- job --------------------------------------------------------------

class LinearWorkload final : public core::Workload {
 public:
  [[nodiscard]] std::string name() const override { return "linear"; }
  [[nodiscard]] partition::Layout preferred_layout() const override {
    return partition::Layout::kRepresentative;
  }
  void reset(std::size_t, std::uint32_t) override {}
  void run(cluster::NodeContext& ctx, const data::Dataset&,
           std::span<const std::uint32_t> indices) override {
    ctx.meter().add(500.0 * static_cast<double>(indices.size()));
  }
};

Violation run_job(const fault::FaultPlan& plan, const Grammar& g,
                  std::string* digest) {
  // The victim takes the generated plan verbatim: the JobStatus
  // contract now covers the FULL fault grammar (net drop/spike/
  // partition, store error/stall/crash, node fail-stop/slowdown), so
  // every fault must land as a typed status, never as an exception.
  data::TextCorpusConfig corpus;
  corpus.num_docs = 96;
  corpus.seed = 7;
  const data::Dataset dataset = data::generate_text_corpus(corpus, "chaos");

  runtime::JobSpec spec;
  spec.sampling.min_records = 20;
  spec.sampling.steps = 3;
  spec.kmodes.num_strata = 8;
  spec.kmodes.max_iterations = 4;
  spec.sketch.num_hashes = 16;
  spec.replication = 2;
  spec.seed = plan.seed | 1ULL;

  cluster::Cluster cluster(
      cluster::standard_cluster(static_cast<std::uint32_t>(g.nodes)));
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  fault::FaultInjector inj(plan);
  cluster.set_fault(&inj);

  LinearWorkload workload;
  runtime::JobRuntime rt(cluster, energy, spec);
  runtime::JobSummary summary;
  try {
    summary = rt.run(dataset, workload);
  } catch (const common::Error& e) {
    // Distinct from the outer victim-exception catch-all: an exception
    // escaping JobRuntime::run under a well-formed plan is a broken
    // phase fault domain, not a broken victim harness.
    return fail(Victim::kJob, "no-escaping-error",
                std::string("JobRuntime::run threw: ") + e.what());
  }

  if (summary.dirty_energy_j < 0.0 || summary.green_energy_j < 0.0) {
    return fail(Victim::kJob, "negative-energy",
                "dirty=" + std::to_string(summary.dirty_energy_j) +
                    " green=" + std::to_string(summary.green_energy_j));
  }
  std::size_t processed = 0;
  for (const std::size_t p : summary.processed) processed += p;
  if (summary.status != runtime::JobStatus::kDataUnavailable &&
      processed + summary.records_dropped != summary.records) {
    return fail(Victim::kJob, "work-lost",
                "status " +
                    std::string(runtime::job_status_name(summary.status)) +
                    " but processed " + std::to_string(processed) + "+" +
                    std::to_string(summary.records_dropped) + " dropped of " +
                    std::to_string(summary.records) + " records");
  }

  if (digest != nullptr) {
    std::ostringstream os;
    os << "status=" << runtime::job_status_name(summary.status)
       << " processed=" << processed << "/" << summary.records
       << " makespan=" << summary.makespan_s
       << " energy=" << summary.dirty_energy_j + summary.green_energy_j;
    *digest = os.str();
  }
  return pass(Victim::kJob);
}

}  // namespace

Violation run_victim(Victim victim, const fault::FaultPlan& plan,
                     const Grammar& grammar, std::uint64_t seed,
                     std::uint64_t trial, std::string* digest) {
  try {
    switch (victim) {
      case Victim::kChurn:
        return run_churn(plan, grammar, seed, trial, digest);
      case Victim::kJob:
        return run_job(plan, grammar, digest);
    }
    return fail(victim, "victim-exception", "unknown victim");
  } catch (const common::Error& e) {
    // A legal plan must never blow a victim up — an escaping exception
    // is itself a finding, reported under a dedicated slug.
    return fail(victim, "victim-exception", e.what());
  }
}

}  // namespace hetsim::chaos
