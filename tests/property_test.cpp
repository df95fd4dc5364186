// Parameterized property suites (TEST_P) over the library's invariants:
// codec round trips across configuration grids, bit writers against a
// bit-at-a-time reference, estimator properties of
// minhash, optimality/feasibility of the LP solvers on random instances,
// SON-equals-Apriori across partition counts, sampling proportionality,
// and trace invariants across locations.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <numeric>
#include <set>

#include "common/error.h"
#include "common/rng.h"
#include "compress/bitio.h"
#include "compress/lz77.h"
#include "compress/webgraph.h"
#include "data/generators.h"
#include "energy/solar.h"
#include "mining/son.h"
#include "optimize/pareto.h"
#include "optimize/simplex.h"
#include "runtime/replan.h"
#include "runtime/runtime.h"
#include "sketch/minhash.h"
#include "stratify/sampler.h"

namespace hetsim {
namespace {

// ---- LZ77 round trip across the config grid --------------------------------

struct Lz77Param {
  std::uint32_t window;
  std::uint32_t min_match;
  std::uint32_t max_chain;
};

class Lz77RoundTrip : public ::testing::TestWithParam<Lz77Param> {};

TEST_P(Lz77RoundTrip, AssortedInputsAreLossless) {
  const Lz77Param p = GetParam();
  const compress::Lz77Config cfg{.window = p.window,
                                 .min_match = p.min_match,
                                 .max_match = 255,
                                 .max_chain = p.max_chain};
  common::Rng rng(p.window * 31 + p.min_match);
  std::vector<std::string> inputs;
  // Highly repetitive.
  std::string rep;
  for (int i = 0; i < 400; ++i) rep += "pattern" + std::to_string(i % 5);
  inputs.push_back(rep);
  // Random bytes.
  std::string rand_bytes;
  for (int i = 0; i < 8192; ++i) {
    rand_bytes.push_back(static_cast<char>(rng.bounded(256)));
  }
  inputs.push_back(rand_bytes);
  // Low-entropy alphabet (forces long overlapping matches).
  std::string low;
  for (int i = 0; i < 6000; ++i) {
    low.push_back(static_cast<char>('a' + rng.bounded(3)));
  }
  inputs.push_back(low);
  inputs.push_back("");
  inputs.push_back("xyz");
  for (const std::string& input : inputs) {
    const std::string packed = compress::lz77_compress(input, cfg);
    EXPECT_EQ(compress::lz77_decompress(packed), input)
        << "window=" << p.window << " min_match=" << p.min_match
        << " input size=" << input.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, Lz77RoundTrip,
    ::testing::Values(Lz77Param{256, 4, 4}, Lz77Param{256, 8, 32},
                      Lz77Param{4096, 4, 16}, Lz77Param{32768, 4, 32},
                      Lz77Param{65535, 6, 64}, Lz77Param{1024, 16, 1}));

// ---- WebGraph codec round trip across the config grid -----------------------

struct WebGraphParam {
  std::uint32_t ref_window;
  std::uint32_t zeta_k;
};

class WebGraphRoundTrip : public ::testing::TestWithParam<WebGraphParam> {};

TEST_P(WebGraphRoundTrip, GeneratedGraphIsLossless) {
  const WebGraphParam p = GetParam();
  const compress::WebGraphCodecConfig cfg{.ref_window = p.ref_window,
                                          .zeta_k = p.zeta_k};
  data::WebGraphConfig gcfg;
  gcfg.num_vertices = 800;
  gcfg.seed = 19 + p.ref_window;
  const data::Graph g = data::generate_webgraph(gcfg);
  std::vector<std::vector<std::uint32_t>> lists;
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.neighbors(v);
    lists.emplace_back(nb.begin(), nb.end());
  }
  const std::string blob = compress::compress_adjacency(lists, cfg);
  EXPECT_EQ(compress::decompress_adjacency(blob, lists.size(), cfg), lists);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, WebGraphRoundTrip,
    ::testing::Values(WebGraphParam{0, 3}, WebGraphParam{1, 1},
                      WebGraphParam{3, 2}, WebGraphParam{7, 3},
                      WebGraphParam{15, 5}, WebGraphParam{7, 8}));

// ---- Bit writers agree with a bit-at-a-time reference ------------------------

/// The codes as first written: one bit per step, zeta's h found by search.
class ReferenceBitWriter {
 public:
  void write_bits(std::uint64_t bits, std::uint32_t count) {
    for (std::uint32_t i = count; i-- > 0;) {
      current_ = static_cast<std::uint8_t>((current_ << 1) | ((bits >> i) & 1U));
      if (++filled_ == 8) {
        out_.push_back(static_cast<char>(current_));
        current_ = 0;
        filled_ = 0;
      }
    }
    bits_ += count;
  }
  void write_unary(std::uint32_t n) {
    for (; n >= 32; n -= 32) write_bits(0, 32);
    write_bits(1, n + 1);
  }
  void write_gamma(std::uint64_t x) {
    const auto width = static_cast<std::uint32_t>(std::bit_width(x));
    write_unary(width - 1);
    if (width > 1) write_bits(x & ((1ULL << (width - 1)) - 1), width - 1);
  }
  void write_zeta(std::uint64_t x, std::uint32_t k) {
    std::uint32_t h = 0;
    while ((h + 1) * k < 64 && x >= (1ULL << ((h + 1) * k))) ++h;
    write_unary(h);
    write_bits(x - (1ULL << (h * k)), h * k + k);
  }
  [[nodiscard]] std::uint64_t bit_count() const { return bits_; }
  [[nodiscard]] std::string finish() {
    if (filled_ > 0) {
      out_.push_back(static_cast<char>(current_ << (8 - filled_)));
      filled_ = 0;
    }
    return out_;
  }

 private:
  std::string out_;
  std::uint8_t current_ = 0;
  std::uint32_t filled_ = 0;
  std::uint64_t bits_ = 0;
};

class BitWriterEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitWriterEquivalence, RandomCodeSequencesMatchReference) {
  common::Rng rng(GetParam());
  compress::BitWriter writer;
  compress::BitCounter counter;
  ReferenceBitWriter reference;
  const auto apply = [&](auto&& op) {
    op(writer);
    op(counter);
    op(reference);
    ASSERT_EQ(writer.bit_count(), reference.bit_count());
    ASSERT_EQ(counter.bit_count(), reference.bit_count());
  };
  // A value of random width in [1, 64], with its top bit set.
  const auto value = [&] {
    const auto width = static_cast<std::uint32_t>(1 + rng.bounded(64));
    const std::uint64_t top = 1ULL << (width - 1);
    return top | (rng() & (top - 1));
  };
  // The edges first: count 0 and 64 (with junk above the count), unary
  // across the 32-bit split, the widest gamma, and k = 16 and k = 1.
  apply([](auto& w) { w.write_bits(~0ULL, 0); });
  apply([](auto& w) { w.write_bits(0xdeadbeefcafef00dULL, 64); });
  apply([](auto& w) { w.write_bits(0xffULL, 3); });
  apply([](auto& w) { w.write_unary(31); });
  apply([](auto& w) { w.write_unary(32); });
  apply([](auto& w) { w.write_unary(97); });
  apply([](auto& w) { w.write_gamma(~0ULL); });
  apply([](auto& w) { w.write_zeta(~0ULL, 16); });
  apply([](auto& w) { w.write_zeta(~0ULL, 1); });
  apply([](auto& w) { w.write_zeta(1, 16); });
  for (int i = 0; i < 3000; ++i) {
    switch (rng.bounded(4)) {
      case 0: {
        const std::uint64_t bits = rng();
        const auto count = static_cast<std::uint32_t>(rng.bounded(65));
        apply([&](auto& w) { w.write_bits(bits, count); });
        break;
      }
      case 1: {
        const auto n = static_cast<std::uint32_t>(rng.bounded(80));
        apply([&](auto& w) { w.write_unary(n); });
        break;
      }
      case 2: {
        const std::uint64_t x = value();
        apply([&](auto& w) { w.write_gamma(x); });
        break;
      }
      default: {
        const auto k = static_cast<std::uint32_t>(1 + rng.bounded(16));
        std::uint64_t x = value();
        // The fixed-width remainder must fit one write: h*k + k <= 64.
        while ((static_cast<std::uint32_t>(std::bit_width(x)) - 1) / k * k + k > 64) {
          x >>= 1;
        }
        apply([&](auto& w) { w.write_zeta(x, k); });
        break;
      }
    }
  }
  EXPECT_EQ(writer.finish(), reference.finish());
}

TEST(BitCounter, KeepsTheWritersChecks) {
  const auto both_reject = [](auto&& op) {
    compress::BitWriter writer;
    compress::BitCounter counter;
    EXPECT_THROW(op(writer), common::ConfigError);
    EXPECT_THROW(op(counter), common::ConfigError);
  };
  both_reject([](auto& w) { w.write_bits(0, 65); });
  both_reject([](auto& w) { w.write_gamma(0); });
  both_reject([](auto& w) { w.write_zeta(0, 3); });
  both_reject([](auto& w) { w.write_zeta(1, 0); });
  both_reject([](auto& w) { w.write_zeta(1, 17); });
  both_reject([](auto& w) { w.write_zeta(~0ULL, 5); });  // remainder of 65 bits
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitWriterEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---- MinHash accuracy scales as 1/sqrt(k) -----------------------------------

class MinHashAccuracy : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MinHashAccuracy, ErrorWithinFourStdErr) {
  const std::uint32_t hashes = GetParam();
  const sketch::MinHasher h({.num_hashes = hashes, .seed = 99});
  // Jaccard exactly 1/3: |inter|=200, each side has 200 extra.
  data::ItemSet a, b;
  for (std::uint32_t i = 0; i < 200; ++i) {
    a.push_back(i);
    b.push_back(i);
  }
  for (std::uint32_t i = 0; i < 200; ++i) a.push_back(1000 + i);
  for (std::uint32_t i = 0; i < 200; ++i) b.push_back(2000 + i);
  const double truth = 1.0 / 3.0;
  const double est = sketch::MinHasher::estimate_jaccard(h.sketch(a), h.sketch(b));
  const double stderr4 =
      4.0 * std::sqrt(truth * (1.0 - truth) / static_cast<double>(hashes));
  EXPECT_NEAR(est, truth, stderr4);
}

INSTANTIATE_TEST_SUITE_P(HashCounts, MinHashAccuracy,
                         ::testing::Values(16u, 32u, 64u, 128u, 256u, 512u));

// ---- Simplex on random bounded-feasible instances ---------------------------

class SimplexRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexRandom, SolutionFeasibleAndUndominated) {
  common::Rng rng(GetParam());
  const std::size_t n = 2 + rng.bounded(4);  // 2..5 vars
  const std::size_t m = 1 + rng.bounded(4);  // 1..4 extra constraints
  optimize::LpProblem p;
  p.num_vars = n;
  p.objective.resize(n);
  for (auto& c : p.objective) c = rng.uniform(-2.0, 2.0);
  // Box constraints keep the problem bounded; origin keeps it feasible.
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> row(n, 0.0);
    row[j] = 1.0;
    p.add_constraint(std::move(row), optimize::Relation::kLe,
                     rng.uniform(0.5, 5.0));
  }
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<double> row(n);
    for (auto& a : row) a = rng.uniform(0.0, 1.0);
    p.add_constraint(std::move(row), optimize::Relation::kLe,
                     rng.uniform(1.0, 6.0));
  }
  const optimize::LpSolution sol = optimize::solve_lp(p);
  ASSERT_EQ(sol.status, optimize::LpStatus::kOptimal);
  // Feasibility.
  for (std::size_t j = 0; j < n; ++j) EXPECT_GE(sol.x[j], -1e-9);
  for (const auto& c : p.constraints) {
    double lhs = 0.0;
    for (std::size_t j = 0; j < n; ++j) lhs += c.coeffs[j] * sol.x[j];
    EXPECT_LE(lhs, c.rhs + 1e-7);
  }
  // Undominated: no random feasible point does better.
  for (int probe = 0; probe < 300; ++probe) {
    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(0.0, 5.0);
    bool feasible = true;
    for (const auto& c : p.constraints) {
      double lhs = 0.0;
      for (std::size_t j = 0; j < n; ++j) lhs += c.coeffs[j] * x[j];
      if (lhs > c.rhs) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;
    double obj = 0.0;
    for (std::size_t j = 0; j < n; ++j) obj += p.objective[j] * x[j];
    EXPECT_GE(obj, sol.objective - 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandom,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- Pareto LP optimality across the alpha grid -----------------------------

class ParetoAlphaGrid : public ::testing::TestWithParam<double> {};

TEST_P(ParetoAlphaGrid, ScalarizedObjectiveIsMinimal) {
  const double alpha = GetParam();
  common::Rng rng(1234);
  std::vector<optimize::NodeModel> models;
  for (int i = 0; i < 6; ++i) {
    models.push_back({.slope = rng.uniform(5e-5, 5e-4),
                      .intercept = rng.uniform(0.0, 0.3),
                      .dirty_rate = rng.uniform(-50.0, 400.0)});
  }
  const std::size_t total = 100000;
  const auto plan = optimize::solve_partition_sizes(models, total, alpha);
  const auto scalarized = [&](std::span<const double> x) {
    double v = 0.0, g = 0.0;
    for (std::size_t i = 0; i < models.size(); ++i) {
      const double t = models[i].time_s(x[i]);
      v = std::max(v, t);
      g += models[i].dirty_rate * t;
    }
    return alpha * v + (1.0 - alpha) * g;
  };
  // Note: the LP includes idle nodes' intercepts in its objective, while
  // this oracle does too (time_s(0) = intercept). Compare against random
  // feasible allocations projected onto the sum constraint.
  const double best = scalarized(plan.continuous);
  for (int probe = 0; probe < 500; ++probe) {
    std::vector<double> x(models.size());
    double sum = 0.0;
    for (auto& v : x) {
      v = rng.uniform(0.0, 1.0);
      sum += v;
    }
    for (auto& v : x) v *= static_cast<double>(total) / sum;
    EXPECT_GE(scalarized(x), best - 1e-5 * (1.0 + std::abs(best)))
        << "alpha=" << alpha;
  }
  // Integer sizes conserve the total.
  EXPECT_EQ(std::accumulate(plan.sizes.begin(), plan.sizes.end(),
                            std::size_t{0}),
            total);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ParetoAlphaGrid,
                         ::testing::Values(1.0, 0.999, 0.99, 0.9, 0.7, 0.5,
                                           0.3, 0.0));

// ---- SON equals Apriori across partition counts -----------------------------

class SonPartitions : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SonPartitions, GlobalResultIndependentOfPartitioning) {
  const std::size_t parts = GetParam();
  data::TextCorpusConfig cfg;
  cfg.num_docs = 600;
  cfg.seed = 77;
  const data::Dataset ds = data::generate_text_corpus(cfg);
  std::vector<data::ItemSet> txns;
  for (const auto& r : ds.records) txns.push_back(r.items);
  const mining::AprioriConfig acfg{.min_support = 0.1, .max_pattern_length = 3};
  const mining::MiningResult direct = mining::apriori(txns, acfg);
  std::vector<std::vector<data::ItemSet>> partitions(parts);
  for (std::size_t i = 0; i < txns.size(); ++i) {
    partitions[i % parts].push_back(txns[i]);
  }
  const mining::SonResult son = mining::son_mine(partitions, acfg);
  const auto as_map = [](const std::vector<mining::Pattern>& patterns) {
    std::map<data::ItemSet, std::uint32_t> m;
    for (const auto& p : patterns) m[p.items] = p.support;
    return m;
  };
  EXPECT_EQ(as_map(son.frequent), as_map(direct.frequent));
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, SonPartitions,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// ---- Stratified sampling proportionality across shapes ----------------------

// gtest names each case after the param's raw bytes, so the padding after
// `strata` is an explicit zero member: left implicit, it held stack garbage
// and the case names changed from run to run.
struct SampleParam {
  SampleParam(std::uint32_t s, std::size_t per, std::size_t n)
      : strata(s), per_stratum(per), count(n) {}
  std::uint32_t strata;
  std::uint32_t zero_pad = 0;
  std::size_t per_stratum;
  std::size_t count;
};

class StratifiedSampling : public ::testing::TestWithParam<SampleParam> {};

TEST_P(StratifiedSampling, ProportionsWithinOne) {
  const SampleParam p = GetParam();
  stratify::Stratification strat;
  strat.num_strata = p.strata;
  strat.assignment.resize(p.strata * p.per_stratum);
  for (std::size_t i = 0; i < strat.assignment.size(); ++i) {
    strat.assignment[i] = static_cast<std::uint32_t>(i % p.strata);
  }
  strat.stratum_sizes.assign(p.strata, p.per_stratum);
  common::Rng rng(p.strata * 1000 + p.count);
  const auto sample = stratify::stratified_sample(strat, p.count, rng);
  EXPECT_EQ(sample.size(), std::min(p.count, strat.assignment.size()));
  std::vector<std::size_t> hist(p.strata, 0);
  for (const auto i : sample) ++hist[strat.assignment[i]];
  const double expected =
      static_cast<double>(sample.size()) / static_cast<double>(p.strata);
  for (const auto h : hist) {
    EXPECT_NEAR(static_cast<double>(h), expected, 1.0 + 1e-9);
  }
  // No duplicates.
  std::set<std::uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), sample.size());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StratifiedSampling,
    ::testing::Values(SampleParam{2, 100, 30}, SampleParam{4, 50, 60},
                      SampleParam{8, 25, 64}, SampleParam{16, 20, 100},
                      SampleParam{3, 7, 21}, SampleParam{5, 10, 500}));

// ---- Energy trace invariants per location -----------------------------------

class TraceLocations : public ::testing::TestWithParam<int> {};

TEST_P(TraceLocations, PhysicalInvariantsHold) {
  const auto locs = energy::datacenter_locations();
  const auto& loc = locs[static_cast<std::size_t>(GetParam())];
  const energy::EnergyTrace trace = energy::EnergyTrace::generate(loc, 96);
  for (std::size_t h = 0; h < trace.hours(); ++h) {
    const double w = trace.hourly_watts()[h];
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, loc.panel_watts_peak + 1e-9);
    const double hour_of_day = static_cast<double>(h % 24) + 0.5;
    if (hour_of_day < loc.sunrise_hour || hour_of_day > loc.sunset_hour) {
      EXPECT_EQ(w, 0.0) << "production outside daylight at hour " << h;
    }
  }
  // Integral over the whole trace equals the hourly sum.
  double hand = 0.0;
  for (const double w : trace.hourly_watts()) hand += w * 3600.0;
  EXPECT_NEAR(trace.green_energy_joules(0.0, 96.0 * 3600.0), hand, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Locations, TraceLocations,
                         ::testing::Values(0, 1, 2, 3));

// ---- re-planning conserves Σ x_i = N across random instances ---------------

class ReplanConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplanConservation, TargetsAndMigrationsConserveRemaining) {
  common::Rng rng(GetParam());
  const std::size_t p = 2 + rng.bounded(7);
  std::vector<optimize::NodeModel> models(p);
  std::vector<runtime::NodeObservation> obs(p);
  std::size_t total_remaining = 0;
  for (std::size_t i = 0; i < p; ++i) {
    models[i].slope = rng.uniform(1e-5, 1e-2);
    models[i].intercept = rng.uniform(0.0, 0.5);
    models[i].dirty_rate = rng.uniform(-20.0, 120.0);
    obs[i].records_done = rng.bounded(400);
    obs[i].busy_s =
        models[i].slope * static_cast<double>(obs[i].records_done) *
        rng.uniform(0.5, 3.0);
    obs[i].remaining = rng.bounded(1000);
    total_remaining += obs[i].remaining;
  }
  const auto refit = runtime::refit_models(models, obs, 16);
  for (const double alpha : {0.0, 0.3, 1.0}) {
    const std::vector<std::size_t> target =
        runtime::replan_remaining(refit, obs, alpha);
    ASSERT_EQ(target.size(), p);
    EXPECT_EQ(std::accumulate(target.begin(), target.end(), std::size_t{0}),
              total_remaining)
        << "alpha=" << alpha;
    // Applying the migration plan transforms current into target exactly
    // — no records created or destroyed in flight.
    std::vector<std::size_t> current(p);
    for (std::size_t i = 0; i < p; ++i) current[i] = obs[i].remaining;
    std::vector<std::size_t> applied = current;
    for (const runtime::MigrationStep& s :
         runtime::plan_migrations(current, target)) {
      ASSERT_GE(applied[s.from], s.count);
      applied[s.from] -= s.count;
      applied[s.to] += s.count;
    }
    EXPECT_EQ(applied, target);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplanConservation,
                         ::testing::Range<std::uint64_t>(500, 516));

// ---- end-to-end: a re-planned job still processes exactly N ----------------

class RuntimeJobSeeds : public ::testing::TestWithParam<std::uint64_t> {};

namespace {
class FlatCostWorkload final : public core::Workload {
 public:
  [[nodiscard]] std::string name() const override { return "flat"; }
  [[nodiscard]] partition::Layout preferred_layout() const override {
    return partition::Layout::kRepresentative;
  }
  void reset(std::size_t, std::uint32_t) override {}
  void run(cluster::NodeContext& ctx, const data::Dataset&,
           std::span<const std::uint32_t> indices) override {
    ctx.meter().add(400.0 * static_cast<double>(indices.size()));
  }
};
}  // namespace

TEST_P(RuntimeJobSeeds, ReplannedJobProcessesExactlyN) {
  data::TextCorpusConfig cfg;
  cfg.num_docs = 350;
  cfg.seed = GetParam();
  const data::Dataset dataset = data::generate_text_corpus(cfg, "corpus");
  cluster::Cluster cluster(cluster::standard_cluster(4));
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  FlatCostWorkload workload;
  runtime::JobSpec spec;
  spec.sampling.min_records = 20;
  spec.sampling.steps = 3;
  spec.kmodes.num_strata = 8;
  spec.per_node_slowdown = {2.2, 1.0, 1.0, 1.0};
  spec.seed = GetParam();
  runtime::JobRuntime rt(cluster, energy, spec);
  const runtime::JobSummary summary = rt.run(dataset, workload);
  EXPECT_GE(summary.replans, 1u);
  EXPECT_EQ(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            dataset.size());
  EXPECT_EQ(std::accumulate(summary.initial_sizes.begin(),
                            summary.initial_sizes.end(), std::size_t{0}),
            dataset.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeJobSeeds,
                         ::testing::Range<std::uint64_t>(900, 905));

}  // namespace
}  // namespace hetsim
