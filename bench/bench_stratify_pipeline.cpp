// bench_stratify_pipeline — A/B acceptance bench for the hetsim::par
// re-plumbing of the stratification pipeline (sketch → composite
// k-modes → stratified sample → partition layouts), plus the
// scalar-vs-SIMD split of the vector layer (src/simd).
//
// The "before" side is kept alive inside this binary: an item-major
// scalar minhash sketcher and a linear-scan nested-vector k-modes
// assignment step, both serial — byte-for-byte the pre-refactor
// algorithms. The "after" side is the library's batched/unrolled,
// flat-center, pool-parallel kernels, timed twice: once forced to the
// scalar lane (simd::ScopedIsaOverride) and once on the host's best
// ISA. The bench cross-checks that every leg agrees byte-for-byte
// (HETSIM_CHECK aborts on any divergence, including parallel-vs-serial
// and SIMD-vs-scalar runs), prints a comparison table, and writes
// BENCH_stratify.json via write_bench_json when HETSIM_BENCH_JSON is
// set.
//
// Exit status is non-zero when an acceptance gate fails:
//   - single-threaded scalar-lane kernel speedups (sketch_all,
//     composite_kmodes) must each be >= 1.3x over the serial baselines,
//     on any host — this is the guard that the scalar fallback did not
//     regress when the SIMD layer went in;
//   - on hosts where a vector ISA is runnable, the SIMD lane must beat
//     the scalar lane by >= 1.5x on the minhash kernel, >= 1.2x on the
//     top-L scan kernel k-modes runs (find_above_u32), and >= 1.2x end
//     to end (skipped when scalar is already the best ISA). The
//     whole-solve k-modes ratio is printed, not gated: the scan is a
//     few ms of the solve, so no lane choice can move the solve by 1.2x;
//   - the end-to-end parallel-vs-baseline speedup must be >= 3.0x, but
//     only on hosts with >= 4 hardware threads (the parallel half of
//     that gate is meaningless on smaller machines).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "check/check.h"
#include "common/args.h"
#include "common/hash.h"
#include "common/rng.h"
#include "data/generators.h"
#include "par/pool.h"
#include "partition/partitioner.h"
#include "simd/simd.h"
#include "sketch/minhash.h"
#include "stratify/kmodes.h"
#include "stratify/sampler.h"

namespace {

using namespace hetsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- serial baselines (the pre-refactor algorithms) ------------------------

/// Item-major scalar sketching: one permutation value at a time through
/// the public permute() accessor, no batching, no unrolling.
std::vector<sketch::Sketch> baseline_sketch_all(
    const sketch::MinHasher& hasher, const std::vector<data::Record>& records) {
  std::vector<sketch::Sketch> out;
  out.reserve(records.size());
  const std::uint32_t k = hasher.num_hashes();
  for (const auto& r : records) {
    sketch::Sketch sig(k, sketch::MinHasher::kEmptySentinel);
    for (const data::Item x : r.items) {
      for (std::uint32_t j = 0; j < k; ++j) {
        const std::uint64_t v = hasher.permute(j, x);
        if (v < sig[j]) sig[j] = v;
      }
    }
    out.push_back(std::move(sig));
  }
  return out;
}

/// Matched-attribute count against one nested-vector center, membership
/// by linear scan — the pre-flattening inner loop.
std::uint32_t baseline_match_score(
    const sketch::Sketch& sig,
    const std::vector<std::vector<std::uint64_t>>& center) {
  std::uint32_t score = 0;
  for (std::size_t j = 0; j < sig.size(); ++j) {
    for (const std::uint64_t v : center[j]) {
      if (v == sig[j]) {
        ++score;
        break;
      }
    }
  }
  return score;
}

void baseline_update_center(const std::vector<sketch::Sketch>& sketches,
                            const std::vector<std::uint32_t>& members,
                            std::uint32_t composite_l,
                            std::vector<std::vector<std::uint64_t>>& center) {
  const std::size_t k = center.size();
  for (std::size_t j = 0; j < k; ++j) {
    std::unordered_map<std::uint64_t, std::uint32_t> freq;
    freq.reserve(members.size() * 2);
    for (const std::uint32_t i : members) ++freq[sketches[i][j]];
    std::vector<std::pair<std::uint64_t, std::uint32_t>> ranked(freq.begin(),
                                                                freq.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    auto& slot = center[j];
    slot.clear();
    for (std::size_t r = 0; r < ranked.size() && r < composite_l; ++r) {
      slot.push_back(ranked[r].first);
    }
  }
}

/// Serial nested-vector composite k-modes. Same initialization, same
/// strict `score > best` lowest-index tie-break, same hash fallback as
/// the library kernel, so assignments and objective agree exactly
/// (work_ops intentionally differs: the flat kernel meters candidate
/// values considered, this one is not metered at all).
stratify::Stratification baseline_composite_kmodes(
    const std::vector<sketch::Sketch>& sketches,
    const stratify::KModesConfig& config) {
  const std::size_t n = sketches.size();
  const std::size_t k_attr = sketches.front().size();
  const std::uint32_t num_strata = std::min<std::uint32_t>(
      config.num_strata, static_cast<std::uint32_t>(n));

  stratify::Stratification out;
  out.num_strata = num_strata;

  common::Rng rng(config.seed);
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(order[i], order[i + rng.bounded(n - i)]);
  }
  std::vector<std::vector<std::vector<std::uint64_t>>> centers(
      num_strata, std::vector<std::vector<std::uint64_t>>(k_attr));
  for (std::uint32_t c = 0; c < num_strata; ++c) {
    const sketch::Sketch& seed_point = sketches[order[c]];
    for (std::size_t j = 0; j < k_attr; ++j) centers[c][j] = {seed_point[j]};
  }

  std::vector<std::uint32_t> assignment(n, UINT32_MAX);
  for (std::uint32_t iter = 0; iter < config.max_iterations; ++iter) {
    out.iterations = iter + 1;
    bool changed = false;
    out.zero_match_assignments = 0;
    out.objective = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t best_c = 0;
      std::uint32_t best_score = 0;
      for (std::uint32_t c = 0; c < num_strata; ++c) {
        const std::uint32_t score = baseline_match_score(sketches[i], centers[c]);
        if (score > best_score) {
          best_score = score;
          best_c = c;
        }
      }
      if (best_score == 0) {
        best_c = static_cast<std::uint32_t>(common::hash_u64(i) % num_strata);
        ++out.zero_match_assignments;
      }
      out.objective += best_score;
      if (assignment[i] != best_c) {
        assignment[i] = best_c;
        changed = true;
      }
    }
    if (!changed) break;
    std::vector<std::vector<std::uint32_t>> members(num_strata);
    for (std::size_t i = 0; i < n; ++i) {
      members[assignment[i]].push_back(static_cast<std::uint32_t>(i));
    }
    for (std::uint32_t c = 0; c < num_strata; ++c) {
      if (members[c].empty()) continue;
      baseline_update_center(sketches, members[c], config.composite_l,
                             centers[c]);
    }
  }

  out.assignment = std::move(assignment);
  out.stratum_sizes.assign(num_strata, 0);
  for (const std::uint32_t c : out.assignment) ++out.stratum_sizes[c];
  return out;
}

// ---- pipeline runners -------------------------------------------------------

struct PipelineTimes {
  double sketch_s = 0.0;
  double kmodes_s = 0.0;
  double total_s = 0.0;
};

struct PipelineOutputs {
  std::vector<sketch::Sketch> sketches;
  stratify::Stratification strat;
  std::vector<std::uint32_t> sample;
  partition::PartitionAssignment representative;
  partition::PartitionAssignment similar;
  partition::PartitionAssignment random;
};

stratify::KModesConfig kmodes_config(const par::Options& par) {
  stratify::KModesConfig cfg;
  cfg.num_strata = 16;
  cfg.composite_l = 3;
  cfg.max_iterations = 4;  // fixed: the bench times assignment throughput
  cfg.par = par;
  return cfg;
}

std::vector<std::size_t> partition_sizes(std::size_t n) {
  // A skewed 4-way split (heterogeneous-cluster shape).
  std::vector<std::size_t> sizes{n * 4 / 10, n * 3 / 10, n * 2 / 10, 0};
  sizes[3] = n - sizes[0] - sizes[1] - sizes[2];
  return sizes;
}

/// Downstream (post-kmodes) stages, shared by every variant.
void run_tail(const data::Dataset& ds, const par::Options& par,
              PipelineOutputs& out) {
  common::Rng rng(91);
  out.sample = stratify::stratified_sample(out.strat, ds.records.size() / 10,
                                           rng, par);
  const std::vector<std::size_t> sizes = partition_sizes(ds.records.size());
  out.representative = partition::make_partitions(
      out.strat, sizes, partition::Layout::kRepresentative, 37, par);
  out.similar = partition::make_partitions(
      out.strat, sizes, partition::Layout::kSimilarTogether, 37, par);
  out.random = partition::random_partitions(ds.records.size(), sizes, 41, par);
}

PipelineOutputs run_baseline(const data::Dataset& ds,
                             const sketch::MinHasher& hasher,
                             par::ThreadPool& serial_pool,
                             PipelineTimes& times) {
  const par::Options serial{.pool = &serial_pool};
  PipelineOutputs out;
  const auto t0 = Clock::now();
  out.sketches = baseline_sketch_all(hasher, ds.records);
  times.sketch_s = seconds_since(t0);
  const auto t1 = Clock::now();
  out.strat = baseline_composite_kmodes(out.sketches, kmodes_config(serial));
  times.kmodes_s = seconds_since(t1);
  run_tail(ds, serial, out);
  times.total_s = seconds_since(t0);
  return out;
}

PipelineOutputs run_optimized(const data::Dataset& ds,
                              const sketch::MinHasher& hasher,
                              const par::Options& par, PipelineTimes& times) {
  PipelineOutputs out;
  const auto t0 = Clock::now();
  out.sketches = hasher.sketch_all(ds.records, par);
  times.sketch_s = seconds_since(t0);
  const auto t1 = Clock::now();
  out.strat = stratify::composite_kmodes(out.sketches, kmodes_config(par));
  times.kmodes_s = seconds_since(t1);
  run_tail(ds, par, out);
  times.total_s = seconds_since(t0);
  return out;
}

/// Cross-check two pipeline runs. `check_work_ops` is off when one side
/// is the baseline (probe accounting intentionally differs there).
void check_identical(const PipelineOutputs& a, const PipelineOutputs& b,
                     bool check_work_ops, const char* label) {
  HETSIM_CHECK(a.sketches == b.sketches) << ": sketches diverged (" << label
                                         << ")";
  HETSIM_CHECK(a.strat.assignment == b.strat.assignment)
      << ": kmodes assignment diverged (" << label << ")";
  HETSIM_CHECK(a.strat.stratum_sizes == b.strat.stratum_sizes)
      << ": stratum sizes diverged (" << label << ")";
  HETSIM_CHECK(a.strat.objective == b.strat.objective)
      << ": kmodes objective diverged (" << label << ")";
  HETSIM_CHECK(a.strat.zero_match_assignments == b.strat.zero_match_assignments)
      << ": zero-match count diverged (" << label << ")";
  HETSIM_CHECK(a.strat.iterations == b.strat.iterations)
      << ": iteration count diverged (" << label << ")";
  if (check_work_ops) {
    HETSIM_CHECK(a.strat.work_ops == b.strat.work_ops)
        << ": work_ops diverged (" << label << ")";
  }
  HETSIM_CHECK(a.sample == b.sample) << ": stratified sample diverged ("
                                     << label << ")";
  HETSIM_CHECK(a.representative.partitions == b.representative.partitions)
      << ": representative partitions diverged (" << label << ")";
  HETSIM_CHECK(a.similar.partitions == b.similar.partitions)
      << ": similar-together partitions diverged (" << label << ")";
  HETSIM_CHECK(a.random.partitions == b.random.partitions)
      << ": random partitions diverged (" << label << ")";
}

struct Gate {
  std::string name;
  double value = 0.0;
  double floor = 0.0;
  bool enforced = true;
  std::string skip_reason;  // printed when !enforced
};

// Defeats dead-code elimination of the kernel timing loop below.
volatile std::uint64_t g_kernel_sink = 0;

/// Wall time of one lane of the raw minhash kernel: `hashes` (a, b)
/// pairs min-reduced over a staged run of `items`. The SIMD acceptance
/// floor is on this kernel — the sketch_all stage wraps it in item
/// staging and record iteration that are identical across lanes and
/// dilute the ratio.
double time_minhash_kernel(const simd::Kernels& kern,
                           const std::vector<std::uint64_t>& items,
                           const std::vector<std::pair<std::uint64_t,
                                                       std::uint64_t>>& hashes) {
  const auto t0 = Clock::now();
  std::uint64_t sink = ~0ULL;
  for (const auto& [a, b] : hashes) {
    sink ^= kern.minhash_min_run(a, b, items.data(), items.size(), ~0ULL);
  }
  g_kernel_sink = g_kernel_sink + sink;
  return seconds_since(t0);
}

/// Wall time of one lane of the raw top-L scan kernel: every nonzero
/// entry of `rows`, found 100 times over, walked the way
/// composite_kmodes' update step walks a count row from its zero floor.
/// This is the only vector kernel k-modes runs, so the SIMD k-modes
/// floor is on it.
double time_find_above_kernel(
    const simd::Kernels& kern,
    const std::vector<std::vector<std::uint32_t>>& rows) {
  const auto t0 = Clock::now();
  std::uint64_t sink = 0;
  for (int pass = 0; pass < 100; ++pass) {
    for (const std::vector<std::uint32_t>& row : rows) {
      const std::uint32_t* r = row.data();
      const std::size_t d = row.size();
      for (std::size_t p = kern.find_above_u32(r, d, 0); p < d;
           p += 1 + kern.find_above_u32(r + p + 1, d - p - 1, 0)) {
        sink += p;
      }
    }
  }
  g_kernel_sink = g_kernel_sink + sink;
  return seconds_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser args("bench_stratify_pipeline",
                         "Serial-baseline vs. optimized/parallel A/B of the "
                         "stratification pipeline, with acceptance gates.");
  args.add_int("records", "corpus size (paper-scale default)", 100000);
  args.add_int("repeats", "timed repetitions; the minimum is reported", 2);
  args.add_int("threads", "parallel thread count (0 = HETSIM_THREADS / "
               "hardware concurrency)", 0);
  if (!args.parse(argc, argv, std::cerr)) return 2;

  const auto n = static_cast<std::size_t>(std::max<std::int64_t>(
      args.get_int("records"), 100));
  const auto repeats = static_cast<std::size_t>(std::max<std::int64_t>(
      args.get_int("repeats"), 1));
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t threads =
      args.get_int("threads") > 0
          ? static_cast<std::uint32_t>(args.get_int("threads"))
          : par::default_threads();

  data::TextCorpusConfig corpus;
  corpus.num_docs = n;
  corpus.seed = 29;
  const data::Dataset ds = data::generate_text_corpus(corpus);
  const sketch::MinHasher hasher({.num_hashes = 32, .seed = 7});

  par::ThreadPool serial_pool(1);
  par::ThreadPool parallel_pool(threads);
  const par::Options serial{.pool = &serial_pool};
  const par::Options parallel{.pool = &parallel_pool};

  // The SIMD A/B only exists when a vector ISA is runnable here; on a
  // scalar-only host the "simd" leg would time the identical lane twice.
  const simd::Isa best = simd::best_isa();
  const bool simd_runnable = best != simd::Isa::kScalar;

  PipelineTimes best_base, best_scalar, best_simd, best_parallel;
  PipelineOutputs out_base, out_scalar, out_simd, out_parallel;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    PipelineTimes tb, ts, tv, tp;
    out_base = run_baseline(ds, hasher, serial_pool, tb);
    {
      simd::ScopedIsaOverride forced(simd::Isa::kScalar);
      out_scalar = run_optimized(ds, hasher, serial, ts);
    }
    {
      simd::ScopedIsaOverride forced(best);
      if (simd_runnable) out_simd = run_optimized(ds, hasher, serial, tv);
      out_parallel = run_optimized(ds, hasher, parallel, tp);
    }
    const auto keep_min = [](PipelineTimes& best_t, const PipelineTimes& t,
                             bool first) {
      if (first || t.total_s < best_t.total_s) best_t = t;
    };
    keep_min(best_base, tb, rep == 0);
    keep_min(best_scalar, ts, rep == 0);
    if (simd_runnable) keep_min(best_simd, tv, rep == 0);
    keep_min(best_parallel, tp, rep == 0);
  }
  if (!simd_runnable) {
    best_simd = best_scalar;
    out_simd = out_scalar;
  }

  // Correctness gates: abort (HETSIM_CHECK) before any speedup talk if
  // the optimized kernels changed results, an ISA lane drifted, or
  // parallelism leaked in.
  check_identical(out_base, out_scalar, /*check_work_ops=*/false,
                  "baseline vs optimized-scalar");
  check_identical(out_scalar, out_simd, /*check_work_ops=*/true,
                  "optimized scalar vs simd");
  check_identical(out_simd, out_parallel, /*check_work_ops=*/true,
                  "optimized serial vs parallel");

  // Raw-kernel A/Bs for the SIMD floors (see time_minhash_kernel and
  // time_find_above_kernel), best of repeats + 1 per lane.
  double kern_scalar_s = 0.0;
  double kern_simd_s = 0.0;
  double scan_scalar_s = 0.0;
  double scan_simd_s = 0.0;
  if (simd_runnable) {
    common::Rng krng(43);
    std::vector<std::uint64_t> kitems(4096);
    for (auto& x : kitems) x = krng.bounded(1ULL << 32);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> khashes(2048);
    for (auto& [a, b] : khashes) {
      a = 1 + krng.bounded(simd::kPrime61 - 1);
      b = krng.bounded(simd::kPrime61);
    }
    const simd::Kernels& scalar_kern = simd::kernels_for(simd::Isa::kScalar);
    const simd::Kernels& simd_kern = simd::kernels_for(best);
    for (std::size_t rep = 0; rep < repeats + 1; ++rep) {
      const double s = time_minhash_kernel(scalar_kern, kitems, khashes);
      const double v = time_minhash_kernel(simd_kern, kitems, khashes);
      if (rep == 0 || s < kern_scalar_s) kern_scalar_s = s;
      if (rep == 0 || v < kern_simd_s) kern_simd_s = v;
    }
    // Count rows of 64-4096 codes, sparse like a stratum's counts over
    // a dictionary: about one entry in 64 is nonzero.
    std::vector<std::vector<std::uint32_t>> rows;
    for (std::size_t k = 0; k < 64; ++k) {
      std::vector<std::uint32_t> row(std::size_t{64} << (2 * (k % 4)));
      for (auto& x : row) {
        if (krng.bounded(64) == 0) {
          x = 1 + static_cast<std::uint32_t>(krng.bounded(50));
        }
      }
      rows.push_back(std::move(row));
    }
    for (std::size_t rep = 0; rep < repeats + 1; ++rep) {
      const double s = time_find_above_kernel(scalar_kern, rows);
      const double v = time_find_above_kernel(simd_kern, rows);
      if (rep == 0 || s < scan_scalar_s) scan_scalar_s = s;
      if (rep == 0 || v < scan_simd_s) scan_simd_s = v;
    }
  }

  const double kernel_minhash = best_base.sketch_s / best_scalar.sketch_s;
  const double kernel_kmodes = best_base.kmodes_s / best_scalar.kmodes_s;
  const double simd_minhash =
      simd_runnable ? kern_scalar_s / kern_simd_s : 1.0;
  const double simd_sketch_all = best_scalar.sketch_s / best_simd.sketch_s;
  const double simd_kmodes =
      simd_runnable ? scan_scalar_s / scan_simd_s : 1.0;
  const double simd_kmodes_solve = best_scalar.kmodes_s / best_simd.kmodes_s;
  const double simd_end_to_end = best_scalar.total_s / best_simd.total_s;
  const double end_to_end = best_base.total_s / best_parallel.total_s;

  std::cout << "bench_stratify_pipeline: n=" << n << " repeats=" << repeats
            << " threads=" << threads << " hw=" << hw
            << " best_isa=" << simd::isa_name(best) << "\n\n";
  std::cout << "  stage               baseline      opt-scalar    "
               "opt-simd      opt-parallel\n";
  const auto row = [](const char* name, double b, double s, double v,
                      double p) {
    std::printf("  %-18s %9.3fs %12.3fs %11.3fs %13.3fs\n", name, b, s, v, p);
  };
  row("sketch_all", best_base.sketch_s, best_scalar.sketch_s,
      best_simd.sketch_s, best_parallel.sketch_s);
  row("composite_kmodes", best_base.kmodes_s, best_scalar.kmodes_s,
      best_simd.kmodes_s, best_parallel.kmodes_s);
  row("end-to-end", best_base.total_s, best_scalar.total_s, best_simd.total_s,
      best_parallel.total_s);
  std::printf("  simd k-modes solve speedup (not gated): %.2fx\n\n",
              simd_kmodes_solve);

  const std::string no_simd = "SKIPPED (scalar is the best ISA here)";
  const std::vector<Gate> gates{
      {"kernel_speedup_minhash", kernel_minhash, 1.3, true, ""},
      {"kernel_speedup_kmodes", kernel_kmodes, 1.3, true, ""},
      {"simd_speedup_minhash", simd_minhash, 1.5, simd_runnable, no_simd},
      {"simd_speedup_kmodes", simd_kmodes, 1.2, simd_runnable, no_simd},
      {"simd_speedup_end_to_end", simd_end_to_end, 1.2, simd_runnable,
       no_simd},
      {"end_to_end_speedup", end_to_end, 3.0, hw >= 4,
       "SKIPPED (host has < 4 hardware threads)"},
  };
  bool ok = true;
  for (const auto& g : gates) {
    const bool pass = g.value >= g.floor;
    std::printf("  gate %-24s %6.2fx (floor %.1fx) %s\n", g.name.c_str(),
                g.value, g.floor,
                !g.enforced ? g.skip_reason.c_str()
                            : (pass ? "PASS" : "FAIL"));
    if (g.enforced && !pass) ok = false;
  }

  bench::write_bench_json(
      "stratify",
      {{"records", static_cast<double>(n), "count"},
       {"threads", static_cast<double>(threads), "count"},
       {"hardware_concurrency", static_cast<double>(hw), "count"},
       {"simd_lane_runnable", simd_runnable ? 1.0 : 0.0, "count"},
       {"baseline_serial_total", best_base.total_s, "s"},
       {"optimized_scalar_total", best_scalar.total_s, "s"},
       {"optimized_simd_total", best_simd.total_s, "s"},
       {"optimized_parallel_total", best_parallel.total_s, "s"},
       {"baseline_sketch", best_base.sketch_s, "s"},
       {"optimized_scalar_sketch", best_scalar.sketch_s, "s"},
       {"optimized_simd_sketch", best_simd.sketch_s, "s"},
       {"optimized_parallel_sketch", best_parallel.sketch_s, "s"},
       {"baseline_kmodes", best_base.kmodes_s, "s"},
       {"optimized_scalar_kmodes", best_scalar.kmodes_s, "s"},
       {"optimized_simd_kmodes", best_simd.kmodes_s, "s"},
       {"optimized_parallel_kmodes", best_parallel.kmodes_s, "s"},
       {"kernel_speedup_minhash", kernel_minhash, "x"},
       {"kernel_speedup_kmodes", kernel_kmodes, "x"},
       {"simd_speedup_minhash", simd_minhash, "x"},
       {"simd_speedup_sketch_all", simd_sketch_all, "x"},
       {"simd_speedup_kmodes", simd_kmodes, "x"},
       {"simd_speedup_kmodes_solve", simd_kmodes_solve, "x"},
       {"simd_speedup_end_to_end", simd_end_to_end, "x"},
       {"end_to_end_speedup", end_to_end, "x"}});

  if (!ok) {
    std::cerr << "bench_stratify_pipeline: acceptance gate FAILED\n";
    return 1;
  }
  std::cout << "\nbench_stratify_pipeline: all enforced gates passed\n";
  return 0;
}
