// Tests for hetsim::par — the deterministic parallel-for pool — and the
// determinism contract of every pipeline kernel plumbed onto it: for a
// fixed seed, sketches, stratification, samples, partition contents and
// webgraph-compressed bytes must be byte-identical for every thread
// count (the pool's own tests also sweep chunk sizes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "compress/webgraph.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "par/pool.h"
#include "partition/partitioner.h"
#include "sketch/minhash.h"
#include "stratify/kmodes.h"
#include "stratify/sampler.h"

namespace hetsim {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const std::uint32_t threads : {1U, 2U, 7U}) {
    par::ThreadPool pool(threads);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                    std::size_t{64}, std::size_t{1000}}) {
      std::vector<int> hits(257, 0);
      pool.parallel_for(hits.size(), chunk,
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) ++hits[i];
                        });
      for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i], 1) << "index " << i << " threads " << threads
                              << " chunk " << chunk;
      }
    }
  }
}

TEST(ThreadPool, ChunkGeometryIndependentOfThreadCount) {
  constexpr std::size_t kN = 101;
  constexpr std::size_t kChunk = 8;
  const auto bounds_for = [&](std::uint32_t threads) {
    par::ThreadPool pool(threads);
    std::vector<std::pair<std::size_t, std::size_t>> bounds((kN + kChunk - 1) /
                                                            kChunk);
    pool.parallel_for(kN, kChunk, [&](std::size_t begin, std::size_t end) {
      bounds[begin / kChunk] = {begin, end};
    });
    return bounds;
  };
  const auto reference = bounds_for(1);
  for (std::size_t c = 0; c < reference.size(); ++c) {
    EXPECT_EQ(reference[c].first, c * kChunk);
    EXPECT_EQ(reference[c].second, std::min(kN, c * kChunk + kChunk));
  }
  EXPECT_EQ(bounds_for(2), reference);
  EXPECT_EQ(bounds_for(7), reference);
}

TEST(ThreadPool, ZeroIterationsIsANoOp) {
  par::ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, 16, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelMapMatchesSerial) {
  par::ThreadPool pool(5);
  const std::vector<std::uint64_t> out = pool.parallel_map<std::uint64_t>(
      1000, 17, [](std::size_t i) { return i * i + 1; });
  ASSERT_EQ(out.size(), 1000U);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i + 1);
}

TEST(ThreadPool, OrderedReduceIsThreadCountInvariant) {
  // String concatenation is non-commutative: only an ascending-chunk
  // combine order can make every thread count agree.
  const auto concat = [](std::uint32_t threads) {
    par::ThreadPool pool(threads);
    return pool.parallel_reduce<std::string>(
        100, 9, std::string{},
        [](std::size_t begin, std::size_t end) {
          return "[" + std::to_string(begin) + "," + std::to_string(end) + ")";
        },
        [](std::string acc, std::string part) { return acc + part; });
  };
  const std::string reference = concat(1);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(concat(2), reference);
  EXPECT_EQ(concat(7), reference);
}

TEST(ThreadPool, RethrowsLowestChunkException) {
  for (const std::uint32_t threads : {1U, 4U}) {
    par::ThreadPool pool(threads);
    try {
      pool.parallel_for(80, 10, [](std::size_t begin, std::size_t) {
        const std::size_t chunk_index = begin / 10;
        if (chunk_index == 3 || chunk_index == 5) {
          throw common::ConfigError("boom chunk " +
                                    std::to_string(chunk_index));
        }
      });
      FAIL() << "expected ConfigError (threads=" << threads << ")";
    } catch (const common::ConfigError& e) {
      EXPECT_EQ(std::string(e.what()), "boom chunk 3") << "threads " << threads;
    }
    // The pool must stay usable after a failed fan-out.
    int sum = 0;
    pool.parallel_for(4, 4, [&](std::size_t begin, std::size_t end) {
      sum += static_cast<int>(end - begin);
    });
    EXPECT_EQ(sum, 4);
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  par::ThreadPool pool(4);
  std::vector<int> hits(64, 0);
  pool.parallel_for(8, 1, [&](std::size_t begin, std::size_t) {
    // Re-entering the same pool from a chunk body must neither deadlock
    // nor fan out; it runs serially on this lane.
    pool.parallel_for(8, 2, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) ++hits[begin * 8 + i];
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPool, DefaultThreadsHonorsEnvOverride) {
  ::setenv("HETSIM_THREADS", "3", 1);
  EXPECT_EQ(par::default_threads(), 3U);
  ::setenv("HETSIM_THREADS", "not-a-number", 1);
  const std::uint32_t fallback = par::default_threads();
  ::unsetenv("HETSIM_THREADS");
  EXPECT_EQ(fallback, par::default_threads());
  EXPECT_GE(fallback, 1U);
}

// ---- pipeline determinism ---------------------------------------------------

struct PipelineOutputs {
  std::vector<sketch::Sketch> sketches;
  stratify::Stratification strat;
  std::vector<std::uint32_t> sample;
  partition::PartitionAssignment representative;
  partition::PartitionAssignment similar;
  partition::PartitionAssignment random;
};

PipelineOutputs run_pipeline(const data::Dataset& ds, const par::Options& par) {
  PipelineOutputs out;
  const sketch::MinHasher hasher({.num_hashes = 48, .seed = 31});
  out.sketches = hasher.sketch_all(ds.records, par);

  stratify::KModesConfig cfg;
  cfg.num_strata = 8;
  cfg.composite_l = 3;
  cfg.max_iterations = 10;
  cfg.par = par;
  out.strat = stratify::composite_kmodes(out.sketches, cfg);

  common::Rng rng(91);
  out.sample = stratify::stratified_sample(out.strat, 400, rng, par);

  const std::vector<std::size_t> sizes{600, 500, 250, 150};
  out.representative = partition::make_partitions(
      out.strat, sizes, partition::Layout::kRepresentative, 37, par);
  out.similar = partition::make_partitions(
      out.strat, sizes, partition::Layout::kSimilarTogether, 37, par);
  out.random = partition::random_partitions(ds.records.size(), sizes, 41, par);
  return out;
}

void expect_identical(const PipelineOutputs& got, const PipelineOutputs& want,
                      const std::string& label) {
  EXPECT_EQ(got.sketches, want.sketches) << label;
  EXPECT_EQ(got.strat.assignment, want.strat.assignment) << label;
  EXPECT_EQ(got.strat.num_strata, want.strat.num_strata) << label;
  EXPECT_EQ(got.strat.stratum_sizes, want.strat.stratum_sizes) << label;
  EXPECT_EQ(got.strat.zero_match_assignments, want.strat.zero_match_assignments)
      << label;
  EXPECT_EQ(got.strat.iterations, want.strat.iterations) << label;
  EXPECT_EQ(got.strat.work_ops, want.strat.work_ops) << label;
  EXPECT_EQ(got.strat.objective, want.strat.objective) << label;
  EXPECT_EQ(got.sample, want.sample) << label;
  EXPECT_EQ(got.representative.partitions, want.representative.partitions)
      << label;
  EXPECT_EQ(got.similar.partitions, want.similar.partitions) << label;
  EXPECT_EQ(got.random.partitions, want.random.partitions) << label;
}

TEST(ParDeterminism, PipelineIdenticalForAllThreadCounts) {
  data::TextCorpusConfig corpus;
  corpus.num_docs = 1500;
  corpus.num_topics = 6;
  corpus.seed = 21;
  const data::Dataset ds = data::generate_text_corpus(corpus);

  par::ThreadPool serial(1);
  const PipelineOutputs reference =
      run_pipeline(ds, par::Options{.pool = &serial});

  std::vector<std::uint32_t> thread_counts{1, 2, 7};
  const std::uint32_t hw = std::thread::hardware_concurrency();
  if (hw >= 1) thread_counts.push_back(hw);
  for (const std::uint32_t threads : thread_counts) {
    par::ThreadPool pool(threads);
    const PipelineOutputs got = run_pipeline(ds, par::Options{.pool = &pool});
    expect_identical(got, reference, "threads=" + std::to_string(threads));
  }
}

TEST(ParDeterminism, SketchAllMatchesPerRecordSketch) {
  data::TextCorpusConfig corpus;
  corpus.num_docs = 600;
  corpus.seed = 5;
  data::Dataset ds = data::generate_text_corpus(corpus);
  ASSERT_EQ(ds.records.size(), 600u);
  // Empty item sets at the first and last record and on both sides of
  // the 256-record chunk boundaries must come back as the all-sentinel
  // sketch.
  for (const std::size_t i : {0, 255, 256, 257, 512, 599}) {
    ds.records[i].items.clear();
  }
  const sketch::MinHasher hasher({.num_hashes = 32, .seed = 7});
  const sketch::Sketch sentinel(32, sketch::MinHasher::kEmptySentinel);
  par::ThreadPool pool(4);
  const auto all = hasher.sketch_all(ds.records, par::Options{.pool = &pool});
  ASSERT_EQ(all.size(), ds.records.size());
  std::size_t empty = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], hasher.sketch(ds.records[i].items)) << "record " << i;
    if (ds.records[i].items.empty()) {
      EXPECT_EQ(all[i], sentinel) << "record " << i;
      ++empty;
    }
  }
  EXPECT_EQ(empty, 6u);
}

// ---- compositeKModes update-step fan-out ------------------------------------

/// FNV-1a over an assignment: one pinned number instead of a golden vector.
std::uint64_t assignment_hash(const std::vector<std::uint32_t>& assignment) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint32_t a : assignment) {
    h ^= a;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(KModes, UpdateFanOutPinnedAcrossThreadCounts) {
  // 13 hashes: the update step gathers 8 attributes per block, so every
  // center rebuild ends in a 5-attribute tail. 7 strata: no pool of 2,
  // 3 or 4 lanes splits them evenly, and 16 lanes outnumber them. The
  // pinned values are the serial update step's output.
  const data::Dataset ds =
      data::generate_graph_corpus(data::uk_like(0.05), "webgraph");
  const sketch::MinHasher hasher({.num_hashes = 13, .seed = 17});
  const std::vector<sketch::Sketch> sketches = hasher.sketch_all(ds.records);
  for (const std::uint32_t threads : {1U, 2U, 3U, 4U, 16U}) {
    par::ThreadPool pool(threads);
    stratify::KModesConfig cfg;
    cfg.num_strata = 7;
    cfg.par = {.pool = &pool};
    const stratify::Stratification strat =
        stratify::composite_kmodes(sketches, cfg);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(assignment_hash(strat.assignment), 0x5b8b8a6ca6cfb789ULL)
        << label;
    EXPECT_EQ(strat.stratum_sizes,
              (std::vector<std::size_t>{224, 239, 205, 151, 160, 102, 119}))
        << label;
    EXPECT_EQ(strat.work_ops, 1599600U) << label;
    EXPECT_EQ(strat.objective, 4686U) << label;
    EXPECT_EQ(strat.iterations, 6U) << label;
    EXPECT_EQ(strat.zero_match_assignments, 102U) << label;
  }
}

TEST(KModes, EmptiedStratumKeepsItsCenterUnderParallelUpdate) {
  // 80 distinct points scattered around 5 prototypes, clustered into 7
  // strata with L = 1: surplus centers collapse onto the same clusters
  // and lose their members. Every seed point matches only its own
  // center in the first pass, so no stratum starts empty; an empty
  // stratum after convergence was emptied mid-solve, and the update
  // steps after that had to keep its old center.
  common::Rng rng(13);
  std::vector<sketch::Sketch> prototypes(5, sketch::Sketch(13));
  for (auto& p : prototypes) {
    for (auto& v : p) v = rng.bounded(8);
  }
  std::vector<sketch::Sketch> sketches(80);
  for (auto& s : sketches) {
    s = prototypes[rng.bounded(prototypes.size())];
    for (int t = 0; t < 2; ++t) {
      s[rng.bounded(s.size())] = 100 + rng.bounded(32);
    }
  }
  ASSERT_EQ(std::set<sketch::Sketch>(sketches.begin(), sketches.end()).size(),
            sketches.size());

  stratify::KModesConfig cfg;
  cfg.num_strata = 7;
  cfg.composite_l = 1;
  par::ThreadPool serial(1);
  cfg.par = {.pool = &serial};
  const stratify::Stratification want =
      stratify::composite_kmodes(sketches, cfg);
  ASSERT_LT(want.iterations, cfg.max_iterations);
  ASSERT_NE(
      std::count(want.stratum_sizes.begin(), want.stratum_sizes.end(), 0U), 0);
  // Pinned so that dropping the kept center fails even on the serial pool.
  EXPECT_EQ(assignment_hash(want.assignment), 0x552409f4662d71f2ULL);
  EXPECT_EQ(want.work_ops, 33760U);
  EXPECT_EQ(want.iterations, 7U);

  for (const std::uint32_t threads : {2U, 3U, 4U, 7U}) {
    par::ThreadPool pool(threads);
    cfg.par = {.pool = &pool};
    const stratify::Stratification got =
        stratify::composite_kmodes(sketches, cfg);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(got.assignment, want.assignment) << label;
    EXPECT_EQ(got.stratum_sizes, want.stratum_sizes) << label;
    EXPECT_EQ(got.work_ops, want.work_ops) << label;
    EXPECT_EQ(got.objective, want.objective) << label;
    EXPECT_EQ(got.iterations, want.iterations) << label;
    EXPECT_EQ(got.zero_match_assignments, want.zero_match_assignments) << label;
  }
}

// ---- webgraph codec: reference choice fans out over lists --------------------

/// FNV-1a over a byte string.
std::uint64_t bytes_hash(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Hand-built lists first (an empty list, lists whose window holds that
/// empty reference, a short run, all at i < ref_window), then
/// uk_like(0.054) in SimilarTogether order: partitions of whole strata,
/// concatenated. 1302 lists make 41 chunks of the codec's 32 lists: a
/// short last chunk, and no even split over 2, 3, 4 or 16 lanes.
std::vector<std::vector<std::uint32_t>> webgraph_corpus() {
  std::vector<std::vector<std::uint32_t>> lists{
      {}, {3, 4, 5, 6, 9}, {}, {3, 4, 5, 6, 7, 9, 40}, {1}, {3, 5, 6, 7, 8, 9, 40, 41}};
  const data::Dataset ds =
      data::generate_graph_corpus(data::uk_like(0.054), "webgraph");
  const sketch::MinHasher hasher({.num_hashes = 13, .seed = 17});
  stratify::KModesConfig kcfg;
  kcfg.num_strata = 7;
  const stratify::Stratification strat =
      stratify::composite_kmodes(hasher.sketch_all(ds.records), kcfg);
  const std::vector<std::size_t> sizes{300, 300, 300, ds.records.size() - 900};
  const partition::PartitionAssignment similar = partition::make_partitions(
      strat, sizes, partition::Layout::kSimilarTogether);
  for (const auto& part : similar.partitions) {
    for (const std::uint32_t r : part) {
      lists.push_back(data::decode_items(ds.records[r].payload));
    }
  }
  return lists;
}

TEST(WebGraph, CompressedBytesPinnedAcrossPools) {
  // Pinned from the serial trial-encoding codec: reference choices made
  // in parallel over lists must give the same bytes and stats for every
  // pool, including pools with more lanes than chunks.
  struct Pinned {
    std::uint32_t ref_window;
    std::uint32_t min_interval;
    std::uint64_t bytes_hash;
    std::uint64_t referenced_lists;
    std::uint64_t copied_edges;
    std::uint64_t compressed_bits;
    std::uint64_t work_ops;
  };
  const Pinned pinned[] = {
      {0, 0, 0x3145d5e09a262563ULL, 0, 0, 91998, 13103},
      {0, 4, 0x57161171a69b0447ULL, 0, 0, 93322, 13103},
      {1, 0, 0x215b8c8ee3d89463ULL, 572, 1969, 84937, 36635},
      {1, 4, 0xb739607f13e6449aULL, 569, 1959, 86268, 36635},
      {7, 0, 0x086be13bbec22939ULL, 994, 4531, 74929, 177575},
      {7, 4, 0xb5d6daafc5ef8f3cULL, 995, 4517, 76252, 177575},
  };
  const std::vector<std::vector<std::uint32_t>> lists = webgraph_corpus();
  ASSERT_EQ(lists.size(), 1302U);
  for (const std::uint32_t threads : {1U, 2U, 3U, 4U, 16U}) {
    par::ThreadPool pool(threads);
    for (const Pinned& want : pinned) {
      compress::WebGraphCodecConfig cfg;
      cfg.ref_window = want.ref_window;
      cfg.min_interval = want.min_interval;
      cfg.par = {.pool = &pool};
      compress::WebGraphStats stats;
      const std::string blob = compress::compress_adjacency(lists, cfg, &stats);
      const std::string label =
          "threads=" + std::to_string(threads) +
          " ref_window=" + std::to_string(want.ref_window) +
          " min_interval=" + std::to_string(want.min_interval);
      EXPECT_EQ(bytes_hash(blob), want.bytes_hash) << label;
      EXPECT_EQ(stats.lists, 1302U) << label;
      EXPECT_EQ(stats.edges, 11801U) << label;
      EXPECT_EQ(stats.referenced_lists, want.referenced_lists) << label;
      EXPECT_EQ(stats.copied_edges, want.copied_edges) << label;
      EXPECT_EQ(stats.compressed_bits, want.compressed_bits) << label;
      EXPECT_EQ(stats.work_ops, want.work_ops) << label;
      EXPECT_EQ(blob.size(), (want.compressed_bits + 7) / 8) << label;
    }
  }
}

}  // namespace
}  // namespace hetsim
