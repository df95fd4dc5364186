// google-benchmark microbenchmarks of the substrates: host-machine
// throughput of sketching, clustering, mining, compression, the LP
// solver and the kvstore. These measure real wall-clock performance of
// the library code (unlike the figure benches, which report simulated
// cluster time). The SIMD-touched kernels additionally register one
// variant per runnable ISA (suffix /scalar, /avx2, /neon), forced via
// simd::ScopedIsaOverride, so a lane-vs-lane diff is one --benchmark_
// filter away.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "compress/lz77.h"
#include "compress/webgraph.h"
#include "data/generators.h"
#include "kvstore/store.h"
#include "mining/apriori.h"
#include "mining/son.h"
#include "mining/treeminer.h"
#include "optimize/pareto.h"
#include "par/pool.h"
#include "simd/simd.h"
#include "sketch/minhash.h"
#include "stratify/kmodes.h"

namespace {

using namespace hetsim;

void BM_MinHashSketch(benchmark::State& state) {
  const auto hashes = static_cast<std::uint32_t>(state.range(0));
  const sketch::MinHasher h({.num_hashes = hashes, .seed = 3});
  data::ItemSet items;
  for (std::uint32_t i = 0; i < 64; ++i) items.push_back(i * 97);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.sketch(items));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_MinHashSketch)->Arg(16)->Arg(64)->Arg(256);

void BM_SketchAll(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  data::TextCorpusConfig cfg;
  cfg.num_docs = n;
  cfg.seed = 3;
  const data::Dataset ds = data::generate_text_corpus(cfg);
  const sketch::MinHasher h({.num_hashes = 32, .seed = 7});
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.sketch_all(ds.records));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SketchAll)->Arg(1000)->Arg(100000)->UseRealTime();

void BM_CompositeKModes(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  data::TextCorpusConfig cfg;
  cfg.num_docs = n;
  cfg.seed = 5;
  const data::Dataset ds = data::generate_text_corpus(cfg);
  const sketch::MinHasher h({.num_hashes = 32, .seed = 7});
  const auto sketches = h.sketch_all(ds.records);
  stratify::KModesConfig kcfg;
  kcfg.num_strata = 16;
  // Few, fixed iterations: the bench tracks assignment-step throughput,
  // not convergence.
  kcfg.max_iterations = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stratify::composite_kmodes(sketches, kcfg));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CompositeKModes)->Arg(1000)->Arg(100000)->UseRealTime();

// A full solve on a webgraph corpus with 64-hash sketches and the
// default config, run to convergence: most of the time is the update
// step's per-stratum center rebuild, which the text bench above barely
// reaches in its 4 iterations.
void BM_CompositeKModesWebgraph(benchmark::State& state) {
  const data::Dataset ds =
      data::generate_graph_corpus(data::uk_like(0.25), "webgraph");
  const sketch::MinHasher h({.num_hashes = 64});
  const auto sketches = h.sketch_all(ds.records);
  const stratify::KModesConfig kcfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stratify::composite_kmodes(sketches, kcfg));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sketches.size()));
}
BENCHMARK(BM_CompositeKModesWebgraph)->UseRealTime();

void BM_Apriori(benchmark::State& state) {
  data::TextCorpusConfig cfg;
  cfg.num_docs = static_cast<std::size_t>(state.range(0));
  cfg.seed = 9;
  const data::Dataset ds = data::generate_text_corpus(cfg);
  std::vector<data::ItemSet> txns;
  for (const auto& r : ds.records) txns.push_back(r.items);
  const mining::AprioriConfig acfg{.min_support = 0.1, .max_pattern_length = 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mining::apriori(txns, acfg));
  }
  state.SetItemsProcessed(state.iterations() * txns.size());
}
BENCHMARK(BM_Apriori)->Arg(1000)->Arg(4000);

// SON phase 2 on the rcv1-like corpus: the union of the itemsets mined
// from 8 interleaved chunks, counted over the whole corpus.
void BM_CountSupport(benchmark::State& state) {
  const data::Dataset ds = data::generate_text_corpus(data::rcv1_like(1.0));
  std::vector<data::ItemSet> txns;
  for (const auto& r : ds.records) txns.push_back(r.items);
  constexpr std::size_t kChunks = 8;
  const mining::AprioriConfig acfg{.min_support = 0.05,
                                   .max_pattern_length = 3};
  std::vector<mining::MiningResult> locals;
  for (std::size_t c = 0; c < kChunks; ++c) {
    std::vector<data::ItemSet> chunk;
    for (std::size_t i = c; i < txns.size(); i += kChunks) {
      chunk.push_back(txns[i]);
    }
    locals.push_back(mining::apriori(chunk, acfg));
  }
  const std::vector<data::ItemSet> candidates =
      mining::candidate_union(locals);
  for (auto _ : state) {
    std::uint64_t ops = 0;
    benchmark::DoNotOptimize(mining::count_support(txns, candidates, ops));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(txns.size()));
}
BENCHMARK(BM_CountSupport)->Unit(benchmark::kMillisecond);

// One progressive-sampling estimator run of the tree job: FREQT-style
// mining of a 94-tree swissprot-like sample.
void BM_MineSubtrees(benchmark::State& state) {
  const auto trees = data::generate_trees(data::swissprot_like(0.0625));
  const mining::TreeMinerConfig cfg{.min_support = 0.08,
                                    .max_pattern_nodes = 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mining::mine_subtrees(trees, cfg));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trees.size()));
}
BENCHMARK(BM_MineSubtrees)->Unit(benchmark::kMicrosecond);

// SON phase 2 in the tree job's shape: 750 swissprot-like trees on 8
// partitions, each mined as 5 chunks, so the union of the candidates
// mined from 40 interleaved chunks (~1.6k patterns), counted over the
// whole corpus.
void BM_CountSubtreeSupport(benchmark::State& state) {
  const auto trees = data::generate_trees(data::swissprot_like(0.5));
  constexpr std::size_t kChunks = 8 * 5;
  const mining::TreeMinerConfig cfg{.min_support = 0.08,
                                    .max_pattern_nodes = 3};
  std::vector<mining::TreePattern> candidates;
  for (std::size_t c = 0; c < kChunks; ++c) {
    std::vector<data::LabeledTree> chunk;
    for (std::size_t i = c; i < trees.size(); i += kChunks) {
      chunk.push_back(trees[i]);
    }
    for (auto& f : mining::mine_subtrees(chunk, cfg).frequent) {
      candidates.push_back(std::move(f.pattern));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (auto _ : state) {
    std::uint64_t ops = 0;
    benchmark::DoNotOptimize(
        mining::count_subtree_support(trees, candidates, ops));
  }
  state.counters["candidates"] = static_cast<double>(candidates.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trees.size()));
}
BENCHMARK(BM_CountSubtreeSupport)->Unit(benchmark::kMillisecond);

void BM_Lz77Compress(benchmark::State& state) {
  common::Rng rng(11);
  std::string input;
  for (int i = 0; i < state.range(0); ++i) {
    input.push_back(static_cast<char>('a' + rng.bounded(8)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::lz77_compress(input));
  }
  state.SetBytesProcessed(state.iterations() * input.size());
}
BENCHMARK(BM_Lz77Compress)->Arg(1 << 14)->Arg(1 << 18);

void BM_WebGraphCompress(benchmark::State& state) {
  data::WebGraphConfig cfg;
  cfg.num_vertices = static_cast<std::uint32_t>(state.range(0));
  cfg.seed = 13;
  const data::Graph g = data::generate_webgraph(cfg);
  std::vector<std::vector<std::uint32_t>> lists;
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.neighbors(v);
    lists.emplace_back(nb.begin(), nb.end());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::compress_adjacency(lists));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_WebGraphCompress)->Arg(2000)->Arg(8000);

void BM_ParetoLp(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  std::vector<optimize::NodeModel> models;
  for (std::size_t i = 0; i < p; ++i) {
    models.push_back({.slope = 1e-4 * (1.0 + static_cast<double>(i % 4)),
                      .intercept = 0.05,
                      .dirty_rate = 100.0 + 50.0 * static_cast<double>(i % 4)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimize::solve_partition_sizes(models, 1000000, 0.999));
  }
}
BENCHMARK(BM_ParetoLp)->Arg(4)->Arg(16)->Arg(64);

void BM_StoreRPush(benchmark::State& state) {
  kvstore::Store store;
  const std::string payload(128, 'x');
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.rpush("list" + std::to_string(i++ % 16),
                                         payload));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreRPush);

void BM_TreePivots(benchmark::State& state) {
  data::TreeCorpusConfig cfg;
  cfg.num_trees = 1;
  cfg.min_nodes = 60;
  cfg.max_nodes = 60;
  const auto trees = data::generate_trees(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::tree_pivots(trees[0]));
  }
}
BENCHMARK(BM_TreePivots);

// ---- per-ISA lanes of the vector layer --------------------------------------
// Registered dynamically in main(): the ISA list depends on the host.

/// The raw minhash kernel: one (a, b) permutation min-reduced over a
/// staged run of `range(0)` items, no sketch plumbing around it.
void BM_MinHashMinRunIsa(benchmark::State& state, simd::Isa isa) {
  simd::ScopedIsaOverride forced(isa);
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(21);
  std::vector<std::uint64_t> items(n);
  for (auto& x : items) x = rng.bounded(1ULL << 32);
  const std::uint64_t a = 1 + rng.bounded(simd::kPrime61 - 1);
  const std::uint64_t b = rng.bounded(simd::kPrime61);
  const simd::Kernels& kern = simd::dispatch();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kern.minhash_min_run(a, b, items.data(), items.size(), ~0ULL));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_SketchAllIsa(benchmark::State& state, simd::Isa isa) {
  simd::ScopedIsaOverride forced(isa);
  const auto n = static_cast<std::size_t>(state.range(0));
  data::TextCorpusConfig cfg;
  cfg.num_docs = n;
  cfg.seed = 3;
  const data::Dataset ds = data::generate_text_corpus(cfg);
  const sketch::MinHasher h({.num_hashes = 32, .seed = 7});
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.sketch_all(ds.records));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_CompositeKModesIsa(benchmark::State& state, simd::Isa isa) {
  simd::ScopedIsaOverride forced(isa);
  const auto n = static_cast<std::size_t>(state.range(0));
  data::TextCorpusConfig cfg;
  cfg.num_docs = n;
  cfg.seed = 5;
  const data::Dataset ds = data::generate_text_corpus(cfg);
  const sketch::MinHasher h({.num_hashes = 32, .seed = 7});
  const auto sketches = h.sketch_all(ds.records);
  stratify::KModesConfig kcfg;
  kcfg.num_strata = 16;
  kcfg.max_iterations = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stratify::composite_kmodes(sketches, kcfg));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void register_isa_lanes() {
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (!simd::isa_supported(isa)) continue;
    const std::string tag(simd::isa_name(isa));
    benchmark::RegisterBenchmark(("BM_MinHashMinRunIsa/" + tag).c_str(),
                                 BM_MinHashMinRunIsa, isa)
        ->Arg(64)
        ->Arg(4096);
    benchmark::RegisterBenchmark(("BM_SketchAllIsa/" + tag).c_str(),
                                 BM_SketchAllIsa, isa)
        ->Arg(1000)
        ->Arg(100000)
        ->UseRealTime();
    benchmark::RegisterBenchmark(("BM_CompositeKModesIsa/" + tag).c_str(),
                                 BM_CompositeKModesIsa, isa)
        ->Arg(1000)
        ->UseRealTime();
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_isa_lanes();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
