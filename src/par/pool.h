// hetsim::par — deterministic parallel-for substrate for the data-prep
// kernels (sketching, clustering, partition assembly).
//
// The whole repo promises byte-identical outputs for a given seed; a
// parallel runtime must therefore never let the thread count leak into
// results. The contract here is *static chunking*: `parallel_for(n,
// chunk, body)` always splits [0, n) into the same chunk geometry —
// chunk c covers [c·chunk, min(n, (c+1)·chunk)) — regardless of how
// many threads execute it, and chunk c runs on lane c mod num_threads()
// (lane 0 is the calling thread). Any kernel whose chunks write
// disjoint outputs, plus `parallel_reduce`'s ascending-chunk-order
// combine, is then bit-identical for every thread count including 1.
//
// The pool's scheduler state is guarded by a check::Mutex, the only
// mutex in hetsim. Chunk bodies run with no pool lock held and must be
// pure kernels: they write only their own output slots and never reach
// the kvstore, trace, router or fault injector, which hold no lock
// (DESIGN.md §7).
//
// Thread-count resolution: the global pool sizes itself from the
// HETSIM_THREADS environment variable when set (>= 1), else from
// std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "check/check.h"
#include "check/mutex.h"

namespace hetsim::par {

/// Worker count for the global pool: HETSIM_THREADS if set and valid,
/// else hardware_concurrency() (min 1).
[[nodiscard]] std::uint32_t default_threads();

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers; the caller of parallel_for is
  /// always lane 0, so num_threads == 1 runs everything inline.
  explicit ThreadPool(std::uint32_t num_threads = default_threads());
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::uint32_t num_threads() const noexcept { return lanes_; }

  /// Run body(begin, end) for every chunk of [0, n). `chunk` must be
  /// >= 1. Chunk geometry depends only on (n, chunk), never the thread
  /// count. Blocks until every chunk ran; the first exception (by
  /// ascending chunk index, so deterministically) is rethrown. One
  /// fan-out at a time: concurrent calls from distinct threads are a
  /// contract violation; a body that re-enters parallel_for on the same
  /// pool runs its inner loop serially on the calling lane.
  void parallel_for(std::size_t n, std::size_t chunk,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// out[i] = fn(i) for i in [0, n), chunked as parallel_for.
  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> parallel_map(std::size_t n, std::size_t chunk,
                                            Fn&& fn) {
    std::vector<T> out(n);
    parallel_for(n, chunk, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
    });
    return out;
  }

  /// Ordered reduction: partial = chunk_fn(begin, end) per chunk, then
  /// acc = combine(acc, partial) in ascending chunk order on the calling
  /// thread — the combine order is fixed, so even non-commutative (or
  /// floating-point) reductions are thread-count-invariant.
  template <typename T, typename ChunkFn, typename Combine>
  [[nodiscard]] T parallel_reduce(std::size_t n, std::size_t chunk, T init,
                                  ChunkFn&& chunk_fn, Combine&& combine) {
    if (n == 0) return init;
    HETSIM_CHECK(chunk >= 1) << ": parallel_reduce needs a positive chunk";
    const std::size_t num_chunks = (n + chunk - 1) / chunk;
    std::vector<T> partials(num_chunks);
    parallel_for(n, chunk, [&](std::size_t begin, std::size_t end) {
      partials[begin / chunk] = chunk_fn(begin, end);
    });
    T acc = std::move(init);
    for (T& partial : partials) acc = combine(std::move(acc), std::move(partial));
    return acc;
  }

 private:
  void worker_main(std::uint32_t lane);
  /// Runs this lane's chunks (c ≡ lane mod lanes_) of the current job.
  void run_lane(std::uint32_t lane,
                const std::function<void(std::size_t, std::size_t)>& body,
                std::size_t n, std::size_t chunk, std::size_t num_chunks);
  void record_error(std::size_t chunk_index);

  const std::uint32_t lanes_;
  std::vector<std::thread> workers_;

  check::Mutex mu_;
  std::condition_variable_any job_cv_;   // workers wait for a new epoch
  std::condition_variable_any done_cv_;  // caller waits for worker lanes
  std::uint64_t epoch_ HETSIM_GUARDED_BY(mu_) = 0;
  bool stop_ HETSIM_GUARDED_BY(mu_) = false;
  const std::function<void(std::size_t, std::size_t)>* body_
      HETSIM_GUARDED_BY(mu_) = nullptr;
  std::size_t n_ HETSIM_GUARDED_BY(mu_) = 0;
  std::size_t chunk_ HETSIM_GUARDED_BY(mu_) = 0;
  std::size_t num_chunks_ HETSIM_GUARDED_BY(mu_) = 0;
  std::uint32_t lanes_done_ HETSIM_GUARDED_BY(mu_) = 0;
  std::exception_ptr first_error_ HETSIM_GUARDED_BY(mu_);
  std::size_t first_error_chunk_ HETSIM_GUARDED_BY(mu_) = 0;
};

/// Process-wide pool sized by default_threads(); constructed on first
/// use. Kernels reach it through Options::pool == nullptr.
[[nodiscard]] ThreadPool& global_pool();

/// Per-call parallelism the pipeline kernels thread through their
/// configs: which pool to fan out on (null = global). It only affects
/// speed, never results; each kernel fixes its own chunk size.
struct Options {
  ThreadPool* pool = nullptr;
};

[[nodiscard]] inline ThreadPool& resolve(const Options& options) {
  return options.pool != nullptr ? *options.pool : global_pool();
}

}  // namespace hetsim::par
