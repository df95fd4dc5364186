// hetsim::simd — runtime-dispatched vector kernels for the hot loops.
//
// One shim (`dispatch()`) selects the widest instruction set that is
// both compiled in and supported by the running CPU: AVX2 on x86-64,
// NEON on aarch64, portable scalar everywhere. Callers hoist the
// kernel table out of their loops and stay ISA-agnostic.
//
// Determinism contract: every kernel computes the *exact* same values
// on every ISA — the modular arithmetic is exact (no floating point,
// no reassociation that changes results) and scans return the same
// index. `HETSIM_SIMD=avx2|neon|scalar` forces a
// lane (aborting if it is not runnable here), which is how the
// equivalence tests and the A/B benches pin each side.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hetsim::simd {

/// Mersenne prime 2^61 - 1: (a·y + b) mod p reduces with shifts only
/// and a·y fits in __uint128_t for a, y < p.
inline constexpr std::uint64_t kPrime61 = (1ULL << 61) - 1;

/// (a·y + b) mod 2^61−1 — the single scalar definition of the sketch
/// permutation arithmetic; the scalar kernel, the vector kernels' tail
/// loops, and sketch::detail::linear_permute all funnel through it, so
/// the lanes can never drift. Folds twice: any value < p² reduces
/// below 2p after one fold.
inline constexpr std::uint64_t permute61(std::uint64_t a, std::uint64_t b,
                                         std::uint64_t y) noexcept {
  const __uint128_t v = static_cast<__uint128_t>(a) * y + b;
  const auto lo = static_cast<std::uint64_t>(v) & kPrime61;
  const auto hi = static_cast<std::uint64_t>(v >> 61);
  std::uint64_t r = lo + hi;
  if (r >= kPrime61) r -= kPrime61;
  return r;
}

enum class Isa : std::uint8_t { kScalar = 0, kAvx2 = 1, kNeon = 2 };

[[nodiscard]] std::string_view isa_name(Isa isa);

/// True when `isa` is both compiled into this binary and runnable on
/// the current CPU (kScalar always is).
[[nodiscard]] bool isa_supported(Isa isa);

/// Widest supported ISA on this host.
[[nodiscard]] Isa best_isa();

/// The ISA every kernel call resolves to right now: an active override
/// if one is installed, else the HETSIM_SIMD environment choice, else
/// best_isa(). The environment choice is parsed once per process and
/// aborts on an unknown or unsupported value — a forced lane that
/// silently fell back to scalar would invalidate every A/B number
/// measured under it.
[[nodiscard]] Isa active_isa();

/// One ISA's kernel table. All pointers are always non-null.
struct Kernels {
  Isa isa = Isa::kScalar;

  /// min(acc, min_i h(items[i])) where h(x) = (a·(x+1)+b) mod 2^61−1,
  /// exactly as permute61(a, b, x+1). `items` are item ids staged as
  /// zero-extended u64 (values < 2^32); `a` in [1, p), `b` in [0, p).
  std::uint64_t (*minhash_min_run)(std::uint64_t a, std::uint64_t b,
                                   const std::uint64_t* items, std::size_t n,
                                   std::uint64_t acc);

  /// Index of the first `row[i]` in [0, len) with row[i] > threshold
  /// (unsigned order), or `len` when there is none.
  std::size_t (*find_above_u32)(const std::uint32_t* row, std::size_t len,
                                std::uint32_t threshold);
};

/// Kernel table for a specific ISA; aborts (HETSIM_CHECK) when `isa`
/// is not supported here. Lets tests compare lanes inside one process.
[[nodiscard]] const Kernels& kernels_for(Isa isa);

/// Kernel table for active_isa() — the one call sites use.
[[nodiscard]] const Kernels& dispatch();

/// Forces dispatch() to one ISA for the current scope (tests and A/B
/// benches). Overrides nest; the previous state is restored on
/// destruction. Install/remove only while no kernel-running threads
/// are in flight — the override is read racily (relaxed atomic) by
/// design so the hot path stays branch-predictable.
class ScopedIsaOverride {
 public:
  explicit ScopedIsaOverride(Isa isa);
  ~ScopedIsaOverride();
  ScopedIsaOverride(const ScopedIsaOverride&) = delete;
  ScopedIsaOverride& operator=(const ScopedIsaOverride&) = delete;

 private:
  std::int16_t previous_;  // -1 = no override was active
};

}  // namespace hetsim::simd
