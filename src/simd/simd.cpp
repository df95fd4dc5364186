#include "simd/simd.h"

#include <atomic>
#include <cstdlib>

#include "check/check.h"
#include "simd/kernels.h"

namespace hetsim::simd {

namespace {

constexpr Kernels kScalarKernels{
    Isa::kScalar,
    &detail::minhash_min_run_scalar,
    &detail::find_above_u32_scalar,
};

#if defined(HETSIM_SIMD_HAVE_AVX2)
constexpr Kernels kAvx2Kernels{
    Isa::kAvx2,
    &detail::minhash_min_run_avx2,
    &detail::find_above_u32_avx2,
};
#endif

#if defined(HETSIM_SIMD_HAVE_NEON)
constexpr Kernels kNeonKernels{
    Isa::kNeon,
    &detail::minhash_min_run_neon,
    &detail::find_above_u32_neon,
};
#endif

bool cpu_has_avx2() {
#if defined(HETSIM_SIMD_HAVE_AVX2)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

/// HETSIM_SIMD environment selection, parsed once per process. An
/// unknown or locally-unsupported value aborts: a forced lane that
/// silently degraded to scalar would corrupt every A/B measurement
/// taken under it.
Isa env_isa() {
  static const Isa parsed = [] {
    const char* env = std::getenv("HETSIM_SIMD");
    if (env == nullptr || *env == '\0') return best_isa();
    const std::string_view v{env};
    Isa isa = Isa::kScalar;
    if (v == "scalar") {
      isa = Isa::kScalar;
    } else if (v == "avx2") {
      isa = Isa::kAvx2;
    } else if (v == "neon") {
      isa = Isa::kNeon;
    } else {
      HETSIM_CHECK(false) << ": HETSIM_SIMD=" << v
                          << " is not one of avx2|neon|scalar";
    }
    HETSIM_CHECK(isa_supported(isa))
        << ": HETSIM_SIMD=" << v << " requested but " << isa_name(isa)
        << " is not runnable on this host";
    return isa;
  }();
  return parsed;
}

// ScopedIsaOverride state: value = static_cast<int16_t>(Isa), -1 = no
// override. Read relaxed on the hot path; install/remove only happen
// while no kernel-running threads are in flight (documented contract).
std::atomic<std::int16_t> g_override{-1};

}  // namespace

std::string_view isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return cpu_has_avx2();
    case Isa::kNeon:
#if defined(HETSIM_SIMD_HAVE_NEON)
      return true;  // NEON is baseline on aarch64
#else
      return false;
#endif
  }
  return false;
}

Isa best_isa() {
#if defined(HETSIM_SIMD_HAVE_NEON)
  return Isa::kNeon;
#else
  return cpu_has_avx2() ? Isa::kAvx2 : Isa::kScalar;
#endif
}

Isa active_isa() {
  const std::int16_t ov = g_override.load(std::memory_order_relaxed);
  if (ov >= 0) return static_cast<Isa>(ov);
  return env_isa();
}

const Kernels& kernels_for(Isa isa) {
  HETSIM_CHECK(isa_supported(isa))
      << ": kernels_for(" << isa_name(isa) << ") on a host without it";
  switch (isa) {
#if defined(HETSIM_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      return kAvx2Kernels;
#endif
#if defined(HETSIM_SIMD_HAVE_NEON)
    case Isa::kNeon:
      return kNeonKernels;
#endif
    default:
      return kScalarKernels;
  }
}

const Kernels& dispatch() { return kernels_for(active_isa()); }

ScopedIsaOverride::ScopedIsaOverride(Isa isa)
    : previous_(g_override.load(std::memory_order_relaxed)) {
  HETSIM_CHECK(isa_supported(isa))
      << ": cannot force " << isa_name(isa) << " on this host";
  // The allow() below quiets the direct-store heuristic, which pattern-
  // matches std::atomic<>::store — no kvstore is involved here.
  g_override.store(  // hetsim-analyze: allow(direct-store)
      static_cast<std::int16_t>(isa), std::memory_order_relaxed);
}

ScopedIsaOverride::~ScopedIsaOverride() {
  g_override.store(previous_, std::memory_order_relaxed);  // hetsim-analyze: allow(direct-store)
}

}  // namespace hetsim::simd
