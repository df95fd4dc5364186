// Internal per-ISA kernel entry points, assembled into Kernels tables
// by simd.cpp. Each ISA lives in its own translation unit so the AVX2
// file can be compiled with -mavx2 (and the NEON file on aarch64)
// without raising the ISA floor of the rest of the binary.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hetsim::simd::detail {

std::uint64_t minhash_min_run_scalar(std::uint64_t a, std::uint64_t b,
                                     const std::uint64_t* items, std::size_t n,
                                     std::uint64_t acc);
std::size_t find_above_u32_scalar(const std::uint32_t* row, std::size_t len,
                                  std::uint32_t threshold);

#if defined(HETSIM_SIMD_HAVE_AVX2)
std::uint64_t minhash_min_run_avx2(std::uint64_t a, std::uint64_t b,
                                   const std::uint64_t* items, std::size_t n,
                                   std::uint64_t acc);
std::size_t find_above_u32_avx2(const std::uint32_t* row, std::size_t len,
                                std::uint32_t threshold);
#endif

#if defined(HETSIM_SIMD_HAVE_NEON)
std::uint64_t minhash_min_run_neon(std::uint64_t a, std::uint64_t b,
                                   const std::uint64_t* items, std::size_t n,
                                   std::uint64_t acc);
std::size_t find_above_u32_neon(const std::uint32_t* row, std::size_t len,
                                std::uint32_t threshold);
#endif

}  // namespace hetsim::simd::detail
