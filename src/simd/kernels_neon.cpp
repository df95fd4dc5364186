// NEON (aarch64) kernels. Compiled only on aarch64, where NEON is part
// of the baseline ISA — no extra compile flags or runtime probing
// needed beyond the architecture itself.
//
// Same exact-arithmetic decomposition as the AVX2 lane (see
// kernels_avx2.cpp): a·(x+1)+b = a_hi·x·2^32 + a_lo·x + (a+b), each
// product folded mod 2^61−1 with shifts, partial sums < 2^63.2 so u64
// adds never wrap, one final fold + conditional subtract. vmull_u32
// gives the 32×32→64 widening multiply; NEON has native unsigned
// 64-bit compares (vcgtq_u64) so no sign-flip trick is required.
#if defined(HETSIM_SIMD_HAVE_NEON)

#include <arm_neon.h>

#include <algorithm>

#include "simd/kernels.h"
#include "simd/simd.h"

namespace hetsim::simd::detail {

namespace {

inline uint64x2_t fold_mul(uint32x2_t hi_mult, uint32x2_t lo_mult,
                           uint32x2_t x, uint64x2_t addend, uint64x2_t p,
                           uint64x2_t m29s32) {
  const uint64x2_t th = vmull_u32(hi_mult, x);  // a_hi·x < 2^61
  const uint64x2_t tl = vmull_u32(lo_mult, x);  // a_lo·x < 2^64
  // t_hi·2^32 mod p = (t_hi >> 29) + ((t_hi << 32) & ((2^29−1) << 32))
  uint64x2_t sum = vaddq_u64(
      vaddq_u64(vshrq_n_u64(th, 29), vandq_u64(vshlq_n_u64(th, 32), m29s32)),
      vaddq_u64(vshrq_n_u64(tl, 61), vandq_u64(tl, p)));
  sum = vaddq_u64(sum, addend);
  const uint64x2_t r = vaddq_u64(vshrq_n_u64(sum, 61), vandq_u64(sum, p));
  // Conditional subtract: r in [0, 2p) → exact remainder in [0, p).
  return vsubq_u64(r, vandq_u64(vcgeq_u64(r, p), p));
}

}  // namespace

std::uint64_t minhash_min_run_neon(std::uint64_t a, std::uint64_t b,
                                   const std::uint64_t* items, std::size_t n,
                                   std::uint64_t acc) {
  const uint32x2_t alo = vdup_n_u32(static_cast<std::uint32_t>(a));
  const uint32x2_t ahi = vdup_n_u32(static_cast<std::uint32_t>(a >> 32));
  const uint64x2_t addend = vdupq_n_u64(a + b);  // a·1 folded in
  const uint64x2_t p = vdupq_n_u64(kPrime61);
  const uint64x2_t m29s32 = vdupq_n_u64(((1ULL << 29) - 1) << 32);
  uint64x2_t acc0 = vdupq_n_u64(~0ULL);
  uint64x2_t acc1 = vdupq_n_u64(~0ULL);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Items are zero-extended u64 < 2^32; narrow to the even 32-bit
    // lanes vmull_u32 consumes.
    const uint64x2_t w0 = vld1q_u64(items + i);
    const uint64x2_t w1 = vld1q_u64(items + i + 2);
    const uint32x2_t x0 = vmovn_u64(w0);
    const uint32x2_t x1 = vmovn_u64(w1);
    const uint64x2_t v0 = fold_mul(ahi, alo, x0, addend, p, m29s32);
    const uint64x2_t v1 = fold_mul(ahi, alo, x1, addend, p, m29s32);
    acc0 = vbslq_u64(vcgtq_u64(acc0, v0), v0, acc0);
    acc1 = vbslq_u64(vcgtq_u64(acc1, v1), v1, acc1);
  }
  const uint64x2_t accv = vbslq_u64(vcgtq_u64(acc0, acc1), acc1, acc0);
  std::uint64_t best = std::min(
      acc, std::min(vgetq_lane_u64(accv, 0), vgetq_lane_u64(accv, 1)));
  for (; i < n; ++i) {
    best = std::min(best, permute61(a, b, items[i] + 1));
  }
  return best;
}

std::size_t find_above_u32_neon(const std::uint32_t* row, std::size_t len,
                                std::uint32_t threshold) {
  // Native unsigned compares, two 4-wide vectors per step. On a hit,
  // narrowing a vector's all-ones lane masks to 16 bits packs them into
  // one u64 whose lowest set bit / 16 is the first hit's lane.
  const uint32x4_t t = vdupq_n_u32(threshold);
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const uint32x4_t g0 = vcgtq_u32(vld1q_u32(row + i), t);
    const uint32x4_t g1 = vcgtq_u32(vld1q_u32(row + i + 4), t);
    if (vmaxvq_u32(vorrq_u32(g0, g1)) != 0) {
      const std::uint64_t m0 =
          vget_lane_u64(vreinterpret_u64_u16(vmovn_u32(g0)), 0);
      if (m0 != 0) {
        return i + static_cast<std::size_t>(__builtin_ctzll(m0) / 16);
      }
      const std::uint64_t m1 =
          vget_lane_u64(vreinterpret_u64_u16(vmovn_u32(g1)), 0);
      return i + 4 + static_cast<std::size_t>(__builtin_ctzll(m1) / 16);
    }
  }
  for (; i < len; ++i) {
    if (row[i] > threshold) return i;
  }
  return len;
}

}  // namespace hetsim::simd::detail

#endif  // HETSIM_SIMD_HAVE_NEON
