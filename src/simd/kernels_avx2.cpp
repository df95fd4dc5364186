// AVX2 kernels. This translation unit is compiled with -mavx2 (CMake
// adds the flag on x86-64 only); simd.cpp never routes here unless the
// running CPU reports AVX2, so no illegal instruction can execute.
//
// The modular arithmetic is exact, matching permute61 bit-for-bit:
// with a = a_hi·2^32 + a_lo and item x < 2^32,
//
//   a·(x+1) + b  =  a_hi·x·2^32 + a_lo·x + (a + b)
//
// (folding the +1 into the constant term keeps x a true 32-bit lane
// multiplier for vpmuludq, including x = 2^32−1). Each product is then
// reduced mod p = 2^61−1 with shift/add folds:
//   t·2^32 mod p = (t >> 29) + ((t & (2^29−1)) << 32)        [t < 2^61]
//   t      mod p ≤ (t >> 61) + (t & p)                        [t < 2^64]
// The partial sums stay below 2^63.2, so unsigned 64-bit adds cannot
// wrap and one final fold plus one conditional subtract lands the
// exact remainder in [0, p).
//
// 64-bit unsigned min/compare do not exist in AVX2; values are XORed
// with the sign bit and compared signed, which preserves unsigned
// order (the all-ones sketch sentinel included).
#if defined(HETSIM_SIMD_HAVE_AVX2)

#include <immintrin.h>

#include "simd/kernels.h"
#include "simd/simd.h"

namespace hetsim::simd::detail {

namespace {

inline __m256i set1_u64(std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;

}  // namespace

std::uint64_t minhash_min_run_avx2(std::uint64_t a, std::uint64_t b,
                                   const std::uint64_t* items, std::size_t n,
                                   std::uint64_t acc) {
  const __m256i alo = set1_u64(a & 0xffffffffULL);
  const __m256i ahi = set1_u64(a >> 32);
  const __m256i addend = set1_u64(a + b);  // a·1 folded into the constant
  const __m256i p = set1_u64(kPrime61);
  const __m256i pm1 = set1_u64(kPrime61 - 1);
  const __m256i m29s32 = set1_u64(((1ULL << 29) - 1) << 32);
  const __m256i sign = set1_u64(kSignBit);
  // Two accumulator chains in the sign-flipped domain (unsigned order
  // under signed compare); ~0 flips to the signed maximum.
  __m256i accf0 = set1_u64(~0ULL ^ kSignBit);
  __m256i accf1 = accf0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(items + i));
    const __m256i x1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(items + i + 4));
    const __m256i th0 = _mm256_mul_epu32(ahi, x0);  // a_hi·x < 2^61
    const __m256i th1 = _mm256_mul_epu32(ahi, x1);
    const __m256i tl0 = _mm256_mul_epu32(alo, x0);  // a_lo·x < 2^64
    const __m256i tl1 = _mm256_mul_epu32(alo, x1);
    __m256i sum0 = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(th0, 29),
                         _mm256_and_si256(_mm256_slli_epi64(th0, 32), m29s32)),
        _mm256_add_epi64(_mm256_srli_epi64(tl0, 61),
                         _mm256_and_si256(tl0, p)));
    __m256i sum1 = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(th1, 29),
                         _mm256_and_si256(_mm256_slli_epi64(th1, 32), m29s32)),
        _mm256_add_epi64(_mm256_srli_epi64(tl1, 61),
                         _mm256_and_si256(tl1, p)));
    sum0 = _mm256_add_epi64(sum0, addend);
    sum1 = _mm256_add_epi64(sum1, addend);
    const __m256i r0 = _mm256_add_epi64(_mm256_srli_epi64(sum0, 61),
                                        _mm256_and_si256(sum0, p));
    const __m256i r1 = _mm256_add_epi64(_mm256_srli_epi64(sum1, 61),
                                        _mm256_and_si256(sum1, p));
    const __m256i v0 =
        _mm256_sub_epi64(r0, _mm256_and_si256(_mm256_cmpgt_epi64(r0, pm1), p));
    const __m256i v1 =
        _mm256_sub_epi64(r1, _mm256_and_si256(_mm256_cmpgt_epi64(r1, pm1), p));
    const __m256i vf0 = _mm256_xor_si256(v0, sign);
    const __m256i vf1 = _mm256_xor_si256(v1, sign);
    accf0 = _mm256_blendv_epi8(accf0, vf0, _mm256_cmpgt_epi64(accf0, vf0));
    accf1 = _mm256_blendv_epi8(accf1, vf1, _mm256_cmpgt_epi64(accf1, vf1));
  }
  const __m256i accf =
      _mm256_blendv_epi8(accf0, accf1, _mm256_cmpgt_epi64(accf0, accf1));
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), accf);
  std::uint64_t best = acc;
  for (const std::uint64_t lane : lanes) {
    best = std::min(best, lane ^ kSignBit);
  }
  for (; i < n; ++i) {
    best = std::min(best, permute61(a, b, items[i] + 1));
  }
  return best;
}

std::size_t find_above_u32_avx2(const std::uint32_t* row, std::size_t len,
                                std::uint32_t threshold) {
  // Unsigned `>` through the same sign flip as the u64 kernels: XOR with
  // 2^31 maps unsigned order onto signed order, so vpcmpgtd applies.
  // Two independent 8-wide compares per step; the first hit's lane comes
  // from the two movemasks.
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000U));
  const __m256i t =
      _mm256_set1_epi32(static_cast<int>(threshold ^ 0x80000000U));
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m256i v0 = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i)), sign);
    const __m256i v1 = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i + 8)),
        sign);
    const __m256i g0 = _mm256_cmpgt_epi32(v0, t);
    const __m256i g1 = _mm256_cmpgt_epi32(v1, t);
    const __m256i any = _mm256_or_si256(g0, g1);
    if (!_mm256_testz_si256(any, any)) {
      const auto m0 = static_cast<std::uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(g0)));
      const auto m1 = static_cast<std::uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(g1)));
      return i + static_cast<std::size_t>(__builtin_ctz(m0 | (m1 << 8)));
    }
  }
  for (; i < len; ++i) {
    if (row[i] > threshold) return i;
  }
  return len;
}

}  // namespace hetsim::simd::detail

#endif  // HETSIM_SIMD_HAVE_AVX2
