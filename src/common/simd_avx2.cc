// AVX2 kernel tier: 256-bit lanes (eight 32-bit candidates or four 64-bit
// rows per step) plus hardware gathers for the stabbing scan. This
// translation unit alone is compiled with -mavx2 (see CMakeLists); its
// code only runs after the CPUID check in Avx2Supported() has confirmed
// AVX2, so no other object file ever contains AVX2 encodings.

#include "common/simd_internal.h"

#ifdef __AVX2__

#include <immintrin.h>

namespace ldv {
namespace simd {
namespace detail {

// Eight candidates per step: the per-attribute lo/hi bounds come in
// through hardware gathers over the SoA bound arrays, the containment
// test is two signed compares (coordinates < 2^31 by contract), and hits
// leave through the movemask in ascending candidate order.
std::size_t StabCandidatesAvx2(const std::uint32_t* candidates, std::size_t n,
                               const std::uint32_t* point, const std::uint32_t* const* lo,
                               const std::uint32_t* const* hi, std::size_t d, bool first_only,
                               std::uint32_t* hits) {
  const __m256i ones = _mm256_set1_epi32(-1);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vg = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(candidates + i));
    __m256i inside = ones;
    for (std::size_t a = 1; a < d; ++a) {
      const __m256i vpt = _mm256_set1_epi32(static_cast<int>(point[a]));
      const __m256i vlo =
          _mm256_i32gather_epi32(reinterpret_cast<const int*>(lo[a]), vg, 4);
      const __m256i vhi =
          _mm256_i32gather_epi32(reinterpret_cast<const int*>(hi[a]), vg, 4);
      const __m256i ge = _mm256_andnot_si256(_mm256_cmpgt_epi32(vlo, vpt), ones);
      const __m256i lt = _mm256_cmpgt_epi32(vhi, vpt);
      inside = _mm256_and_si256(inside, _mm256_and_si256(ge, lt));
      if (_mm256_movemask_ps(_mm256_castsi256_ps(inside)) == 0) break;
    }
    int m = _mm256_movemask_ps(_mm256_castsi256_ps(inside));
    while (m != 0) {
      const int j = __builtin_ctz(static_cast<unsigned>(m));
      hits[count++] = candidates[i + static_cast<std::size_t>(j)];
      if (first_only) return count;
      m &= m - 1;
    }
  }
  return count + StabCandidatesScalar(candidates + i, n - i, point, lo, hi, d, first_only,
                                      hits + count);
}

// Four rows per step on 64-bit lanes. The data-dependent branch of
// Skilling's walk ("if the q bit of x[i] is set") becomes a full-lane mask
// built from that bit: sel = 0 - ((x[i] >> log2 q) & 1), then
//   x[0] ^= (sel & p) | (~sel & t),   x[i] ^= ~sel & t
// which reproduces both branch arms at once (for i == 0, t is zero and
// only the sel & p term fires, exactly like the scalar code).
void HilbertEncodeBlockAvx2(const std::uint32_t* const* cols, std::size_t d, std::uint32_t bits,
                            std::uint32_t shift, std::size_t row_begin, std::size_t count,
                            std::uint64_t* out) {
  const std::uint32_t m = 1u << (bits - 1);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  const __m128i vshift = _mm_cvtsi32_si128(static_cast<int>(shift));
  __m256i x[64];
  std::size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    for (std::size_t i = 0; i < d; ++i) {
      const __m128i v = _mm_srl_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(cols[i] + row_begin + r)), vshift);
      x[i] = _mm256_cvtepu32_epi64(v);
    }
    for (std::uint32_t q = m; q > 1; q >>= 1) {
      const __m256i vp = _mm256_set1_epi64x(q - 1);
      const __m128i vq = _mm_cvtsi32_si128(__builtin_ctz(q));
      for (std::size_t i = 0; i < d; ++i) {
        const __m256i bit = _mm256_and_si256(_mm256_srl_epi64(x[i], vq), one);
        const __m256i sel = _mm256_sub_epi64(zero, bit);
        const __m256i t = _mm256_and_si256(_mm256_xor_si256(x[0], x[i]), vp);
        const __m256i tn = _mm256_andnot_si256(sel, t);
        x[0] = _mm256_xor_si256(x[0], _mm256_or_si256(tn, _mm256_and_si256(sel, vp)));
        x[i] = _mm256_xor_si256(x[i], tn);
      }
    }
    for (std::size_t i = 1; i < d; ++i) x[i] = _mm256_xor_si256(x[i], x[i - 1]);
    __m256i vt = zero;
    for (std::uint32_t q = m; q > 1; q >>= 1) {
      const __m256i bit =
          _mm256_and_si256(_mm256_srl_epi64(x[d - 1], _mm_cvtsi32_si128(__builtin_ctz(q))), one);
      vt = _mm256_xor_si256(
          vt, _mm256_and_si256(_mm256_sub_epi64(zero, bit), _mm256_set1_epi64x(q - 1)));
    }
    for (std::size_t i = 0; i < d; ++i) x[i] = _mm256_xor_si256(x[i], vt);
    __m256i index = zero;
    for (std::uint32_t bit = bits; bit-- > 0;) {
      const __m128i vb = _mm_cvtsi32_si128(static_cast<int>(bit));
      for (std::size_t i = 0; i < d; ++i) {
        index = _mm256_or_si256(_mm256_slli_epi64(index, 1),
                                _mm256_and_si256(_mm256_srl_epi64(x[i], vb), one));
      }
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + r), index);
  }
  if (r < count) {
    HilbertEncodeBlockScalar(cols, d, bits, shift, row_begin + r, count - r, out + r);
  }
}

bool Avx2Supported() { return __builtin_cpu_supports("avx2"); }

}  // namespace detail
}  // namespace simd
}  // namespace ldv

#else  // !__AVX2__

// Not built for x86: no AVX2 tier. Avx2Supported() is false, so dispatch
// never reaches these forwarding stubs.
namespace ldv {
namespace simd {
namespace detail {

std::size_t StabCandidatesAvx2(const std::uint32_t* candidates, std::size_t n,
                               const std::uint32_t* point, const std::uint32_t* const* lo,
                               const std::uint32_t* const* hi, std::size_t d, bool first_only,
                               std::uint32_t* hits) {
  return StabCandidatesScalar(candidates, n, point, lo, hi, d, first_only, hits);
}

void HilbertEncodeBlockAvx2(const std::uint32_t* const* cols, std::size_t d, std::uint32_t bits,
                            std::uint32_t shift, std::size_t row_begin, std::size_t count,
                            std::uint64_t* out) {
  HilbertEncodeBlockScalar(cols, d, bits, shift, row_begin, count, out);
}

bool Avx2Supported() { return false; }

}  // namespace detail
}  // namespace simd
}  // namespace ldv

#endif  // __AVX2__
