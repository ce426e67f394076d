// Scalar reference kernels and the runtime dispatch of the SIMD layer.

#include "common/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/simd_internal.h"

namespace ldv {
namespace simd {

namespace detail {

std::size_t StabCandidatesScalar(const std::uint32_t* candidates, std::size_t n,
                                 const std::uint32_t* point, const std::uint32_t* const* lo,
                                 const std::uint32_t* const* hi, std::size_t d, bool first_only,
                                 std::uint32_t* hits) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t g = candidates[i];
    bool inside = true;
    for (std::size_t a = 1; a < d; ++a) {
      const std::uint32_t v = point[a];
      if (v < lo[a][g] || v >= hi[a][g]) {
        inside = false;
        break;
      }
    }
    if (inside) {
      hits[count++] = g;
      if (first_only) break;
    }
  }
  return count;
}

// Skilling's axes-to-transpose walk followed by the MSB-first bit
// interleave, one row at a time -- the arithmetic matches
// HilbertCurve::Encode exactly (integers, so bit-exactness is free).
void HilbertEncodeBlockScalar(const std::uint32_t* const* cols, std::size_t d,
                              std::uint32_t bits, std::uint32_t shift, std::size_t row_begin,
                              std::size_t count, std::uint64_t* out) {
  std::uint32_t x[64];
  const std::uint32_t m = 1u << (bits - 1);
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t i = 0; i < d; ++i) x[i] = cols[i][row_begin + r] >> shift;
    for (std::uint32_t q = m; q > 1; q >>= 1) {
      const std::uint32_t p = q - 1;
      for (std::size_t i = 0; i < d; ++i) {
        if (x[i] & q) {
          x[0] ^= p;
        } else {
          const std::uint32_t t = (x[0] ^ x[i]) & p;
          x[0] ^= t;
          x[i] ^= t;
        }
      }
    }
    for (std::size_t i = 1; i < d; ++i) x[i] ^= x[i - 1];
    std::uint32_t t = 0;
    for (std::uint32_t q = m; q > 1; q >>= 1) {
      if (x[d - 1] & q) t ^= q - 1;
    }
    for (std::size_t i = 0; i < d; ++i) x[i] ^= t;
    std::uint64_t index = 0;
    for (std::uint32_t bit = bits; bit-- > 0;) {
      for (std::size_t i = 0; i < d; ++i) {
        index = (index << 1) | ((x[i] >> bit) & 1u);
      }
    }
    out[r] = index;
  }
}

}  // namespace detail

namespace {

Level Detect() { return detail::Avx2Supported() ? Level::kAvx2 : Level::kScalar; }

Level Clamp(Level level) {
  const Level best = DetectedLevel();
  return level > best ? best : level;
}

// Initial level: DetectedLevel() clamped by LDIV_SIMD.
Level InitialLevel() {
  const char* env = std::getenv("LDIV_SIMD");
  if (env == nullptr || env[0] == '\0') return DetectedLevel();
  if (std::strcmp(env, "scalar") == 0) return Level::kScalar;
  if (std::strcmp(env, "avx2") == 0) return Clamp(Level::kAvx2);
  std::fprintf(stderr, "ldiv: ignoring unknown LDIV_SIMD value '%s' (want scalar|avx2)\n", env);
  return DetectedLevel();
}

// The one piece of dispatch state: LDIV_SIMD is parsed exactly once, on
// first use, and both ActiveLevel() and the kernels read this slot.
std::atomic<Level>& ActiveSlot() {
  static std::atomic<Level> level{InitialLevel()};
  return level;
}

bool UseAvx2() { return ActiveSlot().load(std::memory_order_relaxed) == Level::kAvx2; }

}  // namespace

const char* LevelName(Level level) { return level == Level::kAvx2 ? "avx2" : "scalar"; }

Level DetectedLevel() {
  static const Level detected = Detect();
  return detected;
}

Level ActiveLevel() { return ActiveSlot().load(std::memory_order_relaxed); }

void ForceLevel(Level level) { ActiveSlot().store(Clamp(level), std::memory_order_relaxed); }

std::size_t StabCandidates(const std::uint32_t* candidates, std::size_t n,
                           const std::uint32_t* point, const std::uint32_t* const* lo,
                           const std::uint32_t* const* hi, std::size_t d, bool first_only,
                           std::uint32_t* hits) {
  if (UseAvx2()) {
    return detail::StabCandidatesAvx2(candidates, n, point, lo, hi, d, first_only, hits);
  }
  return detail::StabCandidatesScalar(candidates, n, point, lo, hi, d, first_only, hits);
}

void HilbertEncodeBlock(const std::uint32_t* const* cols, std::size_t d, std::uint32_t bits,
                        std::uint32_t shift, std::size_t row_begin, std::size_t count,
                        std::uint64_t* out) {
  if (UseAvx2()) {
    detail::HilbertEncodeBlockAvx2(cols, d, bits, shift, row_begin, count, out);
  } else {
    detail::HilbertEncodeBlockScalar(cols, d, bits, shift, row_begin, count, out);
  }
}

}  // namespace simd
}  // namespace ldv
