#ifndef LDIV_COMMON_SIMD_H_
#define LDIV_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace ldv {
namespace simd {

/// Instruction-set tiers of the kernel library: the portable scalar
/// reference and AVX2. Only the two kernels below are dispatched -- the
/// ones whose AVX2 body measurably beats the scalar loop; every other
/// columnar loop in the library is plain scalar code the compiler
/// vectorizes (or not) on its own.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Lower-case tier name ("scalar" / "avx2"), as accepted by the LDIV_SIMD
/// environment variable and recorded in BENCH_micro.json.
const char* LevelName(Level level);

/// The best tier this process can run: AVX2 when simd_avx2.cc was built
/// for x86 (it compiles to a stub elsewhere) and the CPU reports AVX2 at
/// startup, scalar otherwise.
Level DetectedLevel();

/// The tier the kernels currently dispatch to: DetectedLevel() clamped by
/// the LDIV_SIMD environment variable (scalar | avx2; read once, at first
/// use; avx2 on a host without it is clamped to scalar, unknown values are
/// ignored with one warning) and by any later ForceLevel() call.
Level ActiveLevel();

/// Forces dispatch to `level` (clamped to DetectedLevel()) until the next
/// call. For tests and benchmarks; call only between kernel invocations --
/// the switch is not synchronized against kernels already running.
void ForceLevel(Level level);

// ---------------------------------------------------------------------------
// Kernels. Both are integer-only, so every tier produces identical output.
// ---------------------------------------------------------------------------

/// Box-containment scan of the KL stabbing loop: for each candidate group
/// g = candidates[i] (in ascending i order), tests
///   point[a] >= lo[a][g] && point[a] < hi[a][g]   for a in [1, d)
/// (attribute 0 is pre-filtered by the caller's inverted index) and
/// appends g to `hits`. Returns the number of hits; stops after the first
/// hit when `first_only` (disjoint tilings contain each point at most
/// once). `hits` must have room for n entries. All coordinates and bounds
/// must be below 2^31 (attribute domains are categorical codes, far below;
/// the AVX2 path compares as signed 32-bit).
std::size_t StabCandidates(const std::uint32_t* candidates, std::size_t n,
                           const std::uint32_t* point, const std::uint32_t* const* lo,
                           const std::uint32_t* const* hi, std::size_t d, bool first_only,
                           std::uint32_t* hits);

/// Batch Hilbert encode (Skilling's transform + bit interleave) of rows
/// [row_begin, row_begin + count) over d coordinate columns, each
/// coordinate right-shifted by `shift`: out[i] is the curve index of row
/// row_begin + i. Requires d >= 2 (d == 1 is the identity -- callers
/// shortcut it), d * bits <= 64 and (cols[a][r] >> shift) < 2^bits. The
/// AVX2 tier runs the transform branchlessly on 64-bit row lanes;
/// bit-exact with HilbertCurve::Encode.
void HilbertEncodeBlock(const std::uint32_t* const* cols, std::size_t d, std::uint32_t bits,
                        std::uint32_t shift, std::size_t row_begin, std::size_t count,
                        std::uint64_t* out);

}  // namespace simd
}  // namespace ldv

#endif  // LDIV_COMMON_SIMD_H_
