#ifndef LDIV_COMMON_SIMD_INTERNAL_H_
#define LDIV_COMMON_SIMD_INTERNAL_H_

// Per-tier bodies of the kernels in simd.h, shared by simd.cc (the scalar
// pair and the dispatch) and simd_avx2.cc (the AVX2 pair). Callers outside
// the SIMD layer use the dispatched entry points in simd.h.

#include <cstddef>
#include <cstdint>

namespace ldv {
namespace simd {
namespace detail {

/// simd.cc defines the scalar pair; simd_avx2.cc defines the AVX2 pair
/// when compiled for x86 and, elsewhere, stubs that forward to scalar
/// (never reached: Avx2Supported() is false there), so dispatch degrades
/// without any build-system branching.
std::size_t StabCandidatesScalar(const std::uint32_t* candidates, std::size_t n,
                                 const std::uint32_t* point, const std::uint32_t* const* lo,
                                 const std::uint32_t* const* hi, std::size_t d, bool first_only,
                                 std::uint32_t* hits);
void HilbertEncodeBlockScalar(const std::uint32_t* const* cols, std::size_t d,
                              std::uint32_t bits, std::uint32_t shift, std::size_t row_begin,
                              std::size_t count, std::uint64_t* out);
std::size_t StabCandidatesAvx2(const std::uint32_t* candidates, std::size_t n,
                               const std::uint32_t* point, const std::uint32_t* const* lo,
                               const std::uint32_t* const* hi, std::size_t d, bool first_only,
                               std::uint32_t* hits);
void HilbertEncodeBlockAvx2(const std::uint32_t* const* cols, std::size_t d, std::uint32_t bits,
                            std::uint32_t shift, std::size_t row_begin, std::size_t count,
                            std::uint64_t* out);

/// True when the AVX2 bodies are compiled in and the CPU supports them.
bool Avx2Supported();

}  // namespace detail
}  // namespace simd
}  // namespace ldv

#endif  // LDIV_COMMON_SIMD_INTERNAL_H_
