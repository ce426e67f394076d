// Tests of the SIMD kernel layer (src/common/simd.h): both kernels, at
// every tier the host can run, cross-checked against the scalar reference
// on randomized inputs -- including unaligned tails (lengths that are not
// lane multiples and pointers offset off alignment), n smaller than one
// lane, and n == 0.

#include "common/simd.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "hilbert/hilbert_curve.h"

namespace ldv {
namespace {

using simd::Level;

// The tiers the host can actually run, scalar first.
std::vector<Level> RunnableLevels() {
  std::vector<Level> levels = {Level::kScalar};
  if (simd::DetectedLevel() == Level::kAvx2) levels.push_back(Level::kAvx2);
  return levels;
}

// Restores the dispatch level active at construction on scope exit.
class LevelGuard {
 public:
  LevelGuard() : saved_(simd::ActiveLevel()) {}
  ~LevelGuard() { simd::ForceLevel(saved_); }

 private:
  Level saved_;
};

// The lengths every kernel is exercised at: empty, below one lane, exactly
// one AVX2 lane (four rows or eight candidates), lane multiples, and
// off-multiple tails.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 65, 1000, 1023};

TEST(SimdDispatch, LevelNamesRoundTrip) {
  EXPECT_STREQ(simd::LevelName(Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(Level::kAvx2), "avx2");
}

TEST(SimdDispatch, ForceLevelClampsToDetected) {
  LevelGuard guard;
  simd::ForceLevel(Level::kAvx2);
  EXPECT_LE(static_cast<int>(simd::ActiveLevel()), static_cast<int>(simd::DetectedLevel()));
  simd::ForceLevel(Level::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), Level::kScalar);
}

// Runs a kernel and reads ActiveLevel() with LDIV_SIMD=sse2 in a process
// whose dispatch statics are still untouched, and returns how many
// unknown-value warnings that printed to stderr.
int CountSimdEnvWarnings() {
  std::FILE* log = std::tmpfile();
  if (log == nullptr || dup2(fileno(log), STDERR_FILENO) < 0) return -1;
  setenv("LDIV_SIMD", "sse2", 1);
  const std::uint32_t col[4] = {1, 2, 3, 4};
  const std::uint32_t* cols[2] = {col, col};
  std::uint64_t out[4];
  simd::HilbertEncodeBlock(cols, 2, 3, 0, 0, 4, out);
  (void)simd::ActiveLevel();
  std::fflush(stderr);
  std::rewind(log);
  char line[256];
  int warnings = 0;
  while (std::fgets(line, sizeof line, log) != nullptr) {
    if (std::strstr(line, "ignoring unknown LDIV_SIMD value 'sse2' (want scalar|avx2)")) {
      ++warnings;
    }
  }
  return warnings;
}

// LDIV_SIMD is parsed once per process: a process that runs a kernel and
// also reads ActiveLevel() warns about an unknown value exactly once, and
// "sse2" is no longer a tier. The check runs in a re-executed child
// ("threadsafe" death-test style) so the dispatch statics start fresh; the
// child's exit code is the warning count.
TEST(SimdDispatchDeathTest, UnknownEnvValueWarnsOnce) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(std::_Exit(CountSimdEnvWarnings()), ::testing::ExitedWithCode(1), "");
}

TEST(SimdKernels, StabCandidatesMatchesScalar) {
  LevelGuard guard;
  Rng rng(15);
  constexpr std::size_t kGroups = 512;
  constexpr std::size_t kDims = 5;
  constexpr std::uint32_t kDomain = 32;
  // SoA per-attribute bounds with lo <= hi, tight enough that hits are
  // neither universal nor vanishing.
  std::vector<std::uint32_t> lo_store(kDims * kGroups), hi_store(kDims * kGroups);
  const std::uint32_t* lo[kDims];
  const std::uint32_t* hi[kDims];
  for (std::size_t a = 0; a < kDims; ++a) {
    lo[a] = lo_store.data() + a * kGroups;
    hi[a] = hi_store.data() + a * kGroups;
    for (std::size_t g = 0; g < kGroups; ++g) {
      std::uint32_t x = rng.Below(kDomain), y = rng.Below(kDomain + 1);
      lo_store[a * kGroups + g] = x < y ? x : y;
      hi_store[a * kGroups + g] = (x < y ? y : x) + 1;
    }
  }
  for (std::size_t n : kLengths) {
    std::vector<std::uint32_t> candidates(n + 1);
    for (auto& c : candidates) c = rng.Below(kGroups);
    std::uint32_t point[kDims];
    for (auto& p : point) p = rng.Below(kDomain);
    for (bool first_only : {false, true}) {
      std::vector<std::uint32_t> want(n + 1, 0xdeadbeefu), got(n + 1, 0xdeadbeefu);
      simd::ForceLevel(Level::kScalar);
      std::size_t want_n = simd::StabCandidates(candidates.data() + 1, n, point, lo, hi, kDims,
                                                first_only, want.data());
      for (Level level : RunnableLevels()) {
        simd::ForceLevel(level);
        std::size_t got_n = simd::StabCandidates(candidates.data() + 1, n, point, lo, hi,
                                                 kDims, first_only, got.data());
        ASSERT_EQ(got_n, want_n)
            << simd::LevelName(level) << " n=" << n << " first_only=" << first_only;
        for (std::size_t k = 0; k < want_n; ++k) {
          EXPECT_EQ(got[k], want[k]) << simd::LevelName(level) << " hit " << k;
        }
      }
    }
  }
}

TEST(SimdKernels, HilbertEncodeBlockMatchesCurveEncode) {
  LevelGuard guard;
  Rng rng(18);
  struct Case {
    std::uint32_t dims, bits, shift;
  };
  const Case cases[] = {{2, 7, 0}, {3, 5, 0}, {4, 7, 1}, {7, 7, 0}, {7, 9, 2}, {16, 4, 0}};
  for (const Case& c : cases) {
    HilbertCurve curve(c.dims, c.bits);
    for (std::size_t n : kLengths) {
      // Columns with one row of unaligned slack; raw values stay below
      // 2^(bits + shift) so the shifted coordinates fit the grid.
      std::vector<std::vector<std::uint32_t>> columns(c.dims,
                                                      std::vector<std::uint32_t>(n + 1));
      std::vector<const std::uint32_t*> cols(c.dims);
      for (std::uint32_t a = 0; a < c.dims; ++a) {
        for (auto& v : columns[a]) v = rng.Below(1u << (c.bits + c.shift));
        cols[a] = columns[a].data();
      }
      std::vector<std::uint64_t> want(n);
      std::vector<std::uint32_t> coords(c.dims);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::uint32_t a = 0; a < c.dims; ++a) coords[a] = cols[a][1 + r] >> c.shift;
        want[r] = curve.Encode(coords);
      }
      for (Level level : RunnableLevels()) {
        std::vector<std::uint64_t> got(n);
        simd::ForceLevel(level);
        simd::HilbertEncodeBlock(cols.data(), c.dims, c.bits, c.shift, 1, n, got.data());
        EXPECT_EQ(got, want) << simd::LevelName(level) << " dims=" << c.dims
                             << " bits=" << c.bits << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace ldv
