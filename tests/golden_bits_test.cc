// Golden-bits regression test: every registry algorithm at l = 4, on a
// seeded SAL table and on the committed micro.csv, must reproduce the
// recorded star count exactly and the recorded KL divergence to the last
// bit. The hex literals were recorded from a build whose KL estimators
// and SIMD kernels are the reference arithmetic; any refactor of those
// layers that moves a rounding shows up here, at every SIMD level the
// process dispatches to (CI runs the suite under LDIV_SIMD=scalar too).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>

#include "common/csv.h"
#include "core/anonymizer.h"
#include "data/dataset.h"

namespace ldv {
namespace {

struct Golden {
  Algorithm algo;
  std::uint64_t stars;
  std::uint64_t kl_bits;  // std::bit_cast<std::uint64_t>(kl_divergence)
};

void ExpectGolden(const Table& table, const Golden (&golden)[kAlgorithmCount]) {
  for (const Golden& g : golden) {
    SCOPED_TRACE(AlgorithmName(g.algo));
    AnonymizationOutcome outcome = Anonymize(table, 4, g.algo, AnonymizerOptions{});
    ASSERT_TRUE(outcome.feasible);
    EXPECT_EQ(outcome.stars, g.stars);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(outcome.kl_divergence), g.kl_bits)
        << std::hex << "0x" << std::bit_cast<std::uint64_t>(outcome.kl_divergence)
        << std::dec << " (" << outcome.kl_divergence << ")";
  }
}

std::string DataPath(const std::string& name) {
  // ctest may run from the build directory; fall back to the source dir.
  std::string relative = "tests/data/" + name;
  std::ifstream probe(relative);
  if (probe.good()) return relative;
  return std::string(LDIV_SOURCE_DIR) + "/" + relative;
}

TEST(GoldenBits, SeededSalD4) {
  DatasetSpec spec;
  spec.name = "sal";
  spec.n = 20000;
  spec.d = 4;
  spec.seed = 7;
  std::string error;
  std::optional<Table> table = GenerateDataset(spec, &error);
  ASSERT_TRUE(table.has_value()) << error;
  const Golden golden[kAlgorithmCount] = {
      {Algorithm::kTp, 22356, 0x3fef93e9df2d932fULL},
      {Algorithm::kTpPlus, 17411, 0x3fed3f8cc90473abULL},
      {Algorithm::kHilbert, 24356, 0x3ff5a0dd70f89ef4ULL},
      {Algorithm::kMondrian, 13208, 0x3fe8a7a98412398fULL},
      {Algorithm::kAnatomy, 0, 0x3feaa0267184edd9ULL},
      {Algorithm::kTds, 27639, 0x3ffd7250090755f7ULL},
  };
  ExpectGolden(*table, golden);
}

TEST(GoldenBits, MicroCsv) {
  Schema schema({Attribute{"Age", 79}, Attribute{"Gender", 2}, Attribute{"Race", 9}},
                Attribute{"Income", 50});
  CsvError error;
  std::optional<Table> table = ReadTableCsv(schema, DataPath("micro.csv"), &error);
  ASSERT_TRUE(table.has_value()) << error.ToString();
  const Golden golden[kAlgorithmCount] = {
      {Algorithm::kTp, 1161, 0x4011b97f143746fcULL},
      {Algorithm::kTpPlus, 1069, 0x4010f863917ac5f1ULL},
      {Algorithm::kHilbert, 1088, 0x40112780a8243bbcULL},
      {Algorithm::kMondrian, 539, 0x400724f7f4377054ULL},
      {Algorithm::kAnatomy, 0, 0x3ff507a1eb421a13ULL},
      {Algorithm::kTds, 800, 0x400d3e0fdbc1930dULL},
  };
  ExpectGolden(*table, golden);
}

}  // namespace
}  // namespace ldv
