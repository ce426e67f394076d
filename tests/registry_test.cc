// AlgorithmRegistry tests: lookup by enum and by name, and the parity
// guarantee that every registered algorithm produces a valid l-diverse
// partition with the shared utility metrics populated.

#include "core/algorithm.h"

#include <gtest/gtest.h>

#include "anonymity/eligibility.h"
#include "data/acs_generator.h"
#include "data/acs_schema.h"
#include "test_util.h"

namespace ldv {
namespace {

TEST(Registry, AllSixAlgorithmsRegistered) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  EXPECT_EQ(registry.All().size(), kAlgorithmCount);
  for (Algorithm id : kAllAlgorithms) {
    const Anonymizer& algo = registry.Get(id);
    EXPECT_EQ(algo.id(), id);
    EXPECT_STREQ(algo.name(), AlgorithmName(id));
  }
}

TEST(Registry, FindByNameIsCaseInsensitive) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  EXPECT_EQ(registry.Find("tp")->id(), Algorithm::kTp);
  EXPECT_EQ(registry.Find("TP")->id(), Algorithm::kTp);
  EXPECT_EQ(registry.Find("tp+")->id(), Algorithm::kTpPlus);
  EXPECT_EQ(registry.Find("HILBERT")->id(), Algorithm::kHilbert);
  EXPECT_EQ(registry.Find("Mondrian")->id(), Algorithm::kMondrian);
  EXPECT_EQ(registry.Find("anatomy")->id(), Algorithm::kAnatomy);
  EXPECT_EQ(registry.Find("tds")->id(), Algorithm::kTds);
}

TEST(Registry, FindUnknownNameReturnsNull) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  EXPECT_EQ(registry.Find(""), nullptr);
  EXPECT_EQ(registry.Find("tp++"), nullptr);
  EXPECT_EQ(registry.Find("mondrian2"), nullptr);
}

TEST(Registry, CreateHonorsOptions) {
  AnonymizerOptions options;
  options.compute_kl = false;
  std::unique_ptr<Anonymizer> algo =
      AlgorithmRegistry::Global().Create(Algorithm::kHilbert, options);
  EXPECT_FALSE(algo->options().compute_kl);
  const Anonymizer& registered = AlgorithmRegistry::Global().Get(Algorithm::kHilbert);
  EXPECT_TRUE(registered.options().compute_kl) << "options are per instance";

  Table table = GenerateSal(2000, 1).ProjectQi({kAge, kGender, kEducation});
  AnonymizationOutcome without_kl = algo->Run(table, 4);
  AnonymizationOutcome with_kl = registered.Run(table, 4);
  ASSERT_TRUE(without_kl.feasible);
  ASSERT_TRUE(with_kl.feasible);
  EXPECT_EQ(without_kl.kl_divergence, 0.0);
  EXPECT_GT(with_kl.kl_divergence, 0.0);
  EXPECT_EQ(without_kl.stars, with_kl.stars) << "the KL switch leaves the solve alone";
}

// The acceptance-criteria parity test: every registered algorithm, run on
// ACS-style workloads, yields a partition that exactly covers the table
// and is l-diverse, with the shared metrics filled in uniformly.
TEST(Registry, ParityOnAcsWorkloads) {
  Table sal = GenerateSal(4000, 1).ProjectQi({kAge, kGender, kEducation});
  Table occ = GenerateOcc(4000, 2).ProjectQi({kAge, kRace, kMarital});
  for (const Table* table : {&sal, &occ}) {
    for (std::uint32_t l : {2u, 4u}) {
      for (const Anonymizer* algo : AlgorithmRegistry::Global().All()) {
        SCOPED_TRACE(std::string(algo->name()) + " l=" + std::to_string(l));
        AnonymizationOutcome outcome = algo->Run(*table, l);
        ASSERT_TRUE(outcome.feasible);
        EXPECT_EQ(outcome.algorithm, algo->id());
        EXPECT_EQ(outcome.methodology, algo->methodology());
        EXPECT_TRUE(outcome.partition.CoversExactly(*table));
        EXPECT_TRUE(IsLDiverse(*table, outcome.partition, l));
        EXPECT_EQ(outcome.group_stats.group_count, outcome.partition.group_count());
        EXPECT_GE(outcome.kl_divergence, 0.0);
        EXPECT_GE(outcome.seconds, 0.0);
        if (outcome.methodology == Methodology::kBucketization) {
          // Anatomy publishes QI values exactly: no stars by construction.
          EXPECT_EQ(outcome.stars, 0u);
          EXPECT_EQ(outcome.generalized, nullptr);
        } else {
          ASSERT_NE(outcome.generalized, nullptr);
          EXPECT_EQ(outcome.stars, outcome.generalized->StarCount());
          EXPECT_EQ(outcome.suppressed_tuples, outcome.generalized->SuppressedTupleCount());
        }
      }
    }
  }
}

TEST(Registry, MethodologyArtifactsMatchKind) {
  Table table = GenerateSal(3000, 5).ProjectQi({kAge, kGender});
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  EXPECT_NE(registry.Get(Algorithm::kMondrian).Run(table, 2).boxes, nullptr);
  EXPECT_NE(registry.Get(Algorithm::kTds).Run(table, 2).single_dim, nullptr);
  EXPECT_EQ(registry.Get(Algorithm::kTp).Run(table, 2).boxes, nullptr);
}

TEST(Registry, InfeasibleIsUniformAcrossAlgorithms) {
  Table table = testutil::PaperTable1();  // max feasible l is 2
  for (const Anonymizer* algo : AlgorithmRegistry::Global().All()) {
    AnonymizationOutcome outcome = algo->Run(table, 3);
    EXPECT_FALSE(outcome.feasible) << algo->name();
    EXPECT_EQ(outcome.partition.group_count(), 0u) << algo->name();
  }
}

}  // namespace
}  // namespace ldv
