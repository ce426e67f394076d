// KL-divergence (Equation 2) tests for suppression, single-dimensional
// and bucketization releases.

#include "metrics/kl_divergence.h"

#include <gtest/gtest.h>

#include <cmath>

#include "anonymity/generalization.h"
#include "common/rng.h"
#include "core/anonymizer.h"
#include "tds/tds.h"
#include "test_util.h"

namespace ldv {
namespace {

TEST(KlSuppression, SingletonGroupsGiveZeroDivergence) {
  // With every tuple its own group nothing is generalized: f* = f.
  Table table = testutil::PaperTable1();
  std::vector<std::vector<RowId>> singletons;
  for (RowId r = 0; r < table.size(); ++r) singletons.push_back({r});
  GeneralizedTable generalized(table, Partition(singletons));
  EXPECT_NEAR(KlDivergenceSuppression(table, generalized), 0.0, 1e-9);
}

TEST(KlSuppression, HandComputedTwoRowExample) {
  // Two rows, one QI attribute of domain size 2, distinct QI values, same
  // SA, grouped together: both rows get a star.
  // f(p) = 1/2 at two points; f*(p) = (1/2) * (2 * (1/2)) / ... concretely:
  // each generalized tuple is uniform over {0, 1}, so the induced density
  // at each of the two points is (1/2 + 1/2) * (1/2) / 2 ... = 1/2.
  // Hence f* = f and KL = 0 by symmetry.
  Schema schema = testutil::MakeSchema({2}, 2);
  Table table(schema);
  {
    std::vector<Value> qi{0};
    table.AppendRow(qi, 0);
  }
  {
    std::vector<Value> qi{1};
    table.AppendRow(qi, 0);
  }
  GeneralizedTable generalized(table, Partition::SingleGroup(table));
  EXPECT_NEAR(KlDivergenceSuppression(table, generalized), 0.0, 1e-12);
}

TEST(KlSuppression, AsymmetricGroupHasPositiveDivergence) {
  // Domain size 4, two rows at values {0, 1} grouped: each point keeps
  // f = 1/2 but f* spreads mass uniformly over 4 values: f* = 1/4 at each
  // point, so KL = ln 2.
  Schema schema = testutil::MakeSchema({4}, 2);
  Table table(schema);
  {
    std::vector<Value> qi{0};
    table.AppendRow(qi, 0);
  }
  {
    std::vector<Value> qi{1};
    table.AppendRow(qi, 0);
  }
  GeneralizedTable generalized(table, Partition::SingleGroup(table));
  EXPECT_NEAR(KlDivergenceSuppression(table, generalized), std::log(2.0), 1e-12);
}

TEST(KlSuppression, MoreStarsMoreDivergence) {
  Rng rng(51);
  Table table = testutil::RandomEligibleTable(rng, 200, {8, 8}, 4, 2);
  // Fine partition: Hilbert groups; coarse partition: single group.
  AnonymizationOutcome fine = Anonymize(table, 2, Algorithm::kHilbert);
  ASSERT_TRUE(fine.feasible);
  GeneralizedTable fine_gen(table, fine.partition);
  GeneralizedTable coarse_gen(table, Partition::SingleGroup(table));
  EXPECT_LT(KlDivergenceSuppression(table, fine_gen),
            KlDivergenceSuppression(table, coarse_gen));
}

TEST(KlSingleDim, RootCutMatchesFullySuppressedTable) {
  // TDS stuck at the root publishes every attribute as its full domain --
  // informationally identical to a single all-starred QI-group, so the two
  // KL computations must agree.
  Schema schema = testutil::MakeSchema({4, 3}, 2);
  Table table(schema);
  Rng rng(53);
  for (int i = 0; i < 40; ++i) {
    std::vector<Value> qi{rng.Below(4), rng.Below(3)};
    table.AppendRow(qi, rng.Below(2));
  }
  // Build the root-level single-dim generalization directly.
  std::vector<Taxonomy> taxonomies;
  taxonomies.emplace_back(4);
  taxonomies.emplace_back(3);
  std::vector<std::vector<std::int32_t>> cut = {{0, 0, 0, 0}, {0, 0, 0}};
  SingleDimGeneralization root_gen(std::move(taxonomies), std::move(cut));

  GeneralizedTable starred(table, Partition::SingleGroup(table));
  EXPECT_NEAR(KlDivergenceSingleDim(table, root_gen),
              KlDivergenceSuppression(table, starred), 1e-9);
}

TEST(KlSingleDim, LeafCutGivesZeroDivergence) {
  Schema schema = testutil::MakeSchema({4}, 2);
  Table table(schema);
  for (Value v = 0; v < 4; ++v) {
    std::vector<Value> qi{v};
    table.AppendRow(qi, 0);
    table.AppendRow(qi, 1);
  }
  TdsResult result = RunTds(table, 2);
  ASSERT_TRUE(result.feasible);
  // Fully specialized: no information loss.
  EXPECT_NEAR(KlDivergenceSingleDim(table, *result.generalization), 0.0, 1e-9);
}

TEST(KlSingleDim, TdsDivergenceGrowsWithL) {
  Rng rng(55);
  // Generate for the stricter privacy level so both runs are feasible.
  Table table = testutil::RandomEligibleTable(rng, 600, {16, 8}, 8, 6);
  TdsResult l2 = RunTds(table, 2);
  TdsResult l6 = RunTds(table, 6);
  ASSERT_TRUE(l2.feasible);
  ASSERT_TRUE(l6.feasible);
  EXPECT_LE(KlDivergenceSingleDim(table, *l2.generalization),
            KlDivergenceSingleDim(table, *l6.generalization) + 1e-9);
}

TEST(KlAnatomy, DependsOnlyOnWhichValuesAreEqual) {
  // The bucketization estimator compares QI values for equality and never
  // packs them, so a schema whose point ids would not fit in 64 bits
  // (three domains of 2^31, SA domain 4) gives the KL of the same table
  // relabelled into small domains.
  const Value big = Value{1} << 30;
  Schema wide_schema = testutil::MakeSchema({std::size_t{1} << 31, std::size_t{1} << 31,
                                             std::size_t{1} << 31}, 4);
  Table wide = testutil::MakeTable(wide_schema, {{big, 7, big + 5, 0},
                                                 {big, 7, big + 5, 1},
                                                 {3, big, 9, 2},
                                                 {big, 7, big + 5, 3},
                                                 {3, big, 9, 0},
                                                 {3, big, 9, 1}});
  Table small = testutil::MakeTable(testutil::MakeSchema({2, 2, 2}, 4), {{1, 0, 1, 0},
                                                                          {1, 0, 1, 1},
                                                                          {0, 1, 0, 2},
                                                                          {1, 0, 1, 3},
                                                                          {0, 1, 0, 0},
                                                                          {0, 1, 0, 1}});
  Partition buckets({{0, 2, 4}, {1, 3, 5}});
  const double kl = KlDivergenceAnatomy(small, buckets);
  EXPECT_GT(kl, 0.0);
  EXPECT_EQ(KlDivergenceAnatomy(wide, buckets), kl);
}

TEST(KlDivergence, NonNegativity) {
  // KL(f, f*) >= 0 for every generalization (Gibbs' inequality); random
  // sweep across algorithms.
  Rng rng(57);
  for (int trial = 0; trial < 5; ++trial) {
    Table table = testutil::RandomEligibleTable(rng, 150, {6, 5}, 5, 3);
    for (Algorithm algo : {Algorithm::kTp, Algorithm::kTpPlus, Algorithm::kHilbert}) {
      AnonymizationOutcome outcome = Anonymize(table, 3, algo);
      ASSERT_TRUE(outcome.feasible);
      GeneralizedTable gen(table, outcome.partition);
      EXPECT_GE(KlDivergenceSuppression(table, gen), -1e-9);
    }
  }
}

}  // namespace
}  // namespace ldv
