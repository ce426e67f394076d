// Taxonomy and TDS (top-down specialization) tests.

#include "tds/tds.h"

#include <gtest/gtest.h>

#include "anonymity/eligibility.h"
#include "common/rng.h"
#include "tds/taxonomy.h"
#include "test_util.h"

namespace ldv {
namespace {

TEST(Taxonomy, BuildsBalancedBinaryTree) {
  Taxonomy tax(8);
  EXPECT_EQ(tax.node_count(), 15u);  // 2 * 8 - 1
  EXPECT_EQ(tax.node(tax.root()).width(), 8u);
  EXPECT_TRUE(tax.node(tax.LeafFor(5)).is_leaf());
  EXPECT_EQ(tax.node(tax.LeafFor(5)).lo, 5u);
  EXPECT_EQ(tax.Depth(tax.root()), 0u);
  EXPECT_EQ(tax.Depth(tax.LeafFor(0)), 3u);
  EXPECT_EQ(tax.NodeLabel(tax.root()), "[0,8)");
}

TEST(Taxonomy, OddDomainSplitsUnevenly) {
  Taxonomy tax(5);
  const TaxonomyNode& root = tax.node(tax.root());
  EXPECT_EQ(tax.node(root.left).width(), 3u);
  EXPECT_EQ(tax.node(root.right).width(), 2u);
  EXPECT_EQ(tax.node_count(), 9u);  // 2 * 5 - 1
}

TEST(Taxonomy, SingletonDomainIsALeafRoot) {
  Taxonomy tax(1);
  EXPECT_EQ(tax.node_count(), 1u);
  EXPECT_TRUE(tax.node(tax.root()).is_leaf());
}

TEST(Taxonomy, ChildrenPartitionParent) {
  Taxonomy tax(17);
  for (std::int32_t id = 0; id < static_cast<std::int32_t>(tax.node_count()); ++id) {
    const TaxonomyNode& node = tax.node(id);
    if (node.is_leaf()) continue;
    const TaxonomyNode& l = tax.node(node.left);
    const TaxonomyNode& r = tax.node(node.right);
    EXPECT_EQ(l.lo, node.lo);
    EXPECT_EQ(l.hi, r.lo);
    EXPECT_EQ(r.hi, node.hi);
    EXPECT_EQ(l.parent, id);
    EXPECT_EQ(r.parent, id);
  }
}

TEST(Tds, FullySpecializesWhenPrivacyAllows) {
  // One row per (qi, sa) combination arranged so every leaf cell is
  // 2-eligible: two rows (different SA) per QI value.
  Schema schema = testutil::MakeSchema({4}, 2);
  Table table(schema);
  for (Value v = 0; v < 4; ++v) {
    std::vector<Value> qi{v};
    table.AppendRow(qi, 0);
    table.AppendRow(qi, 1);
  }
  TdsResult result = RunTds(table, 2);
  ASSERT_TRUE(result.feasible);
  // Every value should be published at its leaf.
  for (Value v = 0; v < 4; ++v) {
    EXPECT_EQ(result.generalization->CellWidth(0, v), 1u) << "value " << v;
  }
  EXPECT_EQ(result.partition.group_count(), 4u);
}

TEST(Tds, StopsAtRootWhenDataForbidsAnySplit) {
  // Left half all SA 0, right half all SA 1: any split of the root creates
  // homogeneous cells, so the cut must stay at the root.
  Schema schema = testutil::MakeSchema({4}, 2);
  Table table(schema);
  for (Value v = 0; v < 4; ++v) {
    std::vector<Value> qi{v};
    table.AppendRow(qi, v < 2 ? 0 : 1);
  }
  TdsResult result = RunTds(table, 2);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.specializations, 0u);
  EXPECT_EQ(result.generalization->CellWidth(0, 0), 4u);
  EXPECT_EQ(result.partition.group_count(), 1u);
}

TEST(Tds, AllCellsAreLEligible) {
  Rng rng(31);
  for (std::uint32_t l : {2u, 4u, 6u}) {
    Table table = testutil::RandomEligibleTable(rng, 500, {16, 8, 4}, 8, l);
    if (!IsTableEligible(table, l)) continue;
    TdsResult result = RunTds(table, l);
    ASSERT_TRUE(result.feasible);
    EXPECT_TRUE(result.partition.CoversExactly(table));
    EXPECT_TRUE(IsLDiverse(table, result.partition, l)) << "l=" << l;
    // Groups match the published cells: all rows of a group share the
    // published node of every attribute.
    for (const auto& group : result.partition.groups()) {
      for (RowId r : group) {
        for (AttrId a = 0; a < table.qi_count(); ++a) {
          EXPECT_EQ(result.generalization->NodeFor(a, table.qi(r, a)),
                    result.generalization->NodeFor(a, table.qi(group[0], a)));
        }
      }
    }
  }
}

TEST(Tds, MoreSpecializationsWithSmallerL) {
  Rng rng(33);
  // Generate for the stricter privacy level so both runs are feasible.
  Table table = testutil::RandomEligibleTable(rng, 800, {16, 8}, 8, 6);
  TdsResult loose = RunTds(table, 2);
  TdsResult strict = RunTds(table, 6);
  ASSERT_TRUE(loose.feasible);
  ASSERT_TRUE(strict.feasible);
  EXPECT_GE(loose.specializations, strict.specializations);
}

TEST(Tds, InfeasibleTableRejected) {
  Schema schema = testutil::MakeSchema({2}, 2);
  Table table(schema);
  std::vector<Value> qi{0};
  table.AppendRow(qi, 0);
  EXPECT_FALSE(RunTds(table, 2).feasible);
}

TEST(Tds, CellVolumeMatchesWidths) {
  Schema schema = testutil::MakeSchema({4, 8}, 2);
  Table table(schema);
  for (Value v = 0; v < 4; ++v) {
    std::vector<Value> qi{v, static_cast<Value>(v * 2)};
    table.AppendRow(qi, 0);
    table.AppendRow(qi, 1);
  }
  TdsResult result = RunTds(table, 2);
  ASSERT_TRUE(result.feasible);
  std::vector<Value> probe{0, 0};
  double volume = result.generalization->CellVolume(probe);
  double expected = static_cast<double>(result.generalization->CellWidth(0, 0)) *
                    result.generalization->CellWidth(1, 0);
  EXPECT_DOUBLE_EQ(volume, expected);
}

}  // namespace
}  // namespace ldv
