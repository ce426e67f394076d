// Equivalence regression tests for the allocation-lean hot-path rewrites:
// the in-place Mondrian, the flat-map KL estimators and the
// workspace-threaded solvers must reproduce the seed implementations'
// outputs. The reference implementations below are verbatim copies of the
// pre-rewrite (seed) algorithms, kept simple and allocation-heavy on
// purpose -- they are the spec.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>
#include <vector>

#include "anonymity/eligibility.h"
#include "anonymity/generalization.h"
#include "anonymity/multidim.h"
#include "anonymity/partition.h"
#include "common/grouped_table.h"
#include "common/histogram.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/workspace.h"
#include "core/anonymizer.h"
#include "core/tp.h"
#include "data/acs_generator.h"
#include "data/acs_schema.h"
#include "hilbert/hilbert_partitioner.h"
#include "metrics/kl_divergence.h"
#include "mondrian/mondrian.h"
#include "tds/tds.h"
#include "test_util.h"

namespace ldv {
namespace {

// ---------------------------------------------------------------------------
// Reference Mondrian: the seed's copy-and-sort recursion.
// ---------------------------------------------------------------------------

class ReferenceMondrianState {
 public:
  ReferenceMondrianState(const Table& table, std::uint32_t l, BoxGeneralization* out,
                         ldv::Partition* partition)
      : table_(table), l_(l), out_(out), partition_(partition) {}

  void Recurse(std::vector<RowId> rows, QiBox box) {
    const std::size_t d = table_.qi_count();
    std::vector<std::pair<double, AttrId>> spreads;
    spreads.reserve(d);
    for (AttrId a = 0; a < d; ++a) {
      auto [min_it, max_it] = std::minmax_element(
          rows.begin(), rows.end(),
          [&](RowId x, RowId y) { return table_.qi(x, a) < table_.qi(y, a); });
      double spread =
          static_cast<double>(table_.qi(*max_it, a) - table_.qi(*min_it, a)) /
          static_cast<double>(table_.schema().qi(a).domain_size);
      spreads.push_back({spread, a});
    }
    std::sort(spreads.begin(), spreads.end(), [](const auto& x, const auto& y) {
      return x.first != y.first ? x.first > y.first : x.second < y.second;
    });

    for (const auto& [spread, attr] : spreads) {
      if (spread <= 0.0) break;
      Value split = MedianSplitValue(rows, attr);
      if (split == 0) continue;
      std::vector<RowId> left, right;
      SaHistogram left_hist(table_.schema().sa_domain_size());
      SaHistogram right_hist(table_.schema().sa_domain_size());
      for (RowId r : rows) {
        if (table_.qi(r, attr) < split) {
          left.push_back(r);
          left_hist.Add(table_.sa(r));
        } else {
          right.push_back(r);
          right_hist.Add(table_.sa(r));
        }
      }
      if (left.empty() || right.empty()) continue;
      if (!left_hist.IsEligible(l_) || !right_hist.IsEligible(l_)) continue;
      QiBox left_box = box, right_box = box;
      left_box.hi[attr] = split;
      right_box.lo[attr] = split;
      Recurse(std::move(left), std::move(left_box));
      Recurse(std::move(right), std::move(right_box));
      return;
    }
    partition_->AddGroup(rows);
    out_->AddGroup(std::move(box), std::move(rows));
  }

 private:
  Value MedianSplitValue(const std::vector<RowId>& rows, AttrId attr) const {
    std::vector<Value> values;
    values.reserve(rows.size());
    for (RowId r : rows) values.push_back(table_.qi(r, attr));
    std::sort(values.begin(), values.end());
    if (values.front() == values.back()) return 0;
    Value median = values[values.size() / 2];
    return median > values.front() ? median : median + 1;
  }

  const Table& table_;
  std::uint32_t l_;
  BoxGeneralization* out_;
  ldv::Partition* partition_;
};

MondrianResult ReferenceMondrian(const Table& table, std::uint32_t l) {
  MondrianResult result;
  if (table.empty()) {
    result.feasible = true;
    return result;
  }
  if (!IsTableEligible(table, l)) return result;
  std::vector<RowId> all(table.size());
  for (RowId r = 0; r < table.size(); ++r) all[r] = r;
  QiBox root;
  root.lo.assign(table.qi_count(), 0);
  root.hi.resize(table.qi_count());
  for (AttrId a = 0; a < table.qi_count(); ++a) {
    root.hi[a] = static_cast<Value>(table.schema().qi(a).domain_size);
  }
  ReferenceMondrianState state(table, l, &result.generalization, &result.partition);
  state.Recurse(std::move(all), std::move(root));
  result.feasible = true;
  return result;
}

// ---------------------------------------------------------------------------
// Reference KL estimators: the seed's unordered_map accumulation.
// ---------------------------------------------------------------------------

class ReferencePointPacker {
 public:
  explicit ReferencePointPacker(const Schema& schema) {
    std::uint64_t stride = 1;
    for (std::size_t a = 0; a < schema.qi_count(); ++a) {
      strides_.push_back(stride);
      stride *= schema.qi(static_cast<AttrId>(a)).domain_size;
    }
    sa_stride_ = stride;
  }

  std::uint64_t Pack(std::span<const Value> qi, SaValue sa) const {
    std::uint64_t key = static_cast<std::uint64_t>(sa) * sa_stride_;
    for (std::size_t a = 0; a < qi.size(); ++a) key += strides_[a] * qi[a];
    return key;
  }

 private:
  std::vector<std::uint64_t> strides_;
  std::uint64_t sa_stride_ = 0;
};

struct ReferencePointCount {
  RowId representative = 0;
  std::uint32_t count = 0;
};

std::unordered_map<std::uint64_t, ReferencePointCount> ReferenceDistinctPoints(
    const Table& table, const ReferencePointPacker& packer) {
  std::unordered_map<std::uint64_t, ReferencePointCount> points;
  points.reserve(table.size());
  for (RowId r = 0; r < table.size(); ++r) {
    std::uint64_t key = packer.Pack(table.qi_row(r), table.sa(r));
    auto [it, inserted] = points.try_emplace(key, ReferencePointCount{r, 0});
    ++it->second.count;
  }
  return points;
}

double ReferenceKlSuppression(const Table& table, const GeneralizedTable& generalized) {
  if (table.empty()) return 0.0;
  const Schema& schema = table.schema();
  const std::size_t d = table.qi_count();
  const double n = static_cast<double>(table.size());

  struct MaskBucket {
    std::vector<AttrId> unstarred;
    std::vector<std::uint64_t> strides;
    std::uint64_t sa_stride = 0;
    std::unordered_map<std::uint64_t, double> mass;
  };
  std::unordered_map<std::uint32_t, MaskBucket> buckets;

  auto bucket_for_mask = [&](std::uint32_t mask) -> MaskBucket& {
    auto [it, inserted] = buckets.try_emplace(mask);
    if (inserted) {
      MaskBucket& b = it->second;
      std::uint64_t stride = 1;
      for (AttrId a = 0; a < d; ++a) {
        if ((mask >> a) & 1u) continue;
        b.unstarred.push_back(a);
        b.strides.push_back(stride);
        stride *= schema.qi(a).domain_size;
      }
      b.sa_stride = stride;
    }
    return it->second;
  };

  for (GroupId g = 0; g < generalized.group_count(); ++g) {
    const std::vector<Value>& sig = generalized.signature(g);
    std::uint32_t mask = 0;
    double volume = 1.0;
    for (AttrId a = 0; a < d; ++a) {
      if (IsStar(sig[a])) {
        mask |= 1u << a;
        volume *= static_cast<double>(schema.qi(a).domain_size);
      }
    }
    MaskBucket& bucket = bucket_for_mask(mask);
    std::unordered_map<SaValue, std::uint32_t> sa_counts;
    for (RowId r : generalized.rows(g)) ++sa_counts[table.sa(r)];
    std::uint64_t base = 0;
    for (std::size_t i = 0; i < bucket.unstarred.size(); ++i) {
      base += bucket.strides[i] * sig[bucket.unstarred[i]];
    }
    for (const auto& [sa, count] : sa_counts) {
      bucket.mass[base + bucket.sa_stride * sa] += static_cast<double>(count) / volume;
    }
  }

  ReferencePointPacker packer(schema);
  double kl = 0.0;
  for (const auto& [key, pc] : ReferenceDistinctPoints(table, packer)) {
    (void)key;
    auto qi = table.qi_row(pc.representative);
    SaValue sa = table.sa(pc.representative);
    double fstar_n = 0.0;
    for (auto& [mask, bucket] : buckets) {
      (void)mask;
      std::uint64_t probe = static_cast<std::uint64_t>(sa) * bucket.sa_stride;
      for (std::size_t i = 0; i < bucket.unstarred.size(); ++i) {
        probe += bucket.strides[i] * qi[bucket.unstarred[i]];
      }
      auto it = bucket.mass.find(probe);
      if (it != bucket.mass.end()) fstar_n += it->second;
    }
    double f = static_cast<double>(pc.count) / n;
    kl += f * std::log(static_cast<double>(pc.count) / fstar_n);
  }
  return kl;
}

double ReferenceKlMultiDim(const Table& table, const BoxGeneralization& gen) {
  if (table.empty()) return 0.0;
  const double n = static_cast<double>(table.size());
  const std::size_t m = table.schema().sa_domain_size();

  std::vector<std::vector<double>> mass(gen.group_count());
  for (std::size_t g = 0; g < gen.group_count(); ++g) {
    mass[g].assign(m, 0.0);
    double volume = gen.box(g).Volume();
    for (RowId r : gen.rows(g)) mass[g][table.sa(r)] += 1.0 / volume;
  }

  const std::size_t attr0_domain = table.schema().qi(0).domain_size;
  std::vector<std::vector<std::uint32_t>> candidates(attr0_domain);
  for (std::size_t g = 0; g < gen.group_count(); ++g) {
    for (Value v = gen.box(g).lo[0]; v < gen.box(g).hi[0]; ++v) {
      candidates[v].push_back(static_cast<std::uint32_t>(g));
    }
  }

  ReferencePointPacker packer(table.schema());
  double kl = 0.0;
  for (const auto& [key, pc] : ReferenceDistinctPoints(table, packer)) {
    (void)key;
    auto qi = table.qi_row(pc.representative);
    SaValue sa = table.sa(pc.representative);
    double fstar_n = 0.0;
    for (std::uint32_t g : candidates[qi[0]]) {
      if (gen.box(g).Contains(qi)) fstar_n += mass[g][sa];
    }
    double f = static_cast<double>(pc.count) / n;
    kl += f * std::log(static_cast<double>(pc.count) / fstar_n);
  }
  return kl;
}

// The dense bucketization estimator the sparse one replaced: a buckets x m
// frequency table, and per distinct (QI, SA) point -- in first-occurrence
// row order -- a sum over every row of the point's QI class.
double ReferenceKlAnatomy(const Table& table, const Partition& buckets) {
  if (table.empty()) return 0.0;
  const double n = static_cast<double>(table.size());
  const std::size_t m = table.schema().sa_domain_size();

  std::vector<std::vector<double>> frequency(buckets.group_count());
  std::vector<std::uint32_t> bucket_of(table.size());
  for (GroupId g = 0; g < buckets.group_count(); ++g) {
    frequency[g].assign(m, 0.0);
    for (RowId r : buckets.group(g)) {
      frequency[g][table.sa(r)] += 1.0 / static_cast<double>(buckets.group(g).size());
      bucket_of[r] = g;
    }
  }

  ReferencePointPacker packer(table.schema());
  std::unordered_map<std::uint64_t, std::uint32_t> classes;
  std::vector<std::uint32_t> class_of(table.size());
  std::vector<std::vector<RowId>> class_rows;
  for (RowId r = 0; r < table.size(); ++r) {
    auto [it, inserted] = classes.try_emplace(packer.Pack(table.qi_row(r), 0),
                                              static_cast<std::uint32_t>(class_rows.size()));
    if (inserted) class_rows.emplace_back();
    class_of[r] = it->second;
    class_rows[it->second].push_back(r);
  }

  std::unordered_map<std::uint64_t, std::size_t> point_index;
  std::vector<ReferencePointCount> points;
  for (RowId r = 0; r < table.size(); ++r) {
    auto [it, inserted] =
        point_index.try_emplace(packer.Pack(table.qi_row(r), table.sa(r)), points.size());
    if (inserted) points.push_back(ReferencePointCount{r, 0});
    ++points[it->second].count;
  }

  double kl = 0.0;
  for (const ReferencePointCount& pc : points) {
    SaValue sa = table.sa(pc.representative);
    double fstar_n = 0.0;
    for (RowId r : class_rows[class_of[pc.representative]]) {
      fstar_n += frequency[bucket_of[r]][sa];
    }
    double f = static_cast<double>(pc.count) / n;
    kl += f * std::log(static_cast<double>(pc.count) / fstar_n);
  }
  return kl;
}

// ---------------------------------------------------------------------------
// Reference TDS: the row-level specialization loop the point-level one
// replaced (every group holds its rows; validation and splits scan them).
// ---------------------------------------------------------------------------

struct ReferenceTdsGroup {
  std::vector<RowId> rows;
  SaHistogram histogram;
  std::vector<std::int32_t> node_ids;  // current taxonomy node per attribute
  bool alive = true;
};

struct ReferenceTdsCandidate {
  double score = 0.0;
  AttrId attr = 0;
  std::int32_t node = -1;

  bool operator<(const ReferenceTdsCandidate& other) const {
    // max-heap by score; deterministic tie-break on (attr, node)
    if (score != other.score) return score < other.score;
    if (attr != other.attr) return attr > other.attr;
    return node > other.node;
  }
};

class ReferenceTdsState {
 public:
  ReferenceTdsState(const Table& table, std::uint32_t l) : table_(table), l_(l) {
    const Schema& schema = table.schema();
    std::size_t d = schema.qi_count();
    for (AttrId a = 0; a < d; ++a) {
      taxonomies_.emplace_back(schema.qi(a).domain_size);
      value_to_node_.emplace_back(schema.qi(a).domain_size, taxonomies_[a].root());
      value_counts_.emplace_back(schema.qi(a).domain_size, 0);
    }
    for (RowId r = 0; r < table.size(); ++r) {
      for (AttrId a = 0; a < d; ++a) ++value_counts_[a][table.qi(r, a)];
    }
    node_groups_.resize(d);

    // Initial state: one group holding everything, every attribute at root.
    ReferenceTdsGroup root_group;
    root_group.rows.resize(table.size());
    for (RowId r = 0; r < table.size(); ++r) root_group.rows[r] = r;
    root_group.histogram = SaHistogram(std::vector<std::uint32_t>(table.SaHistogramCounts()));
    root_group.node_ids.assign(d, 0);
    for (AttrId a = 0; a < d; ++a) {
      root_group.node_ids[a] = taxonomies_[a].root();
      node_groups_[a][taxonomies_[a].root()].push_back(0);
    }
    groups_.push_back(std::move(root_group));

    for (AttrId a = 0; a < d; ++a) PushCandidate(a, taxonomies_[a].root());
  }

  std::uint32_t RunToCompletion() {
    std::uint32_t applied = 0;
    while (!candidates_.empty()) {
      ReferenceTdsCandidate c = candidates_.top();
      candidates_.pop();
      if (TrySpecialize(c.attr, c.node)) {
        ++applied;
        const TaxonomyNode& node = taxonomies_[c.attr].node(c.node);
        PushCandidate(c.attr, node.left);
        PushCandidate(c.attr, node.right);
      }
      // Invalid candidates are discarded permanently: by Lemma 1 an
      // ineligible refinement piece stays ineligible under any further
      // refinement.
    }
    return applied;
  }

  TdsResult BuildResult() {
    TdsResult result;
    result.feasible = true;
    result.generalization = std::make_shared<SingleDimGeneralization>(std::move(taxonomies_),
                                                                      std::move(value_to_node_));
    for (const ReferenceTdsGroup& g : groups_) {
      if (g.alive) result.partition.AddGroup(g.rows);
    }
    return result;
  }

 private:
  void PushCandidate(AttrId a, std::int32_t node_id) {
    const TaxonomyNode& node = taxonomies_[a].node(node_id);
    if (node.is_leaf()) return;
    const TaxonomyNode& left = taxonomies_[a].node(node.left);
    const TaxonomyNode& right = taxonomies_[a].node(node.right);
    double gain = 0.0;
    double log_w = std::log2(static_cast<double>(node.width()));
    for (Value v = node.lo; v < node.hi; ++v) {
      double child_w = (v < left.hi) ? left.width() : right.width();
      gain += static_cast<double>(value_counts_[a][v]) *
              (log_w - std::log2(static_cast<double>(child_w)));
    }
    candidates_.push(ReferenceTdsCandidate{gain, a, node_id});
  }

  // Validates and, when valid, applies the specialization of `node_id` on
  // attribute `a`: every group currently published at that node splits into
  // its left/right pieces; all pieces must stay l-eligible.
  bool TrySpecialize(AttrId a, std::int32_t node_id) {
    auto it = node_groups_[a].find(node_id);
    std::vector<GroupId> affected;
    if (it != node_groups_[a].end()) {
      for (GroupId g : it->second) {
        if (groups_[g].alive && groups_[g].node_ids[a] == node_id) affected.push_back(g);
      }
    }
    const TaxonomyNode& node = taxonomies_[a].node(node_id);
    const Value mid = taxonomies_[a].node(node.left).hi;

    // Validation pass (no mutation).
    SaHistogram left_hist(table_.schema().sa_domain_size());
    SaHistogram right_hist(table_.schema().sa_domain_size());
    for (GroupId g : affected) {
      left_hist = SaHistogram(table_.schema().sa_domain_size());
      right_hist = SaHistogram(table_.schema().sa_domain_size());
      for (RowId r : groups_[g].rows) {
        (table_.qi(r, a) < mid ? left_hist : right_hist).Add(table_.sa(r));
      }
      if (!left_hist.IsEligible(l_) || !right_hist.IsEligible(l_)) return false;
    }

    // Apply: update the cut ...
    for (Value v = node.lo; v < node.hi; ++v) {
      value_to_node_[a][v] = (v < mid) ? node.left : node.right;
    }
    // ... and split the affected groups.
    for (GroupId g : affected) {
      SplitGroup(g, a, mid, node.left, node.right);
    }
    if (it != node_groups_[a].end()) node_groups_[a].erase(it);
    return true;
  }

  void SplitGroup(GroupId g, AttrId a, Value mid, std::int32_t left_node,
                  std::int32_t right_node) {
    std::vector<RowId> left_rows, right_rows;
    for (RowId r : groups_[g].rows) {
      (table_.qi(r, a) < mid ? left_rows : right_rows).push_back(r);
    }
    if (left_rows.empty() || right_rows.empty()) {
      // The group sits entirely inside one child: only its label refines.
      std::int32_t child = left_rows.empty() ? right_node : left_node;
      groups_[g].node_ids[a] = child;
      node_groups_[a][child].push_back(g);
      return;
    }
    groups_[g].alive = false;
    AddChildGroup(g, a, left_node, std::move(left_rows));
    AddChildGroup(g, a, right_node, std::move(right_rows));
  }

  void AddChildGroup(GroupId parent, AttrId a, std::int32_t node_id, std::vector<RowId> rows) {
    ReferenceTdsGroup child;
    child.histogram = SaHistogram(table_.schema().sa_domain_size());
    for (RowId r : rows) child.histogram.Add(table_.sa(r));
    child.rows = std::move(rows);
    child.node_ids = groups_[parent].node_ids;
    child.node_ids[a] = node_id;
    GroupId id = static_cast<GroupId>(groups_.size());
    groups_.push_back(std::move(child));
    for (AttrId attr = 0; attr < table_.qi_count(); ++attr) {
      node_groups_[attr][groups_[id].node_ids[attr]].push_back(id);
    }
  }

  const Table& table_;
  std::uint32_t l_;
  std::vector<Taxonomy> taxonomies_;
  std::vector<std::vector<std::int32_t>> value_to_node_;
  std::vector<std::vector<std::uint64_t>> value_counts_;
  std::vector<ReferenceTdsGroup> groups_;
  // Per attribute: taxonomy node id -> group ids published at that node
  // (entries are validated lazily against the group's current node).
  std::vector<std::unordered_map<std::int32_t, std::vector<GroupId>>> node_groups_;
  std::priority_queue<ReferenceTdsCandidate> candidates_;
};

TdsResult ReferenceRunTds(const Table& table, std::uint32_t l) {
  TdsResult result;
  if (table.empty() || !IsTableEligible(table, l)) {
    result.feasible = table.empty();
    return result;
  }
  ReferenceTdsState state(table, l);
  std::uint32_t applied = state.RunToCompletion();
  result = state.BuildResult();
  result.specializations = applied;
  return result;
}

// ---------------------------------------------------------------------------
// Equivalence tests
// ---------------------------------------------------------------------------

void ExpectSamePartition(const Partition& a, const Partition& b) {
  ASSERT_EQ(a.group_count(), b.group_count());
  for (GroupId g = 0; g < a.group_count(); ++g) {
    EXPECT_EQ(a.group(g), b.group(g)) << "group " << g;
  }
}

void ExpectSameBoxes(const BoxGeneralization& a, const BoxGeneralization& b) {
  ASSERT_EQ(a.group_count(), b.group_count());
  for (std::size_t g = 0; g < a.group_count(); ++g) {
    EXPECT_EQ(a.box(g).lo, b.box(g).lo) << "box " << g;
    EXPECT_EQ(a.box(g).hi, b.box(g).hi) << "box " << g;
    EXPECT_EQ(a.rows(g), b.rows(g)) << "box rows " << g;
  }
}

TEST(MondrianEquivalence, MatchesSeedOnRandomTables) {
  Rng rng(2026);
  struct Shape {
    std::size_t n;
    std::vector<std::size_t> qi_domains;
    std::size_t m;
    std::uint32_t l;
  };
  const Shape shapes[] = {
      {400, {16, 8, 4}, 6, 3},
      {800, {32, 2, 9}, 8, 2},
      {1500, {79, 2, 9, 17}, 10, 6},
      {300, {6, 6}, 5, 2},
      {64, {4}, 2, 2},
  };
  for (const Shape& shape : shapes) {
    Table table = testutil::RandomEligibleTable(rng, shape.n, shape.qi_domains, shape.m, shape.l);
    MondrianResult expected = ReferenceMondrian(table, shape.l);
    Workspace ws;
    MondrianResult actual = MondrianAnonymize(table, shape.l, &ws);
    ASSERT_EQ(expected.feasible, actual.feasible);
    if (!expected.feasible) continue;
    ExpectSamePartition(expected.partition, actual.partition);
    ExpectSameBoxes(expected.generalization, actual.generalization);
  }
}

TEST(MondrianEquivalence, MatchesSeedOnAcsWorkload) {
  Table sal = GenerateSal(3000, 1);
  Table t = sal.ProjectQi({kAge, kGender, kRace, kEducation});
  MondrianResult expected = ReferenceMondrian(t, 6);
  MondrianResult actual = MondrianAnonymize(t, 6);
  ASSERT_TRUE(expected.feasible);
  ASSERT_TRUE(actual.feasible);
  ExpectSamePartition(expected.partition, actual.partition);
  ExpectSameBoxes(expected.generalization, actual.generalization);
}

// The point-level TDS against the row-level reference: the same cut, the
// same partition (group order and row order) and the same number of
// specializations, with the grouping built inside RunTds or supplied.
void ExpectSameTds(const Table& table, std::uint32_t l) {
  SCOPED_TRACE("n=" + std::to_string(table.size()) + " d=" + std::to_string(table.qi_count()) +
               " m=" + std::to_string(table.schema().sa_domain_size()) +
               " l=" + std::to_string(l));
  const TdsResult expected = ReferenceRunTds(table, l);
  const GroupedTable grouped(table);
  for (const TdsResult& actual : {RunTds(table, l), RunTds(table, l, &grouped)}) {
    ASSERT_EQ(expected.feasible, actual.feasible);
    EXPECT_EQ(expected.specializations, actual.specializations);
    ExpectSamePartition(expected.partition, actual.partition);
    ASSERT_EQ(expected.generalization == nullptr, actual.generalization == nullptr);
    if (expected.generalization == nullptr) continue;
    for (AttrId a = 0; a < table.qi_count(); ++a) {
      std::vector<std::int32_t> expected_cut, actual_cut;
      for (Value v = 0; v < table.schema().qi(a).domain_size; ++v) {
        expected_cut.push_back(expected.generalization->NodeFor(a, v));
        actual_cut.push_back(actual.generalization->NodeFor(a, v));
      }
      EXPECT_EQ(expected_cut, actual_cut) << "attribute " << a;
    }
  }
}

TEST(TdsEquivalence, MatchesRowLevelReferenceOnSal) {
  Table sal = GenerateSal(3000, 5);
  for (std::size_t d = 1; d <= kAcsQiCount; ++d) {
    std::vector<AttrId> attrs(d);
    for (std::size_t a = 0; a < d; ++a) attrs[a] = static_cast<AttrId>(a);
    Table t = sal.ProjectQi(attrs);
    for (std::uint32_t l : {2u, 4u, 6u}) ExpectSameTds(t, l);
  }
}

TEST(TdsEquivalence, MatchesRowLevelReferenceOnDegenerateTables) {
  // Identical QI vectors: one point, whatever n is.
  Schema schema = testutil::MakeSchema({8, 3, 5}, 5);
  Table identical(schema);
  for (std::uint32_t i = 0; i < 200; ++i) {
    const std::vector<Value> qi{6, 1, 2};
    identical.AppendRow(qi, i % 5);
  }
  for (std::uint32_t l : {2u, 4u, 5u}) ExpectSameTds(identical, l);

  // m = l: every cell must hold every SA value equally often.
  Rng rng(4061);
  for (std::uint32_t l : {2u, 3u}) {
    ExpectSameTds(testutil::RandomEligibleTable(rng, 600, {16, 8, 4}, l, l), l);
  }
  // Random shapes, wide and narrow domains.
  ExpectSameTds(testutil::RandomEligibleTable(rng, 900, {79, 2, 9, 17}, 10, 4), 4);
  ExpectSameTds(testutil::RandomEligibleTable(rng, 500, {300, 250}, 6, 2), 2);

  // A single row: 1-diverse, never 2-diverse.
  Table single(schema);
  const std::vector<Value> qi{3, 0, 4};
  single.AppendRow(qi, 2);
  ExpectSameTds(single, 1);
  ExpectSameTds(single, 2);

  // An infeasible table: one SA value throughout.
  Table infeasible(schema);
  for (Value v = 0; v < 8; ++v) {
    const std::vector<Value> row{v, v % 3, v % 5};
    infeasible.AppendRow(row, 0);
  }
  ExpectSameTds(infeasible, 2);
}

TEST(KlEquivalence, SuppressionMatchesSeedAcrossAlgorithms) {
  Rng rng(4051);
  for (int trial = 0; trial < 4; ++trial) {
    Table table = testutil::RandomEligibleTable(rng, 300, {8, 6, 4}, 5, 3);
    for (Algorithm algo : {Algorithm::kTp, Algorithm::kTpPlus, Algorithm::kHilbert}) {
      AnonymizationOutcome outcome = Anonymize(table, 3, algo);
      ASSERT_TRUE(outcome.feasible);
      GeneralizedTable gen(table, outcome.partition);
      double expected = ReferenceKlSuppression(table, gen);
      double actual = KlDivergenceSuppression(table, gen);
      // The flat rewrite sums in first-occurrence order instead of hash-
      // bucket order, so agreement is to rounding, not bit-for-bit.
      EXPECT_NEAR(actual, expected, 1e-9) << "trial " << trial;
    }
  }
}

TEST(KlEquivalence, MultiDimMatchesSeedOnMondrianBoxes) {
  Rng rng(4053);
  for (int trial = 0; trial < 4; ++trial) {
    Table table = testutil::RandomEligibleTable(rng, 500, {16, 9, 5}, 6, 2);
    MondrianResult mondrian = MondrianAnonymize(table, 2);
    ASSERT_TRUE(mondrian.feasible);
    double expected = ReferenceKlMultiDim(table, mondrian.generalization);
    double actual = KlDivergenceMultiDim(table, mondrian.generalization);
    EXPECT_NEAR(actual, expected, 1e-9) << "trial " << trial;
  }
}

// Partitions Anatomy never produces: rows in a seeded shuffle, cut into
// buckets whose sizes cycle through `sizes`. Buckets repeat SA values, and
// 1/size is inexact for sizes 3, 5 and 7, so repeated additions round.
Partition ShuffledBuckets(const Table& table, std::vector<std::size_t> sizes, Rng& rng) {
  std::vector<RowId> rows(table.size());
  for (RowId r = 0; r < table.size(); ++r) rows[r] = r;
  rng.Shuffle(rows);
  Partition partition;
  std::size_t next = 0;
  for (std::size_t b = 0; next < rows.size(); ++b) {
    std::size_t size = std::min(sizes[b % sizes.size()], rows.size() - next);
    partition.AddGroup(std::vector<RowId>(rows.begin() + next, rows.begin() + next + size));
    next += size;
  }
  return partition;
}

TEST(KlEquivalence, AnatomyIsBitIdenticalToTheDenseEstimator) {
  Rng rng(4057);
  struct Shape {
    std::size_t n;
    std::vector<std::size_t> qi_domains;
    std::size_t m;
    std::vector<std::size_t> sizes;
  };
  const Shape shapes[] = {
      {700, {8, 6, 4}, 5, {3, 5, 7}},  // inexact 1/size, repeated SA values
      {900, {3, 2}, 9, {7}},           // few QI classes, each spread over many buckets
      {400, {1, 1}, 6, {3, 5}},        // one QI class holds the whole table
      {500, {16, 9}, 2, {3, 5, 7}},    // m = 2
      {256, {4, 4, 4}, 7, {256}},      // one bucket holds the whole table
  };
  for (const Shape& shape : shapes) {
    for (int trial = 0; trial < 3; ++trial) {
      Table table = testutil::RandomEligibleTable(rng, shape.n, shape.qi_domains, shape.m, 2);
      Partition buckets = ShuffledBuckets(table, shape.sizes, rng);
      ASSERT_TRUE(buckets.CoversExactly(table));
      const double expected = ReferenceKlAnatomy(table, buckets);
      EXPECT_EQ(KlDivergenceAnatomy(table, buckets), expected)
          << "n=" << shape.n << " m=" << shape.m << " trial " << trial;
      EXPECT_EQ(KlDivergenceAnatomy(table, Partition::SingleGroup(table)),
                ReferenceKlAnatomy(table, Partition::SingleGroup(table)));
    }
  }
}

TEST(KlEquivalence, AnatomyIsBitIdenticalOnAnatomyBucketsAndTheEmptyTable) {
  Table sal = GenerateSal(4000, 3);
  Table t = sal.ProjectQi({kAge, kGender, kRace, kEducation});
  for (std::uint32_t l : {2u, 4u, 6u}) {
    AnonymizationOutcome outcome = Anonymize(t, l, Algorithm::kAnatomy);
    ASSERT_TRUE(outcome.feasible);
    EXPECT_EQ(KlDivergenceAnatomy(t, outcome.partition),
              ReferenceKlAnatomy(t, outcome.partition))
        << "l=" << l;
  }
  Table empty(testutil::MakeSchema({4, 3}, 5));
  EXPECT_EQ(KlDivergenceAnatomy(empty, Partition()), 0.0);
  EXPECT_EQ(ReferenceKlAnatomy(empty, Partition()), 0.0);
}

TEST(WorkspaceEquivalence, ReusedWorkspaceGivesIdenticalOutcomes) {
  // Run every algorithm three ways -- fresh workspace, first reuse, second
  // reuse -- and require bit-identical outcomes: a workspace must never
  // leak state between solves.
  Rng rng(4055);
  Table table = testutil::RandomEligibleTable(rng, 400, {8, 8, 3}, 6, 3);
  Workspace ws;
  for (Algorithm algo : kAllAlgorithms) {
    AnonymizationOutcome fresh = Anonymize(table, 3, algo, AnonymizerOptions{});
    AnonymizationOutcome reused1 = Anonymize(table, 3, algo, AnonymizerOptions{}, &ws);
    AnonymizationOutcome reused2 = Anonymize(table, 3, algo, AnonymizerOptions{}, &ws);
    ASSERT_TRUE(fresh.feasible) << AlgorithmName(algo);
    for (const AnonymizationOutcome* outcome : {&reused1, &reused2}) {
      ASSERT_TRUE(outcome->feasible) << AlgorithmName(algo);
      EXPECT_EQ(fresh.stars, outcome->stars) << AlgorithmName(algo);
      EXPECT_EQ(fresh.suppressed_tuples, outcome->suppressed_tuples) << AlgorithmName(algo);
      EXPECT_EQ(fresh.kl_divergence, outcome->kl_divergence) << AlgorithmName(algo);
      ExpectSamePartition(fresh.partition, outcome->partition);
    }
  }
}

// ---------------------------------------------------------------------------
// Thread-count equivalence: the intra-run parallel kernels must produce
// byte-identical output at any thread budget. The tables are large enough
// that every parallel path actually engages (multiple ParallelFor chunks,
// a Mondrian frontier, several KL reduction chunks) even though the
// sequential references below run the same code inline at budget 1.
// ---------------------------------------------------------------------------

// Restores the process-wide thread budget however a test exits.
class ThreadCountEquivalence : public ::testing::Test {
 protected:
  void TearDown() override { SetThreadBudget(0); }
};

TEST_F(ThreadCountEquivalence, KernelsAreByteIdenticalAcrossThreadBudgets) {
  Table sal = GenerateSal(20000, 1);
  Table t = sal.ProjectQi({kAge, kGender, kRace, kEducation});

  SetThreadBudget(1);
  Workspace ref_ws;
  HilbertResult greedy_ref = HilbertAnonymize(t, 6, {}, &ref_ws);
  MondrianResult mondrian_ref = MondrianAnonymize(t, 6, &ref_ws);
  GroupedTable grouped_ref(t, &ref_ws);
  TpResult tp = RunTp(t, 6);
  GeneralizedTable generalized(t, tp.ToPartition());
  const double kl_suppression_ref = KlDivergenceSuppression(t, generalized);
  const double kl_multidim_ref = KlDivergenceMultiDim(t, mondrian_ref.generalization);

  for (unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetThreadBudget(threads);
    Workspace ws;

    HilbertResult greedy = HilbertAnonymize(t, 6, {}, &ws);
    ExpectSamePartition(greedy_ref.partition, greedy.partition);

    MondrianResult mondrian = MondrianAnonymize(t, 6, &ws);
    ExpectSamePartition(mondrian_ref.partition, mondrian.partition);
    ExpectSameBoxes(mondrian_ref.generalization, mondrian.generalization);

    GroupedTable grouped(t, &ws);
    ASSERT_EQ(grouped_ref.group_count(), grouped.group_count());
    for (GroupId g = 0; g < grouped_ref.group_count(); ++g) {
      const QiGroup& ref = grouped_ref.group(g);
      const QiGroup& got = grouped.group(g);
      ASSERT_TRUE(std::ranges::equal(ref.qi_values, got.qi_values)) << "group " << g;
      ASSERT_TRUE(std::ranges::equal(ref.rows, got.rows)) << "group " << g;
      ASSERT_TRUE(std::ranges::equal(ref.sa_runs, got.sa_runs)) << "group " << g;
    }

    // Bit-equality, not near-equality: the estimators' chunk geometry and
    // combine order are fixed, so the doubles cannot drift.
    EXPECT_EQ(KlDivergenceSuppression(t, generalized), kl_suppression_ref);
    EXPECT_EQ(KlDivergenceMultiDim(t, mondrian.generalization), kl_multidim_ref);
  }
}

TEST_F(ThreadCountEquivalence, KlGroupedFormMatchesTableOnlyForm) {
  // Each point-based estimator with the GroupedTable supplied and without
  // it (building its own), at 1 and 4 threads: the same bits in every cell.
  Table sal = GenerateSal(20000, 1);
  Table t = sal.ProjectQi({kAge, kGender, kRace, kEducation});
  const GroupedTable grouped(t);
  GeneralizedTable generalized(t, RunTp(grouped, 6).ToPartition());
  const MondrianResult mondrian = MondrianAnonymize(t, 6);
  const TdsResult tds = RunTds(t, 6, &grouped);
  ASSERT_TRUE(mondrian.feasible);
  ASSERT_TRUE(tds.feasible);

  SetThreadBudget(1);
  const double suppression = KlDivergenceSuppression(t, generalized);
  const double multidim = KlDivergenceMultiDim(t, mondrian.generalization);
  const double singledim = KlDivergenceSingleDim(t, *tds.generalization);
  EXPECT_GT(suppression, 0.0);
  EXPECT_GT(multidim, 0.0);
  EXPECT_GT(singledim, 0.0);
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetThreadBudget(threads);
    EXPECT_EQ(KlDivergenceSuppression(t, generalized, &grouped), suppression);
    EXPECT_EQ(KlDivergenceSuppression(t, generalized), suppression);
    EXPECT_EQ(KlDivergenceMultiDim(t, mondrian.generalization, &grouped), multidim);
    EXPECT_EQ(KlDivergenceMultiDim(t, mondrian.generalization), multidim);
    EXPECT_EQ(KlDivergenceSingleDim(t, *tds.generalization, &grouped), singledim);
    EXPECT_EQ(KlDivergenceSingleDim(t, *tds.generalization), singledim);
  }
}

TEST_F(ThreadCountEquivalence, OutcomesAreBitIdenticalAcrossThreadBudgets) {
  // The full Anonymize path (solve + shared post-processing) for every
  // registered algorithm, budget 1 vs oversubscribed budgets.
  Table sal = GenerateSal(12000, 1);
  Table t = sal.ProjectQi({kAge, kRace, kEducation});

  SetThreadBudget(1);
  std::vector<AnonymizationOutcome> reference;
  for (Algorithm algo : kAllAlgorithms) {
    reference.push_back(Anonymize(t, 4, algo, AnonymizerOptions{}));
    ASSERT_TRUE(reference.back().feasible) << AlgorithmName(algo);
  }

  for (unsigned threads : {2u, 4u}) {
    SetThreadBudget(threads);
    Workspace ws;
    for (std::size_t i = 0; i < kAllAlgorithms.size(); ++i) {
      const Algorithm algo = kAllAlgorithms[i];
      SCOPED_TRACE(std::string(AlgorithmName(algo)) + " threads=" + std::to_string(threads));
      AnonymizationOutcome outcome = Anonymize(t, 4, algo, AnonymizerOptions{}, &ws);
      ASSERT_TRUE(outcome.feasible);
      EXPECT_EQ(reference[i].stars, outcome.stars);
      EXPECT_EQ(reference[i].suppressed_tuples, outcome.suppressed_tuples);
      EXPECT_EQ(reference[i].kl_divergence, outcome.kl_divergence);
      ExpectSamePartition(reference[i].partition, outcome.partition);
    }
  }
}

// Restores both the thread budget and the SIMD dispatch level however a
// test exits.
class SimdEquivalence : public ::testing::Test {
 protected:
  void TearDown() override {
    SetThreadBudget(0);
    simd::ForceLevel(simd::DetectedLevel());
  }
};

TEST_F(SimdEquivalence, OutcomesAreBitIdenticalAcrossSimdLevelsAndThreads) {
  // The full {scalar, avx2} x {1, 2, 4}-thread matrix (avx2 is skipped on
  // hosts that lack it). The scalar
  // 1-thread corner is the reference; every other cell must reproduce its
  // releases and KL doubles bit-for-bit -- the determinism contract of the
  // SIMD layer, not just of the thread scheduler.
  Table sal = GenerateSal(12000, 1);
  Table t = sal.ProjectQi({kAge, kRace, kEducation});

  simd::ForceLevel(simd::Level::kScalar);
  SetThreadBudget(1);
  std::vector<AnonymizationOutcome> reference;
  for (Algorithm algo : kAllAlgorithms) {
    reference.push_back(Anonymize(t, 4, algo, AnonymizerOptions{}));
    ASSERT_TRUE(reference.back().feasible) << AlgorithmName(algo);
  }
  Workspace ref_ws;
  GroupedTable grouped_ref(t, &ref_ws);

  for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    if (level > simd::DetectedLevel()) continue;
    simd::ForceLevel(level);
    ASSERT_EQ(simd::ActiveLevel(), level);
    for (unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string("simd=") + simd::LevelName(level) +
                   " threads=" + std::to_string(threads));
      SetThreadBudget(threads);
      Workspace ws;

      GroupedTable grouped(t, &ws);
      ASSERT_EQ(grouped_ref.group_count(), grouped.group_count());
      for (GroupId g = 0; g < grouped_ref.group_count(); ++g) {
        const QiGroup& ref = grouped_ref.group(g);
        const QiGroup& got = grouped.group(g);
        ASSERT_TRUE(std::ranges::equal(ref.qi_values, got.qi_values)) << "group " << g;
        ASSERT_TRUE(std::ranges::equal(ref.rows, got.rows)) << "group " << g;
        ASSERT_TRUE(std::ranges::equal(ref.sa_runs, got.sa_runs)) << "group " << g;
      }

      for (std::size_t i = 0; i < kAllAlgorithms.size(); ++i) {
        const Algorithm algo = kAllAlgorithms[i];
        AnonymizationOutcome outcome = Anonymize(t, 4, algo, AnonymizerOptions{}, &ws);
        ASSERT_TRUE(outcome.feasible) << AlgorithmName(algo);
        EXPECT_EQ(reference[i].stars, outcome.stars) << AlgorithmName(algo);
        EXPECT_EQ(reference[i].suppressed_tuples, outcome.suppressed_tuples)
            << AlgorithmName(algo);
        EXPECT_EQ(reference[i].kl_divergence, outcome.kl_divergence) << AlgorithmName(algo);
        ExpectSamePartition(reference[i].partition, outcome.partition);
      }
    }
  }
}

TEST(WorkspaceEquivalence, MixedAlgorithmsShareOneWorkspace) {
  // Interleave algorithms on one workspace (the AnonymizeBatch worker
  // regime) and compare against fresh runs.
  Table sal = GenerateSal(2000, 7);
  Table t = sal.ProjectQi({kAge, kRace, kEducation});
  Workspace ws;
  for (int round = 0; round < 2; ++round) {
    for (Algorithm algo : kAllAlgorithms) {
      AnonymizationOutcome fresh = Anonymize(t, 4, algo, AnonymizerOptions{});
      AnonymizationOutcome shared = Anonymize(t, 4, algo, AnonymizerOptions{}, &ws);
      ASSERT_EQ(fresh.feasible, shared.feasible) << AlgorithmName(algo);
      if (!fresh.feasible) continue;
      EXPECT_EQ(fresh.stars, shared.stars) << AlgorithmName(algo);
      EXPECT_EQ(fresh.kl_divergence, shared.kl_divergence) << AlgorithmName(algo);
      ExpectSamePartition(fresh.partition, shared.partition);
    }
  }
}

}  // namespace
}  // namespace ldv
