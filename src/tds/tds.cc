#include "tds/tds.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <queue>
#include <unordered_map>

#include "anonymity/eligibility.h"
#include "common/check.h"
#include "common/histogram.h"

namespace ldv {

// ---------------------------------------------------------------------------
// SingleDimGeneralization
// ---------------------------------------------------------------------------

SingleDimGeneralization::SingleDimGeneralization(
    std::vector<Taxonomy> taxonomies, std::vector<std::vector<std::int32_t>> value_to_node)
    : taxonomies_(std::move(taxonomies)), value_to_node_(std::move(value_to_node)) {
  LDIV_CHECK_EQ(taxonomies_.size(), value_to_node_.size());
}

double SingleDimGeneralization::CellVolume(std::span<const Value> qi) const {
  LDIV_CHECK_EQ(qi.size(), taxonomies_.size());
  double volume = 1.0;
  for (std::size_t a = 0; a < qi.size(); ++a) {
    volume *= CellWidth(static_cast<AttrId>(a), qi[a]);
  }
  return volume;
}

// ---------------------------------------------------------------------------
// RunTds
// ---------------------------------------------------------------------------

namespace {

// One published cell of the current cut. It holds QI points -- groups of
// the GroupedTable, each one distinct QI vector with its SA runs -- rather
// than rows: every row of a point shares the point's QI values, so each
// test and split below is decided once per point.
struct TdsGroup {
  std::vector<GroupId> points;
  std::vector<std::int32_t> node_ids;  // current taxonomy node per attribute
  bool alive = true;
};

struct Candidate {
  double score = 0.0;
  AttrId attr = 0;
  std::int32_t node = -1;

  bool operator<(const Candidate& other) const {
    // max-heap by score; deterministic tie-break on (attr, node)
    if (score != other.score) return score < other.score;
    if (attr != other.attr) return attr > other.attr;
    return node > other.node;
  }
};

class TdsState {
 public:
  TdsState(const Schema& schema, const GroupedTable& grouped, std::uint32_t l)
      : grouped_(grouped), l_(l), d_(schema.qi_count()) {
    for (AttrId a = 0; a < d_; ++a) {
      taxonomies_.emplace_back(schema.qi(a).domain_size);
      value_to_node_.emplace_back(schema.qi(a).domain_size, taxonomies_[a].root());
      value_counts_.emplace_back(schema.qi(a).domain_size, 0);
    }
    for (const QiGroup& point : grouped.groups()) {
      for (AttrId a = 0; a < d_; ++a) value_counts_[a][point.qi_values[a]] += point.size();
    }
    node_groups_.resize(d_);

    // Initial state: one group holding everything, every attribute at root.
    TdsGroup root_group;
    root_group.points.resize(grouped.group_count());
    for (GroupId p = 0; p < grouped.group_count(); ++p) root_group.points[p] = p;
    root_group.node_ids.assign(d_, 0);
    for (AttrId a = 0; a < d_; ++a) {
      root_group.node_ids[a] = taxonomies_[a].root();
      node_groups_[a][taxonomies_[a].root()].push_back(0);
    }
    groups_.push_back(std::move(root_group));

    for (AttrId a = 0; a < d_; ++a) PushCandidate(a, taxonomies_[a].root());
  }

  std::uint32_t RunToCompletion() {
    std::uint32_t applied = 0;
    while (!candidates_.empty()) {
      Candidate c = candidates_.top();
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

  // Expands the live groups to rows: one pass labels every row with its
  // group's rank, one counting pass in ascending row order fills the
  // groups, so each lists its rows ascending, as a row-level split would.
  TdsResult BuildResult() {
    TdsResult result;
    result.feasible = true;
    result.generalization = std::make_shared<SingleDimGeneralization>(std::move(taxonomies_),
                                                                      std::move(value_to_node_));
    std::vector<std::vector<RowId>> cells;
    std::vector<std::uint32_t> cell_of(grouped_.row_count());
    for (const TdsGroup& g : groups_) {
      if (!g.alive) continue;
      const auto cell = static_cast<std::uint32_t>(cells.size());
      std::size_t size = 0;
      for (GroupId p : g.points) {
        for (RowId r : grouped_.group(p).rows) cell_of[r] = cell;
        size += grouped_.group(p).size();
      }
      cells.emplace_back().reserve(size);
    }
    for (RowId r = 0; r < cell_of.size(); ++r) cells[cell_of[r]].push_back(r);
    result.partition = Partition(std::move(cells));
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
    candidates_.push(Candidate{gain, a, node_id});
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

    // Validation pass (no mutation): each point adds its SA runs to the
    // side its value of `a` falls on.
    for (GroupId g : affected) {
      SaHistogram left_hist(grouped_.sa_domain_size());
      SaHistogram right_hist(grouped_.sa_domain_size());
      for (GroupId p : groups_[g].points) {
        const QiGroup& point = grouped_.group(p);
        SaHistogram& side = point.qi_values[a] < mid ? left_hist : right_hist;
        for (std::size_t i = 0; i < point.sa_runs.size(); ++i) {
          side.Add(point.sa_runs[i].first, point.RunLength(i));
        }
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
    std::vector<GroupId> left_points, right_points;
    for (GroupId p : groups_[g].points) {
      (grouped_.group(p).qi_values[a] < mid ? left_points : right_points).push_back(p);
    }
    if (left_points.empty() || right_points.empty()) {
      // The group sits entirely inside one child: only its label refines.
      std::int32_t child = left_points.empty() ? right_node : left_node;
      groups_[g].node_ids[a] = child;
      node_groups_[a][child].push_back(g);
      return;
    }
    groups_[g].alive = false;
    groups_[g].points = {};
    AddChildGroup(g, a, left_node, std::move(left_points));
    AddChildGroup(g, a, right_node, std::move(right_points));
  }

  void AddChildGroup(GroupId parent, AttrId a, std::int32_t node_id,
                     std::vector<GroupId> points) {
    TdsGroup child;
    child.points = std::move(points);
    child.node_ids = groups_[parent].node_ids;
    child.node_ids[a] = node_id;
    GroupId id = static_cast<GroupId>(groups_.size());
    groups_.push_back(std::move(child));
    for (AttrId attr = 0; attr < d_; ++attr) {
      node_groups_[attr][groups_[id].node_ids[attr]].push_back(id);
    }
  }

  const GroupedTable& grouped_;
  std::uint32_t l_;
  std::size_t d_;
  std::vector<Taxonomy> taxonomies_;
  std::vector<std::vector<std::int32_t>> value_to_node_;
  std::vector<std::vector<std::uint64_t>> value_counts_;
  std::vector<TdsGroup> groups_;
  // Per attribute: taxonomy node id -> group ids published at that node
  // (entries are validated lazily against the group's current node).
  std::vector<std::unordered_map<std::int32_t, std::vector<GroupId>>> node_groups_;
  std::priority_queue<Candidate> candidates_;
};

}  // namespace

TdsResult RunTds(const Table& table, std::uint32_t l, const GroupedTable* grouped) {
  TdsResult result;
  if (table.empty() || !IsTableEligible(table, l)) {
    result.feasible = table.empty();
    return result;
  }
  std::optional<GroupedTable> local;
  if (grouped == nullptr) grouped = &local.emplace(table);
  auto start = std::chrono::steady_clock::now();
  TdsState state(table.schema(), *grouped, l);
  std::uint32_t applied = state.RunToCompletion();
  result = state.BuildResult();
  result.specializations = applied;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

}  // namespace ldv
