#include "metrics/kl_divergence.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/flat_map.h"
#include "common/parallel.h"
#include "common/simd.h"

namespace ldv {

namespace {

// One distinct data point (QI vector, SA value) of the table: one SA run of
// QI group `group` of the GroupedTable, with the run's length as its
// multiplicity.
struct DataPoint {
  GroupId group = 0;
  SaValue sa = 0;
  std::uint32_t count = 0;
};

// The distinct data points of `grouped` in first-occurrence row order. The
// estimators sum their terms in this order, and the recorded KL bits
// depend on it. A group lists the rows of one SA value in ascending order,
// so a run's first row is its point's first occurrence; a scatter by that
// row puts the points in order in O(n + p), without a sort.
std::vector<DataPoint> FirstOccurrencePoints(const GroupedTable& grouped) {
  constexpr std::uint32_t kNoPoint = std::numeric_limits<std::uint32_t>::max();
  std::vector<DataPoint> points;
  std::vector<std::uint32_t> point_at(grouped.row_count(), kNoPoint);
  for (GroupId g = 0; g < grouped.group_count(); ++g) {
    const QiGroup& group = grouped.group(g);
    for (std::size_t i = 0; i < group.sa_runs.size(); ++i) {
      const RowId first = group.rows[group.sa_runs[i].second];
      point_at[first] = static_cast<std::uint32_t>(points.size());
      points.push_back(DataPoint{g, group.sa_runs[i].first, group.RunLength(i)});
    }
  }
  std::vector<DataPoint> ordered;
  ordered.reserve(points.size());
  for (std::uint32_t p : point_at) {
    if (p != kNoPoint) ordered.push_back(points[p]);
  }
  return ordered;
}

// Exact numbering of the distinct projections of QI vectors onto the
// unstarred attributes of one star pattern, in order of first addition.
// Open-addressed slots hold a hash tag and a projection id; a probe
// compares the full projection of any slot whose tag matches, so ids are
// exact for any number of attributes and any domain sizes.
class Projections {
 public:
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  explicit Projections(std::vector<AttrId> unstarred) : unstarred_(std::move(unstarred)) {
    for (AttrId a : unstarred_) multipliers_.push_back(MixU64(a) | 1u);
  }

  // The id of the projection of QI vector `qi`, added when absent.
  std::uint32_t FindOrAdd(const Value* qi) {
    if (4 * (count_ + 1) > 3 * slots_.size()) Grow();
    const std::uint64_t hash = Hash(qi);
    Slot& slot = slots_[Probe(qi, hash)];
    if (slot.tag == kEmpty) {
      slot = Slot{Tag(hash), count_++};
      for (AttrId a : unstarred_) values_.push_back(qi[a]);
    }
    return slot.id;
  }

  // The id of the projection of `qi`, or kNone.
  std::uint32_t Find(const Value* qi) const {
    const Slot& slot = slots_[Probe(qi, Hash(qi))];
    return slot.tag != kEmpty ? slot.id : kNone;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0;
  struct Slot {
    std::uint32_t tag = kEmpty;  // high hash bits, never kEmpty when used
    std::uint32_t id = 0;
  };

  static std::uint32_t Tag(std::uint64_t hash) {
    return static_cast<std::uint32_t>(hash >> 32) | 1u;
  }

  // Independent multiply-adds over the projection of `qi`, then one
  // full-avalanche mix.
  std::uint64_t Hash(const Value* qi) const {
    std::uint64_t hash = 0;
    for (std::size_t k = 0; k < unstarred_.size(); ++k) {
      hash += multipliers_[k] * qi[unstarred_[k]];
    }
    return MixU64(hash);
  }

  // The slot holding the projection of `qi`, or the empty slot where it
  // would go.
  std::size_t Probe(const Value* qi, std::uint64_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    const std::size_t w = unstarred_.size();
    const std::uint32_t tag = Tag(hash);
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.tag == kEmpty) return i;
      if (slot.tag != tag) continue;
      const Value* values = values_.data() + slot.id * w;
      std::size_t k = 0;
      while (k < w && values[k] == qi[unstarred_[k]]) ++k;
      if (k == w) return i;
    }
  }

  // Doubles the slots (at least 16) and re-files every projection, with
  // Hash's sum over its stored values.
  void Grow() {
    slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), Slot{});
    const std::size_t mask = slots_.size() - 1;
    const std::size_t w = unstarred_.size();
    for (std::uint32_t id = 0; id < count_; ++id) {
      std::uint64_t hash = 0;
      for (std::size_t k = 0; k < w; ++k) hash += multipliers_[k] * values_[id * w + k];
      hash = MixU64(hash);
      std::size_t i = hash & mask;
      while (slots_[i].tag != kEmpty) i = (i + 1) & mask;
      slots_[i] = Slot{Tag(hash), id};
    }
  }

  std::vector<AttrId> unstarred_;
  std::vector<std::uint64_t> multipliers_;  // one odd multiplier per unstarred attribute
  std::vector<Slot> slots_;                 // power-of-two size, at most 3/4 full
  std::vector<Value> values_;               // projection id's values at [id*w, (id+1)*w)
  std::uint32_t count_ = 0;
};

// Chunk sizes of the parallel per-point accumulation in the estimators
// below. The partial sums are combined in ascending chunk order
// (ParallelReduce), so the floating-point result is a function of the
// grain alone, never of the thread count. The two estimators tune
// differently (bench_micro on SAL-7 100k, ~95k distinct points): a
// suppression point costs a handful of flat-map probes, so small chunks
// just add per-chunk overhead (grain 1024 measured 8.65 ms vs 8.13 ms at
// 4096); a multi-dim point costs hundreds of box probes, so smaller chunks
// help the parallel split (56.6 ms at 1024 vs 57.6 ms at 4096).
constexpr std::size_t kKlSuppressionPointGrain = 4096;
constexpr std::size_t kKlMultiDimPointGrain = 1024;

}  // namespace

double KlDivergenceSuppression(const Table& table, const GeneralizedTable& generalized,
                               const GroupedTable* grouped) {
  if (table.empty()) return 0.0;
  const Schema& schema = table.schema();
  const std::size_t d = table.qi_count();
  const double n = static_cast<double>(table.size());
  const std::size_t m = schema.sa_domain_size();

  // The groups of T* by star pattern (numbered in order of first
  // occurrence). Per pattern, a cell is (projection id, SA) -- an exact
  // 64-bit key -- and its mass sums its groups' count / volume in group
  // order.
  struct StarPattern {
    Projections projections;
    FlatMap<double> mass;
  };
  const auto cell = [](std::uint32_t projection, SaValue sa) {
    return (std::uint64_t{projection} << 32) | sa;
  };
  std::vector<StarPattern> patterns;
  std::map<std::vector<AttrId>, std::size_t> pattern_index;

  // Dense per-group SA counter, reset through the touched list.
  std::vector<std::uint32_t> sa_counts(m, 0);
  std::vector<SaValue> sa_touched;
  std::vector<AttrId> unstarred;
  for (GroupId g = 0; g < generalized.group_count(); ++g) {
    const std::vector<Value>& sig = generalized.signature(g);
    unstarred.clear();
    double volume = 1.0;
    for (AttrId a = 0; a < d; ++a) {
      if (IsStar(sig[a])) {
        volume *= static_cast<double>(schema.qi(a).domain_size);
      } else {
        unstarred.push_back(a);
      }
    }
    auto [slot, inserted] = pattern_index.try_emplace(unstarred, patterns.size());
    if (inserted) patterns.push_back(StarPattern{Projections(unstarred), {}});
    StarPattern& pattern = patterns[slot->second];
    const std::uint32_t projection = pattern.projections.FindOrAdd(sig.data());
    // SA counts of the group.
    sa_touched.clear();
    for (RowId r : generalized.rows(g)) {
      SaValue v = table.sa(r);
      if (sa_counts[v]++ == 0) sa_touched.push_back(v);
    }
    for (SaValue v : sa_touched) {
      pattern.mass[cell(projection, v)] += static_cast<double>(sa_counts[v]) / volume;
      sa_counts[v] = 0;
    }
  }

  // n * f*(p) for every distinct point p, summed over the patterns in
  // their order: per pattern, each QI group's projection is looked up
  // once, then each of its points probes its exact cell. Every pass
  // writes only its own chunk's points.
  Workspace ws;
  std::optional<GroupedTable> local;
  if (grouped == nullptr) grouped = &local.emplace(table, &ws);
  const std::vector<DataPoint> points = FirstOccurrencePoints(*grouped);
  std::vector<double> fstar_n(points.size(), 0.0);
  std::vector<std::uint32_t> projection_of(grouped->group_count());
  for (const StarPattern& pattern : patterns) {
    ParallelFor(projection_of.size(), kKlSuppressionPointGrain, ws,
                [&](std::size_t begin, std::size_t end, Workspace&) {
                  for (GroupId g = begin; g < end; ++g) {
                    projection_of[g] =
                        pattern.projections.Find(grouped->group(g).qi_values.data());
                  }
                });
    ParallelFor(points.size(), kKlSuppressionPointGrain, ws,
                [&](std::size_t begin, std::size_t end, Workspace&) {
                  for (std::size_t p = begin; p < end; ++p) {
                    const std::uint32_t projection = projection_of[points[p].group];
                    if (projection == Projections::kNone) continue;
                    const double* mass = pattern.mass.Find(cell(projection, points[p].sa));
                    if (mass != nullptr) fstar_n[p] += *mass;
                  }
                });
  }

  // The p*log(p/q) terms, folded in fixed chunks combined in chunk order.
  return ParallelReduce(
      points.size(), kKlSuppressionPointGrain, ws, 0.0,
      [&](std::size_t begin, std::size_t end, Workspace&) {
        double partial = 0.0;
        for (std::size_t p = begin; p < end; ++p) {
          const DataPoint& pc = points[p];
          LDIV_CHECK_GT(fstar_n[p], 0.0) << "f* must cover every data point";
          partial += (pc.count / n) * std::log(pc.count / fstar_n[p]);
        }
        return partial;
      },
      std::plus<double>());
}

double KlDivergenceMultiDim(const Table& table, const BoxGeneralization& gen,
                            const GroupedTable* grouped) {
  if (table.empty()) return 0.0;
  const double n = static_cast<double>(table.size());
  const std::size_t m = table.schema().sa_domain_size();
  const std::size_t d = table.qi_count();

  Workspace ws;
  const std::size_t group_count = gen.group_count();
  const std::size_t group_grain = std::max<std::size_t>(64, (group_count + 63) / 64);

  // Per-group SA histograms, flattened to one dense (group, SA) array so
  // the stabbing loop below does one indexed load per hit. Each group
  // writes only its own slice, so groups accumulate in parallel chunks
  // with identical per-group arithmetic.
  std::vector<double> mass(group_count * m, 0.0);  // n*f* weight per (group, SA)
  ParallelFor(group_count, group_grain, ws,
              [&](std::size_t gb, std::size_t ge, Workspace&) {
                for (std::size_t g = gb; g < ge; ++g) {
                  double volume = gen.box(g).Volume();
                  for (RowId r : gen.rows(g)) mass[g * m + table.sa(r)] += 1.0 / volume;
                }
              });

  // Flattened box bounds in struct-of-arrays layout: one lo array and one
  // hi array per attribute, each indexed by group, so the stabbing kernel
  // can gather a vector of candidates' bounds per compare. (Domain codes
  // are far below 2^31, the kernel's signed-compare precondition.)
  std::vector<Value> bounds(2 * d * group_count);
  std::vector<const std::uint32_t*> lo_ptr(d), hi_ptr(d);
  for (std::size_t a = 0; a < d; ++a) {
    lo_ptr[a] = bounds.data() + a * group_count;
    hi_ptr[a] = bounds.data() + (d + a) * group_count;
  }
  ParallelFor(group_count, group_grain, ws,
              [&](std::size_t gb, std::size_t ge, Workspace&) {
                for (std::size_t g = gb; g < ge; ++g) {
                  const QiBox& box = gen.box(g);
                  for (std::size_t a = 0; a < d; ++a) {
                    bounds[a * group_count + g] = box.lo[a];
                    bounds[(d + a) * group_count + g] = box.hi[a];
                  }
                }
              });

  // Tiling generalizations (Mondrian: boxes are global cuts, pairwise
  // disjoint by construction) let the stabbing loop below stop at each
  // point's first hit; overlapping box sets (relaxed suppression) sum
  // every containing box, exactly as before.
  const bool disjoint = gen.tiling();

  // Inverted index on attribute 0 in CSR form: candidate groups per
  // attribute-0 value (count pass, then fill pass -- no per-value vectors).
  const std::size_t attr0_domain = table.schema().qi(0).domain_size;
  std::vector<std::uint32_t> offsets(attr0_domain + 1, 0);
  for (std::size_t g = 0; g < gen.group_count(); ++g) {
    for (Value v = gen.box(g).lo[0]; v < gen.box(g).hi[0]; ++v) ++offsets[v + 1];
  }
  for (std::size_t v = 0; v < attr0_domain; ++v) offsets[v + 1] += offsets[v];
  std::vector<std::uint32_t> candidates(offsets[attr0_domain]);
  {
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t g = 0; g < gen.group_count(); ++g) {
      for (Value v = gen.box(g).lo[0]; v < gen.box(g).hi[0]; ++v) {
        candidates[cursor[v]++] = static_cast<std::uint32_t>(g);
      }
    }
  }

  // Widest candidate list, so each chunk sizes its hit buffer once.
  std::uint32_t max_candidates = 0;
  for (std::size_t v = 0; v < attr0_domain; ++v) {
    max_candidates = std::max(max_candidates, offsets[v + 1] - offsets[v]);
  }

  // The stabbing loop reads only the index structures built above, so the
  // distinct points fan out in fixed chunks, one partial sum per chunk,
  // folded in chunk order. Attribute 0 is pre-filtered by the candidate
  // index; the remaining attributes run through the SIMD stabbing kernel
  // (several candidates' bounds gathered and compared per step; for a
  // tiling the kernel stops at the first hit). Within a chunk, term k of
  // the p*log(p/q) fold lands in accumulator k mod 4 and the four fold in
  // index order -- the recorded KL bits depend on this geometry, so keep
  // it (this file builds with -ffp-contract=off for the same reason).
  std::optional<GroupedTable> local;
  if (grouped == nullptr) grouped = &local.emplace(table, &ws);
  const std::vector<DataPoint> points = FirstOccurrencePoints(*grouped);
  return ParallelReduce(
      points.size(), kKlMultiDimPointGrain, ws, 0.0,
      [&](std::size_t begin, std::size_t end, Workspace& cws) {
        auto hits_s = cws.U32();
        std::vector<std::uint32_t>& hits = *hits_s;
        hits.resize(max_candidates);
        double acc[4] = {0.0, 0.0, 0.0, 0.0};
        for (std::size_t p = begin; p < end; ++p) {
          const DataPoint& pc = points[p];
          const Value* qi = grouped->group(pc.group).qi_values.data();
          const Value qi0 = qi[0];
          const std::size_t hit_count = simd::StabCandidates(
              candidates.data() + offsets[qi0], offsets[qi0 + 1] - offsets[qi0], qi,
              lo_ptr.data(), hi_ptr.data(), d, /*first_only=*/disjoint, hits.data());
          double fstar_n = 0.0;
          for (std::size_t k = 0; k < hit_count; ++k) fstar_n += mass[hits[k] * m + pc.sa];
          LDIV_CHECK_GT(fstar_n, 0.0) << "every point lies in its own group's box";
          const double count = static_cast<double>(pc.count);
          acc[(p - begin) & 3] += (count / n) * std::log(count / fstar_n);
        }
        return ((acc[0] + acc[1]) + acc[2]) + acc[3];
      },
      std::plus<double>());
}

double KlDivergenceAnatomy(const Table& table, const Partition& buckets) {
  if (table.empty()) return 0.0;
  const std::size_t n = table.size();
  const std::size_t m = table.schema().sa_domain_size();

  // Each bucket's SA frequencies (count / bucket size) in CSR form: the
  // bucket's distinct SA values with one frequency each, built by the same
  // repeated 1/|bucket| additions a dense buckets x m table would make.
  // A bucket holds at most |bucket| entries, so the CSR is O(n).
  constexpr std::uint32_t kNoEntry = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> bucket_of(n);
  std::vector<std::uint32_t> entry_offsets(buckets.group_count() + 1, 0);
  std::vector<SaValue> entry_sa;
  std::vector<double> entry_frequency;
  entry_sa.reserve(n);
  entry_frequency.reserve(n);
  {
    std::vector<std::uint32_t> entry_of(m, kNoEntry);  // SA -> entry of the current bucket
    for (GroupId g = 0; g < buckets.group_count(); ++g) {
      const double share = 1.0 / static_cast<double>(buckets.group(g).size());
      for (RowId r : buckets.group(g)) {
        const SaValue v = table.sa(r);
        if (entry_of[v] == kNoEntry) {
          entry_of[v] = static_cast<std::uint32_t>(entry_sa.size());
          entry_sa.push_back(v);
          entry_frequency.push_back(0.0);
        }
        entry_frequency[entry_of[v]] += share;
        bucket_of[r] = g;
      }
      entry_offsets[g + 1] = static_cast<std::uint32_t>(entry_sa.size());
      for (std::uint32_t e = entry_offsets[g]; e < entry_offsets[g + 1]; ++e) {
        entry_of[entry_sa[e]] = kNoEntry;
      }
    }
  }

  // Rows grouped by exact QI signature (SA excluded), in CSR form:
  // ascending row id within a class.
  std::vector<std::uint32_t> class_offsets;
  std::vector<RowId> class_rows(n);
  {
    std::vector<std::uint32_t> class_of;
    const std::size_t class_count = NumberQiClasses(table, &class_of).size();
    class_offsets.assign(class_count + 1, 0);
    for (RowId r = 0; r < n; ++r) ++class_offsets[class_of[r] + 1];
    for (std::size_t c = 0; c < class_count; ++c) class_offsets[c + 1] += class_offsets[c];
    std::vector<std::uint32_t> cursor(class_offsets.begin(), class_offsets.end() - 1);
    for (RowId r = 0; r < n; ++r) class_rows[cursor[class_of[r]]++] = r;
  }

  // Per class: every row adds its bucket's entries into one dense
  // m-vector, so fstar[v] is n * f*(p) of the class's point p with SA v,
  // its nonzero addends in ascending row order -- the order of a per-point
  // sum over the class's rows, so the doubles are bit-identical. The
  // distinct points are the class's (class, SA) pairs; each term lands at
  // its point's first row, and the final fold in row order adds the terms
  // in first-occurrence order (the zeros between them change no bit).
  const double dn = static_cast<double>(n);
  std::vector<double> term(n, 0.0);
  std::vector<double> fstar(m, 0.0);
  std::vector<std::uint32_t> count(m, 0);  // rows of the class per SA value
  std::vector<RowId> first_row(m);
  std::vector<SaValue> touched;  // fstar entries to reset
  std::vector<SaValue> point_sa;
  for (std::size_t c = 0; c + 1 < class_offsets.size(); ++c) {
    for (std::uint32_t i = class_offsets[c]; i < class_offsets[c + 1]; ++i) {
      const RowId r = class_rows[i];
      const std::uint32_t g = bucket_of[r];
      for (std::uint32_t e = entry_offsets[g]; e < entry_offsets[g + 1]; ++e) {
        const SaValue v = entry_sa[e];
        if (fstar[v] == 0.0) touched.push_back(v);
        fstar[v] += entry_frequency[e];
      }
      const SaValue v = table.sa(r);
      if (count[v]++ == 0) {
        first_row[v] = r;
        point_sa.push_back(v);
      }
    }
    for (SaValue v : point_sa) {
      LDIV_CHECK_GT(fstar[v], 0.0);
      const double f = static_cast<double>(count[v]) / dn;
      term[first_row[v]] = f * std::log(static_cast<double>(count[v]) / fstar[v]);
      count[v] = 0;
    }
    for (SaValue v : touched) fstar[v] = 0.0;
    point_sa.clear();
    touched.clear();
  }
  double kl = 0.0;
  for (double t : term) kl += t;
  return kl;
}

double KlDivergenceSingleDim(const Table& table, const SingleDimGeneralization& gen,
                             const GroupedTable* grouped) {
  if (table.empty()) return 0.0;
  const double n = static_cast<double>(table.size());
  const std::size_t d = table.qi_count();
  const std::size_t m = table.schema().sa_domain_size();
  Workspace ws;
  std::optional<GroupedTable> local;
  if (grouped == nullptr) grouped = &local.emplace(table, &ws);

  // Exact cell numbering: every QI group lies in one cell, named by its
  // node tuple. Groups sorted by that tuple number the cells densely, so
  // a (cell, SA) key stays below s * m, whatever the taxonomies' sizes.
  const std::size_t s = grouped->group_count();
  std::vector<std::int32_t> nodes(s * d);
  for (GroupId g = 0; g < s; ++g) {
    for (std::size_t a = 0; a < d; ++a) {
      nodes[g * d + a] = gen.NodeFor(static_cast<AttrId>(a), grouped->group(g).qi_values[a]);
    }
  }
  auto tuple = [&nodes, d](GroupId g) {
    return std::span<const std::int32_t>(nodes.data() + g * d, d);
  };
  std::vector<GroupId> by_cell(s);
  for (GroupId g = 0; g < s; ++g) by_cell[g] = g;
  std::sort(by_cell.begin(), by_cell.end(), [&](GroupId x, GroupId y) {
    return std::ranges::lexicographical_compare(tuple(x), tuple(y));
  });
  std::vector<std::uint64_t> cell_of(s);
  std::uint64_t cell = 0;
  for (std::size_t i = 0; i < s; ++i) {
    if (i > 0 && !std::ranges::equal(tuple(by_cell[i]), tuple(by_cell[i - 1]))) ++cell;
    cell_of[by_cell[i]] = cell;
  }

  // Per (cell, SA) counts; cells tile the space so each point probes one.
  const std::vector<DataPoint> points = FirstOccurrencePoints(*grouped);
  FlatMap<std::uint32_t> cell_sa_counts(points.size());
  for (const DataPoint& pc : points) cell_sa_counts[cell_of[pc.group] * m + pc.sa] += pc.count;

  double kl = 0.0;
  for (const DataPoint& pc : points) {
    const std::uint32_t* count = cell_sa_counts.Find(cell_of[pc.group] * m + pc.sa);
    LDIV_CHECK(count != nullptr);
    double cell_count = static_cast<double>(*count);
    double volume = gen.CellVolume(grouped->group(pc.group).qi_values);
    double fstar_n = cell_count / volume;
    double f = static_cast<double>(pc.count) / n;
    kl += f * std::log(static_cast<double>(pc.count) / fstar_n);
  }
  return kl;
}

}  // namespace ldv
