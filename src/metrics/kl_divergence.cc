#include "metrics/kl_divergence.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/flat_map.h"
#include "common/parallel.h"
#include "common/simd.h"

namespace ldv {

namespace {

// Mixed-radix packing of a full data point (all QI values plus SA).
// The products involved fit in 64 bits for every schema in this repository
// (checked at runtime).
class PointPacker {
 public:
  explicit PointPacker(const Schema& schema) {
    std::uint64_t stride = 1;
    for (std::size_t a = 0; a < schema.qi_count(); ++a) {
      strides_.push_back(stride);
      Grow(&stride, schema.qi(static_cast<AttrId>(a)).domain_size);
    }
    sa_stride_ = stride;
    Grow(&stride, schema.sa_domain_size());
  }

  /// Packed ids of every row, accumulated column by column (one pass per
  /// QI attribute over its contiguous column, then the SA column) -- the
  /// columnar replacement for packing row views. A pure per-row map: fixed
  /// row chunks fan out across threads and the integer accumulation is
  /// identical at any thread count.
  std::vector<std::uint64_t> PackAllRows(const Table& table, Workspace& ws) const {
    const std::size_t n = table.size();
    std::vector<std::uint64_t> keys(n, 0);
    std::uint64_t* out = keys.data();
    ParallelFor(n, 16384, ws, [&](std::size_t begin, std::size_t end, Workspace&) {
      for (std::size_t a = 0; a < strides_.size(); ++a) {
        StrideAccumulate(out, table.column(static_cast<AttrId>(a)).data(), strides_[a], begin,
                         end);
      }
      StrideAccumulate(out, table.sa_column().data(), sa_stride_, begin, end);
    });
    return keys;
  }

 private:
  // out[i] += stride * col[i] over [begin, end): one column's mixed-radix
  // term (the stride is a local so the loop does not reload it through
  // the possibly-aliasing output pointer).
  static void StrideAccumulate(std::uint64_t* out, const std::uint32_t* col,
                               std::uint64_t stride, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] += stride * col[i];
  }

  static void Grow(std::uint64_t* stride, std::uint64_t radix) {
    LDIV_CHECK_LT(*stride, std::numeric_limits<std::uint64_t>::max() / (radix + 1))
        << "point id space exceeds 64 bits";
    *stride *= radix;
  }

  std::vector<std::uint64_t> strides_;
  std::uint64_t sa_stride_ = 0;
};

// One distinct data point: its packed id, a representative row and its
// multiplicity.
struct PointCount {
  std::uint64_t key = 0;
  RowId representative = 0;
  std::uint32_t count = 0;
};

// The distinct data points of `table` in first-occurrence row order
// (deterministic, unlike the seed's unordered_map bucket order). The
// FlatMap only resolves duplicates; the sums below iterate the flat
// vector.
std::vector<PointCount> DistinctPoints(const Table& table, const PointPacker& packer,
                                       Workspace& ws) {
  std::vector<std::uint64_t> keys = packer.PackAllRows(table, ws);
  std::vector<PointCount> points;
  points.reserve(table.size());
  FlatMap<std::uint32_t> index(table.size());
  for (RowId r = 0; r < table.size(); ++r) {
    auto [slot, inserted] = index.TryEmplace(keys[r], static_cast<std::uint32_t>(points.size()));
    if (inserted) {
      points.push_back(PointCount{keys[r], r, 1});
    } else {
      ++points[*slot].count;
    }
  }
  return points;
}

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

double KlDivergenceSuppression(const Table& table, const GeneralizedTable& generalized) {
  if (table.empty()) return 0.0;
  const Schema& schema = table.schema();
  const std::size_t d = table.qi_count();
  LDIV_CHECK_LE(d, 20u);
  const double n = static_cast<double>(table.size());
  const std::size_t m = schema.sa_domain_size();

  // Per star-mask aggregation: for each mask, map (projected unstarred
  // values, SA) -> accumulated count / volume over groups with that mask.
  // Masks live in a small flat vector (first-occurrence order); each
  // bucket's mass lives in a FlatMap keyed by the packed projection.
  struct MaskBucket {
    std::uint32_t mask = 0;
    std::vector<AttrId> unstarred;
    std::vector<std::uint64_t> strides;  // one per unstarred attr, then SA
    std::uint64_t sa_stride = 0;
    FlatMap<double> mass;
  };
  std::vector<MaskBucket> buckets;
  FlatMap<std::uint32_t> bucket_index;

  auto bucket_for_mask = [&](std::uint32_t mask) -> MaskBucket& {
    auto [slot, inserted] =
        bucket_index.TryEmplace(mask, static_cast<std::uint32_t>(buckets.size()));
    if (inserted) {
      MaskBucket& b = buckets.emplace_back();
      b.mask = mask;
      std::uint64_t stride = 1;
      for (AttrId a = 0; a < d; ++a) {
        if ((mask >> a) & 1u) continue;  // starred
        b.unstarred.push_back(a);
        b.strides.push_back(stride);
        stride *= schema.qi(a).domain_size;
      }
      b.sa_stride = stride;
    }
    return buckets[*slot];
  };

  // Dense per-group SA counter, reset through the touched list.
  std::vector<std::uint32_t> sa_counts(m, 0);
  std::vector<SaValue> sa_touched;
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
    // SA counts of the group.
    sa_touched.clear();
    for (RowId r : generalized.rows(g)) {
      SaValue v = table.sa(r);
      if (sa_counts[v]++ == 0) sa_touched.push_back(v);
    }
    std::uint64_t base = 0;
    for (std::size_t i = 0; i < bucket.unstarred.size(); ++i) {
      base += bucket.strides[i] * sig[bucket.unstarred[i]];
    }
    for (SaValue v : sa_touched) {
      bucket.mass[base + bucket.sa_stride * v] +=
          static_cast<double>(sa_counts[v]) / volume;
      sa_counts[v] = 0;
    }
  }

  // Per-point probes only read the bucket maps, so the distinct points
  // fan out in fixed chunks with one partial sum each, folded in chunk
  // order. The p*log(p/q) fold is inline, one running sum per chunk.
  Workspace ws;
  PointPacker packer(schema);
  const std::vector<PointCount> points = DistinctPoints(table, packer, ws);
  return ParallelReduce(
      points.size(), kKlSuppressionPointGrain, ws, 0.0,
      [&](std::size_t begin, std::size_t end, Workspace&) {
        double partial = 0.0;
        for (std::size_t p = begin; p < end; ++p) {
          const PointCount& pc = points[p];
          const RowId rep = pc.representative;
          SaValue sa = table.sa(rep);
          double fstar_n = 0.0;  // n * f*(p)
          for (const MaskBucket& bucket : buckets) {
            std::uint64_t probe;
            if (bucket.mask == 0) {
              // No stars: the bucket's packing coincides with the point
              // packing (same strides in the same order), so the point id
              // is the probe.
              probe = pc.key;
            } else {
              probe = static_cast<std::uint64_t>(sa) * bucket.sa_stride;
              for (std::size_t i = 0; i < bucket.unstarred.size(); ++i) {
                probe += bucket.strides[i] * table.qi(rep, bucket.unstarred[i]);
              }
            }
            const double* mass = bucket.mass.Find(probe);
            if (mass != nullptr) fstar_n += *mass;
          }
          LDIV_CHECK_GT(fstar_n, 0.0) << "f* must cover every data point";
          partial += (pc.count / n) * std::log(pc.count / fstar_n);
        }
        return partial;
      },
      std::plus<double>());
}

double KlDivergenceMultiDim(const Table& table, const BoxGeneralization& gen) {
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

  // Per-attribute column base pointers for the representative-row probes.
  std::vector<const Value*> cols(d);
  for (std::size_t a = 0; a < d; ++a) cols[a] = table.column(static_cast<AttrId>(a)).data();

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
  PointPacker packer(table.schema());
  const std::vector<PointCount> points = DistinctPoints(table, packer, ws);
  return ParallelReduce(
      points.size(), kKlMultiDimPointGrain, ws, 0.0,
      [&](std::size_t begin, std::size_t end, Workspace& cws) {
        auto hits_s = cws.U32();
        std::vector<std::uint32_t>& hits = *hits_s;
        hits.resize(max_candidates);
        auto point_s = cws.U32();
        std::vector<std::uint32_t>& point = *point_s;
        point.resize(d);
        double acc[4] = {0.0, 0.0, 0.0, 0.0};
        for (std::size_t p = begin; p < end; ++p) {
          const PointCount& pc = points[p];
          const RowId rep = pc.representative;
          const Value qi0 = cols[0][rep];
          SaValue sa = table.sa(rep);
          for (std::size_t a = 1; a < d; ++a) point[a] = cols[a][rep];
          const std::size_t hit_count = simd::StabCandidates(
              candidates.data() + offsets[qi0], offsets[qi0 + 1] - offsets[qi0], point.data(),
              lo_ptr.data(), hi_ptr.data(), d, /*first_only=*/disjoint, hits.data());
          double fstar_n = 0.0;
          for (std::size_t k = 0; k < hit_count; ++k) fstar_n += mass[hits[k] * m + sa];
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

double KlDivergenceSingleDim(const Table& table, const SingleDimGeneralization& gen) {
  if (table.empty()) return 0.0;
  const double n = static_cast<double>(table.size());
  const std::size_t d = table.qi_count();

  // Row gather buffer reused across the scans below: PackedCellId /
  // CellVolume take a row's QI vector, so the columns are gathered into
  // one scratch vector per probe instead of materializing QiRow views.
  std::vector<const Value*> cols(d);
  for (std::size_t a = 0; a < d; ++a) cols[a] = table.column(static_cast<AttrId>(a)).data();
  std::vector<Value> qi(d);
  auto gather = [&cols, &qi, d](RowId r) {
    for (std::size_t a = 0; a < d; ++a) qi[a] = cols[a][r];
  };

  // Per (cell, SA) counts; cells tile the space so each point probes one.
  FlatMap<std::uint32_t> cell_sa_counts(table.size());
  const std::uint64_t m = table.schema().sa_domain_size();
  for (RowId r = 0; r < table.size(); ++r) {
    gather(r);
    std::uint64_t cell = gen.PackedCellId(qi);
    LDIV_CHECK_LT(cell, std::numeric_limits<std::uint64_t>::max() / m);
    ++cell_sa_counts[cell * m + table.sa(r)];
  }

  Workspace ws;
  PointPacker packer(table.schema());
  double kl = 0.0;
  for (const PointCount& pc : DistinctPoints(table, packer, ws)) {
    gather(pc.representative);
    SaValue sa = table.sa(pc.representative);
    std::uint64_t cell = gen.PackedCellId(qi);
    double volume = gen.CellVolume(qi);
    const std::uint32_t* count = cell_sa_counts.Find(cell * m + sa);
    LDIV_CHECK(count != nullptr);
    double cell_count = static_cast<double>(*count);
    double fstar_n = cell_count / volume;
    double f = static_cast<double>(pc.count) / n;
    kl += f * std::log(static_cast<double>(pc.count) / fstar_n);
  }
  return kl;
}

}  // namespace ldv
