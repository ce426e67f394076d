#ifndef LDIV_METRICS_KL_DIVERGENCE_H_
#define LDIV_METRICS_KL_DIVERGENCE_H_

#include "anonymity/generalization.h"
#include "anonymity/multidim.h"
#include "common/grouped_table.h"
#include "common/table.h"
#include "tds/tds.h"

namespace ldv {

// The suppression, single- and multi-dimensional estimators sum one term
// per distinct (QI, SA) point, taken from the table's GroupedTable (one
// point per QI group and SA run) in first-occurrence row order. Pass the
// GroupedTable of exactly `table`, or null to have it built; both forms
// return the same bits. Per-point terms fan out in fixed chunks combined
// in chunk order, so results are bit-identical at any thread count and
// SIMD level.

/// KL-divergence KL(f, f*) of Section 6.2 (Equation 2) between the pdf f of
/// the microdata over the (d+1)-dimensional space Omega and the pdf f*
/// induced by a suppression generalization: a starred attribute value is
/// treated as uniform over the whole attribute domain, a retained value as a
/// point mass; SA values are never generalized.
///
/// Exact computation in O(n + (p + q) * s) for p distinct points, q
/// distinct QI vectors and s distinct star patterns (s <= min(2^d,
/// groups)): the groups of T* are bucketed by their star pattern, each
/// pattern numbers the projections of QI vectors onto its unstarred
/// attributes exactly (a hash checked against the stored values), and
/// f*(p) is assembled per distinct data point by one (projection, SA)
/// lookup per pattern. Any number of QI attributes and any domain sizes
/// work.
double KlDivergenceSuppression(const Table& table, const GeneralizedTable& generalized,
                               const GroupedTable* grouped = nullptr);

/// KL-divergence for a single-dimensional generalization: each tuple is
/// uniform over its cell (the product of its published sub-domains). Cells
/// tile the space, so f*(p) comes from exactly one cell; cells are
/// numbered exactly by sorting the QI groups by their node tuples.
double KlDivergenceSingleDim(const Table& table, const SingleDimGeneralization& gen,
                             const GroupedTable* grouped = nullptr);

/// KL-divergence for a multi-dimensional generalization: each tuple is
/// uniform over its group's box; boxes may overlap (Section 2), so f*(p)
/// sums contributions from every box containing p. Candidate boxes per
/// point are pruned through an inverted index on the first QI attribute.
double KlDivergenceMultiDim(const Table& table, const BoxGeneralization& gen,
                            const GroupedTable* grouped = nullptr);

/// KL-divergence for an Anatomy release (QI table published exactly, SA
/// linked only through l-diverse buckets): the adversary's density at point
/// p is (1/n) * sum over tuples t with QI(t) = QI(p) of
/// count_{bucket(t)}(SA(p)) / |bucket(t)|.
///
/// Each bucket keeps only the SA values it holds, and each QI class adds
/// its rows' bucket entries into one dense m-vector: O(n * b) time for
/// buckets of at most b distinct SA values, so O(n * l) for Anatomy's
/// (l values, plus at most one residue tuple per residue value: b < 2l),
/// and O(n + m) memory -- under 32 MB of scratch at 1M rows (m = 50,
/// l = 4), where a dense buckets x m table took 100 MB.
double KlDivergenceAnatomy(const Table& table, const Partition& buckets);

}  // namespace ldv

#endif  // LDIV_METRICS_KL_DIVERGENCE_H_
