#ifndef LDIV_METRICS_KL_DIVERGENCE_H_
#define LDIV_METRICS_KL_DIVERGENCE_H_

#include "anonymity/generalization.h"
#include "anonymity/multidim.h"
#include "common/table.h"
#include "tds/tds.h"

namespace ldv {

// The estimators below fan their per-point terms out in fixed chunks and
// combine the chunk sums in chunk order, so every result is bit-identical
// at any thread count and SIMD level.

/// KL-divergence KL(f, f*) of Section 6.2 (Equation 2) between the pdf f of
/// the microdata over the (d+1)-dimensional space Omega and the pdf f*
/// induced by a suppression generalization: a starred attribute value is
/// treated as uniform over the whole attribute domain, a retained value as a
/// point mass; SA values are never generalized.
///
/// Exact computation in O(n * 2^d): the groups of T* are bucketed by their
/// star mask (at most 2^d masks), and f*(p) is assembled per distinct data
/// point by one lookup per mask.
double KlDivergenceSuppression(const Table& table, const GeneralizedTable& generalized);

/// KL-divergence for a single-dimensional generalization: each tuple is
/// uniform over its cell (the product of its published sub-domains). Cells
/// tile the space, so f*(p) comes from exactly one cell. O(n).
double KlDivergenceSingleDim(const Table& table, const SingleDimGeneralization& gen);

/// KL-divergence for a multi-dimensional generalization: each tuple is
/// uniform over its group's box; boxes may overlap (Section 2), so f*(p)
/// sums contributions from every box containing p. Candidate boxes per
/// point are pruned through an inverted index on the first QI attribute.
double KlDivergenceMultiDim(const Table& table, const BoxGeneralization& gen);

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
