#ifndef LDIV_COMMON_TABLE_H_
#define LDIV_COMMON_TABLE_H_

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/schema.h"
#include "common/types.h"

namespace ldv {

class Rng;
class Table;

/// A materialized QI row over the columnar storage: qi_row() gathers the
/// row's d values out of the attribute columns into this small owning
/// buffer (inline up to kInlineAttrs attributes, heap beyond that), so
/// row-oriented call sites keep compiling against the columnar Table. The
/// view converts to std::span<const Value>, indexes, and iterates like the
/// contiguous row slice it replaces. Because the buffer is OWNED, a span
/// taken from a temporary (`std::span<const Value> s = t.qi_row(r);`)
/// dangles past the end of the statement -- passing `t.qi_row(r)` directly
/// into a call is fine, storing the conversion is not; keep the QiRow
/// itself (`auto qi = t.qi_row(r);`) to hold the values. Column-major code
/// should scan Table::column() instead of materializing rows.
class QiRow {
 public:
  QiRow(const Table& table, RowId row);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Value* data() const { return size_ <= kInlineAttrs ? inline_.data() : heap_.data(); }
  Value operator[](std::size_t attr) const { return data()[attr]; }
  const Value* begin() const { return data(); }
  const Value* end() const { return data() + size_; }

  operator std::span<const Value>() const { return {data(), size_}; }

  std::vector<Value> ToVector() const { return {begin(), end()}; }

 private:
  static constexpr std::size_t kInlineAttrs = 8;

  std::size_t size_ = 0;
  std::array<Value, kInlineAttrs> inline_;
  std::vector<Value> heap_;  // engaged only when size_ > kInlineAttrs
};

/// A raw microdata table T (Section 3): n rows over d categorical QI
/// attributes and one categorical sensitive attribute. Storage is columnar:
/// one contiguous column per QI attribute plus the SA column, so the hot
/// loops (signature hashing, Mondrian's histogram scans, KL point packing)
/// stream one attribute at a time instead of striding across row-major
/// memory. Row-oriented call sites go through qi() / qi_row(); column-major
/// code takes column() spans.
///
/// Columns are either OWNED (std::vector storage, the default -- every
/// mutator requires it) or BORROWED (spans over memory the caller keeps
/// alive, e.g. the read-only mapping of a sealed PagedTable). Both kinds
/// serve the identical read API, so the out-of-core path runs every
/// algorithm unchanged. A borrowed table is immutable; copying one yields
/// another borrowed table aliasing the same external memory.
class Table {
 public:
  /// Creates an empty table with the given schema.
  explicit Table(Schema schema);

  /// Builds a table directly from columnar data: one column per QI
  /// attribute (all of equal length, values inside their domains) plus the
  /// SA column. This is the bulk-ingestion path of the raw CSV reader.
  static Table FromColumns(Schema schema, std::vector<std::vector<Value>> qi_columns,
                           std::vector<SaValue> sa_column);

  /// Builds a borrowed (non-owning) table over caller-kept column memory:
  /// one span per QI attribute plus the SA span, all of equal length. The
  /// backing memory must outlive the table and every copy of it. Unlike
  /// FromColumns, values are NOT validated against the schema domains --
  /// the paged builder validates at seal time with a MinMax pass, and
  /// re-scanning a multi-gigabyte mapping here would defeat the point.
  static Table FromBorrowedColumns(Schema schema, std::vector<std::span<const Value>> qi_columns,
                                   std::span<const SaValue> sa_column);

  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const Schema& schema() const { return schema_; }

  /// Number of rows (the paper's n).
  std::size_t size() const { return sa_view_.size(); }
  bool empty() const { return sa_view_.empty(); }

  /// Number of QI attributes (the paper's d).
  std::size_t qi_count() const { return schema_.qi_count(); }

  /// True if the columns are borrowed spans (see class comment).
  bool borrowed() const { return borrowed_; }

  /// Appends a row. `qi_values.size()` must equal `qi_count()`, each value
  /// must lie in its attribute domain, and `sa` must lie in the SA domain.
  /// The table must own its storage.
  void AppendRow(std::span<const Value> qi_values, SaValue sa);

  /// Reserves storage for `rows` rows in every column (owned tables only).
  void Reserve(std::size_t rows);

  /// QI value of row `row` on attribute `attr`.
  Value qi(RowId row, AttrId attr) const { return qi_views_[attr][row]; }

  /// The full QI vector of row `row`, materialized out of the columns.
  QiRow qi_row(RowId row) const { return QiRow(*this, row); }

  /// The contiguous column of attribute `attr` (size n).
  std::span<const Value> column(AttrId attr) const { return qi_views_[attr]; }

  /// SA value of row `row`.
  SaValue sa(RowId row) const { return sa_view_[row]; }

  /// The contiguous SA column (size n).
  std::span<const SaValue> sa_column() const { return sa_view_; }

  /// Histogram of SA values over the whole table: result[v] = #rows with SA v.
  std::vector<std::uint32_t> SaHistogramCounts() const;

  /// Number of distinct SA values that actually occur (the paper's m).
  std::size_t DistinctSaCount() const;

  /// Returns the projection of this table onto the QI attributes in
  /// `qi_subset` (order preserved); SA is always kept. Models SAL-d / OCC-d.
  /// On the columnar layout this is a plain copy of the kept columns.
  /// The result always owns its storage.
  Table ProjectQi(const std::vector<AttrId>& qi_subset) const;

  /// Returns a table containing only the rows in `rows` (in order).
  Table SelectRows(const std::vector<RowId>& rows) const;

  /// Returns a uniform random sample (without replacement) of `count` rows.
  /// If `count >= size()`, returns a copy of the whole table.
  Table SampleRows(std::size_t count, Rng& rng) const;

 private:
  /// Points the view spans at the owned vectors (owned tables only).
  /// Must run after any mutation that may reallocate a column.
  void RefreshViews();

  Schema schema_;
  std::vector<std::vector<Value>> qi_columns_;  // owned storage (empty when borrowed)
  std::vector<SaValue> sa_data_;                // owned storage (empty when borrowed)
  std::vector<std::span<const Value>> qi_views_;  // d columns, each of size n
  std::span<const SaValue> sa_view_;              // size = n
  bool borrowed_ = false;
};

/// Numbers the distinct QI signatures of `table` (the SA is left out) in
/// first-occurrence row order: (*class_of)[r] becomes row r's class id,
/// and the result holds each class's first row. One pass over the rows;
/// two signatures that share a hash are told apart by comparing the row
/// with the class's first row and re-mixing the key, so the classes are
/// exact for every schema.
std::vector<RowId> NumberQiClasses(const Table& table, std::vector<std::uint32_t>* class_of);

inline QiRow::QiRow(const Table& table, RowId row) : size_(table.qi_count()) {
  Value* out = inline_.data();
  if (size_ > kInlineAttrs) {
    heap_.resize(size_);
    out = heap_.data();
  }
  for (std::size_t a = 0; a < size_; ++a) out[a] = table.qi(row, static_cast<AttrId>(a));
}

}  // namespace ldv

#endif  // LDIV_COMMON_TABLE_H_
