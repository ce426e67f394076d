#include "common/table.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/flat_map.h"
#include "common/rng.h"

namespace ldv {

Table::Table(Schema schema) : schema_(std::move(schema)), qi_columns_(schema_.qi_count()) {
  LDIV_CHECK(schema_.Valid()) << "invalid schema:" << schema_.ToString();
  RefreshViews();
}

void Table::RefreshViews() {
  qi_views_.resize(qi_columns_.size());
  for (std::size_t a = 0; a < qi_columns_.size(); ++a) qi_views_[a] = qi_columns_[a];
  sa_view_ = sa_data_;
}

Table Table::FromColumns(Schema schema, std::vector<std::vector<Value>> qi_columns,
                         std::vector<SaValue> sa_column) {
  Table table(std::move(schema));
  LDIV_CHECK_EQ(qi_columns.size(), table.qi_count());
  for (std::size_t a = 0; a < qi_columns.size(); ++a) {
    LDIV_CHECK_EQ(qi_columns[a].size(), sa_column.size());
    const std::size_t domain = table.schema_.qi(static_cast<AttrId>(a)).domain_size;
    for (Value v : qi_columns[a]) LDIV_CHECK_LT(v, domain);
  }
  for (SaValue v : sa_column) LDIV_CHECK_LT(v, table.schema_.sa_domain_size());
  table.qi_columns_ = std::move(qi_columns);
  table.sa_data_ = std::move(sa_column);
  table.RefreshViews();
  return table;
}

Table Table::FromBorrowedColumns(Schema schema, std::vector<std::span<const Value>> qi_columns,
                                 std::span<const SaValue> sa_column) {
  Table table(std::move(schema));
  LDIV_CHECK_EQ(qi_columns.size(), table.qi_count());
  for (const std::span<const Value>& column : qi_columns) {
    LDIV_CHECK_EQ(column.size(), sa_column.size());
  }
  table.qi_columns_.clear();
  table.sa_data_.clear();
  table.qi_views_ = std::move(qi_columns);
  table.sa_view_ = sa_column;
  table.borrowed_ = true;
  return table;
}

Table::Table(const Table& other)
    : schema_(other.schema_),
      qi_columns_(other.qi_columns_),
      sa_data_(other.sa_data_),
      borrowed_(other.borrowed_) {
  if (borrowed_) {
    // A borrowed copy aliases the same external memory.
    qi_views_ = other.qi_views_;
    sa_view_ = other.sa_view_;
  } else {
    RefreshViews();
  }
}

Table& Table::operator=(const Table& other) {
  if (this != &other) {
    schema_ = other.schema_;
    qi_columns_ = other.qi_columns_;
    sa_data_ = other.sa_data_;
    borrowed_ = other.borrowed_;
    if (borrowed_) {
      qi_views_ = other.qi_views_;
      sa_view_ = other.sa_view_;
    } else {
      RefreshViews();
    }
  }
  return *this;
}

void Table::AppendRow(std::span<const Value> qi_values, SaValue sa) {
  LDIV_CHECK(!borrowed_) << "cannot append to a borrowed table";
  LDIV_CHECK_EQ(qi_values.size(), qi_count());
  for (std::size_t i = 0; i < qi_values.size(); ++i) {
    LDIV_CHECK_LT(qi_values[i], schema_.qi(static_cast<AttrId>(i)).domain_size);
  }
  LDIV_CHECK_LT(sa, schema_.sa_domain_size());
  for (std::size_t i = 0; i < qi_values.size(); ++i) qi_columns_[i].push_back(qi_values[i]);
  sa_data_.push_back(sa);
  RefreshViews();
}

void Table::Reserve(std::size_t rows) {
  LDIV_CHECK(!borrowed_) << "cannot reserve in a borrowed table";
  for (std::vector<Value>& column : qi_columns_) column.reserve(rows);
  sa_data_.reserve(rows);
  RefreshViews();
}

std::vector<std::uint32_t> Table::SaHistogramCounts() const {
  std::vector<std::uint32_t> counts(schema_.sa_domain_size(), 0);
  for (SaValue v : sa_view_) counts[v]++;
  return counts;
}

std::size_t Table::DistinctSaCount() const {
  std::vector<std::uint32_t> counts = SaHistogramCounts();
  return static_cast<std::size_t>(
      std::count_if(counts.begin(), counts.end(), [](std::uint32_t c) { return c > 0; }));
}

Table Table::ProjectQi(const std::vector<AttrId>& qi_subset) const {
  std::vector<std::vector<Value>> columns;
  columns.reserve(qi_subset.size());
  for (AttrId a : qi_subset) {
    LDIV_CHECK_LT(a, qi_count());
    columns.emplace_back(qi_views_[a].begin(), qi_views_[a].end());
  }
  return FromColumns(schema_.Project(qi_subset), std::move(columns),
                     std::vector<SaValue>(sa_view_.begin(), sa_view_.end()));
}

Table Table::SelectRows(const std::vector<RowId>& rows) const {
  for (RowId r : rows) LDIV_CHECK_LT(r, size());
  std::vector<std::vector<Value>> columns(qi_count());
  for (std::size_t a = 0; a < qi_count(); ++a) {
    const std::span<const Value> source = qi_views_[a];
    columns[a].reserve(rows.size());
    for (RowId r : rows) columns[a].push_back(source[r]);
  }
  std::vector<SaValue> sa;
  sa.reserve(rows.size());
  for (RowId r : rows) sa.push_back(sa_view_[r]);
  return FromColumns(schema_, std::move(columns), std::move(sa));
}

Table Table::SampleRows(std::size_t count, Rng& rng) const {
  if (count >= size()) return *this;
  std::vector<RowId> all(size());
  std::iota(all.begin(), all.end(), 0u);
  // Partial Fisher-Yates: the first `count` entries become the sample.
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t j = i + rng.Below(static_cast<std::uint32_t>(size() - i));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return SelectRows(all);
}

std::vector<RowId> NumberQiClasses(const Table& table, std::vector<std::uint32_t>* class_of) {
  const std::size_t n = table.size();
  const std::size_t d = table.qi_count();
  std::vector<const Value*> cols(d);
  for (std::size_t a = 0; a < d; ++a) cols[a] = table.column(static_cast<AttrId>(a)).data();
  auto same_qi = [&](RowId x, RowId y) {
    for (std::size_t a = 0; a < d; ++a) {
      if (cols[a][x] != cols[a][y]) return false;
    }
    return true;
  };

  class_of->resize(n);
  std::vector<RowId> first_rows;
  FlatMap<std::uint32_t> index;  // signature hash -> class id
  for (RowId r = 0; r < n; ++r) {
    std::uint64_t key = kFnvOffsetBasis;
    for (std::size_t a = 0; a < d; ++a) key = FnvFold(key, cols[a][r]);
    while (true) {
      const auto next = static_cast<std::uint32_t>(first_rows.size());
      auto [slot, inserted] = index.TryEmplace(key, next);
      if (inserted) first_rows.push_back(r);
      if (inserted || same_qi(first_rows[*slot], r)) {
        (*class_of)[r] = *slot;
        break;
      }
      key = MixU64(key);  // another signature holds this hash: probe the next key
    }
  }
  return first_rows;
}

}  // namespace ldv
