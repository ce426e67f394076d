#include "common/paged_column.h"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/check.h"
#include "common/failpoint.h"

namespace ldv {

PagedColumn::PagedColumn(std::unique_ptr<SpillFile> file, PageCache* cache,
                         std::shared_ptr<MemoryBudget> budget)
    : file_(std::move(file)), cache_(cache) {
  LDIV_CHECK(file_ != nullptr);
  LDIV_CHECK(cache_ != nullptr);
  LDIV_CHECK_EQ(page_bytes() % sizeof(std::uint32_t), 0u);
  staging_.reserve(values_per_page());
  staging_reservation_ = MemoryReservation(std::move(budget), page_bytes());
}

PagedColumn::~PagedColumn() {
  if (map_addr_ != nullptr) ::munmap(map_addr_, map_bytes_);
}

void PagedColumn::Append(const std::uint32_t* values, std::size_t count) {
  LDIV_CHECK(!sealed_) << "append to a sealed paged column";
  const std::size_t per_page = values_per_page();
  while (count > 0) {
    const std::size_t take = std::min(count, per_page - staging_.size());
    staging_.insert(staging_.end(), values, values + take);
    values += take;
    count -= take;
    size_ += take;
    if (staging_.size() == per_page) {
      failpoint::Injection injection;
      if (failpoint::Check(failpoint::Site::kPagedAppend, &injection)) {
        throw IoFailure(failpoint::Describe(failpoint::Site::kPagedAppend, injection,
                                            "paged column append failed"));
      }
      file_->Write(file_->Allocate(page_bytes()), staging_.data(), page_bytes());
      staging_.clear();
    }
  }
}

bool PagedColumn::Seal(bool map, std::string* error) {
  LDIV_CHECK(!sealed_) << "double seal of a paged column";
  if (!staging_.empty()) {
    failpoint::Injection injection;
    if (failpoint::Check(failpoint::Site::kPagedSeal, &injection)) {
      throw IoFailure(failpoint::Describe(failpoint::Site::kPagedSeal, injection,
                                          "paged column seal failed"));
    }
    const std::size_t tail_bytes = staging_.size() * sizeof(std::uint32_t);
    file_->Write(file_->Allocate(tail_bytes), staging_.data(), tail_bytes);
    staging_.clear();
    staging_.shrink_to_fit();
  }
  staging_reservation_.Reset();
  sealed_ = true;
  LDIV_CHECK_EQ(file_->size(), size_ * sizeof(std::uint32_t));
  if (map) return Map(error);
  return true;
}

bool PagedColumn::Map(std::string* error) {
  LDIV_CHECK(sealed_) << "map of an unsealed column";
  if (mapped() || size_ == 0) return true;
  failpoint::Injection injection;
  if (failpoint::Check(failpoint::Site::kPagedMap, &injection)) {
    if (error != nullptr) {
      *error = failpoint::Describe(failpoint::Site::kPagedMap, injection,
                                   "cannot map spill file");
    }
    return false;
  }
  map_bytes_ = static_cast<std::size_t>(file_->size());
  void* addr = ::mmap(nullptr, map_bytes_, PROT_READ, MAP_SHARED, file_->fd(), 0);
  if (addr == MAP_FAILED) {
    map_bytes_ = 0;
    if (error != nullptr) {
      *error = std::string("cannot map spill file: ") + std::strerror(errno);
    }
    return false;
  }
  map_addr_ = addr;
  return true;
}

std::span<const std::uint32_t> PagedColumn::mapping() const {
  LDIV_CHECK(sealed_) << "mapping of an unsealed column";
  if (size_ == 0) return {};
  LDIV_CHECK(mapped()) << "mapping of an unmapped column";
  return {static_cast<const std::uint32_t*>(map_addr_), static_cast<std::size_t>(size_)};
}

std::size_t PagedColumn::PageValidBytes(std::uint64_t page) const {
  const std::uint64_t total = size_ * sizeof(std::uint32_t);
  const std::uint64_t start = page * page_bytes();
  LDIV_CHECK_LT(start, total);
  return static_cast<std::size_t>(std::min<std::uint64_t>(page_bytes(), total - start));
}

std::uint32_t PagedColumn::Get(std::uint64_t row) const {
  LDIV_CHECK(sealed_) << "read of an unsealed column";
  LDIV_CHECK_LT(row, size_);
  if (mapped()) return static_cast<const std::uint32_t*>(map_addr_)[row];
  const std::uint64_t page = row / values_per_page();
  const std::byte* data = cache_->Pin(*file_, page, PageValidBytes(page));
  const std::uint32_t value = reinterpret_cast<const std::uint32_t*>(
      data)[row % values_per_page()];
  cache_->Unpin(*file_, page);
  return value;
}

ColumnCursor::ColumnCursor(const PagedColumn& column, std::uint64_t begin, std::uint64_t end)
    : column_(&column), pos_(begin), end_(end) {
  LDIV_CHECK(column.sealed()) << "cursor over an unsealed column";
  LDIV_CHECK_LE(begin, end);
  LDIV_CHECK_LE(end, column.size());
}

ColumnCursor::~ColumnCursor() { ReleasePin(); }

void ColumnCursor::ReleasePin() {
  if (pinned_) {
    column_->cache_->Unpin(*column_->file_, pinned_page_);
    pinned_ = false;
  }
}

bool ColumnCursor::Next(std::span<const std::uint32_t>* span) {
  ReleasePin();
  if (pos_ >= end_) return false;
  if (column_->mapped()) {
    *span = column_->mapping().subspan(static_cast<std::size_t>(pos_),
                                       static_cast<std::size_t>(end_ - pos_));
    pos_ = end_;
    return true;
  }
  const std::size_t per_page = column_->values_per_page();
  const std::uint64_t page = pos_ / per_page;
  const std::uint64_t page_end = std::min<std::uint64_t>(end_, (page + 1) * per_page);
  const std::byte* data = column_->cache_->Pin(*column_->file_, page,
                                               column_->PageValidBytes(page));
  pinned_ = true;
  pinned_page_ = page;
  *span = {reinterpret_cast<const std::uint32_t*>(data) + (pos_ - page * per_page),
           static_cast<std::size_t>(page_end - pos_)};
  pos_ = page_end;
  return true;
}

std::vector<std::uint32_t> PagedTable::SaHistogramCounts() const {
  std::vector<std::uint32_t> counts(schema_.sa_domain_size(), 0);
  ColumnCursor cursor(*sa_column_);
  std::span<const std::uint32_t> span;
  while (cursor.Next(&span)) {
    for (std::uint32_t v : span) counts[v]++;
  }
  return counts;
}

std::unique_ptr<PagedTableBuilder> PagedTableBuilder::Create(std::size_t qi_count,
                                                             const Options& options,
                                                             std::string* error) {
  LDIV_CHECK_GT(options.page_bytes, 0u);
  LDIV_CHECK_EQ(options.page_bytes % sizeof(std::uint32_t), 0u);
  std::unique_ptr<PagedTableBuilder> builder(new PagedTableBuilder(options));
  builder->cache_ = std::make_unique<PageCache>(PageCacheOptions{
      .page_bytes = options.page_bytes,
      .frames = std::max<std::size_t>(options.cache_frames, 1),
      .budget = options.budget,
  });
  for (std::size_t a = 0; a <= qi_count; ++a) {
    std::unique_ptr<SpillFile> file = SpillFile::Create(error);
    if (file == nullptr) return nullptr;
    auto column = std::make_unique<PagedColumn>(std::move(file), builder->cache_.get(),
                                                options.budget);
    if (a < qi_count) {
      builder->qi_columns_.push_back(std::move(column));
    } else {
      builder->sa_column_ = std::move(column);
    }
  }
  return builder;
}

void PagedTableBuilder::AppendRow(std::span<const Value> qi_values, SaValue sa) {
  LDIV_CHECK_EQ(qi_values.size(), qi_columns_.size());
  for (std::size_t a = 0; a < qi_values.size(); ++a) qi_columns_[a]->Append(qi_values[a]);
  sa_column_->Append(sa);
  ++rows_;
}

void PagedTableBuilder::AppendQiChunk(AttrId attr, const Value* values, std::size_t count) {
  LDIV_CHECK_LT(attr, qi_columns_.size());
  qi_columns_[attr]->Append(values, count);
}

void PagedTableBuilder::AppendSaChunk(const SaValue* values, std::size_t count) {
  sa_column_->Append(values, count);
  rows_ += count;
}

namespace {

/// Max over a sealed column, streamed through the page cache -- the
/// validation sweep never needs more than one resident page per column.
std::uint32_t ColumnMax(const PagedColumn& column) {
  std::uint32_t max_value = 0;
  ColumnCursor cursor(column);
  std::span<const std::uint32_t> span;
  while (cursor.Next(&span)) {
    for (std::uint32_t v : span) max_value = std::max(max_value, v);
  }
  return max_value;
}

}  // namespace

std::unique_ptr<PagedTable> PagedTableBuilder::Finish(Schema schema, std::string* error) {
  const auto fail = [&](const std::string& reason) -> std::unique_ptr<PagedTable> {
    if (error != nullptr) *error = reason;
    return nullptr;
  };
  if (schema.qi_count() != qi_columns_.size()) {
    return fail("schema QI count does not match builder");
  }
  if (sa_column_->size() != rows_) return fail("SA column length mismatch");
  for (std::size_t a = 0; a < qi_columns_.size(); ++a) {
    if (qi_columns_[a]->size() != rows_) {
      return fail("ragged paged column '" + schema.qi(static_cast<AttrId>(a)).name + "'");
    }
  }
  // Seal unmapped first so the validation sweep streams through the page
  // cache (bounded frames), then map on a second pass for the resident
  // view once the data is known good.
  for (std::size_t a = 0; a <= qi_columns_.size(); ++a) {
    PagedColumn& column = a < qi_columns_.size() ? *qi_columns_[a] : *sa_column_;
    if (!column.Seal(/*map=*/false, error)) return nullptr;
  }
  if (rows_ > 0) {
    for (std::size_t a = 0; a < qi_columns_.size(); ++a) {
      const Attribute& attr = schema.qi(static_cast<AttrId>(a));
      const std::uint32_t max_value = ColumnMax(*qi_columns_[a]);
      if (max_value >= attr.domain_size) {
        return fail("column '" + attr.name + "': value " + std::to_string(max_value) +
                    " outside domain of size " + std::to_string(attr.domain_size));
      }
    }
    const std::uint32_t sa_max = ColumnMax(*sa_column_);
    if (sa_max >= schema.sa_domain_size()) {
      return fail("column '" + schema.sensitive().name + "': value " + std::to_string(sa_max) +
                  " outside domain of size " + std::to_string(schema.sa_domain_size()));
    }
  }
  std::vector<std::span<const Value>> qi_spans;
  qi_spans.reserve(qi_columns_.size());
  for (auto& column : qi_columns_) {
    if (!column->Map(error)) return nullptr;
    qi_spans.push_back(column->mapping());
  }
  if (!sa_column_->Map(error)) return nullptr;
  std::unique_ptr<PagedTable> table(
      new PagedTable(std::move(schema), std::move(qi_spans), sa_column_->mapping()));
  table->rows_ = rows_;
  table->cache_ = std::move(cache_);
  table->qi_columns_ = std::move(qi_columns_);
  table->sa_column_ = std::move(sa_column_);
  return table;
}

}  // namespace ldv
