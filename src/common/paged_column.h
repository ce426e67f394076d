#ifndef LDIV_COMMON_PAGED_COLUMN_H_
#define LDIV_COMMON_PAGED_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/memory_budget.h"
#include "common/page_cache.h"
#include "common/schema.h"
#include "common/table.h"
#include "common/types.h"

namespace ldv {

/// One out-of-core u32 column: an append-only sequence of fixed-size pages
/// spilled to its own unlinked temp file, so the on-disk byte layout is
/// column-contiguous (the file IS the column, a little-endian u32 array).
/// While open, appends stage into one private page-sized buffer and write
/// full pages through to the file -- resident cost is exactly one page.
/// Seal() flushes the tail and optionally memory-maps the file read-only;
/// a mapped column serves its whole range as one contiguous span, which is
/// how sealed paged tables feed the unmodified solver kernels. Unmapped
/// sealed columns are read page-at-a-time through the shared PageCache.
class PagedColumn {
 public:
  /// `file` is the column's private spill file; `cache` serves unmapped
  /// reads and must outlive the column. `page_bytes` must match the
  /// cache's page size and be a multiple of sizeof(u32).
  PagedColumn(std::unique_ptr<SpillFile> file, PageCache* cache,
              std::shared_ptr<MemoryBudget> budget);

  ~PagedColumn();
  PagedColumn(const PagedColumn&) = delete;
  PagedColumn& operator=(const PagedColumn&) = delete;

  std::uint64_t size() const { return size_; }
  bool sealed() const { return sealed_; }
  bool mapped() const { return map_addr_ != nullptr; }

  std::size_t page_bytes() const { return cache_->page_bytes(); }
  std::size_t values_per_page() const { return page_bytes() / sizeof(std::uint32_t); }
  std::uint64_t page_count() const {
    return (size_ + values_per_page() - 1) / values_per_page();
  }
  const SpillFile& file() const { return *file_; }

  /// Appends `count` values (column must not be sealed).
  void Append(const std::uint32_t* values, std::size_t count);
  void Append(std::uint32_t value) { Append(&value, 1); }

  /// Flushes the tail page and freezes the column. With `map` set, the
  /// spill file is additionally memory-mapped read-only (false + `error`
  /// if the mapping fails); without it, reads go through the page cache.
  bool Seal(bool map, std::string* error);

  /// Maps a sealed-but-unmapped column read-only (idempotent); false +
  /// `error` if mmap fails.
  bool Map(std::string* error);

  /// The whole column as one contiguous span (sealed + mapped only).
  std::span<const std::uint32_t> mapping() const;

  /// Random access to one value of a sealed column; unmapped columns pay
  /// a pin/unpin round trip, so bulk readers should use ColumnCursor.
  std::uint32_t Get(std::uint64_t row) const;

 private:
  friend class ColumnCursor;

  std::size_t PageValidBytes(std::uint64_t page) const;

  std::unique_ptr<SpillFile> file_;
  PageCache* cache_;
  std::vector<std::uint32_t> staging_;  // one open page of pending appends
  MemoryReservation staging_reservation_;
  std::uint64_t size_ = 0;
  bool sealed_ = false;
  void* map_addr_ = nullptr;
  std::size_t map_bytes_ = 0;
};

/// Forward scan over rows [begin, end) of a sealed PagedColumn, handing
/// out contiguous in-page spans: the existing columnar loops (the FNV
/// signature fold, simd::HilbertEncodeBlock, min/max and histogram
/// sweeps) run unchanged on each span. On a mapped column the very first
/// Next() yields the whole range as a single span; on an unmapped column
/// each span is one page, pinned while the caller holds it and unpinned
/// by the following Next() (or the destructor), so a scan holds exactly
/// one cache frame at a time.
class ColumnCursor {
 public:
  ColumnCursor(const PagedColumn& column, std::uint64_t begin, std::uint64_t end);
  explicit ColumnCursor(const PagedColumn& column) : ColumnCursor(column, 0, column.size()) {}
  ~ColumnCursor();
  ColumnCursor(const ColumnCursor&) = delete;
  ColumnCursor& operator=(const ColumnCursor&) = delete;

  /// Advances to the next span; false at the end of the range.
  bool Next(std::span<const std::uint32_t>* span);

 private:
  void ReleasePin();

  const PagedColumn* column_;
  std::uint64_t pos_;
  std::uint64_t end_;
  bool pinned_ = false;
  std::uint64_t pinned_page_ = 0;
};

/// A sealed out-of-core table: one PagedColumn per QI attribute plus the
/// SA column, sharing one bounded PageCache. When built with map_on_seal
/// (the production path), resident() exposes the mappings as a borrowed
/// Table, so every solver and the shared post-processing run on it
/// unchanged -- the OS pages column bytes in and out beneath the fixed
/// virtual mapping, while the explicitly budgeted structures (cache
/// frames, staging pages, external-sort runs) stay within MemoryBudget.
class PagedTable {
 public:
  const Schema& schema() const { return schema_; }
  std::uint64_t size() const { return rows_; }
  std::size_t qi_count() const { return schema_.qi_count(); }

  const PagedColumn& qi(AttrId attr) const { return *qi_columns_[attr]; }
  const PagedColumn& sa() const { return *sa_column_; }

  PageCache& cache() const { return *cache_; }

  /// The borrowed in-RAM view over the sealed mappings (map_on_seal only).
  const Table& resident() const;
  bool has_resident() const { return resident_.has_value(); }

  /// Streaming SA histogram via ColumnCursor spans (works unmapped).
  std::vector<std::uint32_t> SaHistogramCounts() const;

 private:
  friend class PagedTableBuilder;
  PagedTable() = default;

  Schema schema_;
  std::uint64_t rows_ = 0;
  std::unique_ptr<PageCache> cache_;
  std::vector<std::unique_ptr<PagedColumn>> qi_columns_;
  std::unique_ptr<PagedColumn> sa_column_;
  std::optional<Table> resident_;
};

/// Streaming writer for a PagedTable: rows (or column chunks) go straight
/// into per-column staging pages and spill files, so ingestion never
/// materializes the row set. Finish() validates every column against the
/// schema domains with a cursor sweep (this is the page cache's first
/// production read), seals, maps, and returns the table.
class PagedTableBuilder {
 public:
  struct Options {
    std::size_t page_bytes = kDefaultPageBytes;
    std::size_t cache_frames = 64;
    // e.g. GlobalMemoryBudgetShared(); may be null. Shared so the built
    // table can outlive the budget epoch it was ingested under.
    std::shared_ptr<MemoryBudget> budget;
    bool map_on_seal = true;  // tests disable to force cache reads
  };

  /// Creates the spill files; null + `error` when temp space is missing.
  static std::unique_ptr<PagedTableBuilder> Create(std::size_t qi_count, const Options& options,
                                                   std::string* error);

  std::uint64_t size() const { return rows_; }
  std::size_t qi_count() const { return qi_columns_.size(); }

  /// Appends one row: qi_values.size() must equal qi_count().
  void AppendRow(std::span<const Value> qi_values, SaValue sa);

  /// Bulk append of one column's next `count` values (columns may be fed
  /// independently but must all reach the same length by Finish).
  void AppendQiChunk(AttrId attr, const Value* values, std::size_t count);
  void AppendSaChunk(const SaValue* values, std::size_t count);

  /// Validates against `schema`, seals (and maps, per options) every
  /// column, and returns the finished table; null + `error` on
  /// out-of-domain values, ragged columns, or mapping failure.
  std::unique_ptr<PagedTable> Finish(Schema schema, std::string* error);

 private:
  explicit PagedTableBuilder(Options options) : options_(options) {}

  Options options_;
  std::uint64_t rows_ = 0;
  std::unique_ptr<PageCache> cache_;
  std::vector<std::unique_ptr<PagedColumn>> qi_columns_;
  std::unique_ptr<PagedColumn> sa_column_;
};

}  // namespace ldv

#endif  // LDIV_COMMON_PAGED_COLUMN_H_
