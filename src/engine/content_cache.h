#ifndef LDIV_ENGINE_CONTENT_CACHE_H_
#define LDIV_ENGINE_CONTENT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/grouped_table.h"
#include "common/table.h"
#include "common/types.h"
#include "data/dataset.h"

namespace ldv {

/// The engine's one cache mechanism, under both the DatasetCache (input
/// tables) and the ArtifactCache (derived solver artifacts): a
/// mutex-guarded LRU keyed by a content-identity string, holding shared
/// ownership of immutable values up to a byte capacity. Eviction drops
/// the cache's reference only -- a job still holding a value keeps it
/// alive, which is all the read-pin a daemon worker or batch thread
/// needs. The typed front-ends below own the key functions and the value
/// types.
class ContentCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t resident_bytes = 0;
    std::uint64_t entries = 0;
    /// Materializations that skipped the cache because the table was truly
    /// paged (see RecordPagedBypass); only the DatasetCache records these.
    std::uint64_t bypassed_paged = 0;
  };

  /// `capacity_bytes` == 0 disables caching (every Lookup misses).
  explicit ContentCache(std::uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// The cached value for `key`, or null on a miss. Counts hit/miss.
  std::shared_ptr<const void> Lookup(const std::string& key);

  /// Caches `value` (estimated at `bytes` resident) under `key`, evicting
  /// least-recently-used entries past capacity. An entry larger than the
  /// whole capacity is not cached; re-inserting a key refreshes its
  /// recency.
  void Insert(const std::string& key, std::shared_ptr<const void> value, std::uint64_t bytes);

  /// Re-sizes the byte budget, evicting past the new capacity. Runs
  /// serialize on the engine's run lock, so a per-job --artifact-cache
  /// override simply retunes the shared cache for the duration.
  void SetCapacity(std::uint64_t capacity_bytes);

  /// Records a materialization that bypassed the cache because the table
  /// came up paged (see DatasetCache).
  void RecordPagedBypass();

  Stats stats() const;
  std::uint64_t capacity_bytes() const;
  void Clear();

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const void> value;
    std::uint64_t bytes = 0;
  };

  void EvictPastCapacityLocked();

  mutable std::mutex mutex_;
  std::uint64_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

struct EngineTable;

/// Cross-job cache of materialized input tables, the piece that lets a
/// long-running daemon skip straight to the solve on repeat traffic,
/// keyed by content identity (CSV inputs by the file's identity plus
/// format and schema, synthetic inputs by their fully resolved generator
/// label).
///
/// Only in-RAM tables are cached: a --memory-budget run that pages its
/// table holds page-cache and staging reservations against the budget
/// epoch of *that* run, and serving it to later runs would pin spill files
/// and misattribute its resident bytes, so paged tables are rebuilt per
/// run (the bypass is counted in Stats::bypassed_paged). Budgeted runs
/// whose table fits in RAM cache normally.
class DatasetCache : public ContentCache {
 public:
  using ContentCache::ContentCache;

  std::shared_ptr<const EngineTable> Lookup(const std::string& key) {
    return std::static_pointer_cast<const EngineTable>(ContentCache::Lookup(key));
  }
  void Insert(const std::string& key, std::shared_ptr<const EngineTable> table,
              std::uint64_t bytes) {
    ContentCache::Insert(key, std::move(table), bytes);
  }

  /// Content-identity key of a CSV input: format + schema + path + the
  /// file's device, inode, size, and mtime and ctime in nanoseconds. The
  /// ctime cannot be set from user space, so an in-place rewrite misses
  /// even when it keeps the size and restores the mtime, and a
  /// rename-over changes the inode. Returns "" (uncacheable; caller loads
  /// directly) when the file cannot be stat'ed -- the loader then reports
  /// the real open error.
  static std::string CsvKey(const std::string& path, CsvFormat format,
                            const std::string& schema_spec);

  /// Content-identity key of a synthetic table: the resolved generator
  /// label (name, n, seed, d), which fully determines the rows.
  static std::string SyntheticKey(const DatasetSpec& resolved_cell);
};

/// Cross-job cache of derived solver artifacts -- the GroupedTable
/// signature index and the sorted Hilbert row order -- keyed by the
/// dataset's DatasetCache key plus a QI-schema fingerprint (both
/// artifacts depend only on the data and its schema, never on `l` or the
/// algorithm).
///
/// Cached GroupedTables must have released their arena reservation
/// (GroupedTable::ReleaseBudgetCharge) before insertion -- the process
/// MemoryBudget starts a fresh epoch per run, and a cached artifact must
/// not stay charged to the epoch that built it. The engine charges cache
/// residency to the *current* run's budget instead, with a reservation
/// scoped to the run.
class ArtifactCache : public ContentCache {
 public:
  using ContentCache::ContentCache;

  /// The cached grouping / order for an artifact key, or null on a miss.
  std::shared_ptr<const GroupedTable> LookupGrouped(const std::string& key) {
    return std::static_pointer_cast<const GroupedTable>(Lookup(key));
  }
  std::shared_ptr<const std::vector<RowId>> LookupOrder(const std::string& key) {
    return std::static_pointer_cast<const std::vector<RowId>>(Lookup(key));
  }
  void InsertGrouped(const std::string& key, std::shared_ptr<const GroupedTable> grouped,
                     std::uint64_t bytes) {
    Insert(key, std::move(grouped), bytes);
  }
  void InsertOrder(const std::string& key, std::shared_ptr<const std::vector<RowId>> order,
                   std::uint64_t bytes) {
    Insert(key, std::move(order), bytes);
  }

  /// Full artifact keys: the artifact kind, the dataset's DatasetCache
  /// content key, and the QI-schema fingerprint.
  static std::string GroupedKey(const std::string& dataset_key, const Table& table);
  static std::string OrderKey(const std::string& dataset_key, const Table& table);

  /// Compact fingerprint of the table's QI schema (attribute count and
  /// per-attribute domain sizes) and SA domain -- everything the grouping
  /// and the Hilbert encode depend on beyond the row data itself.
  static std::string SchemaFingerprint(const Table& table);
};

}  // namespace ldv

#endif  // LDIV_ENGINE_CONTENT_CACHE_H_
