#include "engine/content_cache.h"

#include <sys/stat.h>

#include <utility>

#include "common/schema.h"

namespace ldv {

std::shared_ptr<const void> ContentCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return it->second->value;
}

void ContentCache::Insert(const std::string& key, std::shared_ptr<const void> value,
                          std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (bytes > capacity_) return;  // also covers the capacity == 0 (disabled) case
  auto it = index_.find(key);
  if (it != index_.end()) {
    stats_.resident_bytes -= it->second->bytes;
    it->second->value = std::move(value);
    it->second->bytes = bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(value), bytes});
    index_[key] = lru_.begin();
    ++stats_.insertions;
  }
  stats_.resident_bytes += bytes;
  EvictPastCapacityLocked();
}

void ContentCache::EvictPastCapacityLocked() {
  while (stats_.resident_bytes > capacity_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    stats_.resident_bytes -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void ContentCache::SetCapacity(std::uint64_t capacity_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity_bytes;
  EvictPastCapacityLocked();
}

void ContentCache::RecordPagedBypass() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.bypassed_paged;
}

ContentCache::Stats ContentCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats snapshot = stats_;
  snapshot.entries = lru_.size();
  return snapshot;
}

std::uint64_t ContentCache::capacity_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void ContentCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  stats_.resident_bytes = 0;
}

namespace {

std::string Nanoseconds(const struct ::timespec& t) {
  return std::to_string(static_cast<long long>(t.tv_sec) * 1000000000LL + t.tv_nsec);
}

}  // namespace

std::string DatasetCache::CsvKey(const std::string& path, CsvFormat format,
                                 const std::string& schema_spec) {
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0) return "";
  return "csv|" + std::string(CsvFormatName(format)) + "|" + schema_spec + "|" + path + "|" +
         std::to_string(static_cast<unsigned long long>(st.st_dev)) + "|" +
         std::to_string(static_cast<unsigned long long>(st.st_ino)) + "|" +
         std::to_string(static_cast<long long>(st.st_size)) + "|" + Nanoseconds(st.st_mtim) +
         "|" + Nanoseconds(st.st_ctim);
}

std::string DatasetCache::SyntheticKey(const DatasetSpec& resolved_cell) {
  return "syn|" + DatasetLabel(resolved_cell);
}

std::string ArtifactCache::SchemaFingerprint(const Table& table) {
  std::string fp = "d=" + std::to_string(table.qi_count()) + ";dom=";
  for (AttrId a = 0; a < table.qi_count(); ++a) {
    if (a != 0) fp += ',';
    fp += std::to_string(table.schema().qi(a).domain_size);
  }
  fp += ";m=" + std::to_string(table.schema().sa_domain_size());
  return fp;
}

std::string ArtifactCache::GroupedKey(const std::string& dataset_key, const Table& table) {
  return "grouped|" + dataset_key + "|" + SchemaFingerprint(table);
}

std::string ArtifactCache::OrderKey(const std::string& dataset_key, const Table& table) {
  return "hilbert|" + dataset_key + "|" + SchemaFingerprint(table);
}

}  // namespace ldv
