#ifndef LDIV_COMMON_WORKSPACE_H_
#define LDIV_COMMON_WORKSPACE_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace ldv {

/// A recycling pool of std::vector<T> buffers. Acquire() hands out a
/// cleared buffer that keeps whatever capacity it accumulated in earlier
/// uses; Release() returns it. The first few solves grow the buffers to
/// their steady-state sizes, after which the pool serves every request
/// without touching the allocator.
template <typename T>
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A cleared buffer, most recently released first (LIFO keeps the
  /// still-cache-warm buffer in circulation).
  std::vector<T> Acquire() {
    if (free_.empty()) return {};
    std::vector<T> v = std::move(free_.back());
    free_.pop_back();
    v.clear();
    return v;
  }

  /// Returns a buffer to the pool.
  void Release(std::vector<T>&& v) { free_.push_back(std::move(v)); }

  /// Number of idle buffers currently pooled.
  std::size_t idle() const { return free_.size(); }

 private:
  std::vector<std::vector<T>> free_;
};

/// RAII handle for a pooled buffer: acquires on construction, releases on
/// destruction. Use like a smart pointer to std::vector<T>.
template <typename T>
class ScratchVec {
 public:
  explicit ScratchVec(BufferPool<T>* pool) : pool_(pool), v_(pool->Acquire()) {}
  ScratchVec(ScratchVec&& other) noexcept
      : pool_(other.pool_), v_(std::move(other.v_)) {
    other.pool_ = nullptr;
  }
  ScratchVec(const ScratchVec&) = delete;
  ScratchVec& operator=(const ScratchVec&) = delete;
  ScratchVec& operator=(ScratchVec&&) = delete;
  ~ScratchVec() {
    if (pool_ != nullptr) pool_->Release(std::move(v_));
  }

  std::vector<T>& operator*() { return v_; }
  const std::vector<T>& operator*() const { return v_; }
  std::vector<T>* operator->() { return &v_; }
  const std::vector<T>* operator->() const { return &v_; }

 private:
  BufferPool<T>* pool_;
  std::vector<T> v_;
};

/// Per-solve scratch memory, shared across the solver hot paths so that
/// repeated solves (sweeps, AnonymizeBatch workers) stop re-allocating:
/// GroupedTable's signature index, Mondrian's row/median/histogram buffers
/// and the Hilbert code/order arrays all draw from here. A Workspace is
/// cheap to construct (no allocation until first use) and is NOT
/// thread-safe -- use one per thread; AnonymizeBatch keeps one per worker.
///
/// All of the repository's index types (RowId, Value, SaValue, GroupId,
/// counts) are 32-bit, so a single 32-bit pool serves them all; the 64-bit
/// pool serves Hilbert codes, hashes and packed point ids.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// A recycled 32-bit buffer (row ids, values, counts, offsets...).
  ScratchVec<std::uint32_t> U32() { return ScratchVec<std::uint32_t>(&u32_); }

  /// A recycled 64-bit buffer (Hilbert codes, hashes, packed ids...).
  ScratchVec<std::uint64_t> U64() { return ScratchVec<std::uint64_t>(&u64_); }

  BufferPool<std::uint32_t>& u32_pool() { return u32_; }
  BufferPool<std::uint64_t>& u64_pool() { return u64_; }

 private:
  BufferPool<std::uint32_t> u32_;
  BufferPool<std::uint64_t> u64_;
};

}  // namespace ldv

#endif  // LDIV_COMMON_WORKSPACE_H_
