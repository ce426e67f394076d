// Unit tests of the out-of-core building blocks: byte-size parsing and
// the MemoryBudget accounting, SpillFile round trips, PageCache
// pin/evict/refault behavior, PagedColumn staging + cursor spans, the
// PagedTableBuilder -> Table bridge, and ExternalSorter ordering on both
// the in-RAM fast path and forced multi-run spills.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "common/external_sort.h"
#include "common/memory_budget.h"
#include "common/page_cache.h"
#include "common/paged_column.h"
#include "common/rng.h"
#include "test_util.h"

namespace ldv {
namespace {

TEST(ParseByteSize, AcceptsIntegersAndBinarySuffixes) {
  std::uint64_t bytes = 0;
  std::string error;
  EXPECT_TRUE(ParseByteSize("0", &bytes, &error));
  EXPECT_EQ(bytes, 0u);
  EXPECT_TRUE(ParseByteSize("123", &bytes, &error));
  EXPECT_EQ(bytes, 123u);
  EXPECT_TRUE(ParseByteSize("4K", &bytes, &error));
  EXPECT_EQ(bytes, 4096u);
  EXPECT_TRUE(ParseByteSize("512M", &bytes, &error));
  EXPECT_EQ(bytes, 512ull << 20);
  EXPECT_TRUE(ParseByteSize("2g", &bytes, &error));
  EXPECT_EQ(bytes, 2ull << 30);
  EXPECT_TRUE(ParseByteSize("1T", &bytes, &error));
  EXPECT_EQ(bytes, 1ull << 40);
  // Optional iB / B spellings.
  EXPECT_TRUE(ParseByteSize("512MiB", &bytes, &error));
  EXPECT_EQ(bytes, 512ull << 20);
  EXPECT_TRUE(ParseByteSize("4kb", &bytes, &error));
  EXPECT_EQ(bytes, 4096u);
  EXPECT_TRUE(ParseByteSize("100B", &bytes, &error));
  EXPECT_EQ(bytes, 100u);
}

TEST(ParseByteSize, RejectsMalformedAndOverflowingSizes) {
  std::uint64_t bytes = 0;
  std::string error;
  for (const char* bad : {"", "M", "12X", "abc", "1MM", "12 M", "-1", "1Mx"}) {
    EXPECT_FALSE(ParseByteSize(bad, &bytes, &error)) << bad;
    EXPECT_NE(error.find('\''), std::string::npos) << "error should quote the input: " << error;
  }
  // 2^64 overflows both in the digit loop and via the suffix multiply.
  EXPECT_FALSE(ParseByteSize("18446744073709551616", &bytes, &error));
  EXPECT_NE(error.find("overflow"), std::string::npos);
  EXPECT_FALSE(ParseByteSize("99999999999T", &bytes, &error));
  EXPECT_NE(error.find("overflow"), std::string::npos);
}

TEST(FormatByteSize, PrintsExactMultiplesWithSuffix) {
  EXPECT_EQ(FormatByteSize(512ull << 20), "512M");
  EXPECT_EQ(FormatByteSize(4ull << 30), "4G");
  EXPECT_EQ(FormatByteSize(1ull << 10), "1K");
  EXPECT_EQ(FormatByteSize(1234), "1234");
  EXPECT_EQ(FormatByteSize(0), "0");
}

TEST(MemoryBudget, TracksUsedPeakAndRemaining) {
  MemoryBudget budget(1000);
  EXPECT_FALSE(budget.unlimited());
  EXPECT_EQ(budget.remaining(), 1000u);
  EXPECT_TRUE(budget.WouldFit(1000));
  EXPECT_FALSE(budget.WouldFit(1001));

  budget.Charge(600);
  EXPECT_EQ(budget.used(), 600u);
  EXPECT_EQ(budget.remaining(), 400u);
  EXPECT_TRUE(budget.WouldFit(400));
  EXPECT_FALSE(budget.WouldFit(401));

  // Charge never fails; overshoot shows up in used()/peak() and remaining
  // saturates at zero.
  budget.Charge(600);
  EXPECT_EQ(budget.used(), 1200u);
  EXPECT_EQ(budget.remaining(), 0u);
  EXPECT_FALSE(budget.WouldFit(1));

  budget.Release(1200);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 1200u);  // high-water mark survives releases
}

TEST(MemoryBudget, UnlimitedBudgetAlwaysFits) {
  MemoryBudget budget(0);
  EXPECT_TRUE(budget.unlimited());
  EXPECT_TRUE(budget.WouldFit(~0ull));
  budget.Charge(123);
  EXPECT_EQ(budget.used(), 123u);  // accounting still works
  budget.Release(123);
}

TEST(MemoryReservation, RaiiAndMoveSemantics) {
  auto budget = std::make_shared<MemoryBudget>(1 << 20);
  {
    MemoryReservation r(budget, 1000);
    EXPECT_EQ(budget->used(), 1000u);
    r.Resize(400);
    EXPECT_EQ(budget->used(), 400u);
    r.Resize(800);
    EXPECT_EQ(budget->used(), 800u);
    MemoryReservation moved = std::move(r);
    EXPECT_EQ(moved.bytes(), 800u);
    EXPECT_EQ(budget->used(), 800u);  // a move transfers, never double-counts
  }
  EXPECT_EQ(budget->used(), 0u);
  // Null budget: every operation is a no-op.
  MemoryReservation null_res(nullptr, 1 << 30);
  null_res.Resize(1);
  null_res.Reset();
}

TEST(SpillFile, AllocateWriteReadRoundTrip) {
  std::string error;
  std::unique_ptr<SpillFile> file = SpillFile::Create(&error);
  ASSERT_NE(file, nullptr) << error;
  EXPECT_FALSE(file->directory().empty());
  EXPECT_EQ(file->size(), 0u);

  std::vector<std::uint32_t> a(100), b(50);
  std::iota(a.begin(), a.end(), 1000);
  std::iota(b.begin(), b.end(), 7);
  const std::uint64_t off_a = file->Allocate(a.size() * sizeof(std::uint32_t));
  const std::uint64_t off_b = file->Allocate(b.size() * sizeof(std::uint32_t));
  EXPECT_EQ(off_a, 0u);
  EXPECT_EQ(off_b, a.size() * sizeof(std::uint32_t));
  file->Write(off_a, a.data(), a.size() * sizeof(std::uint32_t));
  file->Write(off_b, b.data(), b.size() * sizeof(std::uint32_t));

  std::vector<std::uint32_t> back(100);
  file->Read(off_a, back.data(), back.size() * sizeof(std::uint32_t));
  EXPECT_EQ(back, a);
  back.resize(50);
  file->Read(off_b, back.data(), back.size() * sizeof(std::uint32_t));
  EXPECT_EQ(back, b);

  // Ids are process-unique so the page cache can key frames by (id, page).
  std::unique_ptr<SpillFile> other = SpillFile::Create(&error);
  ASSERT_NE(other, nullptr) << error;
  EXPECT_NE(file->id(), other->id());
}

// Writes `pages` pages of 16 u32s each, page p filled with p * 1000 + i.
std::unique_ptr<SpillFile> MakePagedFile(std::size_t pages, std::size_t page_bytes) {
  std::string error;
  std::unique_ptr<SpillFile> file = SpillFile::Create(&error);
  EXPECT_NE(file, nullptr) << error;
  const std::size_t per_page = page_bytes / sizeof(std::uint32_t);
  for (std::size_t p = 0; p < pages; ++p) {
    std::vector<std::uint32_t> data(per_page);
    for (std::size_t i = 0; i < per_page; ++i) {
      data[i] = static_cast<std::uint32_t>(p * 1000 + i);
    }
    file->Write(file->Allocate(page_bytes), data.data(), page_bytes);
  }
  return file;
}

TEST(PageCache, PinsHitAndMiss) {
  constexpr std::size_t kPageBytes = 64;
  std::unique_ptr<SpillFile> file = MakePagedFile(4, kPageBytes);
  auto budget = std::make_shared<MemoryBudget>(1 << 20);
  PageCache cache({kPageBytes, 4, budget});
  EXPECT_EQ(budget->used(), 4 * kPageBytes);  // frames charged up front

  const std::byte* p0 = cache.Pin(*file, 0, kPageBytes);
  std::uint32_t value = 0;
  std::memcpy(&value, p0, sizeof(value));
  EXPECT_EQ(value, 0u);
  std::memcpy(&value, p0 + 4, sizeof(value));
  EXPECT_EQ(value, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.pinned_frames(), 1u);

  // Nested pin of the same page: a hit, still one frame.
  const std::byte* again = cache.Pin(*file, 0, kPageBytes);
  EXPECT_EQ(again, p0);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.pinned_frames(), 1u);
  cache.Unpin(*file, 0);
  EXPECT_EQ(cache.pinned_frames(), 1u);  // one pin still outstanding
  cache.Unpin(*file, 0);
  EXPECT_EQ(cache.pinned_frames(), 0u);

  // An unpinned page stays resident: re-pinning is a hit, not a re-read.
  cache.Pin(*file, 0, kPageBytes);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
  cache.Unpin(*file, 0);
}

TEST(PageCache, EvictsUnpinnedFramesAndCountsRefaults) {
  constexpr std::size_t kPageBytes = 64;
  std::unique_ptr<SpillFile> file = MakePagedFile(8, kPageBytes);
  PageCache cache({kPageBytes, 2, nullptr});

  // Touch 8 pages through 2 frames: 8 misses, 6 evictions.
  for (std::uint64_t p = 0; p < 8; ++p) {
    const std::byte* data = cache.Pin(*file, p, kPageBytes);
    std::uint32_t value = 0;
    std::memcpy(&value, data, sizeof(value));
    EXPECT_EQ(value, static_cast<std::uint32_t>(p * 1000));
    cache.Unpin(*file, p);
  }
  EXPECT_EQ(cache.stats().misses, 8u);
  EXPECT_EQ(cache.stats().evictions, 6u);
  EXPECT_EQ(cache.stats().refaults, 0u);

  // Page 0 was evicted long ago; touching it again is a refault.
  cache.Pin(*file, 0, kPageBytes);
  cache.Unpin(*file, 0);
  EXPECT_EQ(cache.stats().refaults, 1u);

  // A pinned frame is never evicted: pin page 0, then stream the rest --
  // its bytes must stay valid throughout.
  const std::byte* pinned = cache.Pin(*file, 0, kPageBytes);
  for (std::uint64_t p = 1; p < 8; ++p) {
    cache.Pin(*file, p, kPageBytes);
    cache.Unpin(*file, p);
  }
  std::uint32_t value = 0;
  std::memcpy(&value, pinned + 4, sizeof(value));
  EXPECT_EQ(value, 1u);
  cache.Unpin(*file, 0);
}

TEST(PagedColumn, AppendsAcrossPageBoundariesAndServesCursorSpans) {
  constexpr std::size_t kPageBytes = 64;  // 16 values per page
  auto budget = std::make_shared<MemoryBudget>(1 << 20);
  PageCache cache({kPageBytes, 2, budget});
  std::string error;
  std::unique_ptr<SpillFile> file = SpillFile::Create(&error);
  ASSERT_NE(file, nullptr) << error;

  PagedColumn column(std::move(file), &cache, budget);
  // 41 values: two full pages plus a 9-value tail, fed in ragged chunks.
  std::vector<std::uint32_t> values(41);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<std::uint32_t>(i * 3);
  column.Append(values.data(), 10);
  column.Append(values.data() + 10, 25);
  for (std::size_t i = 35; i < values.size(); ++i) column.Append(values[i]);
  EXPECT_EQ(column.size(), values.size());

  ASSERT_TRUE(column.Seal(/*map=*/false, &error)) << error;
  EXPECT_EQ(column.page_count(), 3u);
  EXPECT_FALSE(column.mapped());

  // Random access.
  EXPECT_EQ(column.Get(0), 0u);
  EXPECT_EQ(column.Get(16), 48u);
  EXPECT_EQ(column.Get(40), 120u);

  // Full-range cursor: three spans of 16 / 16 / 9 values.
  ColumnCursor cursor(column);
  std::vector<std::uint32_t> streamed;
  std::vector<std::size_t> span_sizes;
  std::span<const std::uint32_t> span;
  while (cursor.Next(&span)) {
    span_sizes.push_back(span.size());
    streamed.insert(streamed.end(), span.begin(), span.end());
  }
  EXPECT_EQ(span_sizes, (std::vector<std::size_t>{16, 16, 9}));
  EXPECT_EQ(streamed, values);
  EXPECT_EQ(cache.pinned_frames(), 0u);  // cursor released its pin

  // Sub-range cursor starting mid-page.
  ColumnCursor sub(column, 5, 20);
  streamed.clear();
  while (sub.Next(&span)) streamed.insert(streamed.end(), span.begin(), span.end());
  EXPECT_EQ(streamed, std::vector<std::uint32_t>(values.begin() + 5, values.begin() + 20));

  // Mapping the sealed column turns the cursor into one whole-range span.
  ASSERT_TRUE(column.Map(&error)) << error;
  ColumnCursor mapped(column);
  ASSERT_TRUE(mapped.Next(&span));
  EXPECT_EQ(span.size(), values.size());
  EXPECT_FALSE(mapped.Next(&span));
  EXPECT_TRUE(std::equal(span.begin(), span.end(), values.begin()));
}

TEST(PagedTableBuilder, FinishedTableMatchesInRamTable) {
  Rng rng(99);
  Table expected = testutil::RandomEligibleTable(rng, 2000, {16, 8, 5}, 6, 2);

  PagedTableBuilder::Options options;
  options.page_bytes = 256;  // tiny pages: every column spans many pages
  options.cache_frames = 8;
  std::string error;
  std::unique_ptr<PagedTableBuilder> builder =
      PagedTableBuilder::Create(expected.qi_count(), options, &error);
  ASSERT_NE(builder, nullptr) << error;
  for (RowId r = 0; r < expected.size(); ++r) {
    builder->AppendRow(expected.qi_row(r), expected.sa(r));
  }
  std::unique_ptr<PagedTable> paged = builder->Finish(expected.schema(), &error);
  ASSERT_NE(paged, nullptr) << error;

  const Table& resident = paged->resident();
  EXPECT_TRUE(resident.borrowed());
  ASSERT_EQ(resident.size(), expected.size());
  ASSERT_EQ(resident.qi_count(), expected.qi_count());
  for (AttrId a = 0; a < expected.qi_count(); ++a) {
    EXPECT_TRUE(std::ranges::equal(resident.column(a), expected.column(a))) << "attr " << a;
  }
  EXPECT_TRUE(std::ranges::equal(resident.sa_column(), expected.sa_column()));
  EXPECT_EQ(paged->SaHistogramCounts(), expected.SaHistogramCounts());
}

TEST(PagedTableBuilder, ValidationRejectsOutOfDomainAndRaggedColumns) {
  Schema schema = testutil::MakeSchema({4, 3}, 2);
  PagedTableBuilder::Options options;
  options.page_bytes = 64;
  options.cache_frames = 4;
  std::string error;

  // Out-of-domain QI value, detected by the streamed validation sweep.
  std::unique_ptr<PagedTableBuilder> builder = PagedTableBuilder::Create(2, options, &error);
  ASSERT_NE(builder, nullptr) << error;
  for (int i = 0; i < 50; ++i) {
    const Value qi[2] = {static_cast<Value>(i == 37 ? 9 : 1), 2};
    builder->AppendRow(qi, 0);
  }
  EXPECT_EQ(builder->Finish(schema, &error), nullptr);
  EXPECT_NE(error.find("A1"), std::string::npos) << error;

  // Ragged columns (chunked feeding left one column short).
  builder = PagedTableBuilder::Create(2, options, &error);
  ASSERT_NE(builder, nullptr) << error;
  const Value column[3] = {1, 1, 1};
  const SaValue sa[3] = {0, 1, 0};
  builder->AppendQiChunk(0, column, 3);
  builder->AppendQiChunk(1, column, 2);
  builder->AppendSaChunk(sa, 3);
  EXPECT_EQ(builder->Finish(schema, &error), nullptr);
  EXPECT_NE(error.find("ragged"), std::string::npos) << error;
}

TEST(ExternalSorter, InRamFastPathServesSortedRecords) {
  ExternalSorter::Options options;
  options.buffer_records = 1024;
  auto sorter = std::make_unique<ExternalSorter>(options);

  Rng rng(5);
  std::vector<SortRecord> expected;
  for (int i = 0; i < 500; ++i) {
    SortRecord record{rng.Below(64), static_cast<std::uint64_t>(i)};
    expected.push_back(record);
    sorter->Add(record);
  }
  std::sort(expected.begin(), expected.end());
  sorter->Finish();
  EXPECT_EQ(sorter->run_count(), 1u);  // nothing spilled

  std::vector<SortRecord> merged;
  SortRecord out;
  while (sorter->Next(&out)) merged.push_back(out);
  EXPECT_EQ(merged, expected);
}

// A sort whose input fits its buffer -- exactly, here -- never opens a
// spill file: not at construction, not while records arrive, and not on
// Finish or the drain. Unbudgeted Hilbert orders and groupings rely on
// this to stay off disk.
TEST(ExternalSorter, SortThatFitsItsBufferNeverOpensASpillFile) {
  const std::uint64_t baseline = SpillFile::LiveCount();
  ExternalSorter::Options options;
  options.buffer_records = 4096;
  ExternalSorter sorter(options);
  EXPECT_EQ(SpillFile::LiveCount(), baseline);
  Rng rng(3);
  for (std::uint64_t i = 0; i < options.buffer_records; ++i) sorter.Add(rng.Below(1000), i);
  EXPECT_EQ(SpillFile::LiveCount(), baseline);
  sorter.Finish();
  EXPECT_EQ(sorter.run_count(), 1u);
  SortRecord previous{0, 0};
  SortRecord out;
  std::uint64_t drained = 0;
  while (sorter.Next(&out)) {
    EXPECT_FALSE(out < previous);
    previous = out;
    ++drained;
  }
  EXPECT_EQ(drained, options.buffer_records);
  EXPECT_EQ(SpillFile::LiveCount(), baseline);
}

TEST(ExternalSorter, MultiRunMergePreservesTotalOrder) {
  ExternalSorter::Options options;
  options.buffer_records = 128;        // force many spilled runs
  options.merge_buffer_records = 16;   // and many refills per run
  auto budget = std::make_shared<MemoryBudget>(1 << 20);
  options.budget = budget;
  {
    auto sorter = std::make_unique<ExternalSorter>(options);

    Rng rng(17);
    std::vector<SortRecord> expected;
    for (int i = 0; i < 5000; ++i) {
      // Narrow key range: plenty of duplicate keys, so the payload
      // tie-break is what keeps the order total and deterministic.
      SortRecord record{rng.Below(97), static_cast<std::uint64_t>(i)};
      expected.push_back(record);
      sorter->Add(record);
    }
    std::sort(expected.begin(), expected.end());
    sorter->Finish();
    EXPECT_GT(sorter->run_count(), 1u);

    std::vector<SortRecord> merged;
    SortRecord out;
    while (sorter->Next(&out)) merged.push_back(out);
    EXPECT_EQ(merged, expected);
  }
  // Every charge (run buffer, merge buffers) was returned at destruction,
  // and the high-water mark proves the charges happened at all.
  EXPECT_EQ(budget->used(), 0u);
  EXPECT_GT(budget->peak(), 0u);
}

TEST(ExternalSorter, EmptyInputDrainsImmediately) {
  auto sorter = std::make_unique<ExternalSorter>(ExternalSorter::Options{});
  sorter->Finish();
  SortRecord out;
  EXPECT_FALSE(sorter->Next(&out));
  EXPECT_EQ(sorter->record_count(), 0u);
}

}  // namespace
}  // namespace ldv
