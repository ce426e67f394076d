// Byte-identity gate for the out-of-core engine: everything the paged
// data plane touches -- streamed ingestion (CSV and synthetic), the
// chunked GroupedTable build, the external Hilbert order, and the full
// six-algorithm pipeline under a tight memory budget with heavy page
// eviction -- must reproduce the in-RAM results bit for bit. The budget
// may only change WHERE bytes live, never WHICH bytes come out.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/grouped_table.h"
#include "common/memory_budget.h"
#include "common/workspace.h"
#include "core/anonymizer.h"
#include "data/acs_generator.h"
#include "data/dataset.h"
#include "hilbert/hilbert_curve.h"
#include "hilbert/hilbert_partitioner.h"
#include "test_util.h"

namespace ldv {
namespace {

// Every test must leave the process-wide budget unlimited, whatever path
// it exits through -- other tests assume the in-RAM defaults.
class PagedEquivalence : public ::testing::Test {
 protected:
  void TearDown() override { SetMemoryBudget(0); }
};

// Tiny pages and few frames: even small test tables span many pages and
// the bounded cache must evict constantly.
PagedTableBuilder::Options TinyPages() {
  PagedTableBuilder::Options options;
  options.page_bytes = 4096;
  options.cache_frames = 8;
  options.budget = GlobalMemoryBudgetShared();
  return options;
}

std::string DataPath(const std::string& name) {
  // ctest may run from the build directory; fall back to the source dir.
  std::string relative = "tests/data/" + name;
  std::ifstream probe(relative);
  if (probe.good()) return relative;
  return std::string(LDIV_SOURCE_DIR) + "/" + relative;
}

void ExpectSameTable(const Table& expected, const Table& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  ASSERT_EQ(expected.qi_count(), actual.qi_count());
  EXPECT_EQ(expected.schema(), actual.schema());
  for (AttrId a = 0; a < expected.qi_count(); ++a) {
    EXPECT_TRUE(std::ranges::equal(expected.column(a), actual.column(a))) << "attr " << a;
  }
  EXPECT_TRUE(std::ranges::equal(expected.sa_column(), actual.sa_column()));
}

void ExpectSameGroups(const GroupedTable& expected, const GroupedTable& actual) {
  ASSERT_EQ(expected.group_count(), actual.group_count());
  for (GroupId g = 0; g < expected.group_count(); ++g) {
    const QiGroup& e = expected.group(g);
    const QiGroup& a = actual.group(g);
    ASSERT_TRUE(std::ranges::equal(e.qi_values, a.qi_values)) << "group " << g;
    ASSERT_TRUE(std::ranges::equal(e.rows, a.rows)) << "group " << g;
    ASSERT_TRUE(std::ranges::equal(e.sa_runs, a.sa_runs)) << "group " << g;
  }
}

TEST_F(PagedEquivalence, GeneratorPagedMatchesInRam) {
  for (const char* name : {"sal", "occ"}) {
    for (std::size_t d : {std::size_t{7}, std::size_t{3}}) {
      SCOPED_TRACE(std::string(name) + " d=" + std::to_string(d));
      DatasetSpec spec;
      spec.name = name;
      spec.n = 5000;
      spec.d = d;
      std::string error;
      std::optional<Table> expected = GenerateDataset(spec, &error);
      ASSERT_TRUE(expected.has_value()) << error;
      std::unique_ptr<PagedTable> paged = GenerateDatasetPaged(spec, TinyPages(), &error);
      ASSERT_NE(paged, nullptr) << error;
      ExpectSameTable(*expected, paged->resident());
    }
  }
}

TEST_F(PagedEquivalence, CodedCsvPagedMatchesInRamReader) {
  Schema schema({Attribute{"Age", 79}, Attribute{"Gender", 2}, Attribute{"Race", 9}},
                Attribute{"Income", 50});
  const std::string path = DataPath("micro.csv");
  CsvError error;
  std::optional<Table> expected = ReadTableCsv(schema, path, &error);
  ASSERT_TRUE(expected.has_value()) << error.ToString();
  std::unique_ptr<PagedTable> paged = ReadTableCsvPaged(schema, path, TinyPages(), &error);
  ASSERT_NE(paged, nullptr) << error.ToString();
  ExpectSameTable(*expected, paged->resident());
}

TEST_F(PagedEquivalence, RawCsvPagedMatchesInRamReaderIncludingDictionaries) {
  const std::string path = DataPath("micro_raw.csv");
  CsvError error;
  std::optional<Table> expected = ReadRawTableCsv(path, &error);
  ASSERT_TRUE(expected.has_value()) << error.ToString();
  std::unique_ptr<PagedTable> paged = ReadRawTableCsvPaged(path, TinyPages(), &error);
  ASSERT_NE(paged, nullptr) << error.ToString();
  ExpectSameTable(*expected, paged->resident());
  // Dictionaries are data payload (schema equality ignores them): require
  // the insertion-ordered labels to agree code for code.
  const Schema& e = expected->schema();
  const Schema& a = paged->resident().schema();
  for (AttrId attr = 0; attr < e.qi_count(); ++attr) {
    EXPECT_TRUE(e.qi(attr).dictionary == a.qi(attr).dictionary) << "attr " << attr;
  }
  EXPECT_TRUE(e.sensitive().dictionary == a.sensitive().dictionary);
}

TEST_F(PagedEquivalence, AllAlgorithmsByteIdenticalUnderTightBudget) {
  DatasetSpec spec;
  spec.n = 30000;
  spec.d = 3;

  // Unbudgeted reference: in-RAM generation, sharded grouping, one-run
  // Hilbert sort.
  std::string error;
  std::optional<Table> in_ram = GenerateDataset(spec, &error);
  ASSERT_TRUE(in_ram.has_value()) << error;
  std::vector<AnonymizationOutcome> reference;
  for (Algorithm algo : kAllAlgorithms) {
    reference.push_back(Anonymize(*in_ram, 4, algo, AnonymizerOptions{}));
    ASSERT_TRUE(reference.back().feasible) << AlgorithmName(algo);
  }

  // 256 KiB budget: far below the 32n sharded-grouping scratch (960 KB)
  // and the 16n Hilbert sort buffer (480 KB), so every budget-aware
  // dispatch takes its streaming path, over a paged table whose 8-frame
  // 4 KiB-page cache evicted heavily during ingestion validation.
  SetMemoryBudget(256u << 10);
  std::unique_ptr<PagedTable> paged = GenerateDatasetPaged(spec, TinyPages(), &error);
  ASSERT_NE(paged, nullptr) << error;
  EXPECT_GT(paged->cache().stats().evictions, 0u);
  const Table& table = paged->resident();

  Workspace ws;
  for (std::size_t i = 0; i < kAllAlgorithms.size(); ++i) {
    const Algorithm algo = kAllAlgorithms[i];
    SCOPED_TRACE(AlgorithmName(algo));
    AnonymizationOutcome outcome = Anonymize(table, 4, algo, AnonymizerOptions{}, &ws);
    ASSERT_TRUE(outcome.feasible);
    EXPECT_EQ(reference[i].stars, outcome.stars);
    EXPECT_EQ(reference[i].suppressed_tuples, outcome.suppressed_tuples);
    EXPECT_EQ(reference[i].kl_divergence, outcome.kl_divergence);
    ASSERT_EQ(reference[i].partition.group_count(), outcome.partition.group_count());
    for (GroupId g = 0; g < outcome.partition.group_count(); ++g) {
      ASSERT_EQ(reference[i].partition.group(g), outcome.partition.group(g)) << "group " << g;
    }
  }
}

TEST_F(PagedEquivalence, ChunkedGroupingMatchesShardedBuild) {
  Table sal = GenerateSal(20000, 1);
  Table t = sal.ProjectQi({0, 2, 5});
  Workspace ws;
  GroupedTable sharded(t, &ws);

  // Explicit chunked build, in-RAM sorter path.
  GroupedTable chunked = GroupedTable::BuildChunked(t, &ws);
  ExpectSameGroups(sharded, chunked);

  // Tiny sort buffer: the (gid, sa, row) stream spills into many runs and
  // the k-way merge must reassemble the identical arena layout.
  GroupedTable spilled = GroupedTable::BuildChunked(t, &ws, /*sort_buffer_records=*/1024);
  ExpectSameGroups(sharded, spilled);

  // Budget-driven dispatch inside the constructor picks the chunked path
  // when the sharded scratch would not fit.
  SetMemoryBudget(64u << 10);
  GroupedTable dispatched(t, &ws);
  ExpectSameGroups(sharded, dispatched);
}

// The Hilbert row order takes one ExternalSorter path at every budget;
// the budget only decides whether the sort finishes as one in-RAM run or
// spills runs and merges them. `spills` pins which of the two each case
// exercises.
struct OrderBudgetCase {
  const char* name;
  std::uint64_t budget_bytes;  // 0 = unlimited
  bool spills;
};

class HilbertOrderAcrossBudgets : public PagedEquivalence,
                                  public ::testing::WithParamInterface<OrderBudgetCase> {};

TEST_P(HilbertOrderAcrossBudgets, MatchesAPlainSortOfTheCodes) {
  Table sal = GenerateSal(150000, 1);
  Table t = sal.ProjectQi({0, 2, 3, 5});

  // Oracle: every row's Hilbert code, rows sorted by (code, row id). The
  // SAL domains fit the 16 bits per dimension a 4-d curve gets, so no
  // coarsening applies.
  std::uint32_t bits = 1;
  for (AttrId a = 0; a < t.qi_count(); ++a) {
    bits = std::max(bits, HilbertCurve::BitsForDomain(t.schema().qi(a).domain_size));
  }
  HilbertCurve curve(static_cast<std::uint32_t>(t.qi_count()), bits);
  std::vector<std::uint64_t> codes(t.size());
  std::vector<std::uint32_t> coords(t.qi_count());
  for (RowId r = 0; r < t.size(); ++r) {
    for (AttrId a = 0; a < t.qi_count(); ++a) coords[a] = t.column(a)[r];
    codes[r] = curve.Encode(coords);
  }
  std::vector<RowId> expected(t.size());
  std::iota(expected.begin(), expected.end(), 0u);
  std::sort(expected.begin(), expected.end(), [&](RowId a, RowId b) {
    return codes[a] != codes[b] ? codes[a] < codes[b] : a < b;
  });

  // A never-firing arm makes the failpoint layer count the sorter's run
  // spills without injecting anything.
  SetMemoryBudget(GetParam().budget_bytes);
  failpoint::Arm(failpoint::Site::kExtSortSpill, failpoint::Injection{}, ~std::uint64_t{0});
  std::vector<RowId> order;
  HilbertComputeOrder(t, nullptr, &order);
  std::uint64_t spills = 0;
  for (const failpoint::SiteStats& stats : failpoint::Stats()) {
    if (stats.site == failpoint::Site::kExtSortSpill) spills = stats.evaluations;
  }
  failpoint::DisarmAll();

  EXPECT_EQ(order, expected);
  if (GetParam().spills) {
    EXPECT_GE(spills, 2u) << "the budget must force a multi-run spill";
  } else {
    EXPECT_EQ(spills, 0u) << "the sort must finish as one in-RAM run";
  }
}

// 150k rows: 16n = 2.4 MB of sort records. 4 MiB holds them all; 64 KiB
// clamps the run buffer to its 64Ki-record floor, so the rows spill as
// three runs.
INSTANTIATE_TEST_SUITE_P(
    Budgets, HilbertOrderAcrossBudgets,
    ::testing::Values(OrderBudgetCase{"Unbudgeted", 0, false},
                      OrderBudgetCase{"BudgetHolds16n", 4u << 20, false},
                      OrderBudgetCase{"MultiRunSpill", 64u << 10, true}),
    [](const ::testing::TestParamInfo<OrderBudgetCase>& info) { return info.param.name; });

}  // namespace
}  // namespace ldv
