// Release writer/reader round-trip tests.

#include "anonymity/release.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/csv.h"
#include "core/anonymizer.h"
#include "test_util.h"

namespace ldv {
namespace {

TEST(Release, RoundTripPreservesStarsAndValues) {
  Table table = testutil::PaperTable1();
  AnonymizationOutcome outcome = Anonymize(table, 2, Algorithm::kTp);
  ASSERT_TRUE(outcome.feasible);
  GeneralizedTable generalized(table, outcome.partition);

  std::string path = ::testing::TempDir() + "/ldv_release.csv";
  std::string error;
  ASSERT_TRUE(WriteReleaseCsv(table, generalized, path, &error)) << error;
  auto rows = ReadReleaseCsv(table.schema(), path);
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), table.size());

  // Star count in the file matches the generalization.
  std::uint64_t stars = 0;
  for (const ReleaseRow& row : *rows) {
    for (Value v : row.qi) stars += IsStar(v) ? 1 : 0;
  }
  EXPECT_EQ(stars, generalized.StarCount());
  EXPECT_EQ(stars, outcome.stars);

  // SA histogram is preserved exactly (Definition 1 keeps SA values).
  std::vector<std::uint32_t> counts(table.schema().sa_domain_size(), 0);
  for (const ReleaseRow& row : *rows) ++counts[row.sa];
  EXPECT_EQ(counts, table.SaHistogramCounts());
  std::remove(path.c_str());
}

TEST(Release, NonStarValuesMatchOriginals) {
  Table table = testutil::PaperTable1();
  AnonymizationOutcome outcome = Anonymize(table, 2, Algorithm::kTpPlus);
  ASSERT_TRUE(outcome.feasible);
  GeneralizedTable generalized(table, outcome.partition);
  std::string path = ::testing::TempDir() + "/ldv_release2.csv";
  std::string error;
  ASSERT_TRUE(WriteReleaseCsv(table, generalized, path, &error)) << error;
  auto rows = ReadReleaseCsv(table.schema(), path);
  ASSERT_TRUE(rows.has_value());
  // Row order in the file follows the partition's groups; rebuild that
  // order and compare non-star cells to the microdata.
  std::size_t file_idx = 0;
  for (GroupId g = 0; g < generalized.group_count(); ++g) {
    for (RowId r : generalized.rows(g)) {
      const ReleaseRow& row = (*rows)[file_idx++];
      for (AttrId a = 0; a < table.qi_count(); ++a) {
        if (!IsStar(row.qi[a])) EXPECT_EQ(row.qi[a], table.qi(r, a));
      }
      EXPECT_EQ(row.sa, table.sa(r));
    }
  }
}

TEST(Release, ReaderRejectsCorruptFiles) {
  std::string path = ::testing::TempDir() + "/ldv_release_bad.csv";
  Schema schema = testutil::MakeSchema({3}, 2);
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("A1,B\n7,0\n", f);  // 7 outside domain of size 3
    fclose(f);
  }
  EXPECT_FALSE(ReadReleaseCsv(schema, path).has_value());
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("A1,B\n1,*\n", f);  // SA may never be a star
    fclose(f);
  }
  EXPECT_FALSE(ReadReleaseCsv(schema, path).has_value());
  std::remove(path.c_str());
}

TEST(Release, ReaderRejectsAReleaseTruncatedInsideAQuotedCell) {
  // Comma-bearing SA labels are quoted in a release; a file cut off before
  // the last closing quote must not parse as a complete release.
  const std::string input = ::testing::TempDir() + "/ldv_release_raw.csv";
  {
    std::ofstream out(input);
    out << "City,Disease\nLisbon,\"flu, mild\"\nPorto,asthma\nLisbon,asthma\n";
  }
  CsvError csv_error;
  std::optional<Table> table = ReadRawTableCsv(input, &csv_error);
  ASSERT_TRUE(table.has_value()) << csv_error.ToString();

  const std::string path = ::testing::TempDir() + "/ldv_release_quoted.csv";
  const std::string release = "City,Disease\n*,\"flu, mild\"\n*,asthma\n*,\"flu, mild\"\n";
  for (bool truncated : {false, true}) {
    {
      std::ofstream out(path);
      out << (truncated ? release.substr(0, release.size() - 2) : release);
    }
    std::optional<std::vector<ReleaseRow>> rows = ReadReleaseCsv(table->schema(), path);
    if (truncated) {
      EXPECT_FALSE(rows.has_value()) << "a release cut off mid-quote parsed as complete";
    } else {
      ASSERT_TRUE(rows.has_value());
      EXPECT_EQ(rows->size(), 3u);
    }
  }
  std::remove(input.c_str());
  std::remove(path.c_str());
}

TEST(Release, MissingFileReported) {
  Schema schema = testutil::MakeSchema({3}, 2);
  EXPECT_FALSE(ReadReleaseCsv(schema, "/nonexistent/release.csv").has_value());
}

}  // namespace
}  // namespace ldv
