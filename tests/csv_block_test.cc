// Block-boundary tests of CsvReader: CSV files sized from kCsvBlockBytes
// put a line across a block edge, a CRLF pair across it, a line longer
// than a block, a blank line at it, a last line without a newline and an
// unterminated quote in the final partial block. Every case runs through
// all five loaders built on the reader -- coded and raw, in RAM and paged,
// plus ReadReleaseCsv -- which must agree on the rows, on the positioned
// error (line, column, reason), and leave no spill file behind. The last
// test pins the coded loaders' plain-row fast path to the general path on
// the lines it must hand over.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "anonymity/release.h"
#include "common/csv.h"
#include "common/page_cache.h"
#include "test_util.h"

namespace ldv {
namespace {

constexpr std::size_t kEdge = kCsvBlockBytes;

const Schema& CodedSchema() {
  static const Schema schema = testutil::MakeSchema({1000}, 50);  // header "A1,B"
  return schema;
}

// A coded CSV under construction, with the cell text of every data row.
struct CsvFile {
  std::string text = "A1,B\n";
  std::vector<std::pair<std::string, std::string>> rows;

  void Row(const std::string& a, const std::string& b, const char* eol = "\n") {
    text += a + "," + b + eol;
    rows.emplace_back(a, b);
  }

  // Appends rows until the text ends exactly at byte `offset`; the last
  // row's zero-padded cells take up the slack.
  void PadTo(std::size_t offset) {
    ASSERT_GE(offset, text.size() + 4);
    for (std::size_t i = 0; offset - text.size() > 22; ++i) {
      Row(std::to_string(100 + i % 900), std::to_string(10 + i % 40));  // 7 bytes
    }
    const std::size_t digits = offset - text.size() - 2;
    const std::size_t a_digits = digits > 11 ? 10 : digits - 1;
    Row(std::string(a_digits - 1, '0') + "7", std::string(digits - a_digits - 1, '0') + "3");
    ASSERT_EQ(text.size(), offset);
  }

  // The 1-based number of the line the next byte starts or continues.
  std::size_t line() const {
    std::size_t lines = 1;
    for (char c : text) lines += c == '\n';
    return lines;
  }

  std::string Save(const std::string& name) const {
    const std::string path = testing::TempDir() + "csv_block_" + name + ".csv";
    std::ofstream(path, std::ios::binary) << text;
    return path;
  }
};

Value Code(const std::string& cell) { return static_cast<Value>(std::stoul(cell)); }

void ExpectCodedRows(const CsvFile& file, const Table& table) {
  ASSERT_EQ(table.size(), file.rows.size());
  for (RowId r = 0; r < table.size(); ++r) {
    ASSERT_EQ(table.qi(r, 0), Code(file.rows[r].first)) << "row " << r;
    ASSERT_EQ(table.sa(r), Code(file.rows[r].second)) << "row " << r;
  }
}

void ExpectRawRows(const CsvFile& file, const Table& table) {
  ASSERT_EQ(table.size(), file.rows.size());
  const Schema& schema = table.schema();
  for (RowId r = 0; r < table.size(); ++r) {
    ASSERT_EQ(schema.qi(0).dictionary.label(table.qi(r, 0)), file.rows[r].first) << "row " << r;
    ASSERT_EQ(schema.sensitive().dictionary.label(table.sa(r)), file.rows[r].second)
        << "row " << r;
  }
}

void ExpectSameError(const CsvError& want, const CsvError& got) {
  EXPECT_EQ(got.line, want.line);
  EXPECT_EQ(got.column, want.column);
  EXPECT_EQ(got.reason, want.reason);
}

// The coded loaders, in RAM and paged, load the file's rows.
void ExpectCodedLoads(const CsvFile& file, const std::string& path) {
  CsvError error;
  std::optional<Table> table = ReadTableCsv(CodedSchema(), path, &error);
  ASSERT_TRUE(table.has_value()) << error.ToString();
  ExpectCodedRows(file, *table);
  {
    std::unique_ptr<PagedTable> paged = ReadTableCsvPaged(CodedSchema(), path, {}, &error);
    ASSERT_NE(paged, nullptr) << error.ToString();
    ExpectCodedRows(file, paged->resident());
  }
  std::optional<std::vector<ReleaseRow>> release = ReadReleaseCsv(CodedSchema(), path);
  ASSERT_TRUE(release.has_value());
  ASSERT_EQ(release->size(), file.rows.size());
  for (std::size_t r = 0; r < release->size(); ++r) {
    ASSERT_EQ((*release)[r].qi[0], Code(file.rows[r].first)) << "row " << r;
    ASSERT_EQ((*release)[r].sa, Code(file.rows[r].second)) << "row " << r;
  }
}

// The raw loaders, in RAM and paged, load the file's rows as labels.
void ExpectRawLoads(const CsvFile& file, const std::string& path) {
  CsvError error;
  std::optional<Table> table = ReadRawTableCsv(path, &error);
  ASSERT_TRUE(table.has_value()) << error.ToString();
  ExpectRawRows(file, *table);
  std::unique_ptr<PagedTable> paged = ReadRawTableCsvPaged(path, {}, &error);
  ASSERT_NE(paged, nullptr) << error.ToString();
  ExpectRawRows(file, paged->resident());
}

// Every coded loader fails at `want` (ReadReleaseCsv reports no position).
void ExpectCodedError(const std::string& path, const CsvError& want) {
  CsvError error;
  EXPECT_FALSE(ReadTableCsv(CodedSchema(), path, &error).has_value());
  ExpectSameError(want, error);
  CsvError paged_error;
  EXPECT_EQ(ReadTableCsvPaged(CodedSchema(), path, {}, &paged_error), nullptr);
  ExpectSameError(want, paged_error);
  EXPECT_FALSE(ReadReleaseCsv(CodedSchema(), path).has_value());
}

// Both raw loaders fail at `want`.
void ExpectRawError(const std::string& path, const CsvError& want) {
  CsvError error;
  EXPECT_FALSE(ReadRawTableCsv(path, &error).has_value());
  ExpectSameError(want, error);
  CsvError paged_error;
  EXPECT_EQ(ReadRawTableCsvPaged(path, {}, &paged_error), nullptr);
  ExpectSameError(want, paged_error);
}

CsvError At(std::size_t line, std::size_t column, std::string reason) {
  CsvError error;
  error.line = line;
  error.column = column;
  error.reason = std::move(reason);
  return error;
}

class CsvBlock : public ::testing::Test {
 protected:
  void SetUp() override { spill_files_ = SpillFile::LiveCount(); }
  void TearDown() override { EXPECT_EQ(SpillFile::LiveCount(), spill_files_); }

  std::uint64_t spill_files_ = 0;
};

TEST_F(CsvBlock, LinesStraddlingTheEdge) {
  // One file per split point: the block edge falls before each byte of a
  // 7-byte row in turn.
  for (std::size_t before = 0; before < 7; ++before) {
    SCOPED_TRACE(before);
    CsvFile file;
    file.PadTo(kEdge - before);
    file.Row("123", "45");
    file.PadTo(kEdge + 64);
    const std::string path = file.Save("straddle");
    ExpectCodedLoads(file, path);
    ExpectRawLoads(file, path);
    std::remove(path.c_str());
  }
}

TEST_F(CsvBlock, CrlfSplitAcrossTheEdge) {
  CsvFile file;
  file.PadTo(kEdge - 5);
  file.Row("12", "3", "\r\n");  // '\r' is the block's last byte, '\n' the next one's first
  ASSERT_EQ(file.text[kEdge - 1], '\r');
  file.Row("456", "7", "\r\n");
  const std::string path = file.Save("crlf");
  ExpectCodedLoads(file, path);
  ExpectRawLoads(file, path);
  std::remove(path.c_str());
}

TEST_F(CsvBlock, BlankLinesAtTheEdge) {
  CsvFile file;
  file.PadTo(kEdge);
  file.text += "\n";  // a blank line opening the second block
  file.Row("8", "9");
  file.PadTo(2 * kEdge - 1);
  file.text += "\r\n";  // a bare CRLF split across the second edge
  file.Row("10", "11");
  const std::string path = file.Save("blank");
  ExpectCodedLoads(file, path);
  ExpectRawLoads(file, path);
  std::remove(path.c_str());
}

TEST_F(CsvBlock, LastLineWithoutNewlineAcrossTheEdge) {
  CsvFile file;
  file.PadTo(kEdge - 3);
  file.Row("123", "45", "");
  const std::string path = file.Save("no_newline");
  ExpectCodedLoads(file, path);
  ExpectRawLoads(file, path);
  std::remove(path.c_str());
}

TEST_F(CsvBlock, LineLongerThanABlock) {
  // A label one and a half blocks long, starting mid-block: the raw
  // loaders read it whole, the coded ones reject it at its own line.
  CsvFile file;
  file.PadTo(kEdge / 2);
  const std::size_t long_line = file.line();
  const std::string label(kEdge + kEdge / 2, 'x');
  file.Row(label, "5");
  file.Row("6", "7");
  const std::string path = file.Save("long_line");
  ExpectRawLoads(file, path);
  ExpectCodedError(path, At(long_line, 1,
                            "cell '" + label +
                                "' is not a non-negative integer code (is this a raw "
                                "string-valued CSV? load it with format 'raw')"));
  std::remove(path.c_str());
}

TEST_F(CsvBlock, ErrorsAfterTheEdgeKeepTheirLineNumbers) {
  // Blank lines before the edge still count as lines.
  CsvFile file;
  file.PadTo(kEdge - 100);
  file.text += "\n\r\n";
  file.PadTo(kEdge + 100);
  const std::size_t ragged = file.line();
  file.text += "1,2,3\n";
  const std::string path = file.Save("ragged");
  ExpectCodedError(path, At(ragged, 0, "row has 3 cells; expected 2"));
  ExpectRawError(path, At(ragged, 0, "row has 3 cells; the header names 2"));
  std::remove(path.c_str());
}

TEST_F(CsvBlock, UnterminatedQuoteInTheFinalPartialBlock) {
  CsvFile file;
  file.PadTo(kEdge + 100);
  const std::size_t open = file.line();
  file.text += "1,\"0";  // no closing quote, no newline
  const std::string path = file.Save("open_quote");
  const std::string reason =
      "unterminated quoted cell (quote opened but never closed before the end of the line or "
      "file)";
  ExpectCodedError(path, At(open, 2, reason));
  ExpectRawError(path, At(open, 2, reason));
  std::remove(path.c_str());
}

TEST_F(CsvBlock, PlainRowFastPathHandsOverEveryOtherLine) {
  // Quoted numeric cells and CRLF endings load like plain ones.
  CsvFile file;
  file.text += "\"12\",3\n7,\"4\"\r\n";
  file.rows = {{"12", "3"}, {"7", "4"}};
  file.Row("999", "49", "\r\n");
  std::string path = file.Save("fast_path");
  ExpectCodedLoads(file, path);
  std::remove(path.c_str());

  const std::string not_a_code =
      "' is not a non-negative integer code (is this a raw string-valued CSV? load it with "
      "format 'raw')";
  const struct {
    const char* line;
    std::size_t column;
    std::string reason;
  } rejected[] = {
      {"+1,0", 1, "cell '+1" + not_a_code},
      {"-0,0", 1, "cell '-0" + not_a_code},
      {" 1,0", 1, "cell ' 1" + not_a_code},
      {"12a,0", 1, "cell '12a" + not_a_code},
      {",1", 1, "cell '" + not_a_code},
      {"1,0\r\r", 2, "cell '0\r" + not_a_code},
      {"00000000001,0", 1, "cell '00000000001" + not_a_code},
      {"4294967296,0", 1, "cell '4294967296" + not_a_code},
      {"5000,0", 1, "value 5000 is outside the domain [0, 1000) of attribute 'A1'"},
      {"1,50", 2, "value 50 is outside the domain [0, 50) of attribute 'B'"},
      {"1,0,", 0, "row has 3 cells; expected 2"},
      {"1", 0, "row has 1 cells; expected 2"},
  };
  for (const auto& c : rejected) {
    SCOPED_TRACE(c.line);
    CsvFile bad;
    bad.Row("1", "0");
    bad.text += std::string(c.line) + "\n";
    path = bad.Save("fast_path_bad");
    ExpectCodedError(path, At(3, c.column, c.reason));
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace ldv
