#ifndef LDIV_COMMON_CSV_H_
#define LDIV_COMMON_CSV_H_

#include <charconv>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/failpoint.h"
#include "common/paged_column.h"
#include "common/table.h"

namespace ldv {

/// Structured description of one CSV load failure: which line (1-based,
/// counting the header; 0 = file-level), which column (1-based; 0 = the
/// whole line), and why. Everything here is user input, so load failures
/// report through this struct instead of aborting -- the CLI renders
/// ToString() as its one-line usage error.
struct CsvError {
  std::string path;
  std::size_t line = 0;
  std::size_t column = 0;
  std::string reason;

  /// One-line rendering, e.g. "micro.csv:5: column 3: value 12 is outside
  /// the domain [0, 9) of attribute 'Race'".
  std::string ToString() const;
};

/// Size of the blocks the CSV layer moves: CsvReader reads its file in
/// blocks of this size and OutputSink writes full blocks of it, so no
/// file is ever held in memory whole.
inline constexpr std::size_t kCsvBlockBytes = std::size_t{1} << 20;

/// Splits one CSV line into cells on commas, honoring RFC-4180 double
/// quotes ("a,b" is one cell; "" inside quotes is a literal quote). A
/// trailing carriage return (CRLF files saved on Windows) is stripped
/// before splitting so it can never leak into the last cell's label.
/// Embedded newlines are not supported -- ingestion is line-oriented.
/// Unquoted cells are views of `line`; quoted cells are unescaped into
/// `*unquoted`, so every view lives until `line` or `*unquoted` changes.
/// Returns false when the line (or the file's final unterminated chunk)
/// ends inside an open quoted cell, filling `open_cell` (when non-null)
/// with the 1-based index of the offending cell; the cells parsed so far
/// are still delivered.
bool SplitCsvRecord(std::string_view line, std::vector<std::string_view>* cells,
                    std::string* unquoted, std::size_t* open_cell);

/// The one line reader behind every CSV file ldiv reads (coded and raw
/// tables, in RAM or paged, releases, and format detection). It reads the
/// file in kCsvBlockBytes blocks and finds lines with memchr, carrying a
/// line that straddles a block into the next read (a line longer than a
/// block grows the buffer). It splits the header, skips blank lines,
/// checks the `csv.read` failpoint once per data line, rejects a line (or
/// a truncated final chunk) that ends inside an open quote, and tells a
/// read error apart from the end of the file -- every failure a
/// positioned CsvError.
///
///   CsvReader reader(path, error);
///   if (!reader.ReadHeader(&header)) return false;
///   while (reader.Next(&cells)) { ...; return reader.Fail(column, why); }
///   if (reader.failed()) return false;
class CsvReader {
 public:
  /// Opens `path`. `error` (may be null) receives the first failure.
  /// `check_failpoint` false skips the `csv.read` site: format detection
  /// only sniffs, and its failures defer to the loader that reads next.
  CsvReader(const std::string& path, CsvError* error, bool check_failpoint = true);
  ~CsvReader();
  CsvReader(const CsvReader&) = delete;
  CsvReader& operator=(const CsvReader&) = delete;

  /// Splits the header row into `*header`; false when the file could not
  /// be opened or read, is empty, or its header is malformed.
  bool ReadHeader(std::vector<std::string>* header);

  /// Splits the next non-blank data line into `*cells`, views that live
  /// until the next call. False at the end of the file and on failure;
  /// failed() tells the two apart. Next is NextLine then Split.
  bool Next(std::vector<std::string_view>* cells);

  /// The next non-blank data line, without its newline, as a view that
  /// lives until the next call; false as for Next. A loader that can take
  /// a plain line apart faster than Split checks it itself and splits the
  /// rest.
  bool NextLine(std::string_view* line);

  /// Splits a NextLine view into `*cells` as Next does; false (failed)
  /// when the line ends inside an open quote.
  bool Split(std::string_view line, std::vector<std::string_view>* cells);

  /// Records a failure at the current line (`column` 0 = the whole line)
  /// and returns false, so a row check can `return reader.Fail(...)`.
  bool Fail(std::size_t column, std::string reason);

  bool failed() const { return failed_; }

 private:
  /// The next raw line (without its newline), or false at the end of the
  /// file and on a read error, which fails the reader: a truncated table
  /// must never pass as a complete one.
  bool ReadLine(std::string_view* line);

  std::string path_;
  CsvError* error_;
  bool check_failpoint_;
  int fd_;
  std::vector<char> block_;
  std::size_t begin_ = 0;  // first unconsumed byte of block_
  std::size_t end_ = 0;    // one past the last byte read into block_
  bool eof_ = false;
  std::string unquoted_;  // backing store of the current line's quoted cells
  std::size_t line_ = 0;  // 1-based number of the last line read; the header is 1
  bool failed_ = false;
};

/// The buffered sink WriteOutputFile hands its body. Appends land in one
/// reused kCsvBlockBytes block, and every full block is written to the
/// file in one call. The first failed write is remembered with its errno;
/// the bytes after it are dropped.
class OutputSink {
 public:
  OutputSink(const OutputSink&) = delete;
  OutputSink& operator=(const OutputSink&) = delete;

  void Append(std::string_view text) {
    if (text.size() > kCsvBlockBytes - used_) return AppendSlow(text);
    std::memcpy(block_.get() + used_, text.data(), text.size());
    used_ += text.size();
  }

  void Append(char c) {
    if (used_ == kCsvBlockBytes) Flush();
    block_[used_++] = c;
  }

  /// Appends `value` in decimal, formatted by std::to_chars.
  void AppendUint(std::uint64_t value) {
    constexpr std::size_t kMaxDigits = 20;
    if (kCsvBlockBytes - used_ < kMaxDigits) Flush();
    char* cursor = block_.get() + used_;
    used_ += std::to_chars(cursor, cursor + kMaxDigits, value).ptr - cursor;
  }

 private:
  friend bool WriteOutputFile(const std::string& path, failpoint::Site site,
                              const std::function<void(OutputSink&)>& body, std::string* error);

  explicit OutputSink(int fd) : fd_(fd), block_(new char[kCsvBlockBytes]) {}

  void AppendSlow(std::string_view text);
  /// Writes the block's bytes to the file and empties the block.
  void Flush();

  int fd_;
  int errno_ = 0;  // errno of the first failed write; 0 while all succeeded
  std::unique_ptr<char[]> block_;
  std::size_t used_ = 0;
};

/// The one writer behind every file ldiv writes (coded tables, dictionary
/// sidecars, releases, the Anatomy pair, JSON and metrics reports). Checks
/// `site`'s failpoint once, opens `path`, runs `body` over an OutputSink
/// on it, and closes before checking, since a failure can surface as late
/// as the close. False with `*error` set to "cannot write '<path>': <why>"
/// on failure, naming the errno of the first failed open, write or close
/// (or the failpoint site that fired). A failed write removes the file
/// through RemoveRegularFile, so no torn release stays on disk.
bool WriteOutputFile(const std::string& path, failpoint::Site site,
                     const std::function<void(OutputSink&)>& body, std::string* error);

/// Removes `path` when it names a regular file; a device such as
/// /dev/full, a directory or a missing path is left alone.
void RemoveRegularFile(const std::string& path);

/// Quotes `cell` for CSV output unconditionally, doubling inner quotes.
std::string CsvQuoteCell(const std::string& cell);

/// Quotes `cell` for CSV output when it contains a comma, a quote, or
/// leading/trailing whitespace; returns it verbatim otherwise.
std::string CsvEscapeCell(const std::string& cell);

/// Renders the values of one attribute as output cells, built once per
/// file: a dictionary-backed attribute's labels are CSV-escaped up front,
/// a plain attribute's integer codes go through std::to_chars. Shared by
/// the release writers so the suppression view and the Anatomy pair
/// decode identically.
class CsvCell {
 public:
  explicit CsvCell(const Attribute& attr);

  /// The cell of `v`; the view lives until the next call.
  std::string_view operator()(Value v) {
    if (!labels_.empty()) return labels_[v];
    const char* end = std::to_chars(digits_, digits_ + sizeof digits_, v).ptr;
    return {digits_, static_cast<std::size_t>(end - digits_)};
  }

 private:
  std::vector<std::string> labels_;  // escaped label per code; empty = integer codes
  char digits_[10];                  // the longest Value in decimal
};

/// Appends a header row: the schema's CSV-escaped QI attribute names, then
/// `last` (already escaped).
void AppendCsvHeader(const Schema& schema, std::string_view last, OutputSink& out);

/// The inverse of CsvCell on one parsed cell: a dictionary-backed
/// attribute looks its label up, a plain one parses a non-negative
/// integer below its domain size. False when the cell is neither.
bool ParseCsvValue(const Attribute& attr, std::string_view cell, Value* out);

/// Writes `table` as CSV with a header row (QI attribute names then the SA
/// name). Values are written as their integer codes; suppression markers
/// never appear in raw microdata. Returns false with `*error` set on I/O
/// failure (failpoint site `report.write`).
bool WriteTableCsv(const Table& table, const std::string& path, std::string* error);

/// Reads a coded CSV produced by WriteTableCsv back into a table with the
/// given schema. The header row is validated against the schema: the
/// column count must be d+1 and every named column must match the schema's
/// attribute name (generated placeholder names Q1..Qd / S accept any
/// header). Returns std::nullopt on I/O or parse failure (header mismatch,
/// wrong column count, non-numeric cell, value outside its domain) and
/// fills `*error` with the line/column/reason when provided.
std::optional<Table> ReadTableCsv(const Schema& schema, const std::string& path,
                                  CsvError* error = nullptr);

/// Reads a raw (string-valued) CSV into a table, building one value
/// dictionary per column on the fly: the header names the attributes (the
/// last column is the sensitive attribute), every distinct cell label gets
/// the next insertion-ordered code, and the resulting schema's domain
/// sizes are the distinct-label counts. The label '*' is rejected (it is
/// reserved for the suppression marker in releases), as are duplicate
/// attribute names in the header (the dictionary sidecar keys labels by
/// attribute name). Returns std::nullopt (with `*error` filled when
/// provided) on I/O failure, a ragged row, an empty cell, or a file
/// without data rows.
std::optional<Table> ReadRawTableCsv(const std::string& path, CsvError* error = nullptr);

/// Streaming (out-of-core) twin of ReadTableCsv: rows are validated and
/// appended straight into a PagedTableBuilder's page staging, so the row
/// set is never materialized in RAM. Same header validation, cell
/// diagnostics, and resulting data as the in-RAM reader -- the sealed
/// table's resident() view is byte-identical to ReadTableCsv's output.
std::unique_ptr<PagedTable> ReadTableCsvPaged(const Schema& schema, const std::string& path,
                                              const PagedTableBuilder::Options& options,
                                              CsvError* error = nullptr);

/// Streaming twin of ReadRawTableCsv: builds the per-column dictionaries
/// on the fly (insertion order matches the in-RAM reader exactly, so the
/// codes agree) while writing pages. Dictionaries are O(distinct labels)
/// resident; rows are not.
std::unique_ptr<PagedTable> ReadRawTableCsvPaged(const std::string& path,
                                                 const PagedTableBuilder::Options& options,
                                                 CsvError* error = nullptr);

/// Serializes the schema's value dictionaries as CSV rows of
/// (attribute, code, label), QI attributes first, then the sensitive
/// attribute -- the sidecar the CLI writes next to a decoded release so
/// codes remain machine-recoverable. Attributes without a dictionary are
/// skipped. Returns false with `*error` set on I/O failure (failpoint site
/// `report.write`).
bool WriteDictionaryCsv(const Schema& schema, const std::string& path, std::string* error);

}  // namespace ldv

#endif  // LDIV_COMMON_CSV_H_
