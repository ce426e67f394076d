#ifndef LDIV_COMMON_CSV_H_
#define LDIV_COMMON_CSV_H_

#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
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

/// Splits one CSV line into cells on commas, honoring RFC-4180 double
/// quotes ("a,b" is one cell; "" inside quotes is a literal quote). A
/// trailing carriage return (CRLF files saved on Windows) is stripped
/// before splitting so it can never leak into the last cell's label.
/// Embedded newlines are not supported -- ingestion is line-oriented.
/// Returns false when the line (or the file's final unterminated chunk)
/// ends inside an open quoted cell, filling `open_cell` (when non-null)
/// with the 1-based index of the offending cell; the cells parsed so far
/// are still delivered.
bool SplitCsvRecord(const std::string& line, std::vector<std::string>* cells,
                    std::size_t* open_cell);

/// The one line reader behind every CSV file ldiv reads (coded and raw
/// tables, in RAM or paged, releases, and format detection). It opens
/// the file, splits the header, skips blank lines, checks the `csv.read`
/// failpoint once per data line, rejects a line (or a truncated final
/// chunk) that ends inside an open quote, and tells a mid-file read error
/// apart from the end of the file -- every failure a positioned CsvError.
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

  /// Splits the header row into `*header`; false when the file could not
  /// be opened, is empty, or its header is malformed.
  bool ReadHeader(std::vector<std::string>* header);

  /// Splits the next non-blank data line into `*cells`. False at the end
  /// of the file and on failure; failed() tells the two apart.
  bool Next(std::vector<std::string>* cells);

  /// Records a failure at the current line (`column` 0 = the whole line)
  /// and returns false, so a row check can `return reader.Fail(...)`.
  bool Fail(std::size_t column, std::string reason);

  bool failed() const { return failed_; }

 private:
  std::string path_;
  CsvError* error_;
  bool check_failpoint_;
  std::ifstream in_;
  std::string text_;
  std::size_t line_ = 0;  // 1-based number of the last line read; the header is 1
  bool failed_ = false;
};

/// The one writer behind every file ldiv writes (coded tables, dictionary
/// sidecars, releases, the Anatomy pair, JSON and metrics reports). Checks
/// `site`'s failpoint once, opens `path`, streams `body` into it, and
/// closes before checking, since a full disk behind a buffered stream
/// only surfaces at flush/close time. False with `*error` set to
/// "cannot write '<path>'" (plus the errno and site when a failpoint
/// fired) on failure.
bool WriteOutputFile(const std::string& path, failpoint::Site site,
                     const std::function<void(std::ostream&)>& body, std::string* error);

/// Quotes `cell` for CSV output unconditionally, doubling inner quotes.
std::string CsvQuoteCell(const std::string& cell);

/// Quotes `cell` for CSV output when it contains a comma, a quote, or
/// leading/trailing whitespace; returns it verbatim otherwise.
std::string CsvEscapeCell(const std::string& cell);

/// Renders one attribute value for human-readable output: its dictionary
/// label (CSV-escaped) when the attribute carries one, its integer code
/// otherwise. Shared by the release writers so the suppression view and
/// the Anatomy pair decode identically.
std::string DecodeCsvValue(const Attribute& attr, Value v);

/// The inverse of DecodeCsvValue on one parsed cell: a dictionary-backed
/// attribute looks its label up, a plain one parses a non-negative
/// integer below its domain size. False when the cell is neither.
bool ParseCsvValue(const Attribute& attr, const std::string& cell, Value* out);

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
