#ifndef LDIV_DATA_DATASET_H_
#define LDIV_DATA_DATASET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/paged_column.h"
#include "common/table.h"

namespace ldv {

/// How a CSV input file encodes its cells.
enum class CsvFormat {
  kAuto,   ///< Sniff the file: all-integer first data row = coded, else raw.
  kCoded,  ///< Integer codes; a Schema describes the domains (the seed format).
  kRaw,    ///< String labels; per-column dictionaries are built on the fly.
};

/// Parses "auto" / "coded" / "raw" (case-insensitive). Returns false with
/// a usage-grade message on anything else.
bool ParseCsvFormat(std::string_view text, CsvFormat* format, std::string* error);

/// The canonical lower-case name of `format`.
std::string_view CsvFormatName(CsvFormat format);

/// Sniffs the file's format: kCoded when every cell of the first data row
/// parses as a non-negative integer, kRaw otherwise. Returns std::nullopt
/// (with `*error` set to the positioned CsvError) when the file cannot be
/// read or has no well-formed data row. The sniff does not evaluate the
/// `csv.read` failpoint (see ResolveCsvFormat).
std::optional<CsvFormat> DetectCsvFormat(const std::string& path, std::string* error);

/// The single kAuto resolution policy, shared by the CLI front-end and
/// LoadTableCsv: with a schema the load is coded; without one the file is
/// sniffed -- a string-valued file resolves to kRaw, while an
/// integer-coded-looking file is rejected (almost certainly a coded CSV
/// missing its schema; pass one, or force kRaw to ingest digits as
/// labels). Detection I/O failures resolve to kRaw so the loader's own
/// open error reports the path. Non-auto formats pass through unchanged.
bool ResolveCsvFormat(const std::string& path, CsvFormat format, bool has_schema,
                      CsvFormat* resolved, std::string* error);

/// Loads a CSV microdata table, resolving kAuto through DetectCsvFormat.
/// Coded loads require `schema` (header and cells are validated against
/// it); raw loads require `schema == nullptr` (the dictionaries define the
/// domains). Errors render as one line, with line/column positions for
/// parse failures.
std::optional<Table> LoadTableCsv(const std::string& path, CsvFormat format,
                                  const Schema* schema, std::string* error);

/// Specification of one synthetic dataset, the CLI front-end over the ACS
/// generators: which extract, how many rows, which seed, and an optional
/// prefix projection onto the first `d` of the seven QI attributes (the
/// dimensionality knob of the paper's SAL-d / OCC-d sweeps).
struct DatasetSpec {
  std::string name = "sal";  ///< "sal" or "occ" (case-insensitive)
  std::size_t n = 10000;     ///< rows to generate
  std::uint64_t seed = 0;    ///< 0 = the generator's default seed
  std::size_t d = 0;         ///< 0 = keep all seven QI attributes
};

/// Validates `spec` and resolves its defaults (lower-cased name, the
/// generator's default seed, d = all attributes). Returns std::nullopt
/// (with `*error` set) on an unknown dataset name, n == 0, or d out of
/// range -- all front-end input, so failures report instead of aborting.
/// Flag parsing calls this up front so spec mistakes surface as usage
/// errors; GenerateDataset and DatasetLabel resolve through it, so the
/// provenance label always matches the generated data.
std::optional<DatasetSpec> ResolveDatasetSpec(const DatasetSpec& spec, std::string* error);

/// Materializes the table described by `spec` (resolved internally).
std::optional<Table> GenerateDataset(const DatasetSpec& spec, std::string* error);

/// Out-of-core twin of GenerateDataset: streams the same row sequence in
/// column chunks straight into a PagedTableBuilder, so resident cost is
/// one staging page per column plus the chunk buffers -- independent of n.
/// The sealed table's resident() view is byte-identical to
/// GenerateDataset's output (prefix projection for d < 7 included).
std::unique_ptr<PagedTable> GenerateDatasetPaged(const DatasetSpec& spec,
                                                 const PagedTableBuilder::Options& options,
                                                 std::string* error);

/// Out-of-core twin of LoadTableCsv: same format resolution and
/// diagnostics, but rows stream into pages (see ReadTableCsvPaged /
/// ReadRawTableCsvPaged) instead of materializing in RAM.
std::unique_ptr<PagedTable> LoadTableCsvPaged(const std::string& path, CsvFormat format,
                                              const Schema* schema,
                                              const PagedTableBuilder::Options& options,
                                              std::string* error);

/// One-line description of the spec, e.g. "sal(n=10000, seed=1, d=3)";
/// reports and job labels use it to record where a table came from.
std::string DatasetLabel(const DatasetSpec& spec);

}  // namespace ldv

#endif  // LDIV_DATA_DATASET_H_
