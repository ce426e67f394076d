#include "data/dataset.h"

#include <cctype>
#include <string_view>

#include "common/csv.h"
#include "data/acs_generator.h"
#include "data/acs_schema.h"

namespace ldv {

namespace {

std::string Lowered(std::string_view text) {
  std::string lowered(text);
  for (char& c : lowered) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return lowered;
}

bool IsIntegerCell(std::string_view cell) {
  if (cell.empty()) return false;
  for (char c : cell) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace

bool ParseCsvFormat(std::string_view text, CsvFormat* format, std::string* error) {
  std::string lowered = Lowered(text);
  if (lowered == "auto") {
    *format = CsvFormat::kAuto;
  } else if (lowered == "coded") {
    *format = CsvFormat::kCoded;
  } else if (lowered == "raw") {
    *format = CsvFormat::kRaw;
  } else {
    *error = "unknown CSV format '" + std::string(text) + "' (available: auto, coded, raw)";
    return false;
  }
  return true;
}

std::string_view CsvFormatName(CsvFormat format) {
  switch (format) {
    case CsvFormat::kAuto:
      return "auto";
    case CsvFormat::kCoded:
      return "coded";
    case CsvFormat::kRaw:
      return "raw";
  }
  return "auto";
}

std::optional<CsvFormat> DetectCsvFormat(const std::string& path, std::string* error) {
  CsvError csv_error;
  CsvReader reader(path, &csv_error, /*check_failpoint=*/false);
  std::vector<std::string> header;
  std::vector<std::string_view> cells;
  if (reader.ReadHeader(&header) && reader.Next(&cells)) {
    for (std::string_view cell : cells) {
      if (!IsIntegerCell(cell)) return CsvFormat::kRaw;
    }
    return CsvFormat::kCoded;
  }
  if (!reader.failed()) reader.Fail(0, "no data rows after the header");
  *error = csv_error.ToString();
  return std::nullopt;
}

bool ResolveCsvFormat(const std::string& path, CsvFormat format, bool has_schema,
                      CsvFormat* resolved, std::string* error) {
  if (format != CsvFormat::kAuto) {
    *resolved = format;
    return true;
  }
  if (has_schema) {
    // A schema means a coded load: raw files carry no codes to check
    // against it. Mismatches surface as positioned parse errors.
    *resolved = CsvFormat::kCoded;
    return true;
  }
  std::string detect_error;
  std::optional<CsvFormat> detected = DetectCsvFormat(path, &detect_error);
  if (detected.has_value() && *detected == CsvFormat::kCoded) {
    *error = "'" + path +
             "' looks integer-coded: pass a schema (--schema=...) for a coded load, or "
             "force format 'raw' to ingest the digits as labels";
    return false;
  }
  *resolved = CsvFormat::kRaw;
  return true;
}

std::optional<Table> LoadTableCsv(const std::string& path, CsvFormat format,
                                  const Schema* schema, std::string* error) {
  if (!ResolveCsvFormat(path, format, schema != nullptr, &format, error)) return std::nullopt;
  CsvError csv_error;
  if (format == CsvFormat::kCoded) {
    if (schema == nullptr) {
      *error = "a coded CSV load requires a schema";
      return std::nullopt;
    }
    std::optional<Table> table = ReadTableCsv(*schema, path, &csv_error);
    if (!table) *error = csv_error.ToString();
    return table;
  }
  std::optional<Table> table = ReadRawTableCsv(path, &csv_error);
  if (!table) *error = csv_error.ToString();
  return table;
}

std::optional<DatasetSpec> ResolveDatasetSpec(const DatasetSpec& spec, std::string* error) {
  DatasetSpec resolved = spec;
  resolved.name = Lowered(spec.name);
  if (resolved.name != "sal" && resolved.name != "occ") {
    *error = "unknown dataset '" + spec.name + "' (available: sal, occ)";
    return std::nullopt;
  }
  if (resolved.n == 0) {
    *error = "dataset needs at least one row (--n=0)";
    return std::nullopt;
  }
  if (resolved.d > kAcsQiCount) {
    *error = "dataset has " + std::to_string(kAcsQiCount) + " QI attributes; --d=" +
             std::to_string(spec.d) + " is out of range";
    return std::nullopt;
  }
  if (resolved.seed == 0) resolved.seed = resolved.name == "occ" ? 2 : 1;
  if (resolved.d == 0) resolved.d = kAcsQiCount;
  return resolved;
}

std::optional<Table> GenerateDataset(const DatasetSpec& spec, std::string* error) {
  std::optional<DatasetSpec> resolved = ResolveDatasetSpec(spec, error);
  if (!resolved) return std::nullopt;

  Table table = resolved->name == "sal" ? GenerateSal(resolved->n, resolved->seed)
                                        : GenerateOcc(resolved->n, resolved->seed);
  if (resolved->d == kAcsQiCount) return table;

  // Prefix projection: the first d of the seven Table-6 attributes. The
  // paper's SAL-d family takes every C(7, d) combination (see
  // data/workload.h); the CLI pins the lexicographically first one so a
  // (d, n) grid stays one table per cell.
  std::vector<AttrId> prefix(resolved->d);
  for (std::size_t i = 0; i < resolved->d; ++i) prefix[i] = static_cast<AttrId>(i);
  return table.ProjectQi(prefix);
}

std::unique_ptr<PagedTable> GenerateDatasetPaged(const DatasetSpec& spec,
                                                 const PagedTableBuilder::Options& options,
                                                 std::string* error) {
  std::optional<DatasetSpec> resolved = ResolveDatasetSpec(spec, error);
  if (!resolved) return nullptr;

  const std::size_t d = resolved->d;
  std::unique_ptr<PagedTableBuilder> builder = PagedTableBuilder::Create(d, options, error);
  if (builder == nullptr) return nullptr;

  AcsRowGenerator gen(resolved->name == "sal" ? AcsRowGenerator::Kind::kSal
                                              : AcsRowGenerator::Kind::kOcc,
                      resolved->seed);

  // Chunked generation: rows are sampled one at a time but handed to the
  // builder in column chunks, so appends amortize to one memcpy per page.
  // The prefix projection for d < 7 simply never buffers the dropped
  // attributes -- same effect as GenerateDataset's ProjectQi, without the
  // intermediate 7-column table.
  constexpr std::size_t kChunkRows = 16384;
  std::vector<std::vector<Value>> qi_chunks(d);
  for (std::vector<Value>& chunk : qi_chunks) chunk.reserve(kChunkRows);
  std::vector<SaValue> sa_chunk;
  sa_chunk.reserve(kChunkRows);
  const auto flush = [&]() {
    for (std::size_t a = 0; a < d; ++a) {
      builder->AppendQiChunk(static_cast<AttrId>(a), qi_chunks[a].data(), qi_chunks[a].size());
      qi_chunks[a].clear();
    }
    builder->AppendSaChunk(sa_chunk.data(), sa_chunk.size());
    sa_chunk.clear();
  };

  Value row[kAcsQiCount];
  SaValue sa = 0;
  for (std::size_t i = 0; i < resolved->n; ++i) {
    gen.Next(row, &sa);
    for (std::size_t a = 0; a < d; ++a) qi_chunks[a].push_back(row[a]);
    sa_chunk.push_back(sa);
    if (sa_chunk.size() == kChunkRows) flush();
  }
  if (!sa_chunk.empty()) flush();

  Schema schema = gen.schema();
  if (d < kAcsQiCount) {
    std::vector<AttrId> prefix(d);
    for (std::size_t i = 0; i < d; ++i) prefix[i] = static_cast<AttrId>(i);
    schema = schema.Project(prefix);
  }
  return builder->Finish(std::move(schema), error);
}

std::unique_ptr<PagedTable> LoadTableCsvPaged(const std::string& path, CsvFormat format,
                                              const Schema* schema,
                                              const PagedTableBuilder::Options& options,
                                              std::string* error) {
  if (!ResolveCsvFormat(path, format, schema != nullptr, &format, error)) return nullptr;
  CsvError csv_error;
  if (format == CsvFormat::kCoded) {
    if (schema == nullptr) {
      *error = "a coded CSV load requires a schema";
      return nullptr;
    }
    std::unique_ptr<PagedTable> table = ReadTableCsvPaged(*schema, path, options, &csv_error);
    if (table == nullptr) *error = csv_error.ToString();
    return table;
  }
  std::unique_ptr<PagedTable> table = ReadRawTableCsvPaged(path, options, &csv_error);
  if (table == nullptr) *error = csv_error.ToString();
  return table;
}

std::string DatasetLabel(const DatasetSpec& spec) {
  std::string error;
  std::optional<DatasetSpec> resolved = ResolveDatasetSpec(spec, &error);
  if (!resolved) return "invalid(" + error + ")";
  return resolved->name + "(n=" + std::to_string(resolved->n) +
         ", seed=" + std::to_string(resolved->seed) + ", d=" + std::to_string(resolved->d) + ")";
}

}  // namespace ldv
