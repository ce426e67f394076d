#include "common/csv.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/failpoint.h"

namespace ldv {

namespace {

// Parses one cell as a non-negative integer code. Returns false on any
// malformed character, an empty cell, or a value that cannot be a Value
// code (more than 10 digits would wrap the accumulator).
bool ParseUintCell(const std::string& cell, std::uint64_t* out) {
  if (cell.empty() || cell.size() > 10) return false;
  std::uint64_t value = 0;
  for (char c : cell) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (value > std::numeric_limits<Value>::max()) return false;
  *out = value;
  return true;
}

void SetError(CsvError* error, const std::string& path, std::size_t line, std::size_t column,
              std::string reason) {
  if (error == nullptr) return;
  error->path = path;
  error->line = line;
  error->column = column;
  error->reason = std::move(reason);
}

// True when `name` is the generated placeholder ParseSchemaSpec assigns to
// an unnamed attribute ("Q1".."Qd" for QI position `index`, "S" for the
// SA); placeholder names accept any header spelling.
bool IsPlaceholderName(const std::string& name, std::size_t index, bool is_sa) {
  if (is_sa) return name == "S";
  return name == "Q" + std::to_string(index + 1);
}

// Validates the header row of a coded CSV against the schema: d+1 columns,
// each named column matching its schema attribute (placeholders excepted).
bool ValidateHeader(const Schema& schema, const std::vector<std::string>& header,
                    CsvReader* reader) {
  const std::size_t want = schema.qi_count() + 1;
  if (header.size() != want) {
    return reader->Fail(0, "header has " + std::to_string(header.size()) + " columns; schema " +
                               schema.ToString() + " expects " + std::to_string(want) +
                               " (QI attributes + SA)");
  }
  for (std::size_t i = 0; i < header.size(); ++i) {
    const bool is_sa = i + 1 == header.size();
    const std::string& want_name =
        is_sa ? schema.sensitive().name : schema.qi(static_cast<AttrId>(i)).name;
    if (header[i] == want_name || IsPlaceholderName(want_name, i, is_sa)) continue;
    return reader->Fail(i + 1, "header column '" + header[i] +
                                   "' does not match schema attribute '" + want_name + "'");
  }
  return true;
}

constexpr const char* kUnterminatedQuote =
    "unterminated quoted cell (quote opened but never closed before the end of the line or file)";

}  // namespace

std::string CsvError::ToString() const {
  std::string out = path;
  if (line > 0) out += ":" + std::to_string(line);
  out += ": ";
  if (column > 0) out += "column " + std::to_string(column) + ": ";
  out += reason;
  return out;
}

bool SplitCsvRecord(const std::string& line, std::vector<std::string>* cells,
                    std::size_t* open_cell) {
  cells->clear();
  std::size_t length = line.size();
  if (length > 0 && line[length - 1] == '\r') --length;  // CRLF input
  std::string cell;
  bool in_quotes = false;
  for (std::size_t i = 0; i < length; ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < length && line[i + 1] == '"') {
          cell.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell.push_back(c);
      }
    } else if (c == '"' && cell.empty()) {
      in_quotes = true;
    } else if (c == ',') {
      cells->push_back(std::move(cell));
      cell.clear();
    } else {
      cell.push_back(c);
    }
  }
  cells->push_back(std::move(cell));
  if (in_quotes && open_cell != nullptr) *open_cell = cells->size();
  return !in_quotes;
}

CsvReader::CsvReader(const std::string& path, CsvError* error, bool check_failpoint)
    : path_(path), error_(error), check_failpoint_(check_failpoint), in_(path) {}

bool CsvReader::Fail(std::size_t column, std::string reason) {
  failed_ = true;
  SetError(error_, path_, line_, column, std::move(reason));
  return false;
}

bool CsvReader::ReadHeader(std::vector<std::string>* header) {
  if (!in_) return Fail(0, "cannot open file");
  line_ = 1;
  if (!std::getline(in_, text_)) return Fail(0, "empty file (missing header row)");
  std::size_t open_cell = 0;
  if (!SplitCsvRecord(text_, header, &open_cell)) return Fail(open_cell, kUnterminatedQuote);
  return true;
}

bool CsvReader::Next(std::vector<std::string>* cells) {
  while (std::getline(in_, text_)) {
    ++line_;
    failpoint::Injection injection;
    if (check_failpoint_ && failpoint::Check(failpoint::Site::kCsvRead, &injection)) {
      return Fail(0, failpoint::Describe(failpoint::Site::kCsvRead, injection, "read failed"));
    }
    if (text_.empty() || text_ == "\r") continue;  // blank, or a bare CRLF carriage return
    std::size_t open_cell = 0;
    if (!SplitCsvRecord(text_, cells, &open_cell)) return Fail(open_cell, kUnterminatedQuote);
    return true;
  }
  // getline's eof and a mid-file read error look identical without this
  // check: a truncated table would silently pass as a complete one.
  if (in_.bad()) return Fail(0, std::string("read failed: ") + std::strerror(errno));
  return false;
}

bool WriteOutputFile(const std::string& path, failpoint::Site site,
                     const std::function<void(std::ostream&)>& body, std::string* error) {
  failpoint::Injection injection;
  if (failpoint::Check(site, &injection)) {
    *error = failpoint::Describe(site, injection, "cannot write '" + path + "'");
    return false;
  }
  std::ofstream out(path);
  if (out) body(out);
  // Close before checking: some failures (e.g. a full disk behind a
  // buffered stream) only surface at flush/close time.
  out.close();
  if (out.fail()) {
    *error = "cannot write '" + path + "'";
    return false;
  }
  return true;
}

std::string CsvQuoteCell(const std::string& cell) {
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') {
      quoted += "\"\"";
    } else {
      quoted.push_back(c);
    }
  }
  quoted += "\"";
  return quoted;
}

std::string CsvEscapeCell(const std::string& cell) {
  bool needs_quotes = false;
  for (char c : cell) {
    if (c == ',' || c == '"') {
      needs_quotes = true;
      break;
    }
  }
  if (!cell.empty() && (cell.front() == ' ' || cell.back() == ' ')) needs_quotes = true;
  return needs_quotes ? CsvQuoteCell(cell) : cell;
}

std::string DecodeCsvValue(const Attribute& attr, Value v) {
  if (attr.has_dictionary()) return CsvEscapeCell(attr.dictionary.label(v));
  return std::to_string(v);
}

bool ParseCsvValue(const Attribute& attr, const std::string& cell, Value* out) {
  if (attr.has_dictionary()) {
    const Value* code = attr.dictionary.Find(cell);
    if (code == nullptr) return false;
    *out = *code;
    return true;
  }
  std::uint64_t value = 0;
  if (!ParseUintCell(cell, &value) || value >= attr.domain_size) return false;
  *out = static_cast<Value>(value);
  return true;
}

bool WriteTableCsv(const Table& table, const std::string& path, std::string* error) {
  return WriteOutputFile(path, failpoint::Site::kReportWrite, [&table](std::ostream& out) {
    const Schema& schema = table.schema();
    for (std::size_t i = 0; i < schema.qi_count(); ++i) {
      out << CsvEscapeCell(schema.qi(static_cast<AttrId>(i)).name) << ",";
    }
    out << CsvEscapeCell(schema.sensitive().name) << "\n";
    for (RowId r = 0; r < table.size(); ++r) {
      for (AttrId a = 0; a < table.qi_count(); ++a) out << table.qi(r, a) << ",";
      out << table.sa(r) << "\n";
    }
  }, error);
}

namespace {

// Streaming core of the coded readers: validates the header against
// `schema`, then parses and domain-checks each data row and hands it to
// row_fn(qi_values, sa). Both the in-RAM and the paged reader are this
// loop plus a different sink, which is what keeps their outputs
// byte-identical.
template <typename RowFn>
bool StreamCodedCsv(const Schema& schema, const std::string& path, CsvError* error,
                    const RowFn& row_fn) {
  CsvReader reader(path, error);
  std::vector<std::string> cells;
  if (!reader.ReadHeader(&cells) || !ValidateHeader(schema, cells, &reader)) return false;

  const std::size_t d = schema.qi_count();
  std::vector<Value> qi(d);
  while (reader.Next(&cells)) {
    if (cells.size() != d + 1) {
      return reader.Fail(0, "row has " + std::to_string(cells.size()) + " cells; expected " +
                                std::to_string(d + 1));
    }
    SaValue sa = 0;
    for (std::size_t i = 0; i <= d; ++i) {
      const bool is_sa = i == d;
      const Attribute& attr = is_sa ? schema.sensitive() : schema.qi(static_cast<AttrId>(i));
      std::uint64_t value = 0;
      if (!ParseUintCell(cells[i], &value)) {
        return reader.Fail(i + 1, "cell '" + cells[i] +
                                      "' is not a non-negative integer code (is this a raw " +
                                      "string-valued CSV? load it with format 'raw')");
      }
      if (value >= attr.domain_size) {
        return reader.Fail(i + 1, "value " + std::to_string(value) + " is outside the domain [0, " +
                                      std::to_string(attr.domain_size) + ") of attribute '" +
                                      attr.name + "'");
      }
      if (is_sa) {
        sa = static_cast<SaValue>(value);
      } else {
        qi[i] = static_cast<Value>(value);
      }
    }
    row_fn(std::span<const Value>(qi), sa);
  }
  return !reader.failed();
}

// Streaming core of the raw readers: parses + validates the header, calls
// on_header(d) once (false aborts; the callback has set `error`), then
// dictionary-encodes each row and hands it to row_fn(qi_values, sa).
// Fills `out_schema` (with the dictionaries attached) on success.
// Dictionary codes are insertion-ordered by first appearance in file
// order, so every sink sees the identical encoding.
template <typename HeaderFn, typename RowFn>
bool StreamRawCsv(const std::string& path, CsvError* error, const HeaderFn& on_header,
                  const RowFn& row_fn, Schema* out_schema) {
  CsvReader reader(path, error);
  std::vector<std::string> header;
  if (!reader.ReadHeader(&header)) return false;
  if (header.size() < 2) {
    return reader.Fail(0, "header names " + std::to_string(header.size()) +
                              " columns; raw ingestion needs at least one QI column plus the " +
                              "sensitive attribute (last column)");
  }
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i].empty()) return reader.Fail(i + 1, "empty attribute name in header");
    for (std::size_t j = 0; j < i; ++j) {
      if (header[i] == header[j]) {
        return reader.Fail(i + 1, "duplicate attribute name '" + header[i] +
                                      "' in header (the dictionary sidecar keys labels by " +
                                      "attribute name)");
      }
    }
  }

  const std::size_t d = header.size() - 1;
  if (!on_header(d)) return false;
  std::vector<ValueDictionary> dictionaries(d + 1);
  std::vector<Value> qi(d);
  std::vector<std::string> cells;
  std::size_t rows = 0;
  while (reader.Next(&cells)) {
    if (cells.size() != d + 1) {
      return reader.Fail(0, "row has " + std::to_string(cells.size()) +
                                " cells; the header names " + std::to_string(d + 1));
    }
    SaValue sa = 0;
    for (std::size_t i = 0; i <= d; ++i) {
      if (cells[i].empty()) {
        return reader.Fail(i + 1, "empty cell (labels must be non-empty under attribute '" +
                                      header[i] + "')");
      }
      if (cells[i] == "*") {
        return reader.Fail(i + 1,
                           "the label '*' is reserved for the suppression marker releases use");
      }
      Value code = dictionaries[i].GetOrAdd(cells[i]);
      if (i < d) {
        qi[i] = code;
      } else {
        sa = static_cast<SaValue>(code);
      }
    }
    row_fn(std::span<const Value>(qi), sa);
    ++rows;
  }
  if (reader.failed()) return false;
  if (rows == 0) return reader.Fail(0, "no data rows after the header");

  std::vector<Attribute> qi_attributes(d);
  for (std::size_t i = 0; i < d; ++i) {
    qi_attributes[i].name = header[i];
    qi_attributes[i].domain_size = dictionaries[i].size();
    qi_attributes[i].dictionary = std::move(dictionaries[i]);
  }
  Attribute sensitive;
  sensitive.name = header[d];
  sensitive.domain_size = dictionaries[d].size();
  sensitive.dictionary = std::move(dictionaries[d]);
  *out_schema = Schema(std::move(qi_attributes), std::move(sensitive));
  return true;
}

}  // namespace

std::optional<Table> ReadTableCsv(const Schema& schema, const std::string& path, CsvError* error) {
  Table table(schema);
  if (!StreamCodedCsv(schema, path, error, [&table](std::span<const Value> qi, SaValue sa) {
        table.AppendRow(qi, sa);
      })) {
    return std::nullopt;
  }
  return table;
}

std::optional<Table> ReadRawTableCsv(const std::string& path, CsvError* error) {
  // In-RAM sink: accumulate plain column vectors and bulk-construct, the
  // same shape (and cost) as the pre-streaming reader.
  std::vector<std::vector<Value>> columns;
  std::vector<SaValue> sa_column;
  Schema schema;
  const bool ok = StreamRawCsv(
      path, error,
      [&columns](std::size_t d) {
        columns.resize(d);
        return true;
      },
      [&columns, &sa_column](std::span<const Value> qi, SaValue sa) {
        for (std::size_t i = 0; i < qi.size(); ++i) columns[i].push_back(qi[i]);
        sa_column.push_back(sa);
      },
      &schema);
  if (!ok) return std::nullopt;
  return Table::FromColumns(std::move(schema), std::move(columns), std::move(sa_column));
}

std::unique_ptr<PagedTable> ReadTableCsvPaged(const Schema& schema, const std::string& path,
                                              const PagedTableBuilder::Options& options,
                                              CsvError* error) {
  std::string build_error;
  std::unique_ptr<PagedTableBuilder> builder =
      PagedTableBuilder::Create(schema.qi_count(), options, &build_error);
  if (builder == nullptr) {
    SetError(error, path, 0, 0, build_error);
    return nullptr;
  }
  if (!StreamCodedCsv(schema, path, error, [&builder](std::span<const Value> qi, SaValue sa) {
        builder->AppendRow(qi, sa);
      })) {
    return nullptr;
  }
  std::unique_ptr<PagedTable> table = builder->Finish(schema, &build_error);
  if (table == nullptr) SetError(error, path, 0, 0, build_error);
  return table;
}

std::unique_ptr<PagedTable> ReadRawTableCsvPaged(const std::string& path,
                                                 const PagedTableBuilder::Options& options,
                                                 CsvError* error) {
  std::string build_error;
  std::unique_ptr<PagedTableBuilder> builder;
  Schema schema;
  const bool ok = StreamRawCsv(
      path, error,
      [&builder, &options, &build_error, &error, &path](std::size_t d) {
        builder = PagedTableBuilder::Create(d, options, &build_error);
        if (builder == nullptr) {
          SetError(error, path, 0, 0, build_error);
          return false;
        }
        return true;
      },
      [&builder](std::span<const Value> qi, SaValue sa) { builder->AppendRow(qi, sa); },
      &schema);
  if (!ok) return nullptr;
  std::unique_ptr<PagedTable> table = builder->Finish(std::move(schema), &build_error);
  if (table == nullptr) SetError(error, path, 0, 0, build_error);
  return table;
}

bool WriteDictionaryCsv(const Schema& schema, const std::string& path, std::string* error) {
  return WriteOutputFile(path, failpoint::Site::kReportWrite, [&schema](std::ostream& out) {
    out << "attribute,code,label\n";
    auto write_attribute = [&out](const Attribute& attr) {
      for (Value code = 0; code < attr.dictionary.size(); ++code) {
        out << CsvEscapeCell(attr.name) << "," << code << ","
            << CsvEscapeCell(attr.dictionary.label(code)) << "\n";
      }
    };
    for (std::size_t a = 0; a < schema.qi_count(); ++a) {
      write_attribute(schema.qi(static_cast<AttrId>(a)));
    }
    write_attribute(schema.sensitive());
  }, error);
}

}  // namespace ldv
