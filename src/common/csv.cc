#include "common/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <limits>

#include "common/failpoint.h"

namespace ldv {

namespace {

// Parses one cell as a non-negative integer code. Returns false on any
// malformed character (std::from_chars takes no sign or space for an
// unsigned type), an empty cell, or a value that cannot be a Value code;
// the 10-digit cap keeps the 64-bit parse from overflowing.
bool ParseUintCell(std::string_view cell, std::uint64_t* out) {
  if (cell.empty() || cell.size() > 10) return false;
  const char* end = cell.data() + cell.size();
  std::uint64_t value = 0;
  const std::from_chars_result parsed = std::from_chars(cell.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end) return false;
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

bool SplitCsvRecord(std::string_view line, std::vector<std::string_view>* cells,
                    std::string* unquoted, std::size_t* open_cell) {
  cells->clear();
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);  // CRLF input
  const char* cursor = line.data();
  const char* const end = cursor + line.size();
  char* out = nullptr;  // write cursor into *unquoted, set by the first quoted cell
  for (;;) {
    if (cursor == end || *cursor != '"') {
      // A quote only opens a cell, so an unquoted cell runs to the next comma.
      const char* comma = cursor;
      while (comma != end && *comma != ',') ++comma;
      cells->emplace_back(cursor, comma - cursor);
      cursor = comma;
    } else {
      // Quoted cells unescape into *unquoted, sized once per line so the
      // views taken before stay valid (a cell never outgrows its source).
      if (out == nullptr) {
        if (unquoted->size() < line.size()) unquoted->resize(line.size());
        out = unquoted->data();
      }
      char* const cell = out;
      bool in_quotes = false;
      for (; cursor != end; ++cursor) {
        const char c = *cursor;
        if (in_quotes) {
          if (c != '"') {
            *out++ = c;
          } else if (cursor + 1 != end && cursor[1] == '"') {
            *out++ = '"';
            ++cursor;
          } else {
            in_quotes = false;
          }
        } else if (c == '"' && out == cell) {
          in_quotes = true;
        } else if (c == ',') {
          break;
        } else {
          *out++ = c;
        }
      }
      cells->emplace_back(cell, out - cell);
      if (in_quotes) {
        if (open_cell != nullptr) *open_cell = cells->size();
        return false;
      }
    }
    if (cursor == end) return true;
    ++cursor;  // the comma
  }
}

CsvReader::CsvReader(const std::string& path, CsvError* error, bool check_failpoint)
    : path_(path),
      error_(error),
      check_failpoint_(check_failpoint),
      fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)),
      block_(kCsvBlockBytes) {}

CsvReader::~CsvReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool CsvReader::Fail(std::size_t column, std::string reason) {
  failed_ = true;
  SetError(error_, path_, line_, column, std::move(reason));
  return false;
}

bool CsvReader::ReadLine(std::string_view* line) {
  std::size_t scanned = begin_;  // bytes before this offset hold no newline
  for (;;) {
    const char* base = block_.data();
    if (const void* newline = std::memchr(base + scanned, '\n', end_ - scanned)) {
      const std::size_t stop = static_cast<const char*>(newline) - base;
      *line = std::string_view(base + begin_, stop - begin_);
      begin_ = stop + 1;
      return true;
    }
    if (eof_) {
      if (begin_ == end_) return false;
      *line = std::string_view(base + begin_, end_ - begin_);  // last line, no newline
      begin_ = end_;
      return true;
    }
    // Carry the partial line to the front of the block, growing the block
    // when one line fills it, and read on behind it.
    const std::size_t carried = end_ - begin_;
    std::memmove(block_.data(), base + begin_, carried);
    begin_ = 0;
    end_ = scanned = carried;
    if (end_ == block_.size()) block_.resize(2 * block_.size());
    ssize_t got = 0;
    do {
      got = ::read(fd_, block_.data() + end_, block_.size() - end_);
    } while (got < 0 && errno == EINTR);
    if (got < 0) return Fail(0, std::string("read failed: ") + std::strerror(errno));
    if (got == 0) eof_ = true;
    end_ += static_cast<std::size_t>(got);
  }
}

bool CsvReader::ReadHeader(std::vector<std::string>* header) {
  if (fd_ < 0) return Fail(0, "cannot open file");
  line_ = 1;
  std::string_view line;
  if (!ReadLine(&line)) {
    if (!failed_) Fail(0, "empty file (missing header row)");  // not after a read error
    return false;
  }
  std::vector<std::string_view> cells;
  const bool closed = Split(line, &cells);
  header->assign(cells.begin(), cells.end());
  return closed;
}

bool CsvReader::NextLine(std::string_view* line) {
  while (ReadLine(line)) {
    ++line_;
    failpoint::Injection injection;
    if (check_failpoint_ && failpoint::Check(failpoint::Site::kCsvRead, &injection)) {
      return Fail(0, failpoint::Describe(failpoint::Site::kCsvRead, injection, "read failed"));
    }
    if (line->empty() || *line == "\r") continue;  // blank, or a bare CRLF carriage return
    return true;
  }
  return false;  // the end of the file, or a read error ReadLine has failed
}

bool CsvReader::Split(std::string_view line, std::vector<std::string_view>* cells) {
  std::size_t open_cell = 0;
  if (!SplitCsvRecord(line, cells, &unquoted_, &open_cell)) {
    return Fail(open_cell, kUnterminatedQuote);
  }
  return true;
}

bool CsvReader::Next(std::vector<std::string_view>* cells) {
  std::string_view line;
  return NextLine(&line) && Split(line, cells);
}

void OutputSink::AppendSlow(std::string_view text) {
  while (!text.empty()) {
    if (used_ == kCsvBlockBytes) Flush();
    const std::size_t take = std::min(text.size(), kCsvBlockBytes - used_);
    std::memcpy(block_.get() + used_, text.data(), take);
    used_ += take;
    text.remove_prefix(take);
  }
}

void OutputSink::Flush() {
  const char* cursor = block_.get();
  std::size_t left = errno_ == 0 ? used_ : 0;  // after a failure, drop the bytes
  used_ = 0;
  while (left > 0) {
    const ssize_t wrote = ::write(fd_, cursor, left);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) {
      errno_ = wrote < 0 ? errno : EIO;
      return;
    }
    cursor += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
}

bool WriteOutputFile(const std::string& path, failpoint::Site site,
                     const std::function<void(OutputSink&)>& body, std::string* error) {
  failpoint::Injection injection;
  if (failpoint::Check(site, &injection)) {
    *error = failpoint::Describe(site, injection, "cannot write '" + path + "'");
    return false;
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    *error = "cannot write '" + path + "': " + std::strerror(errno);
    return false;
  }
  OutputSink sink(fd);
  body(sink);
  sink.Flush();
  int failure = sink.errno_;
  // Close before checking: some failures (e.g. a full disk under delayed
  // allocation) only surface at close time.
  if (::close(fd) != 0 && failure == 0) failure = errno;
  if (failure == 0) return true;
  // A partial release can end in a partial QI-group, which need not be
  // l-diverse.
  RemoveRegularFile(path);
  *error = "cannot write '" + path + "': " + std::strerror(failure);
  return false;
}

void RemoveRegularFile(const std::string& path) {
  struct stat status;
  if (::stat(path.c_str(), &status) == 0 && S_ISREG(status.st_mode)) ::unlink(path.c_str());
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

CsvCell::CsvCell(const Attribute& attr) {
  if (!attr.has_dictionary()) return;
  labels_.reserve(attr.dictionary.size());
  for (Value code = 0; code < attr.dictionary.size(); ++code) {
    labels_.push_back(CsvEscapeCell(attr.dictionary.label(code)));
  }
}

void AppendCsvHeader(const Schema& schema, std::string_view last, OutputSink& out) {
  for (std::size_t a = 0; a < schema.qi_count(); ++a) {
    out.Append(CsvEscapeCell(schema.qi(static_cast<AttrId>(a)).name));
    out.Append(',');
  }
  out.Append(last);
  out.Append('\n');
}

bool ParseCsvValue(const Attribute& attr, std::string_view cell, Value* out) {
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
  return WriteOutputFile(
      path, failpoint::Site::kReportWrite,
      [&table](OutputSink& out) {
        AppendCsvHeader(table.schema(), CsvEscapeCell(table.schema().sensitive().name), out);
        for (RowId r = 0; r < table.size(); ++r) {
          for (AttrId a = 0; a < table.qi_count(); ++a) {
            out.AppendUint(table.qi(r, a));
            out.Append(',');
          }
          out.AppendUint(table.sa(r));
          out.Append('\n');
        }
      },
      error);
}

namespace {

// The row sinks of the streaming cores below: Begin(d) runs once after
// the header (false aborts; the sink has filled the error), then
// Add(qi_values, sa) once per data row.

// The in-RAM sink of both readers: plain column vectors, built into a
// Table once with FromColumns instead of a checked AppendRow per row.
struct ColumnSink {
  std::vector<std::vector<Value>> qi;
  std::vector<SaValue> sa;

  bool Begin(std::size_t d) {
    qi.resize(d);
    return true;
  }

  void Add(std::span<const Value> row, SaValue value) {
    for (std::size_t i = 0; i < row.size(); ++i) qi[i].push_back(row[i]);
    sa.push_back(value);
  }
};

// The paged sink of both readers: rows stream into a PagedTableBuilder's
// page staging, so the row set is never materialized in RAM. Builder
// failures are file-level errors of `path`.
struct PagedSink {
  const PagedTableBuilder::Options& options;
  const std::string& path;
  CsvError* error;
  std::unique_ptr<PagedTableBuilder> builder;

  bool Begin(std::size_t d) {
    std::string build_error;
    builder = PagedTableBuilder::Create(d, options, &build_error);
    if (builder == nullptr) SetError(error, path, 0, 0, build_error);
    return builder != nullptr;
  }

  void Add(std::span<const Value> row, SaValue value) { builder->AppendRow(row, value); }

  std::unique_ptr<PagedTable> Finish(Schema schema) {
    std::string build_error;
    std::unique_ptr<PagedTable> table = builder->Finish(std::move(schema), &build_error);
    if (table == nullptr) SetError(error, path, 0, 0, build_error);
    return table;
  }
};

// The fast path of the coded readers: a line of exactly d+1 unquoted
// in-domain integer cells parses straight off the line, std::from_chars
// doing the scan. It accepts exactly the lines the general path accepts
// without quotes, with the same values; any other line (a quote, a sign,
// a bad, long or out-of-domain cell, a ragged row) returns false.
bool ParsePlainCodedRow(std::string_view line, std::span<const std::size_t> domains,
                        std::span<Value> row) {
  const char* cursor = line.data();
  const char* end = cursor + line.size();
  if (cursor != end && end[-1] == '\r') --end;  // CRLF input
  for (std::size_t i = 0; i < domains.size(); ++i) {
    Value value = 0;
    const std::from_chars_result parsed = std::from_chars(cursor, end, value);
    if (parsed.ec != std::errc() || parsed.ptr - cursor > 10 || value >= domains[i]) return false;
    row[i] = value;
    if (i + 1 == domains.size()) return parsed.ptr == end;
    if (parsed.ptr == end || *parsed.ptr != ',') return false;
    cursor = parsed.ptr + 1;
  }
  return false;
}

// The general path of the coded readers: checks one split row's cell
// count, integer syntax and domains, filling `row` or failing `reader`
// at the offending cell.
bool ParseCodedCells(const Schema& schema, std::span<const std::size_t> domains,
                     const std::vector<std::string_view>& cells, CsvReader* reader,
                     std::span<Value> row) {
  if (cells.size() != domains.size()) {
    return reader->Fail(0, "row has " + std::to_string(cells.size()) + " cells; expected " +
                               std::to_string(domains.size()));
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::uint64_t value = 0;
    if (!ParseUintCell(cells[i], &value)) {
      return reader->Fail(i + 1, "cell '" + std::string(cells[i]) +
                                     "' is not a non-negative integer code (is this a raw " +
                                     "string-valued CSV? load it with format 'raw')");
    }
    if (value >= domains[i]) {
      const Attribute& attr =
          i == schema.qi_count() ? schema.sensitive() : schema.qi(static_cast<AttrId>(i));
      return reader->Fail(i + 1, "value " + std::to_string(value) + " is outside the domain [0, " +
                                     std::to_string(attr.domain_size) + ") of attribute '" +
                                     attr.name + "'");
    }
    row[i] = static_cast<Value>(value);
  }
  return true;
}

// Streaming core of the coded readers: validates the header against
// `schema`, then parses and domain-checks each data row and hands it to
// the sink. Both the in-RAM and the paged reader are this loop plus a
// different sink, which is what keeps their outputs byte-identical.
template <typename Sink>
bool StreamCodedCsv(const Schema& schema, const std::string& path, CsvError* error,
                    Sink& sink) {
  CsvReader reader(path, error);
  std::vector<std::string> header;
  if (!reader.ReadHeader(&header) || !ValidateHeader(schema, header, &reader)) return false;

  const std::size_t d = schema.qi_count();
  if (!sink.Begin(d)) return false;
  std::vector<std::size_t> domains(d + 1);
  for (std::size_t i = 0; i < d; ++i) domains[i] = schema.qi(static_cast<AttrId>(i)).domain_size;
  domains[d] = schema.sa_domain_size();
  std::vector<Value> row(d + 1);  // the QI values, then the SA value
  std::vector<std::string_view> cells;
  std::string_view line;
  while (reader.NextLine(&line)) {
    if (!ParsePlainCodedRow(line, domains, row)) {
      // Anything else takes the general path: split (quotes and all) and
      // accept the row or reject it with its positioned error.
      if (!reader.Split(line, &cells) || !ParseCodedCells(schema, domains, cells, &reader, row)) {
        return false;
      }
    }
    sink.Add(std::span<const Value>(row).first(d), row[d]);
  }
  return !reader.failed();
}

// Streaming core of the raw readers: parses + validates the header,
// begins the sink, then dictionary-encodes each row and hands it to the
// sink. Fills `out_schema` (with the dictionaries attached) on success.
// Dictionary codes are insertion-ordered by first appearance in file
// order, so every sink sees the identical encoding.
template <typename Sink>
bool StreamRawCsv(const std::string& path, CsvError* error, Sink& sink, Schema* out_schema) {
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
  if (!sink.Begin(d)) return false;
  std::vector<ValueDictionary> dictionaries(d + 1);
  std::vector<Value> qi(d);
  std::vector<std::string_view> cells;
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
    sink.Add(qi, sa);
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
  ColumnSink sink;
  if (!StreamCodedCsv(schema, path, error, sink)) return std::nullopt;
  return Table::FromColumns(schema, std::move(sink.qi), std::move(sink.sa));
}

std::optional<Table> ReadRawTableCsv(const std::string& path, CsvError* error) {
  ColumnSink sink;
  Schema schema;
  if (!StreamRawCsv(path, error, sink, &schema)) return std::nullopt;
  return Table::FromColumns(std::move(schema), std::move(sink.qi), std::move(sink.sa));
}

std::unique_ptr<PagedTable> ReadTableCsvPaged(const Schema& schema, const std::string& path,
                                              const PagedTableBuilder::Options& options,
                                              CsvError* error) {
  PagedSink sink{options, path, error, nullptr};
  if (!StreamCodedCsv(schema, path, error, sink)) return nullptr;
  return sink.Finish(schema);
}

std::unique_ptr<PagedTable> ReadRawTableCsvPaged(const std::string& path,
                                                 const PagedTableBuilder::Options& options,
                                                 CsvError* error) {
  PagedSink sink{options, path, error, nullptr};
  Schema schema;
  if (!StreamRawCsv(path, error, sink, &schema)) return nullptr;
  return sink.Finish(std::move(schema));
}

bool WriteDictionaryCsv(const Schema& schema, const std::string& path, std::string* error) {
  return WriteOutputFile(
      path, failpoint::Site::kReportWrite,
      [&schema](OutputSink& out) {
        out.Append("attribute,code,label\n");
        auto write_attribute = [&out](const Attribute& attr) {
          const std::string name = CsvEscapeCell(attr.name);
          for (Value code = 0; code < attr.dictionary.size(); ++code) {
            out.Append(name);
            out.Append(',');
            out.AppendUint(code);
            out.Append(',');
            out.Append(CsvEscapeCell(attr.dictionary.label(code)));
            out.Append('\n');
          }
        };
        for (std::size_t a = 0; a < schema.qi_count(); ++a) {
          write_attribute(schema.qi(static_cast<AttrId>(a)));
        }
        write_attribute(schema.sensitive());
      },
      error);
}

}  // namespace ldv
