#include "anonymity/release.h"

#include "common/csv.h"

namespace ldv {

bool WriteReleaseCsv(const Table& table, const GeneralizedTable& generalized,
                     const std::string& path, std::string* error) {
  return WriteOutputFile(path, failpoint::Site::kReleaseWrite, [&](OutputSink& out) {
    const Schema& schema = table.schema();
    AppendCsvHeader(schema, CsvEscapeCell(schema.sensitive().name), out);
    std::vector<CsvCell> qi_cells;
    for (std::size_t a = 0; a < schema.qi_count(); ++a) {
      qi_cells.emplace_back(schema.qi(static_cast<AttrId>(a)));
    }
    CsvCell sa_cell(schema.sensitive());
    // Every row of a QI-group shares the group's generalized QI cells:
    // render them once, then append only each row's SA cell.
    std::string prefix;
    for (GroupId g = 0; g < generalized.group_count(); ++g) {
      const std::vector<Value>& sig = generalized.signature(g);
      prefix.clear();
      for (std::size_t a = 0; a < sig.size(); ++a) {
        prefix += IsStar(sig[a]) ? std::string_view("*") : qi_cells[a](sig[a]);
        prefix += ',';
      }
      for (RowId r : generalized.rows(g)) {
        out.Append(prefix);
        out.Append(sa_cell(table.sa(r)));
        out.Append('\n');
      }
    }
  }, error);
}

std::optional<std::vector<ReleaseRow>> ReadReleaseCsv(const Schema& schema,
                                                      const std::string& path) {
  CsvReader reader(path, nullptr);
  std::vector<std::string> header;
  if (!reader.ReadHeader(&header)) return std::nullopt;

  std::vector<ReleaseRow> rows;
  std::vector<std::string_view> cells;
  while (reader.Next(&cells)) {
    if (cells.size() != schema.qi_count() + 1) return std::nullopt;
    ReleaseRow row;
    row.qi.resize(schema.qi_count());
    for (std::size_t a = 0; a < schema.qi_count(); ++a) {
      if (cells[a] == "*") {
        row.qi[a] = kStar;
      } else if (!ParseCsvValue(schema.qi(static_cast<AttrId>(a)), cells[a], &row.qi[a])) {
        return std::nullopt;
      }
    }
    if (!ParseCsvValue(schema.sensitive(), cells.back(), &row.sa)) return std::nullopt;
    rows.push_back(std::move(row));
  }
  if (reader.failed()) return std::nullopt;
  return rows;
}

}  // namespace ldv
