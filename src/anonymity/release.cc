#include "anonymity/release.h"

#include "common/csv.h"

namespace ldv {

bool WriteReleaseCsv(const Table& table, const GeneralizedTable& generalized,
                     const std::string& path, std::string* error) {
  return WriteOutputFile(path, failpoint::Site::kReleaseWrite, [&](std::ostream& out) {
    const Schema& schema = table.schema();
    for (std::size_t a = 0; a < schema.qi_count(); ++a) {
      out << CsvEscapeCell(schema.qi(static_cast<AttrId>(a)).name) << ",";
    }
    out << CsvEscapeCell(schema.sensitive().name) << "\n";
    for (GroupId g = 0; g < generalized.group_count(); ++g) {
      const std::vector<Value>& sig = generalized.signature(g);
      for (RowId r : generalized.rows(g)) {
        for (std::size_t a = 0; a < sig.size(); ++a) {
          if (IsStar(sig[a])) {
            out << "*,";
          } else {
            out << DecodeCsvValue(schema.qi(static_cast<AttrId>(a)), sig[a]) << ",";
          }
        }
        out << DecodeCsvValue(schema.sensitive(), table.sa(r)) << "\n";
      }
    }
  }, error);
}

std::optional<std::vector<ReleaseRow>> ReadReleaseCsv(const Schema& schema,
                                                      const std::string& path) {
  CsvReader reader(path, nullptr);
  std::vector<std::string> cells;
  if (!reader.ReadHeader(&cells)) return std::nullopt;

  std::vector<ReleaseRow> rows;
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
