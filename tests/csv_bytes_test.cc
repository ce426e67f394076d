// Golden-bytes tests for the files ldiv writes: the release of every
// registry algorithm on micro.csv, a raw input whose labels need CSV
// quoting (suppression release, Anatomy pair, dictionary sidecar), the
// --emit-input copy and the --no-timings reports are pinned by size and
// FNV-1a hash; releases longer than two write blocks are compared byte for
// byte with the plain per-cell renderer kept below. The pinned values are the
// bytes of the std::ostream writer; any change to them is a format change.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "anonymity/release.h"
#include "common/csv.h"
#include "core/anonymizer.h"
#include "data/dataset.h"
#include "engine/engine.h"
#include "engine/report.h"

namespace ldv {
namespace {

std::string DataPath(const std::string& name) {
  // ctest may run from the build directory; fall back to the source dir.
  std::string relative = "tests/data/" + name;
  std::ifstream probe(relative);
  if (probe.good()) return relative;
  return std::string(LDIV_SOURCE_DIR) + "/" + relative;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct Pinned {
  std::size_t size;
  std::uint64_t fnv;
};

void ExpectPinned(const std::string& path, Pinned want) {
  const std::string bytes = ReadFile(path);
  EXPECT_EQ(bytes.size(), want.size) << path;
  EXPECT_EQ(Fnv1a(bytes), want.fnv) << path << std::hex << ": 0x" << Fnv1a(bytes);
}

std::string Scratch(const std::string& name) { return testing::TempDir() + "csv_bytes_" + name; }

Table MicroTable() {
  Schema schema({Attribute{"Age", 79}, Attribute{"Gender", 2}, Attribute{"Race", 9}},
                Attribute{"Income", 50});
  CsvError error;
  std::optional<Table> table = ReadTableCsv(schema, DataPath("micro.csv"), &error);
  EXPECT_TRUE(table.has_value()) << error.ToString();
  return table.value_or(Table(schema));
}

// ---- the plain per-cell reference renderer -------------------------------

std::string ReferenceCell(const Attribute& attr, Value v) {
  return attr.has_dictionary() ? CsvEscapeCell(attr.dictionary.label(v)) : std::to_string(v);
}

std::string ReferenceHeader(const Schema& schema, const std::string& last) {
  std::string header;
  for (std::size_t a = 0; a < schema.qi_count(); ++a) {
    header += CsvEscapeCell(schema.qi(static_cast<AttrId>(a)).name) + ",";
  }
  return header + last + "\n";
}

std::string ReferenceRelease(const Table& table, const GeneralizedTable& generalized) {
  const Schema& schema = table.schema();
  std::ostringstream out;
  out << ReferenceHeader(schema, CsvEscapeCell(schema.sensitive().name));
  for (GroupId g = 0; g < generalized.group_count(); ++g) {
    const std::vector<Value>& sig = generalized.signature(g);
    for (RowId r : generalized.rows(g)) {
      for (std::size_t a = 0; a < sig.size(); ++a) {
        out << (IsStar(sig[a]) ? "*" : ReferenceCell(schema.qi(static_cast<AttrId>(a)), sig[a]))
            << ",";
      }
      out << ReferenceCell(schema.sensitive(), table.sa(r)) << "\n";
    }
  }
  return out.str();
}

std::string ReferenceAnatomyQit(const Table& table, const Partition& buckets) {
  const Schema& schema = table.schema();
  std::ostringstream out;
  out << ReferenceHeader(schema, "Bucket");
  for (GroupId g = 0; g < buckets.group_count(); ++g) {
    for (RowId r : buckets.group(g)) {
      for (AttrId a = 0; a < table.qi_count(); ++a) {
        out << ReferenceCell(schema.qi(a), table.qi(r, a)) << ",";
      }
      out << g << "\n";
    }
  }
  return out.str();
}

std::string ReferenceAnatomySt(const Table& table, const Partition& buckets) {
  const Schema& schema = table.schema();
  std::ostringstream out;
  out << "Bucket," << CsvEscapeCell(schema.sensitive().name) << ",Count\n";
  for (GroupId g = 0; g < buckets.group_count(); ++g) {
    std::vector<std::uint32_t> counts(schema.sa_domain_size(), 0);
    for (RowId r : buckets.group(g)) ++counts[table.sa(r)];
    for (SaValue v = 0; v < counts.size(); ++v) {
      if (counts[v] == 0) continue;
      out << g << "," << ReferenceCell(schema.sensitive(), v) << "," << counts[v] << "\n";
    }
  }
  return out.str();
}

// ---- pinned bytes ----------------------------------------------------------

TEST(CsvBytes, ReleaseOfEveryAlgorithmOnMicroCsv) {
  const Table table = MicroTable();
  struct Case {
    Algorithm algo;
    Pinned release;
  };
  const Case cases[] = {
      {Algorithm::kTp, {3381, 0x111567fc77d535b5ULL}},
      {Algorithm::kTpPlus, {3413, 0x652c4a983502bb55ULL}},
      {Algorithm::kHilbert, {3408, 0xf32e81e84daf7f48ULL}},
      {Algorithm::kMondrian, {3372, 0x9eb71fa1a0dadf44ULL}},
      {Algorithm::kAnatomy, {3964, 0xb8a2560c93cdf060ULL}},
      {Algorithm::kTds, {3368, 0xd6b2be90d18210eeULL}},
  };
  const Pinned anatomy_sa = {2925, 0x0f7fe155261a43e0ULL};
  for (const Case& c : cases) {
    SCOPED_TRACE(AlgorithmName(c.algo));
    AnonymizationOutcome outcome = Anonymize(table, 4, c.algo);
    ASSERT_TRUE(outcome.feasible);
    const std::string stem = Scratch(std::string(AlgorithmName(c.algo)));
    std::string error;
    ASSERT_TRUE(WriteReleaseForOutcome(table, outcome, stem, &error)) << error;
    ExpectPinned(stem + ".csv", c.release);
    if (c.algo == Algorithm::kAnatomy) ExpectPinned(stem + "_sa.csv", anatomy_sa);
  }
}

// Labels with a comma, an inner quote and a leading or trailing space must
// come back quoted in every file that prints them.
TEST(CsvBytes, RawLabelsThatNeedQuoting) {
  const std::string input = Scratch("quoting_input.csv");
  {
    // Every (City, Job) pair twice with two diseases, so TP keeps those
    // labels; the lone Lisboa row forces some stars.
    const char* cities[] = {"\"Porto, Norte\"", "\" Braga\"", "Faro", "Viseu"};
    const char* jobs[] = {"farmer", "nurse", "\"teacher \""};
    const char* diseases[] = {"\"flu \"\"A\"\"\"", "asthma", "diabetes"};
    std::ofstream out(input);
    out << "City,\"Job, title\",Disease\n";
    for (int c = 0; c < 4; ++c) {
      for (int j = 0; j < 3; ++j) {
        out << cities[c] << "," << jobs[j] << "," << diseases[(c + j) % 3] << "\n";
        out << cities[c] << "," << jobs[j] << "," << diseases[(c + j + 1) % 3] << "\n";
      }
    }
    out << "Lisboa,nurse,asthma\n";
  }
  CsvError csv_error;
  std::optional<Table> table = ReadRawTableCsv(input, &csv_error);
  ASSERT_TRUE(table.has_value()) << csv_error.ToString();

  std::string error;
  const std::string dict = Scratch("quoting_dict.csv");
  ASSERT_TRUE(WriteDictionaryCsv(table->schema(), dict, &error)) << error;
  ExpectPinned(dict, {225, 0xd5d974ccc883fbfaULL});

  AnonymizationOutcome tp = Anonymize(*table, 2, Algorithm::kTp);
  ASSERT_TRUE(tp.feasible);
  const std::string release = Scratch("quoting_tp");
  ASSERT_TRUE(WriteReleaseForOutcome(*table, tp, release, &error)) << error;
  ExpectPinned(release + ".csv", {637, 0xab567b271e156affULL});
  EXPECT_EQ(ReadFile(release + ".csv"), ReferenceRelease(*table, *tp.generalized));

  AnonymizationOutcome anatomy = Anonymize(*table, 2, Algorithm::kAnatomy);
  ASSERT_TRUE(anatomy.feasible);
  const std::string pair = Scratch("quoting_anatomy");
  ASSERT_TRUE(WriteReleaseForOutcome(*table, anatomy, pair, &error)) << error;
  ExpectPinned(pair + ".csv", {494, 0x6030802927e9d146ULL});
  ExpectPinned(pair + "_sa.csv", {356, 0xb0ccc5e021803677ULL});
  EXPECT_EQ(ReadFile(pair + ".csv"), ReferenceAnatomyQit(*table, anatomy.partition));
  EXPECT_EQ(ReadFile(pair + "_sa.csv"), ReferenceAnatomySt(*table, anatomy.partition));
}

// --emit-input writes the coded table back in the format it was read
// from, so micro.csv survives a load/emit round trip byte for byte; the
// engine's copy of a synthetic input and its --no-timings reports are
// pinned.
TEST(CsvBytes, EmitInputAndReports) {
  const std::string copy = Scratch("micro_copy.csv");
  std::string error;
  ASSERT_TRUE(WriteTableCsv(MicroTable(), copy, &error)) << error;
  EXPECT_EQ(ReadFile(copy), ReadFile(DataPath("micro.csv")));

  Engine engine;
  JobSpec spec;
  spec.dataset.name = "sal";
  spec.ns = {3000};
  spec.ds = {4};
  spec.algorithms = {Algorithm::kTp};
  spec.ls = {4};
  spec.timings = false;
  spec.emit_input = Scratch("emit.csv");
  spec.out = Scratch("emit_out");
  Expected<ExecuteSummary, PipelineError> summary = engine.Execute(spec);
  ASSERT_TRUE(summary.ok()) << summary.error().message;
  ExpectPinned(spec.emit_input, {34026, 0x0aead44ab061c677ULL});
  ExpectPinned(spec.out + ".csv", {31943, 0xa9ba5f70a0162802ULL});
  ExpectPinned(spec.out + ".json", {596, 0xd993420caf2f82a7ULL});
  ExpectPinned(spec.out + "_metrics.csv", {250, 0x1fdb0705b767d7f4ULL});
}

// A release longer than two write blocks, over attributes with and
// without dictionaries, matches the per-cell reference renderer byte for
// byte.
TEST(CsvBytes, MultiBlockReleasesMatchTheReferenceRenderer) {
  DatasetSpec dataset;
  dataset.name = "sal";
  dataset.n = 150000;
  dataset.d = 4;
  dataset.seed = 5;
  std::string error;
  std::optional<Table> coded = GenerateDataset(dataset, &error);
  ASSERT_TRUE(coded.has_value()) << error;

  // Attach quoting-prone labels to two QI attributes and the SA.
  const Schema& coded_schema = coded->schema();
  auto labelled = [](const Attribute& attr, const std::string& tag) {
    ValueDictionary dictionary;
    for (Value v = 0; v < attr.domain_size; ++v) {
      dictionary.GetOrAdd(v % 3 == 0   ? tag + "," + std::to_string(v)
                          : v % 3 == 1 ? tag + "\"" + std::to_string(v) + "\""
                                       : " " + tag + std::to_string(v));
    }
    return Attribute(attr.name, attr.domain_size, std::move(dictionary));
  };
  std::vector<Attribute> qi = {labelled(coded_schema.qi(0), "age"), coded_schema.qi(1),
                               labelled(coded_schema.qi(2), "edu"), coded_schema.qi(3)};
  std::vector<std::vector<Value>> columns;
  for (AttrId a = 0; a < coded->qi_count(); ++a) {
    columns.emplace_back(coded->column(a).begin(), coded->column(a).end());
  }
  const Table table = Table::FromColumns(
      Schema(std::move(qi), labelled(coded_schema.sensitive(), "sa")), std::move(columns),
      std::vector<SaValue>(coded->sa_column().begin(), coded->sa_column().end()));

  AnonymizerOptions options;
  options.compute_kl = false;
  AnonymizationOutcome tp = Anonymize(table, 4, Algorithm::kTp, options);
  ASSERT_TRUE(tp.feasible);
  const std::string release = Scratch("multi_block.csv");
  ASSERT_TRUE(WriteReleaseCsv(table, *tp.generalized, release, &error)) << error;
  const std::string bytes = ReadFile(release);
  EXPECT_GT(bytes.size(), 2 * kCsvBlockBytes);
  EXPECT_TRUE(bytes == ReferenceRelease(table, *tp.generalized));
  std::remove(release.c_str());

  AnonymizationOutcome anatomy = Anonymize(table, 4, Algorithm::kAnatomy, options);
  ASSERT_TRUE(anatomy.feasible);
  const std::string pair = Scratch("multi_block_anatomy");
  ASSERT_TRUE(WriteReleaseForOutcome(table, anatomy, pair, &error)) << error;
  const std::string qit = ReadFile(pair + ".csv");
  EXPECT_GT(qit.size(), 2 * kCsvBlockBytes);
  EXPECT_TRUE(qit == ReferenceAnatomyQit(table, anatomy.partition));
  EXPECT_TRUE(ReadFile(pair + "_sa.csv") == ReferenceAnatomySt(table, anatomy.partition));
  std::remove((pair + ".csv").c_str());
  std::remove((pair + "_sa.csv").c_str());
}

}  // namespace
}  // namespace ldv
