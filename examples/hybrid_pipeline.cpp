// End-to-end publication pipeline (Section 5.6's deployment guidance):
// 1. coarsen large-domain QI attributes HIPAA-style (dates -> years, ZIP ->
//    3-digit prefixes) before anonymization,
// 2. run TP+ on the coarsened table,
// 3. export the generalized release to CSV for off-the-shelf statistics
//    packages (the suppression-format advantage of Section 2).
//
//   build/examples/hybrid_pipeline [output.csv]

#include <cstdio>
#include <string>

#include "anonymity/generalization.h"
#include "anonymity/release.h"
#include "common/csv.h"
#include "common/rng.h"
#include "core/algorithm.h"

using namespace ldv;

namespace {

// Raw microdata with large-domain QIs: BirthYearMonth (600 values ~ 50
// years x 12 months) and ZipCode (1000 5-digit-style codes).
Table RawMicrodata(std::size_t n) {
  Schema schema({Attribute{"BirthYearMonth", 600}, Attribute{"ZipCode", 1000},
                 Attribute{"Gender", 2}},
                Attribute{"Condition", 12});
  Table table(schema);
  Rng rng(7);
  ZipfSampler zip(1000, 1.0);
  // Skew kept below 1/l so the 4-diverse release stays feasible.
  ZipfSampler condition(12, 0.5);
  std::vector<Value> row(3);
  for (std::size_t i = 0; i < n; ++i) {
    row[0] = rng.Below(600);
    row[1] = zip.Sample(rng);
    row[2] = rng.Below(2);
    table.AppendRow(row, condition.Sample(rng));
  }
  return table;
}

// The HIPAA-style preprocessing of Section 5.6: keep only the year of the
// birth date and the first "digits" of the ZIP code.
Table CoarsenForHipaa(const Table& raw) {
  Schema schema({Attribute{"BirthYear", 50}, Attribute{"Zip3", 100}, Attribute{"Gender", 2}},
                raw.schema().sensitive());
  Table out(schema);
  out.Reserve(raw.size());
  std::vector<Value> row(3);
  for (RowId r = 0; r < raw.size(); ++r) {
    row[0] = raw.qi(r, 0) / 12;  // year-month -> year
    row[1] = raw.qi(r, 1) / 10;  // 5-digit -> 3-digit prefix
    row[2] = raw.qi(r, 2);
    out.AppendRow(row, raw.sa(r));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string output = argc > 1 ? argv[1] : "anonymized_release.csv";
  const std::uint32_t l = 4;

  Table raw = RawMicrodata(30000);
  std::printf("Raw microdata: %s, %zu rows\n", raw.schema().ToString().c_str(), raw.size());

  // Without coarsening, nearly every tuple has a unique QI signature and
  // TP suppresses almost everything (the Section 5.6 degradation).
  const Anonymizer& tpp = AlgorithmRegistry::Global().Get(Algorithm::kTpPlus);
  AnonymizationOutcome direct = tpp.Run(raw, l);
  if (!direct.feasible) {
    std::printf("raw data is not %u-eligible; aborting\n", l);
    return 1;
  }
  std::printf("TP+ directly on raw data: %llu stars, %llu of %zu tuples suppressed\n",
              static_cast<unsigned long long>(direct.stars),
              static_cast<unsigned long long>(direct.suppressed_tuples), raw.size());

  Table coarse = CoarsenForHipaa(raw);
  std::printf("\nAfter HIPAA coarsening: %s\n", coarse.schema().ToString().c_str());
  AnonymizationOutcome refined = tpp.Run(coarse, l);
  if (!refined.feasible) {
    std::printf("coarsened data is not %u-eligible; aborting\n", l);
    return 1;
  }
  std::printf("TP+ on coarsened data:   %llu stars, %llu of %zu tuples suppressed\n",
              static_cast<unsigned long long>(refined.stars),
              static_cast<unsigned long long>(refined.suppressed_tuples), coarse.size());

  // Export the release in the suppression format of Section 2: starred
  // cells are emitted as '*', which statistics packages read as missing
  // values. The outcome already carries the generalized view.
  std::string write_error;
  if (WriteReleaseCsv(coarse, *refined.generalized, output, &write_error)) {
    std::printf("\nWrote the l-diverse release (%zu QI-groups) to %s\n",
                refined.partition.group_count(), output.c_str());
  } else {
    std::fprintf(stderr, "%s\n", write_error.c_str());
  }

  std::printf("\nPipeline summary: coarsening cut suppression from %.1f%% to %.1f%% of tuples.\n",
              100.0 * static_cast<double>(direct.suppressed_tuples) / raw.size(),
              100.0 * static_cast<double>(refined.suppressed_tuples) / coarse.size());
  return 0;
}
